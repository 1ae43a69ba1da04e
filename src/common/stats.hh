/**
 * @file
 * Lightweight named statistic counters.
 *
 * Components expose a StatSet; the driver merges and prints them. This
 * deliberately mirrors the shape (not the code) of gem5's stats package:
 * named scalar counters grouped per component, dumped in a stable order.
 */

#ifndef L0VLIW_COMMON_STATS_HH
#define L0VLIW_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace l0vliw
{

/** An ordered collection of named 64-bit counters. */
class StatSet
{
  public:
    /** Add @p delta to counter @p name (creating it at zero). */
    void
    add(const std::string &name, std::uint64_t delta = 1)
    {
        counters[name] += delta;
    }

    /** Read counter @p name (zero if absent). */
    std::uint64_t
    get(const std::string &name) const
    {
        auto it = counters.find(name);
        return it == counters.end() ? 0 : it->second;
    }

    /** Set counter @p name to an absolute value. */
    void
    set(const std::string &name, std::uint64_t value)
    {
        counters[name] = value;
    }

    /** Merge all counters of @p other into this set. */
    void
    merge(const StatSet &other)
    {
        for (const auto &kv : other.counters)
            counters[kv.first] += kv.second;
    }

    /** Reset every counter to zero. */
    void clear() { counters.clear(); }

    /** Stable iteration for printing. */
    const std::map<std::string, std::uint64_t> &all() const
    {
        return counters;
    }

  private:
    std::map<std::string, std::uint64_t> counters;
};

/** Arithmetic mean of a vector (the paper's AMEAN column). */
inline double
amean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0;
    double sum = 0;
    for (double x : xs)
        sum += x;
    return sum / xs.size();
}

} // namespace l0vliw

#endif // L0VLIW_COMMON_STATS_HH
