/**
 * @file
 * The label-to-factory registry behind driver::archRegistry() and
 * workloads::workloadRegistry(): both sides of the (benchmark,
 * architecture) grid are named by string, and those strings are the
 * cell's identity on the wire and in the store (ARCHITECTURE.md
 * invariant 1).
 *
 * A label resolves through a registered name, then the owner's
 * parametric grammar. A grammar result is accepted only when the value
 * it builds carries exactly the label asked for — so a grammar that
 * tolerates a stray spelling ("l0-8-", "l0-08") can never mint a
 * second identity for one machine: every value has one spelling.
 * The grammars read their numbers with parseDecimal()
 * (common/decimal.hh), strict in the same spirit.
 *
 * Registration happens at first use of the process-wide instance;
 * resolution is read-only and safe to call concurrently once
 * registration stops.
 */

#ifndef L0VLIW_COMMON_LABEL_REGISTRY_HH
#define L0VLIW_COMMON_LABEL_REGISTRY_HH

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace l0vliw
{

/** Label-to-factory registry of @p T values labelled by @p Label. */
template <typename T, std::string T::*Label>
class LabelRegistry
{
  public:
    using Factory = std::function<T()>;
    /** The parametric fallback: builds a value, or nothing. */
    using Grammar = std::optional<T> (*)(const std::string &);

    /** @p kind names a value in fatal messages ("architecture");
     *  @p hint lists the accepted spellings for resolve()'s. */
    LabelRegistry(const char *kind, Grammar grammar, const char *hint)
        : kind_(kind), grammar_(grammar), hint_(hint)
    {
    }

    /** Register @p factory under @p name (fatal on duplicates). */
    void
    add(const std::string &name, Factory factory)
    {
        if (find(name) != nullptr)
            fatal("%s '%s' registered twice", kind_, name.c_str());
        order_.push_back(name);
        factories_.emplace_back(name, std::move(factory));
    }

    /**
     * Resolve @p label: a registered name, else a grammar result whose
     * own label is @p label. Empty on unknown labels.
     */
    std::optional<T>
    tryResolve(const std::string &label) const
    {
        if (const Factory *f = find(label))
            return (*f)();
        std::optional<T> parsed = grammar_(label);
        if (parsed && (*parsed).*Label != label)
            return std::nullopt;
        return parsed;
    }

    /** tryResolve(), but fatal on unknown labels. */
    T
    resolve(const std::string &label) const
    {
        std::optional<T> value = tryResolve(label);
        if (!value)
            fatal("unknown %s '%s' (try %s)", kind_, label.c_str(),
                  hint_);
        return *value;
    }

    /** The registered canonical labels, in registration order. */
    const std::vector<std::string> &names() const { return order_; }

  private:
    const Factory *
    find(const std::string &name) const
    {
        for (const auto &kv : factories_)
            if (kv.first == name)
                return &kv.second;
        return nullptr;
    }

    const char *kind_;
    Grammar grammar_;
    const char *hint_;
    std::vector<std::string> order_;
    std::vector<std::pair<std::string, Factory>> factories_;
};

} // namespace l0vliw

#endif // L0VLIW_COMMON_LABEL_REGISTRY_HH
