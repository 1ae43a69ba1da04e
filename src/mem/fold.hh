/**
 * @file
 * Helpers for the memory systems' fold hooks (MemSystem::stateKey and
 * friends), which let sim::KernelPlan::run prove that an invocation
 * repeats the previous one exactly and skip simulating it.
 */

#ifndef L0VLIW_MEM_FOLD_HH
#define L0VLIW_MEM_FOLD_HH

#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/types.hh"

namespace l0vliw::mem
{

/**
 * Append a HotCounters struct to a counter snapshot. The struct is a
 * flat run of uint64_t fields, so it is copied as one array: a counter
 * added to the struct is in the snapshot without further code.
 */
template <typename Hot>
void
appendHot(const Hot &hot, std::vector<std::uint64_t> &out)
{
    static_assert(std::is_trivially_copyable_v<Hot>
                      && sizeof(Hot) % sizeof(std::uint64_t) == 0,
                  "HotCounters must hold only uint64_t fields");
    const std::size_t n = out.size();
    out.resize(n + sizeof(Hot) / sizeof(std::uint64_t));
    std::memcpy(out.data() + n, &hot, sizeof(Hot));
}

/** Add appendHot()-shaped @p delta to @p hot; @return the rest. */
template <typename Hot>
const std::uint64_t *
addHot(Hot &hot, const std::uint64_t *delta)
{
    constexpr std::size_t n = sizeof(Hot) / sizeof(std::uint64_t);
    std::uint64_t v[n];
    std::memcpy(v, &hot, sizeof(Hot));
    for (std::size_t i = 0; i < n; ++i)
        v[i] += delta[i];
    std::memcpy(&hot, v, sizeof(Hot));
    return delta + n;
}

/** An absolute cycle as a key: relative to @p start, clamped at 0. */
inline std::uint64_t
relativeCycle(Cycle c, Cycle start)
{
    return c > start ? c - start : 0;
}

/** MemSystem::shiftTime() applied to one absolute-cycle field. */
inline void
shiftCycle(Cycle &c, Cycle from, Cycle to)
{
    if (c > from)
        c += to - from;
}

/**
 * Append the valid items of the set [@p begin, @p end) to a fold key:
 * their count, then @p emit of each in LRU order (least recently used
 * first). This is the canonical form of a set of interchangeable ways:
 * hits, victims and invalidations depend only on which items are valid
 * and the order they were used in — not on the raw use clock, which
 * keeps growing across invocations, nor on which way an item sits in.
 * Every use takes a fresh tick, so valid items never share a
 * lastUse and the order is total.
 */
template <typename T, typename Emit>
void
appendLruOrder(const T *begin, const T *end,
               std::vector<std::uint64_t> &key, Emit emit)
{
    const std::size_t count_at = key.size();
    key.push_back(0);
    const T *prev = nullptr;
    for (;;) {
        const T *next = nullptr;
        for (const T *it = begin; it != end; ++it)
            if (it->valid && (!prev || it->lastUse > prev->lastUse)
                && (!next || it->lastUse < next->lastUse))
                next = it;
        if (!next)
            return;
        ++key[count_at];
        emit(*next);
        prev = next;
    }
}

} // namespace l0vliw::mem

#endif // L0VLIW_MEM_FOLD_HH
