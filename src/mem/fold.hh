/**
 * @file
 * Helpers for the memory systems' fold hooks (MemSystem::stateKey and
 * friends), which let sim::KernelPlan::run prove that an invocation
 * repeats the previous one exactly and skip simulating it.
 */

#ifndef L0VLIW_MEM_FOLD_HH
#define L0VLIW_MEM_FOLD_HH

#include <algorithm>
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
 * Append the valid items 0..@p n-1 of a set to a fold key: their
 * count, then @p emit(i) of each in LRU order (least recently used
 * first). This is the canonical form of a set of interchangeable ways:
 * hits, victims and invalidations depend only on which items are valid
 * and the order they were used in — not on the raw use clock, which
 * keeps growing across invocations, nor on which way an item sits in.
 * Every use takes a fresh tick, so valid items never share a
 * @p stamp(i) and the order is total.
 */
template <typename Valid, typename Stamp, typename Emit>
void
appendLruOrder(std::size_t n, Valid valid, Stamp stamp,
               std::vector<std::uint64_t> &key, Emit emit)
{
    // Sort the valid items by stamp: keys are built twice per
    // simulated invocation, over every set of every cache, so this
    // must neither allocate per call nor go quadratic in a large set.
    // Sets of up to 16 ways (every cache set, bounded L0 buffers)
    // sort on the stack, larger ones in a per-thread buffer.
    struct Item
    {
        std::uint64_t stamp;
        std::size_t index;
    };
    constexpr std::size_t kSmall = 16;
    Item small[kSmall]; // trivial: no per-call initialisation
    thread_local std::vector<Item> large;
    Item *order = small;
    if (n > kSmall) {
        large.resize(n);
        order = large.data();
    }
    std::size_t count = 0;
    for (std::size_t i = 0; i < n; ++i)
        if (valid(i))
            order[count++] = Item{stamp(i), i};
    std::sort(order, order + count, [](const Item &a, const Item &b) {
        return a.stamp < b.stamp;
    });
    key.push_back(count);
    for (std::size_t k = 0; k < count; ++k)
        emit(order[k].index);
}

} // namespace l0vliw::mem

#endif // L0VLIW_MEM_FOLD_HH
