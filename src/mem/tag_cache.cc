#include "mem/tag_cache.hh"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "common/intmath.hh"
#include "common/logging.hh"
#include "mem/fold.hh"

namespace l0vliw::mem
{

TagCache::TagCache(std::uint64_t size_bytes, int assoc, int block_bytes)
    : sets(static_cast<int>(size_bytes / (assoc * block_bytes))),
      ways(assoc), blockBytes(block_bytes)
{
    L0_ASSERT(sets >= 1 && ways >= 1, "cache too small");
    L0_ASSERT(isPow2(static_cast<std::uint32_t>(blockBytes)),
              "block size must be a power of two");
    blockShift = static_cast<unsigned>(__builtin_ctz(blockBytes));
    setMask = isPow2(static_cast<std::uint32_t>(sets))
                  ? static_cast<Addr>(sets - 1)
                  : kNoMask;
    store.resize(static_cast<std::size_t>(sets) * ways);
}

TagCache
TagCache::fullyAssociative(int entries, int block_bytes)
{
    return TagCache(static_cast<std::uint64_t>(entries) * block_bytes,
                    entries, block_bytes);
}

bool
TagCache::access(Addr addr, bool allocate)
{
    Addr tag = blockAddr(addr);
    int s = setIndex(addr);
    Way *base = &store[static_cast<std::size_t>(s) * ways];
    Way *victim = base;
    for (int w = 0; w < ways; ++w) {
        Way &way = base[w];
        if (way.tag == tag) {
            way.lastUse = ++useClock;
            return true;
        }
        if (way.tag == kNoTag) {
            victim = &way;
        } else if (victim->tag != kNoTag
                   && way.lastUse < victim->lastUse) {
            victim = &way;
        }
    }
    if (allocate) {
        victim->tag = tag;
        victim->lastUse = ++useClock;
    }
    return false;
}

bool
TagCache::present(Addr addr) const
{
    Addr tag = blockAddr(addr);
    int s = setIndex(addr);
    const Way *base = &store[static_cast<std::size_t>(s) * ways];
    for (int w = 0; w < ways; ++w)
        if (base[w].tag == tag)
            return true;
    return false;
}

bool
TagCache::invalidate(Addr addr)
{
    Addr tag = blockAddr(addr);
    int s = setIndex(addr);
    Way *base = &store[static_cast<std::size_t>(s) * ways];
    for (int w = 0; w < ways; ++w) {
        if (base[w].tag == tag) {
            base[w] = Way{};
            return true;
        }
    }
    return false;
}

void
TagCache::appendKey(std::vector<std::uint64_t> &key) const
{
    for (std::size_t s = 0; s < store.size(); s += ways) {
        const Way *set = &store[s];
        appendLruOrder(
            static_cast<std::size_t>(ways),
            [set](std::size_t w) { return set[w].tag != kNoTag; },
            [set](std::size_t w) { return set[w].lastUse; }, key,
            [set, &key](std::size_t w) { key.push_back(set[w].tag); });
    }
}

void
TagCache::appendRaw(std::vector<std::uint64_t> &out) const
{
    static_assert(sizeof(Way) == 2 * sizeof(std::uint64_t)
                      && std::is_trivially_copyable_v<Way>,
                  "a way is two words");
    const std::size_t n = out.size();
    out.resize(n + 2 * store.size());
    std::memcpy(out.data() + n, store.data(), store.size() * sizeof(Way));
}

bool
TagCache::matchesRaw(const std::uint64_t *&raw) const
{
    const std::uint64_t *set_raw = raw;
    raw += 2 * store.size();
    for (std::size_t s = 0; s < store.size();
         s += ways, set_raw += 2 * ways) {
        // A set no use touched since is the same words; a touched one
        // must hold the same tags in the same LRU order.
        if (std::memcmp(set_raw, &store[s], ways * sizeof(Way)) != 0
            && !sameLruOrder(set_raw, &store[s]))
            return false;
    }
    return true;
}

bool
TagCache::sameLruOrder(const std::uint64_t *was, const Way *now) const
{
    // Each set's valid tags by LRU rank, as appendKey() lists them.
    // Every use takes a fresh tick, so a set's ranks are distinct.
    constexpr int kSmall = 16;
    thread_local std::vector<Addr> large_was, large_now;
    Addr small_was[kSmall], small_now[kSmall];
    Addr *by_rank_was = small_was, *by_rank_now = small_now;
    if (ways > kSmall) {
        large_was.resize(ways);
        large_now.resize(ways);
        by_rank_was = large_was.data();
        by_rank_now = large_now.data();
    }
    auto rank = [this](auto tag, auto last_use, Addr *by_rank) {
        int count = 0;
        for (int i = 0; i < ways; ++i) {
            if (tag(i) == kNoTag)
                continue;
            int r = 0;
            for (int j = 0; j < ways; ++j)
                r += tag(j) != kNoTag && last_use(j) < last_use(i);
            by_rank[r] = tag(i);
            ++count;
        }
        return count;
    };
    const int count = rank([was](int w) { return was[2 * w]; },
                           [was](int w) { return was[2 * w + 1]; },
                           by_rank_was);
    return count == rank([now](int w) { return now[w].tag; },
                         [now](int w) { return now[w].lastUse; },
                         by_rank_now)
           && std::equal(by_rank_was, by_rank_was + count, by_rank_now);
}

void
TagCache::clear()
{
    for (auto &w : store)
        w = Way{};
}

} // namespace l0vliw::mem
