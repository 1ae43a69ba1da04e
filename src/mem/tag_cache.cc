#include "mem/tag_cache.hh"

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
        if (way.valid && way.tag == tag) {
            way.lastUse = ++useClock;
            return true;
        }
        if (!way.valid) {
            victim = &way;
        } else if (victim->valid && way.lastUse < victim->lastUse) {
            victim = &way;
        }
    }
    if (allocate) {
        victim->valid = true;
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
        if (base[w].valid && base[w].tag == tag)
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
        if (base[w].valid && base[w].tag == tag) {
            base[w].valid = false;
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
            [set](std::size_t w) { return set[w].valid; },
            [set](std::size_t w) { return set[w].lastUse; }, key,
            [set, &key](std::size_t w) { key.push_back(set[w].tag); });
    }
}

void
TagCache::clear()
{
    for (auto &w : store)
        w.valid = false;
}

} // namespace l0vliw::mem
