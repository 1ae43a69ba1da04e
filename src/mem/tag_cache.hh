/**
 * @file
 * Generic set-associative tag store with LRU replacement.
 *
 * Used for the unified L1 (timing only — write-through keeps the
 * backing store current, so data never needs to live in L1), for the
 * MultiVLIW per-cluster slices, for the word-interleaved slices, and
 * (fully associative, word-grained) for the Attraction Buffers.
 */

#ifndef L0VLIW_MEM_TAG_CACHE_HH
#define L0VLIW_MEM_TAG_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace l0vliw::mem
{

/** Set-associative LRU tag store. */
class TagCache
{
  public:
    /**
     * @param size_bytes total capacity
     * @param assoc ways per set (pass sets*ways == entries for fully
     *        associative by using one set)
     * @param block_bytes block (line) granularity
     */
    TagCache(std::uint64_t size_bytes, int assoc, int block_bytes);

    /** Fully associative constructor: @p entries blocks of @p block_bytes. */
    static TagCache fullyAssociative(int entries, int block_bytes);

    /**
     * Look up the block containing @p addr.
     * @param allocate insert (with LRU eviction) on a miss
     * @return true on hit
     */
    bool access(Addr addr, bool allocate);

    /** Non-mutating probe. */
    bool present(Addr addr) const;

    /** Drop the block containing @p addr. @return true if it was there. */
    bool invalidate(Addr addr);

    /** Drop everything. */
    void clear();

    /** Block-aligned base of the block containing @p addr. */
    Addr blockAddr(Addr addr) const
    {
        return addr & ~static_cast<Addr>(blockBytes - 1);
    }

    int numSets() const { return sets; }
    int numWays() const { return ways; }

    /**
     * Append the fold key (MemSystem::stateKey): per set, the valid
     * tags in LRU order (see appendLruOrder()).
     */
    void appendKey(std::vector<std::uint64_t> &key) const;

    /**
     * Append the tag store as it is, two words a way (its tag and its
     * last use): a copy, cheaper than appendKey(), for matchesRaw().
     */
    void appendRaw(std::vector<std::uint64_t> &out) const;

    /**
     * True iff appendKey() now equals appendKey() of the cache (of
     * this geometry) whose appendRaw() wrote @p raw; advances @p raw
     * past it. A set no use has touched since compares as raw words;
     * only a touched one is put in LRU order.
     */
    bool matchesRaw(const std::uint64_t *&raw) const;

  private:
    /** A way's tag while it holds no block: no block address is
     *  anywhere near it. */
    static constexpr Addr kNoTag = ~0ULL;

    /** One way: invalid ways hold (kNoTag, 0), so two tag stores in
     *  the same state are the same words. */
    struct Way
    {
        Addr tag = kNoTag;
        std::uint64_t lastUse = 0;
    };

    /** Set of @p addr: a shift and a mask, with no per-access
     *  power-of-two test (a divide only for a non-power-of-two set
     *  count, which no Table 2 cache has). */
    int
    setIndex(Addr addr) const
    {
        const Addr block = addr >> blockShift;
        return static_cast<int>(setMask != kNoMask ? block & setMask
                                                   : block % sets);
    }

    /** Same valid tags in the same LRU order: the set @p now and the
     *  appendRaw() words @p was of one give the same appendKey(). */
    bool sameLruOrder(const std::uint64_t *was, const Way *now) const;

    static constexpr Addr kNoMask = ~0ULL;

    int sets;
    int ways;
    int blockBytes;
    unsigned blockShift; ///< log2(blockBytes)
    Addr setMask;        ///< sets - 1, or kNoMask if sets is no power of 2
    std::uint64_t useClock = 0;
    std::vector<Way> store; // sets * ways, row-major by set
};

} // namespace l0vliw::mem

#endif // L0VLIW_MEM_TAG_CACHE_HH
