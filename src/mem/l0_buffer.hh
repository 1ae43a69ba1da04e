/**
 * @file
 * The flexible compiler-managed L0 buffer (paper Section 3).
 *
 * Each cluster owns one L0 buffer: a small, fully associative,
 * LRU-replaced array of subblocks. A subblock is an L1 block divided by
 * the number of clusters (8 bytes for Table 2's 32-byte blocks and 4
 * clusters). Two entry flavours exist, matching the two mapping hints:
 *
 *  - linear: 8 consecutive bytes of an L1 block (one of its N
 *    "sub-slots"), filled into the accessing cluster only;
 *  - interleaved: the elements of an L1 block whose index is congruent
 *    to a residue modulo N, at a dynamic element granularity (the
 *    interleaving factor, taken from the access size). A single fill
 *    spreads all N residues across the N clusters.
 *
 * The buffer is write-through and non-write-allocate: stores update at
 * most one matching local entry and *invalidate* any other local
 * duplicates (the paper keeps a single write port), and invalidate-all
 * is a constant-latency operation because no dirty data can exist.
 *
 * Data physically lives in the entries, as little-endian 64-bit payload
 * words (an entry's subblock bytes, packed densely): a load that hits a
 * stale entry returns a stale value. The coherence oracle in src/sim
 * depends on this to prove the compiler's coherence management correct.
 *
 * The buffer is laid out as dense per-slot arrays — block address
 * (validity), LRU stamp, shape and payload — plus a block-tag index:
 * slots are chained by block address in a small hash table, so an
 * access probes only the slots of its own L1 block instead of
 * scanning the buffer (an unbounded buffer holds hundreds of slots).
 * Which slot wins — the most recently used match — does not depend on
 * the probe order. An unbounded buffer reuses its slots across loops:
 * the flush only forgets them.
 */

#ifndef L0VLIW_MEM_L0_BUFFER_HH
#define L0VLIW_MEM_L0_BUFFER_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "ir/hints.hh"
#include "mem/fold.hh"

namespace l0vliw::mem
{

/** Result of an L0 lookup. */
struct L0Lookup
{
    bool hit = false;
    /** Hit touched the highest-addressed element of the subblock. */
    bool lastElement = false;
    /** Hit touched the lowest-addressed element of the subblock. */
    bool firstElement = false;
    /** Hit: the size bytes read, little-endian. */
    std::uint64_t value = 0;
};

/** A single cluster's flexible L0 buffer. */
class L0Buffer
{
  public:
    /**
     * @param num_entries entries in this buffer; < 0 means unbounded
     * @param subblock_bytes subblock size (L1 block / clusters)
     * @param num_clusters N, the interleaving modulus
     */
    L0Buffer(int num_entries, int subblock_bytes, int num_clusters);

    /**
     * Probe for [addr, addr+size) (1 <= size <= 8). A hit carries the
     * value read and updates LRU.
     */
    L0Lookup lookup(Addr addr, int size);

    /**
     * Fill one linear subblock: sub-slot @p sub_index of the L1 block
     * at @p block_addr. @p sub_words holds its subblockBytes of
     * payload, little-endian, in words.
     */
    void fillLinear(Addr block_addr, int sub_index,
                    const std::uint64_t *sub_words);

    /**
     * Fill one interleaved subblock holding the elements of
     * @p block_addr whose element index is congruent to @p residue
     * (mod N) at granularity @p factor. @p block_words holds the whole
     * L1 block, little-endian, in words; the entry packs its residue's
     * elements densely.
     */
    void fillInterleaved(Addr block_addr, int factor, int residue,
                         const std::uint64_t *block_words);

    /**
     * Write-through store update: write the low @p size bytes of
     * @p value into the most recently used matching entry and
     * invalidate every other matching entry (single write port,
     * Section 4.1). @return true if any entry matched.
     */
    bool store(Addr addr, int size, std::uint64_t value);

    /** PSR non-primary replica: invalidate all matching entries. */
    void invalidateMatching(Addr addr, int size);

    /** invalidate_buffer instruction: drop everything, O(1) latency. */
    void invalidateAll();

    /** True when a subblock with these exact parameters is present. */
    bool hasLinear(Addr block_addr, int sub_index) const;
    bool hasInterleaved(Addr block_addr, int factor, int residue) const;

    /** Number of valid entries (for capacity tests). */
    int validEntries() const;

    int capacity() const { return numEntries; }
    bool unbounded() const { return numEntries < 0; }

    /** Add this buffer's nonzero counters to @p out by name (see
     *  addNamed()). */
    void addStats(StatSet &out) const { addNamed(hot, out); }

    // ---- fold hooks (see MemSystem::stateKey) ----

    /**
     * Append the valid entries in LRU order (see appendLruOrder()):
     * block, kind, index, factor and payload words of each.
     */
    void appendKey(std::vector<std::uint64_t> &key) const;

    void appendCounters(std::vector<std::uint64_t> &out) const
    {
        appendHot(hot, out);
    }

    /** Add a counter delta; @return the rest of @p delta. */
    const std::uint64_t *addCounters(const std::uint64_t *delta)
    {
        return addHot(hot, delta);
    }

  private:
    /** The shape of one slot's subblock. */
    struct Shape
    {
        ir::MapHint kind = ir::MapHint::LinearMap;
        /** Linear: sub-slot index (0..N-1). Interleaved: residue. */
        int index = 0;
        /** Interleaved only: element granularity in bytes (1/2/4/8). */
        int factor = 0;
    };

    /**
     * True when valid slot @p i holds all bytes of [addr, addr+size).
     * The caller has already checked addr against its block
     * (quick[i] == addr & blockMask).
     */
    bool containsInBlock(std::size_t i, Addr addr, int size) const;

    /** First slot chained under @p block's bucket, or kEnd. */
    std::int32_t
    chain(Addr block) const
    {
        return head[(block >> blockShift) & (head.size() - 1)];
    }

    /**
     * Call @p f(i) for every valid slot of L1 block @p block, in chain
     * order. Callers' results do not depend on that order.
     */
    template <typename F>
    void
    forEachInBlock(Addr block, F f) const
    {
        for (std::int32_t i = chain(block); i != kEnd; i = next[i])
            if (quick[i] == block)
                f(static_cast<std::size_t>(i));
    }

    /** Chain slot @p i under @p block (unchaining it first). */
    void link(std::size_t i, Addr block);

    /** Rebuild an empty index of @p buckets (a power of two) and chain
     *  every slot that has a block. */
    void rehash(std::size_t buckets);

    /** Byte offset inside slot @p i's payload for @p addr (the slot
     *  contains it). */
    unsigned payloadOffset(std::size_t i, Addr addr) const;

    /** Slot @p i's payload words. */
    std::uint64_t *words(std::size_t i)
    {
        return payload.data() + i * static_cast<std::size_t>(wordsPerEntry);
    }

    /** Pick a slot for a new entry (invalid first, else LRU victim). */
    std::size_t victimIndex();

    /** Give a slot @p shape at @p block_addr, most recently used. */
    void claim(std::size_t i, Addr block_addr, Shape shape);

    /** Pack residue's elements of an L1 block densely into slot @p i. */
    void gatherResidue(std::size_t i, const std::uint64_t *block_words,
                       int factor, int residue);

    /**
     * Per-access counters as plain integers: lookup/fill/store run
     * once per simulated memory access, where a string-keyed map
     * update is measurably the dominant cost.
     */
    struct HotCounters
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::uint64_t fillsLinear = 0;
        std::uint64_t fillsInterleaved = 0;
        std::uint64_t storeUpdates = 0;
        std::uint64_t storeDupInvalidations = 0;
        std::uint64_t psrInvalidations = 0;
        std::uint64_t flushes = 0;

        static constexpr const char *kNames[] = {
            "l0_hits", "l0_misses", "l0_evictions", "l0_fills_linear",
            "l0_fills_interleaved", "l0_store_updates",
            "l0_store_dup_invalidations", "l0_psr_invalidations",
            "l0_flushes"};
    };

    /** quick[] value of an invalid slot; rejects any realistic addr. */
    static constexpr Addr kNoBlock = 1ULL << 63;
    /** End of a chain. */
    static constexpr std::int32_t kEnd = -1;

    int numEntries;
    int subblockBytes;
    int numClusters;
    int wordsPerEntry; ///< payload words per slot (subblockBytes / 8, up)
    Addr blockBytes;   ///< subblockBytes * numClusters, hoisted
    Addr blockMask;    ///< ~(blockBytes - 1): an address's L1 block
    unsigned blockShift; ///< log2(blockBytes), for the bucket hash
    std::uint64_t useClock = 0;
    /**
     * Slots in use, [0, live). Bounded: all of them. Unbounded: every
     * fill since the last flush takes the next slot (growing the
     * arrays only past their high-water mark) and the flush resets it
     * to 0, so steady-state loops neither allocate nor free.
     */
    std::size_t live = 0;
    /** Each slot's block address (kNoBlock when invalid). */
    std::vector<Addr> quick;
    /**
     * The block-tag index. head[] holds the first slot of each bucket
     * (hash of the block address), next[] the rest of the chain, and
     * linked[] the block a slot is chained under (kNoBlock: none).
     * Invalidation only clears quick[], so a chain may hold invalid
     * slots until they are claimed again or the buffer is flushed.
     */
    std::vector<std::int32_t> head;
    std::vector<std::int32_t> next;
    std::vector<Addr> linked;
    std::vector<std::uint64_t> stamp; ///< each slot's last use (LRU)
    std::vector<Shape> shapes;
    std::vector<std::uint64_t> payload; ///< wordsPerEntry per slot
    HotCounters hot;
};

} // namespace l0vliw::mem

#endif // L0VLIW_MEM_L0_BUFFER_HH
