/**
 * @file
 * Unified L1 plus flexible compiler-managed L0 buffers: the paper's
 * proposed architecture (Section 3).
 */

#ifndef L0VLIW_MEM_L0_SYSTEM_HH
#define L0VLIW_MEM_L0_SYSTEM_HH

#include <algorithm>
#include <vector>

#include "mem/bus.hh"
#include "mem/l0_buffer.hh"
#include "mem/mem_system.hh"
#include "mem/tag_cache.hh"

namespace l0vliw::mem
{

/**
 * Timing and data model:
 *
 *  - SEQ_ACCESS loads probe the local L0 (1 cycle); on a miss the
 *    request is forwarded on the cluster bus the next cycle — the
 *    compiler's SEQ legality rule guarantees no demand access competes
 *    for that slot.
 *  - PAR_ACCESS loads launch the bus/L1 access in parallel with the L0
 *    probe; an L0 hit drops the L1 reply.
 *  - A miss with LINEAR_MAP fills one subblock into the accessing
 *    cluster. A miss with INTERLEAVED_MAP reads the whole L1 block,
 *    pays one cycle of shift/interleave logic, and scatters all N
 *    residues across the N clusters' buffers.
 *  - Fills are in flight until their ready cycle; an access covered by
 *    an in-flight fill waits for it (no duplicate L1 request) and is
 *    counted as a miss — this is the "prefetched too late" stall the
 *    paper reports for epicdec and rasta.
 *  - POSITIVE/NEGATIVE prefetch hints trigger when a hit touches the
 *    last/first element of a subblock; explicit Prefetch operations
 *    arrive through access() with isPrefetch set.
 *  - Stores are write-through and never allocate: they update at most
 *    one matching local L0 copy (PAR_ACCESS) and the L1/backing store;
 *    PSR replicas only invalidate matching local entries.
 */
class L0MemSystem final : public MemSystem
{
  public:
    explicit L0MemSystem(const machine::MachineConfig &config);

    MemAccessResult access(const MemAccess &acc, Cycle now,
                           std::uint64_t store_value) override;

    void endLoop(Cycle now) override;

    void timeKey(Cycle start,
                 std::vector<std::uint64_t> &key) const override;
    void counterSnapshot(std::vector<std::uint64_t> &out) const override;
    void addCounters(const std::uint64_t *delta) override;
    void shiftTime(Cycle from, Cycle to) override;

    /** The L0 buffer of cluster @p c (tests and stats). */
    L0Buffer &l0(ClusterId c) { return l0s[c]; }

    /** Every buffer's counters summed, and the system's. */
    StatSet stats() const override;

    /** stats(): the merged L0 statistics across clusters. */
    StatSet l0Stats() const { return stats(); }

  private:
    struct PendingFill
    {
        Cycle ready = 0;
        bool interleaved = false;
        Addr blockAddr = 0;
        int subIndex = 0;       ///< linear: sub-slot index
        int factor = 0;         ///< interleaved: element granularity
        int firstResidue = 0;   ///< interleaved: residue for firstCluster
        ClusterId firstCluster = 0;
    };

    /**
     * Apply every pending fill whose data has arrived by @p now. The
     * check is inline: this runs at the top of every access, and
     * until @p now reaches the earliest pending ready cycle no fill
     * can commit (with nothing pending, never).
     */
    void
    commitFills(Cycle now)
    {
        if (now >= nextReady)
            commitFillsSlow(now);
    }

    void commitFillsSlow(Cycle now);

    /** Queue @p f, keeping nextReady a lower bound of every ready. */
    void
    queueFill(const PendingFill &f)
    {
        pending.push_back(f);
        nextReady = std::min(nextReady, f.ready);
    }

    /**
     * Read @p bytes at @p addr from the backing into fillWords as
     * little-endian words: a fill's payload, read when it commits.
     */
    const std::uint64_t *readFillWords(Addr addr, int bytes);

    /** The buffers and the pending fills. */
    void appendOtherState(std::vector<std::uint64_t> &key) const override;

    /** Recompute nextReady from the pending list. */
    void resetNextReady();

    /** nextReady with nothing pending. */
    static constexpr Cycle kNever = ~Cycle{0};

    /** True if an in-flight fill will cover [addr, addr+size). */
    const PendingFill *coveringFill(const MemAccess &acc) const;

    /** L1 lookup + latency for one block access. */
    Cycle l1AccessLatency(Addr addr, bool allocate);

    /**
     * Launch a fill for the access's block using an already-granted
     * bus slot. @return the data-ready cycle (grant + L1 latency +
     * interleave penalty if any).
     */
    Cycle startFill(const MemAccess &acc, Cycle grant);

    /**
     * Hint-triggered prefetch of the next/previous subblock. The
     * trigger test is inline: it runs on every L0 hit and almost
     * always declines (no hint, or not the boundary element).
     */
    void
    triggerHintPrefetch(const MemAccess &acc, const L0Lookup &hit,
                        Cycle now)
    {
        if (acc.prefetch == ir::PrefetchHint::NoPrefetch)
            return;
        bool positive = acc.prefetch == ir::PrefetchHint::Positive;
        if (positive ? hit.lastElement : hit.firstElement)
            hintPrefetchSlow(acc, positive, now);
    }

    /** The fetch half of triggerHintPrefetch (boundary hit). */
    void hintPrefetchSlow(const MemAccess &acc, bool positive, Cycle now);

    /** Queue a linear subblock prefetch if not present or in flight. */
    void prefetchLinear(Addr block_addr, int sub_index, ClusterId cluster,
                        Cycle now);

    /** Queue an interleaved whole-block prefetch. */
    void prefetchInterleaved(Addr block_addr, int factor, int first_residue,
                             ClusterId first_cluster, Cycle now);

    /** Per-access counters as plain integers (see L0Buffer). */
    struct HotCounters
    {
        std::uint64_t l1Hits = 0;
        std::uint64_t l1Misses = 0;
        std::uint64_t l1StoreHits = 0;
        std::uint64_t l1StoreMisses = 0;
        std::uint64_t pendingWaits = 0;
        std::uint64_t psrFillCancels = 0;
        std::uint64_t psrReplicaStores = 0;
        std::uint64_t explicitPrefetches = 0;
        std::uint64_t hintPrefetches = 0;
        std::uint64_t prefetchFillsLinear = 0;
        std::uint64_t prefetchFillsInterleaved = 0;

        static constexpr const char *kNames[] = {
            "l1_hits", "l1_misses", "l1_store_hits", "l1_store_misses",
            "l0_pending_waits", "psr_fill_cancels", "psr_replica_stores",
            "explicit_prefetches", "hint_prefetches",
            "prefetch_fills_linear", "prefetch_fills_interleaved"};
    };

    TagCache l1;
    HotCounters hot;
    std::vector<Bus> buses;
    std::vector<L0Buffer> l0s;
    std::vector<PendingFill> pending;
    /** One L1 block of words, sized once: fills stage through it. */
    std::vector<std::uint64_t> fillWords;
    /**
     * A lower bound of every pending fill's ready cycle (kNever when
     * none is pending). Not fold state: it only decides when
     * commitFills() scans, never what a scan commits.
     */
    Cycle nextReady = kNever;
};

} // namespace l0vliw::mem

#endif // L0VLIW_MEM_L0_SYSTEM_HH
