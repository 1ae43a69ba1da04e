/**
 * @file
 * Word-interleaved distributed cache with Attraction Buffers
 * (Section 5.3, after Gibert et al., MICRO-2002).
 *
 * Words of wiWordBytes are statically round-robined across the
 * clusters' cache slices: owner(addr) = (addr / wordBytes) mod N. An
 * access from the owner cluster is local; any other cluster pays the
 * inter-cluster round trip. Each cluster also has a small fully
 * associative Attraction Buffer that caches remotely-mapped words;
 * hardware keeps ABs coherent (stores invalidate remote AB copies), so
 * — unlike the L0 buffers — they need no compiler management, but they
 * are inflexible: the static word-to-cluster binding stays.
 */

#ifndef L0VLIW_MEM_INTERLEAVED_HH
#define L0VLIW_MEM_INTERLEAVED_HH

#include <vector>

#include "common/intmath.hh"
#include "mem/mem_system.hh"
#include "mem/tag_cache.hh"

namespace l0vliw::mem
{

/** Word-interleaved slices plus Attraction Buffers. */
class InterleavedMemSystem final : public MemSystem
{
  public:
    explicit InterleavedMemSystem(const machine::MachineConfig &config);

    MemAccessResult access(const MemAccess &acc, Cycle now,
                           std::uint64_t store_value) override;

    void counterSnapshot(std::vector<std::uint64_t> &out) const override;
    void addCounters(const std::uint64_t *delta) override;
    // Fixed latencies: no field holds an absolute cycle.
    void timeKey(Cycle, std::vector<std::uint64_t> &) const override {}
    void shiftTime(Cycle, Cycle) override {}

    /** Cluster statically owning the word at @p addr. */
    ClusterId owner(Addr addr) const
    {
        return static_cast<ClusterId>(
            fastMod(fastDiv(addr, cfg.wiWordBytes), cfg.numClusters));
    }

    StatSet stats() const override { return named(hot); }

  private:
    /**
     * Slice-local address: word index within the owner's slice, with
     * the byte offset preserved, so the slice's set indexing sees a
     * dense address space.
     */
    Addr localAddr(Addr addr) const;

    /** Per-access counters as plain integers (see L0Buffer). */
    struct HotCounters
    {
        std::uint64_t abStoreInvalidations = 0;
        std::uint64_t localStores = 0;
        std::uint64_t remoteStores = 0;
        std::uint64_t localHits = 0;
        std::uint64_t localMisses = 0;
        std::uint64_t abHits = 0;
        std::uint64_t remoteAccesses = 0;

        static constexpr const char *kNames[] = {
            "ab_store_invalidations", "wi_local_stores", "wi_remote_stores",
            "wi_local_hits", "wi_local_misses", "ab_hits",
            "wi_remote_accesses"};
    };

    std::vector<TagCache> slices;
    std::vector<TagCache> abs; // attraction buffers (word-grained)
    HotCounters hot;
};

} // namespace l0vliw::mem

#endif // L0VLIW_MEM_INTERLEAVED_HH
