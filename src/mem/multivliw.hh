/**
 * @file
 * MultiVLIW baseline: snoop-coherent distributed L1 (Section 5.3,
 * after Sanchez & Gonzalez, MICRO-2000).
 *
 * Each cluster holds an L1 slice of (total L1 size / N). Slices are
 * kept coherent with a write-through invalidate snoop protocol — a
 * simplification of the paper's MSI that preserves the two behaviours
 * Figure 7 depends on: data is dynamically replicated into the slices
 * of the clusters that use it (high local-hit rates), and writes to
 * shared data invalidate remote copies (coherence ping-pong cost).
 * Write-through keeps the backing store current, so no stale value can
 * ever be observed — matching the hardware-coherence guarantee of the
 * original design.
 */

#ifndef L0VLIW_MEM_MULTIVLIW_HH
#define L0VLIW_MEM_MULTIVLIW_HH

#include <vector>

#include "mem/mem_system.hh"
#include "mem/tag_cache.hh"

namespace l0vliw::mem
{

/** Snoop-coherent distributed L1 slices. */
class MultiVliwMemSystem final : public MemSystem
{
  public:
    explicit MultiVliwMemSystem(const machine::MachineConfig &config);

    MemAccessResult access(const MemAccess &acc, Cycle now,
                           std::uint64_t store_value) override;

    void counterSnapshot(std::vector<std::uint64_t> &out) const override;
    void addCounters(const std::uint64_t *delta) override;
    // Fixed latencies: no field holds an absolute cycle.
    void timeKey(Cycle, std::vector<std::uint64_t> &) const override {}
    void shiftTime(Cycle, Cycle) override {}

    StatSet stats() const override { return named(hot); }

  private:
    /** Per-access counters as plain integers (see L0Buffer). */
    struct HotCounters
    {
        std::uint64_t storeInvalidations = 0;
        std::uint64_t localHits = 0;
        std::uint64_t remoteHits = 0;
        std::uint64_t l2Fills = 0;

        static constexpr const char *kNames[] = {
            "mv_store_invalidations", "mv_local_hits", "mv_remote_hits",
            "mv_l2_fills"};
    };

    std::vector<TagCache> slices; // one per cluster
    HotCounters hot;
};

} // namespace l0vliw::mem

#endif // L0VLIW_MEM_MULTIVLIW_HH
