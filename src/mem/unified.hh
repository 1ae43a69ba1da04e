/**
 * @file
 * Unified L1 with no L0 buffers: the paper's normalisation baseline.
 */

#ifndef L0VLIW_MEM_UNIFIED_HH
#define L0VLIW_MEM_UNIFIED_HH

#include <vector>

#include "mem/bus.hh"
#include "mem/mem_system.hh"
#include "mem/tag_cache.hh"

namespace l0vliw::mem
{

/**
 * Every cluster reaches the centralized L1 over its own bus; the
 * 6-cycle latency of Table 2 already includes the request/response
 * wire delay. L1 is write-through to the backing store, so data
 * correctness never depends on L1 content (tags carry the timing).
 */
class UnifiedMemSystem final : public MemSystem
{
  public:
    explicit UnifiedMemSystem(const machine::MachineConfig &config);

    MemAccessResult access(const MemAccess &acc, Cycle now,
                           std::uint64_t store_value) override;

    void stateKey(std::vector<std::uint64_t> &key) const override;
    void timeKey(Cycle start,
                 std::vector<std::uint64_t> &key) const override;
    void counterSnapshot(std::vector<std::uint64_t> &out) const override;
    void addCounters(const std::uint64_t *delta) override;
    void shiftTime(Cycle from, Cycle to) override;

  private:
    void syncStats() const override;

    /** Per-access counters as plain integers (see L0Buffer). */
    struct HotCounters
    {
        std::uint64_t l1Hits = 0;
        std::uint64_t l1Misses = 0;
        std::uint64_t l1StoreHits = 0;
        std::uint64_t l1StoreMisses = 0;
    };

    TagCache l1;
    std::vector<Bus> buses; // one per cluster
    HotCounters hot;
};

} // namespace l0vliw::mem

#endif // L0VLIW_MEM_UNIFIED_HH
