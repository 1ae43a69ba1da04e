/**
 * @file
 * Scheduling latencies as a function of the latency assignment.
 *
 * Loads have no single latency: the L0-aware algorithm assigns each
 * load either the L0 or the L1/local latency, and the distributed
 * baselines schedule loads with their local-hit latency. This helper
 * centralises the "latency of edge source as assumed by the scheduler"
 * computation shared by MII, SMS and the placement engine.
 */

#ifndef L0VLIW_SCHED_LATENCY_MODEL_HH
#define L0VLIW_SCHED_LATENCY_MODEL_HH

#include <vector>

#include "ir/loop.hh"
#include "machine/machine_config.hh"

namespace l0vliw::sched
{

/** Per-op assigned latencies (indexed by OpId). */
class LatencyModel
{
  public:
    LatencyModel(const ir::Loop &loop, const machine::MachineConfig &cfg,
                 int mem_load_latency)
    {
        lat.reserve(loop.numOps());
        for (const auto &op : loop.ops()) {
            if (op.kind == ir::OpKind::Load)
                lat.push_back(mem_load_latency);
            else
                lat.push_back(cfg.opLatency(op.kind));
        }
    }

    /** Latency assumed for @p id. */
    int of(OpId id) const { return lat[id]; }

    /** Reassign a load's latency (L0 <-> L1 flips during step 3). */
    void
    setLoadLatency(OpId id, int latency)
    {
        if (lat[id] == latency)
            return;
        lat[id] = latency;
        ++_version;
    }

    /**
     * Bumped by every setLoadLatency() that changes a latency: equal
     * versions of one model mean equal latencies, so results derived
     * from them (slack) are still current.
     */
    unsigned long version() const { return _version; }

    /**
     * Latency contributed by dependence edge @p e: a register edge
     * carries the producer's latency; a memory ordering edge only
     * requires issue order (1 cycle).
     */
    int
    edgeLatency(const ir::DepEdge &e) const
    {
        return e.kind == ir::DepKind::Reg ? lat[e.src] : 1;
    }

  private:
    std::vector<int> lat;
    unsigned long _version = 0;
};

} // namespace l0vliw::sched

#endif // L0VLIW_SCHED_LATENCY_MODEL_HH
