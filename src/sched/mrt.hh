/**
 * @file
 * Modulo reservation table: functional-unit slots per cluster per
 * kernel row, plus the shared inter-cluster bus channels.
 *
 * A reservation at flat cycle t claims row (t mod II) in every kernel
 * iteration. Placement attempts are transactional: reservations made
 * after a checkpoint can be rolled back when a cluster attempt fails.
 */

#ifndef L0VLIW_SCHED_MRT_HH
#define L0VLIW_SCHED_MRT_HH

#include <vector>

#include "common/types.hh"
#include "ir/operation.hh"
#include "machine/machine_config.hh"

namespace l0vliw::sched
{

/** Functional-unit classes tracked by the MRT. */
enum class FuClass
{
    Int,
    Mem,
    Fp,
};

/** FU class required by @p kind. */
FuClass fuClassOf(ir::OpKind kind);

/** Transactional modulo reservation table. */
class Mrt
{
  public:
    Mrt(const machine::MachineConfig &cfg, int ii);
    /** An empty table; configure() and reset() before use. */
    Mrt() = default;

    /** Take @p cfg's units and buses (the II and use stay). */
    void configure(const machine::MachineConfig &cfg);

    /** Empty the table and make its II @p ii (storage is reused). */
    void reset(int ii);

    int ii() const { return _ii; }

    /** True when cluster @p c has a free @p fu slot at flat @p cycle. */
    bool
    fuFree(ClusterId c, FuClass fu, int cycle) const
    {
        return fuCount(c, fu, row(cycle)) < limit[static_cast<int>(fu)];
    }

    /**
     * The first flat cycle from @p from to @p to, both included,
     * stepping by @p step (+1 or -1), at which cluster @p c has a free
     * @p fu slot; kNoCycle when there is none.
     */
    int nextFuFree(ClusterId c, FuClass fu, int from, int to,
                   int step) const;

    /** nextFuFree()'s "none". */
    static constexpr int kNoCycle = -(1 << 30);

    /** Reserve an FU slot (must be free). */
    void reserveFu(ClusterId c, FuClass fu, int cycle);

    /** True when any memory slot of cluster @p c is taken at @p cycle.
     *  Used for the SEQ_ACCESS legality rule. */
    bool
    memSlotBusy(ClusterId c, int cycle) const
    {
        return fuCount(c, FuClass::Mem, row(cycle)) > 0;
    }

    /** True when a bus channel is free at flat @p cycle. */
    bool busFree(int cycle) const { return busUse[row(cycle)] < numBuses; }

    /** Reserve a bus channel (must be free). */
    void reserveBus(int cycle);

    /**
     * Find the earliest flat cycle b in [lo, hi] with a free bus
     * channel, or -1 when none exists. The scan is capped at II
     * distinct rows (beyond that the rows repeat).
     */
    int findBusSlot(int lo, int hi) const;

    /** Snapshot for rollback. */
    struct Checkpoint
    {
        std::size_t log = 0;
    };

    Checkpoint checkpoint() const { return {undoLog.size()}; }

    /** Undo every reservation made after @p cp. */
    void rollback(Checkpoint cp);

  private:
    struct UndoEntry
    {
        bool isBus = false;
        ClusterId cluster = 0;
        int fu = 0;
        int row = 0;
    };

    int
    row(int cycle) const
    {
        const int r = cycle % _ii;
        return r < 0 ? r + _ii : r;
    }

    int &
    fuCount(ClusterId c, FuClass fu, int r)
    {
        return fuUse[(static_cast<std::size_t>(c) * 3
                      + static_cast<int>(fu)) * _ii + r];
    }

    const int &
    fuCount(ClusterId c, FuClass fu, int r) const
    {
        return fuUse[(static_cast<std::size_t>(c) * 3
                      + static_cast<int>(fu)) * _ii + r];
    }

    int numClusters = 0;
    int numBuses = 0;
    /** Units per cluster, by FuClass. */
    int limit[3] = {};
    int _ii = 0;
    /** use counts: [cluster][fuClass][row] */
    std::vector<int> fuUse;
    /** bus channels in use per row */
    std::vector<int> busUse;
    std::vector<UndoEntry> undoLog;
};

} // namespace l0vliw::sched

#endif // L0VLIW_SCHED_MRT_HH
