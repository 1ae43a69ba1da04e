/**
 * @file
 * Occupancy model for the per-cluster bus to the L1 cache.
 *
 * Each cluster owns one bus to the (unified or sliced) L1; one new
 * transaction may start per cycle. The bus's transfer latency is folded
 * into the L1 access latency of Table 2 (2 request + 2 access +
 * 2 response); this model only accounts for *occupancy*, i.e. when the
 * next transaction may start. Demand traffic naturally precedes
 * prefetch traffic because the simulator issues demand requests first
 * within a cycle.
 */

#ifndef L0VLIW_MEM_BUS_HH
#define L0VLIW_MEM_BUS_HH

#include <algorithm>

#include "common/types.hh"
#include "mem/fold.hh"

namespace l0vliw::mem
{

/** Single-transaction-per-cycle bus occupancy tracker. */
class Bus
{
  public:
    /**
     * Reserve the earliest slot at or after @p earliest.
     * @return the cycle the transaction actually starts.
     */
    Cycle
    reserve(Cycle earliest)
    {
        Cycle grant = std::max(earliest, nextFree);
        nextFree = grant + 1;
        return grant;
    }

    /** Next cycle at which the bus is free (for tests). */
    Cycle nextFreeCycle() const { return nextFree; }

    /** Reset occupancy (new simulation run). */
    void reset() { nextFree = 0; }

    /** Fold hooks (MemSystem::timeKey / shiftTime). */
    std::uint64_t
    timeKey(Cycle start) const
    {
        return relativeCycle(nextFree, start);
    }
    void shiftTime(Cycle from, Cycle to) { shiftCycle(nextFree, from, to); }

  private:
    Cycle nextFree = 0;
};

} // namespace l0vliw::mem

#endif // L0VLIW_MEM_BUS_HH
