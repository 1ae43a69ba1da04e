/**
 * @file
 * Minimum initiation interval: resources and recurrences.
 */

#ifndef L0VLIW_SCHED_MII_HH
#define L0VLIW_SCHED_MII_HH

#include "ir/loop.hh"
#include "machine/machine_config.hh"
#include "sched/latency_model.hh"

namespace l0vliw::sched
{

/**
 * Resource-constrained MII: for each functional-unit class, the ops of
 * that class divided by the machine-wide unit count, rounded up.
 */
int resMii(const ir::Loop &loop, const machine::MachineConfig &cfg);

/**
 * Recurrence-constrained MII: the smallest II such that the dependence
 * graph, with edge weight latency(e) - II * distance(e), has no
 * positive-weight cycle (checked with a Bellman-Ford longest-path
 * relaxation, O(ops * edges) per probe).
 */
int recMii(const ir::Loop &loop, const LatencyModel &lat);

/** max(resMii, recMii), never less than 1. */
int minII(const ir::Loop &loop, const machine::MachineConfig &cfg,
          const LatencyModel &lat);

} // namespace l0vliw::sched

#endif // L0VLIW_SCHED_MII_HH
