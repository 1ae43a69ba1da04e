/**
 * @file
 * Minimum initiation interval: resources and recurrences.
 */

#ifndef L0VLIW_SCHED_MII_HH
#define L0VLIW_SCHED_MII_HH

#include "ir/loop.hh"
#include "machine/machine_config.hh"
#include "sched/latency_model.hh"
#include "sched/sms.hh"

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
 * positive-weight cycle; 1 without a recurrence. Each probe runs a
 * Bellman-Ford longest-path relaxation; an infeasible probe yields a
 * positive cycle, whose latency / distance ratio is the next II
 * probed.
 */
int recMii(const ir::Loop &loop, const LatencyModel &lat);

/**
 * max(@p at_least, recMii()) over a graph already derived from the
 * body: the smallest II >= @p at_least without a positive cycle. The
 * probes start at @p at_least, which callers that already know a bound
 * below which they need no answer (resMII, a demoted re-slack's II)
 * pass.
 */
int recMii(const DepGraph &graph, const LatencyModel &lat,
           int at_least = 1);

/** max(resMii, recMii), never less than 1. */
int minII(const ir::Loop &loop, const machine::MachineConfig &cfg,
          const LatencyModel &lat);

} // namespace l0vliw::sched

#endif // L0VLIW_SCHED_MII_HH
