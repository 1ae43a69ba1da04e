/**
 * @file
 * Swing-Modulo-Scheduling node ordering and slack computation
 * (Llosa et al., PACT'96; paper Section 4.3 step 2).
 *
 * SMS orders the DDG so that every node (after the first of a
 * component) is placed adjacent to already-ordered neighbours; the
 * placement engine can then schedule bidirectionally with short
 * register lifetimes. Priority follows the swing rule: nodes with the
 * least slack (ALAP - ASAP mobility, computed modulo the II) come
 * first, so recurrence-critical nodes anchor the order.
 *
 * The slack values double as the criticality metric of the L0-aware
 * algorithm (step 3, items 2 and 10): the most critical candidate
 * loads receive the L0 latency.
 */

#ifndef L0VLIW_SCHED_SMS_HH
#define L0VLIW_SCHED_SMS_HH

#include <vector>

#include "ir/loop.hh"
#include "sched/latency_model.hh"

namespace l0vliw::sched
{

/** ASAP/ALAP/slack of every op at a given II. */
struct SlackInfo
{
    std::vector<int> asap;
    std::vector<int> alap;
    std::vector<int> slack;
};

/**
 * Longest-path ASAP/ALAP with modulo edge weights
 * lat(e) - II*dist(e), relaxed to a fixpoint. The II must be feasible
 * (>= recMii under @p lat) or the relaxation diverges; we clamp after
 * n+1 rounds either way. When @p converged is null a diverging
 * relaxation warns; otherwise it only reports through the flag, so
 * callers that expect infeasible IIs (the scheduler's post-demotion
 * re-slack) can re-derive a feasible II instead of spamming warnings.
 */
SlackInfo computeSlack(const ir::Loop &loop, const LatencyModel &lat,
                       int ii, bool *converged = nullptr);

/** computeSlack() into @p info, reusing its storage. */
void computeSlack(const ir::Loop &loop, const LatencyModel &lat, int ii,
                  SlackInfo &info, bool *converged = nullptr);

/**
 * The edges touching each op, in loop.edges() order (a self-loop
 * once), in CSR form: op v's edges are edges[begin[v] .. begin[v + 1]).
 * It is the DDG's undirected adjacency too: v's neighbours are the
 * other ends of its edges. It points into @p loop, which must outlive
 * it.
 */
struct IncidentEdges
{
    explicit IncidentEdges(const ir::Loop &loop);

    std::vector<int> begin;
    std::vector<const ir::DepEdge *> edges;
};

/**
 * SMS-style ordering: seeded by the minimum-slack node, grown by
 * repeatedly appending the unordered node adjacent to the ordered set
 * with the least slack (ties: lower ALAP, then lower id). Disconnected
 * components are seeded the same way when the frontier empties.
 */
std::vector<OpId> smsOrder(const IncidentEdges &incident,
                           const SlackInfo &slack);

} // namespace l0vliw::sched

#endif // L0VLIW_SCHED_SMS_HH
