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

#include <cstdint>
#include <utility>
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
 * The dependence graph in the order the longest-path relaxations want
 * it, derived once per body and shared by every computeSlack() and
 * recMii() call on it. The distance-0 edges are listed by their
 * source's rank in a topological order of them (they are acyclic:
 * Loop::validate rejects zero-distance cycles), so one forward pass
 * over them settles every same-iteration chain and one backward pass
 * does too; a relaxation round is that pass followed by the
 * loop-carried edges, and only a loop-carried edge that still moves a
 * value calls for another round. Every cycle has a loop-carried edge,
 * so a body without one has no recurrence. It points into @p loop,
 * which must outlive it.
 */
struct DepGraph
{
    DepGraph() = default;
    explicit DepGraph(const ir::Loop &loop) { assign(loop); }

    /** Derive @p loop's graph into this one, reusing its storage. */
    void assign(const ir::Loop &loop);

    /** One edge, flattened: its latency is its source's for a
     *  register edge, 1 for a memory edge (LatencyModel). */
    struct Arc
    {
        OpId src, dst;
        int distance;
        bool reg;

        int latency(const LatencyModel &lat) const
        {
            return reg ? lat.of(src) : 1;
        }
    };

    const ir::Loop *loop = nullptr;
    /** The distance-0 edges in source rank order. */
    std::vector<Arc> sameIteration;
    /** The loop-carried edges, in source rank order. */
    std::vector<Arc> carried;
    /** assign()'s working storage. */
    std::vector<int> scratch;
};

/**
 * Longest-path ASAP/ALAP with modulo edge weights
 * lat(e) - II*dist(e): the least fixpoint above 0 (ASAP), and the
 * greatest one below the largest ASAP (ALAP). The II must be feasible
 * (>= recMii under @p lat) for the fixpoint to exist; values still
 * rising after as many rounds as there are ops mean a positive cycle,
 * and then they are not a fixpoint and must not be used.
 * When @p converged is null such an II warns; otherwise it only
 * reports through the flag, so callers that expect infeasible IIs
 * (the scheduler's post-demotion re-slack) can re-derive a feasible II
 * instead of spamming warnings.
 */
SlackInfo computeSlack(const ir::Loop &loop, const LatencyModel &lat,
                       int ii, bool *converged = nullptr);

/** computeSlack() over a graph already derived from the body, into
 *  @p info, reusing its storage. */
void computeSlack(const DepGraph &graph, const LatencyModel &lat, int ii,
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
    IncidentEdges() = default;
    explicit IncidentEdges(const ir::Loop &loop) { assign(loop); }

    /** Derive @p loop's edges into this one, reusing its storage. */
    void assign(const ir::Loop &loop);

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

/** smsOrder()'s working storage, reusable across calls. */
struct SmsScratch
{
    std::vector<std::pair<std::uint64_t, OpId>> keyed;
    std::vector<OpId> byRank;
    std::vector<int> rank;
    std::vector<std::uint64_t> ordered, frontier;
};

/** smsOrder() into @p order, reusing its and @p scratch's storage. */
void smsOrder(const IncidentEdges &incident, const SlackInfo &slack,
              std::vector<OpId> &order, SmsScratch &scratch);

} // namespace l0vliw::sched

#endif // L0VLIW_SCHED_SMS_HH
