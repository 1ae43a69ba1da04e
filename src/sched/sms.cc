#include "sched/sms.hh"

#include <algorithm>
#include <cstdint>

#include "common/logging.hh"

namespace l0vliw::sched
{

void
DepGraph::assign(const ir::Loop &body)
{
    loop = &body;
    const int n = body.numOps();
    const std::vector<ir::DepEdge> &edges = body.edges();

    // Out-edges per op in CSR form: op v's are succ[first[v] ..
    // first[v + 1]), in edge order. Then each op's count of
    // distance-0 in-edges, and Kahn's queue.
    scratch.assign(3 * static_cast<std::size_t>(n) + 2 + edges.size(), 0);
    int *first = scratch.data();  // n + 2
    int *succ = first + n + 2;    // edges
    int *indegree = succ + edges.size(); // n
    int *ready = indegree + n;    // n
    for (const auto &e : edges)
        ++first[e.src + 2];
    for (int v = 1; v <= n; ++v)
        first[v + 1] += first[v];
    for (std::size_t i = 0; i < edges.size(); ++i)
        succ[first[edges[i].src + 1]++] = static_cast<int>(i);

    // A topological order of the distance-0 edges (Kahn), and the
    // edges by source in that order.
    for (const auto &e : edges)
        if (e.distance == 0)
            ++indegree[e.dst];
    int ready_end = 0;
    for (int v = 0; v < n; ++v)
        if (indegree[v] == 0)
            ready[ready_end++] = v;
    sameIteration.clear();
    carried.clear();
    for (int k = 0; k < ready_end; ++k) {
        const int v = ready[k];
        for (int i = first[v]; i < first[v + 1]; ++i) {
            const ir::DepEdge &e = edges[succ[i]];
            (e.distance == 0 ? sameIteration : carried)
                .push_back({e.src, e.dst, e.distance,
                            e.kind == ir::DepKind::Reg});
            if (e.distance == 0 && --indegree[e.dst] == 0)
                ready[ready_end++] = e.dst;
        }
    }
    L0_ASSERT(ready_end == n,
              "zero-distance dependence cycle in %s", body.name().c_str());
}

SlackInfo
computeSlack(const ir::Loop &loop, const LatencyModel &lat, int ii,
             bool *converged)
{
    SlackInfo info;
    computeSlack(DepGraph(loop), lat, ii, info, converged);
    return info;
}

void
computeSlack(const DepGraph &graph, const LatencyModel &lat, int ii,
             SlackInfo &info, bool *converged)
{
    const int n = graph.loop->numOps();

    // Forward fixpoint for ASAP. With ii >= recMii every cycle has
    // non-positive total weight, so at most n rounds settle it. A
    // round settles every value the loop-carried edges leave alone:
    // the next one is needed only if one of them raised a value.
    info.asap.assign(n, 0);
    auto raise = [&](const DepGraph::Arc &a) {
        int cand = info.asap[a.src] + a.latency(lat) - ii * a.distance;
        if (cand <= info.asap[a.dst])
            return false;
        info.asap[a.dst] = cand;
        return true;
    };
    bool settled = false;
    for (int round = 0; round <= n && !settled; ++round) {
        for (const DepGraph::Arc &a : graph.sameIteration)
            raise(a);
        settled = true;
        for (const DepGraph::Arc &a : graph.carried)
            settled &= !raise(a);
    }
    if (converged)
        *converged = settled;
    else if (!settled)
        warn("ASAP relaxation did not converge (II below recMII?) in "
             "loop %s", graph.loop->name().c_str());

    int horizon = 0;
    for (int i = 0; i < n; ++i)
        horizon = std::max(horizon, info.asap[i]);

    // Backward fixpoint for ALAP from the horizon: the distance-0
    // edges walked backwards, then the loop-carried ones.
    info.alap.assign(n, horizon);
    auto lower = [&](const DepGraph::Arc &a) {
        int cand = info.alap[a.dst] - a.latency(lat) + ii * a.distance;
        if (cand >= info.alap[a.src])
            return false;
        info.alap[a.src] = cand;
        return true;
    };
    for (int round = 0, lowered = 1; round <= n && lowered; ++round) {
        for (auto a = graph.sameIteration.rbegin();
             a != graph.sameIteration.rend(); ++a)
            lower(*a);
        lowered = 0;
        for (const DepGraph::Arc &a : graph.carried)
            lowered |= lower(a);
    }

    info.slack.resize(n);
    for (int i = 0; i < n; ++i)
        info.slack[i] = info.alap[i] - info.asap[i];
}

void
IncidentEdges::assign(const ir::Loop &loop)
{
    // Count, prefix-sum, fill each op's run in edge order (advancing
    // begin[v] to v's end), then shift begin back by one op.
    const int n = loop.numOps();
    begin.assign(n + 1, 0);
    for (const auto &e : loop.edges()) {
        ++begin[e.src + 1];
        if (e.dst != e.src)
            ++begin[e.dst + 1];
    }
    for (int v = 0; v < n; ++v)
        begin[v + 1] += begin[v];
    edges.resize(begin.back());
    for (const auto &e : loop.edges()) {
        edges[begin[e.src]++] = &e;
        if (e.dst != e.src)
            edges[begin[e.dst]++] = &e;
    }
    for (int v = n; v > 0; --v)
        begin[v] = begin[v - 1];
    begin[0] = 0;
}

std::vector<OpId>
smsOrder(const IncidentEdges &incident, const SlackInfo &slack)
{
    std::vector<OpId> order;
    SmsScratch scratch;
    smsOrder(incident, slack, order, scratch);
    return order;
}

void
smsOrder(const IncidentEdges &incident, const SlackInfo &slack,
         std::vector<OpId> &order, SmsScratch &scratch)
{
    const int n = static_cast<int>(incident.begin.size()) - 1;
    order.clear();

    // Rank every node once, best first: least slack, then lower ALAP,
    // then lower id. The rank doubles as the seed order of new
    // (possibly disconnected) components, and the frontier compares
    // ranks alone. The (slack, ALAP) pair is one unsigned key (each
    // half offset so that signed order is unsigned order).
    std::vector<std::pair<std::uint64_t, OpId>> &keyed = scratch.keyed;
    keyed.resize(n);
    auto half = [](int v) {
        return static_cast<std::uint32_t>(v) ^ 0x80000000u;
    };
    for (OpId i = 0; i < n; ++i)
        keyed[i] = {std::uint64_t{half(slack.slack[i])} << 32
                        | half(slack.alap[i]),
                    i};
    std::sort(keyed.begin(), keyed.end());
    std::vector<OpId> &by_rank = scratch.byRank;
    std::vector<int> &rank = scratch.rank;
    by_rank.resize(n);
    rank.resize(n);
    for (int r = 0; r < n; ++r) {
        by_rank[r] = keyed[r].second;
        rank[by_rank[r]] = r;
    }

    // Sets of ranks, one bit each: the ordered nodes, and the frontier
    // (unordered nodes adjacent to the ordered set). The best frontier
    // node is its lowest bit; with an empty frontier, the best
    // unordered node seeds the next component.
    const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
    std::vector<std::uint64_t> &ordered = scratch.ordered;
    std::vector<std::uint64_t> &frontier = scratch.frontier;
    ordered.assign(words, 0);
    frontier.assign(words, 0);
    auto bit = [](int r) { return std::uint64_t{1} << (r & 63); };
    std::size_t seed_word = 0;

    while (static_cast<int>(order.size()) < n) {
        int pick_rank = -1;
        for (std::size_t w = 0; w < words; ++w) {
            if (frontier[w] != 0) {
                pick_rank = static_cast<int>(w * 64)
                            + __builtin_ctzll(frontier[w]);
                break;
            }
        }
        if (pick_rank < 0) {
            while (~ordered[seed_word] == 0)
                ++seed_word;
            pick_rank = static_cast<int>(seed_word * 64)
                        + __builtin_ctzll(~ordered[seed_word]);
        }
        const OpId pick = by_rank[pick_rank];
        ordered[pick_rank / 64] |= bit(pick_rank);
        frontier[pick_rank / 64] &= ~bit(pick_rank);
        order.push_back(pick);
        for (int i = incident.begin[pick]; i < incident.begin[pick + 1];
             ++i) {
            const ir::DepEdge &e = *incident.edges[i];
            const int r = rank[e.src == pick ? e.dst : e.src];
            if (!(ordered[r / 64] & bit(r)))
                frontier[r / 64] |= bit(r);
        }
    }
}

} // namespace l0vliw::sched
