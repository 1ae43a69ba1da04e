#include "sched/sms.hh"

#include <algorithm>
#include <numeric>
#include <queue>

#include "common/logging.hh"

namespace l0vliw::sched
{

SlackInfo
computeSlack(const ir::Loop &loop, const LatencyModel &lat, int ii,
             bool *converged)
{
    SlackInfo info;
    computeSlack(loop, lat, ii, info, converged);
    return info;
}

void
computeSlack(const ir::Loop &loop, const LatencyModel &lat, int ii,
             SlackInfo &info, bool *converged)
{
    const int n = loop.numOps();
    info.asap.assign(n, 0);
    if (converged)
        *converged = true;

    // Forward fixpoint for ASAP. With ii >= recMii every cycle has
    // non-positive total weight, so at most n rounds settle it.
    bool settled = false;
    for (int round = 0; round < n + 1; ++round) {
        bool changed = false;
        for (const auto &e : loop.edges()) {
            int cand = info.asap[e.src] + lat.edgeLatency(e)
                       - ii * e.distance;
            if (cand > info.asap[e.dst]) {
                info.asap[e.dst] = cand;
                changed = true;
            }
        }
        if (!changed) {
            settled = true;
            break;
        }
        if (round == n) {
            if (converged)
                *converged = false;
            else
                warn("ASAP relaxation did not converge (II below "
                     "recMII?) in loop %s", loop.name().c_str());
        }
    }

    int horizon = 0;
    for (int i = 0; i < n; ++i)
        horizon = std::max(horizon, info.asap[i]);

    // Backward fixpoint for ALAP from the horizon. Once the ASAP
    // settled the fixpoint is unique, and walking the edges backwards
    // reaches it in a few rounds: bodies are built producers first.
    // Otherwise the rounds clamp, and the clamped values follow the
    // edge order, so they keep the forward one.
    const std::vector<ir::DepEdge> &edges = loop.edges();
    const std::size_t m = edges.size();
    info.alap.assign(n, horizon);
    for (int round = 0; round < n + 1; ++round) {
        bool changed = false;
        for (std::size_t k = 0; k < m; ++k) {
            const ir::DepEdge &e = edges[settled ? m - 1 - k : k];
            int cand = info.alap[e.dst] - lat.edgeLatency(e)
                       + ii * e.distance;
            if (cand < info.alap[e.src]) {
                info.alap[e.src] = cand;
                changed = true;
            }
        }
        if (!changed)
            break;
    }

    info.slack.resize(n);
    for (int i = 0; i < n; ++i)
        info.slack[i] = info.alap[i] - info.asap[i];
}

IncidentEdges::IncidentEdges(const ir::Loop &loop)
    : begin(loop.numOps() + 1, 0)
{
    // Count, prefix-sum, then fill each op's run in edge order.
    for (const auto &e : loop.edges()) {
        ++begin[e.src + 1];
        if (e.dst != e.src)
            ++begin[e.dst + 1];
    }
    for (int v = 0; v < loop.numOps(); ++v)
        begin[v + 1] += begin[v];
    edges.resize(begin.back());
    std::vector<int> fill(begin.begin(), begin.end() - 1);
    for (const auto &e : loop.edges()) {
        edges[fill[e.src]++] = &e;
        if (e.dst != e.src)
            edges[fill[e.dst]++] = &e;
    }
}

std::vector<OpId>
smsOrder(const IncidentEdges &incident, const SlackInfo &slack)
{
    const int n = static_cast<int>(incident.begin.size()) - 1;
    std::vector<bool> ordered(n, false);
    std::vector<OpId> order;
    order.reserve(n);

    auto better = [&](OpId a, OpId b) {
        if (slack.slack[a] != slack.slack[b])
            return slack.slack[a] < slack.slack[b];
        if (slack.alap[a] != slack.alap[b])
            return slack.alap[a] < slack.alap[b];
        return a < b;
    };

    // Seeds of new (possibly disconnected) components: every node,
    // best first.
    std::vector<OpId> seeds(n);
    std::iota(seeds.begin(), seeds.end(), 0);
    std::sort(seeds.begin(), seeds.end(), better);
    std::size_t next_seed = 0;

    // Frontier: unordered nodes adjacent to the ordered set, best on
    // top. Nodes ordered after they were pushed are dropped lazily.
    auto worse = [&](OpId a, OpId b) { return better(b, a); };
    std::priority_queue<OpId, std::vector<OpId>, decltype(worse)>
        frontier(worse);

    while (static_cast<int>(order.size()) < n) {
        while (!frontier.empty() && ordered[frontier.top()])
            frontier.pop();
        OpId pick;
        if (!frontier.empty()) {
            pick = frontier.top();
            frontier.pop();
        } else {
            while (ordered[seeds[next_seed]])
                ++next_seed;
            pick = seeds[next_seed];
        }
        ordered[pick] = true;
        order.push_back(pick);
        for (int i = incident.begin[pick]; i < incident.begin[pick + 1];
             ++i) {
            const ir::DepEdge &e = *incident.edges[i];
            OpId v = e.src == pick ? e.dst : e.src;
            if (!ordered[v])
                frontier.push(v);
        }
    }
    return order;
}

} // namespace l0vliw::sched
