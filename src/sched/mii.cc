#include "sched/mii.hh"

#include <algorithm>
#include <vector>

#include "common/logging.hh"

namespace l0vliw::sched
{

int
resMii(const ir::Loop &loop, const machine::MachineConfig &cfg)
{
    int int_ops = 0, mem_ops = 0, fp_ops = 0;
    for (const auto &op : loop.ops()) {
        switch (op.kind) {
          case ir::OpKind::IntAlu:
          case ir::OpKind::IntMul:
            ++int_ops;
            break;
          case ir::OpKind::FpAlu:
            ++fp_ops;
            break;
          case ir::OpKind::Load:
          case ir::OpKind::Store:
          case ir::OpKind::Prefetch:
            ++mem_ops;
            break;
        }
    }
    auto ceil_div = [](int a, int b) { return (a + b - 1) / b; };
    int ii = 1;
    ii = std::max(ii, ceil_div(int_ops,
                               cfg.intUnitsPerCluster * cfg.numClusters));
    ii = std::max(ii, ceil_div(mem_ops,
                               cfg.memUnitsPerCluster * cfg.numClusters));
    ii = std::max(ii, ceil_div(fp_ops,
                               cfg.fpUnitsPerCluster * cfg.numClusters));
    return ii;
}

namespace
{

/**
 * 0 when the graph with weights lat(e) - ii*dist(e) has no
 * positive-weight cycle (ii is feasible); otherwise a lower bound of
 * recMII above ii. Longest paths from a virtual source joined to every
 * op (so every op starts at 0) settle within n rounds unless a
 * positive cycle keeps raising them; a round ends settled when no
 * loop-carried edge raised a value (DepGraph). Each raise records the
 * edge that made it, and a cycle of those edges has positive weight
 * (as in Bellman-Ford's predecessor graph). So after each unsettled
 * round the raises are traced back from the last op a loop-carried
 * edge raised, and a cycle found there ends the probe early:
 * ceil(latency / distance) of it bounds recMII.
 */
int
positiveCycleBound(const DepGraph &graph, const LatencyModel &lat, int ii,
                   std::vector<long> &dist,
                   std::vector<const DepGraph::Arc *> &raised_by)
{
    const int n = graph.loop->numOps();
    dist.assign(n, 0);
    raised_by.assign(n, nullptr);
    auto raise = [&](const DepGraph::Arc &a) {
        long cand = dist[a.src] + a.latency(lat)
                    - static_cast<long>(ii) * a.distance;
        if (cand <= dist[a.dst])
            return false;
        dist[a.dst] = cand;
        raised_by[a.dst] = &a;
        return true;
    };
    for (int round = 0; round <= n; ++round) {
        for (const DepGraph::Arc &a : graph.sameIteration)
            raise(a);
        OpId last = kNoOp;
        for (const DepGraph::Arc &a : graph.carried)
            if (raise(a))
                last = a.dst;
        if (last == kNoOp)
            return 0;
        // n steps back from the last raise either reach an op nothing
        // raised or end on a cycle of raises.
        OpId v = last;
        for (int step = 0; step < n && v != kNoOp; ++step)
            v = raised_by[v] ? raised_by[v]->src : kNoOp;
        if (v != kNoOp) {
            long latency = 0, distance = 0;
            OpId u = v;
            do {
                latency += raised_by[u]->latency(lat);
                distance += raised_by[u]->distance;
                u = raised_by[u]->src;
            } while (u != v);
            return static_cast<int>(std::max<long>(
                ii + 1, (latency + distance - 1) / distance));
        }
    }
    return ii + 1; // still rising after n rounds: a positive cycle
}

} // namespace

int
recMii(const ir::Loop &loop, const LatencyModel &lat)
{
    return recMii(DepGraph(loop), lat);
}

int
recMii(const DepGraph &graph, const LatencyModel &lat, int at_least)
{
    int ii = std::max(at_least, 1);
    if (graph.carried.empty())
        return ii; // no cycle
    // Every bound is a lower bound of the answer and above the II it
    // probed, so the first feasible II is recMII.
    std::vector<long> dist;
    std::vector<const DepGraph::Arc *> raised_by;
    while (int bound = positiveCycleBound(graph, lat, ii, dist, raised_by))
        ii = bound;
    return ii;
}

int
minII(const ir::Loop &loop, const machine::MachineConfig &cfg,
      const LatencyModel &lat)
{
    return std::max(resMii(loop, cfg), recMii(loop, lat));
}

} // namespace l0vliw::sched
