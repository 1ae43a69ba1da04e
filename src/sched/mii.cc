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
 * True when the graph with weights lat(e) - ii*dist(e) has a
 * positive-weight cycle (meaning ii is infeasible): longest paths from
 * a virtual source joined to every node (so every node starts at 0)
 * settle within n-1 rounds of relaxation unless a positive cycle keeps
 * raising them.
 */
bool
hasPositiveCycle(const ir::Loop &loop, const LatencyModel &lat, int ii)
{
    const int n = loop.numOps();
    std::vector<long> dist(n, 0);
    for (int round = 0; round <= n; ++round) {
        bool changed = false;
        for (const auto &e : loop.edges()) {
            long cand = dist[e.src] + lat.edgeLatency(e)
                        - static_cast<long>(ii) * e.distance;
            if (cand > dist[e.dst]) {
                dist[e.dst] = cand;
                changed = true;
            }
        }
        if (!changed)
            return false;
    }
    return true;
}

} // namespace

int
recMii(const ir::Loop &loop, const LatencyModel &lat)
{
    // Upper bound: the sum of all edge latencies certainly breaks
    // every cycle (each cycle has distance >= 1).
    long bound = 1;
    for (const auto &e : loop.edges())
        bound += lat.edgeLatency(e);

    int lo = 1, hi = static_cast<int>(std::min(bound, 4096L));
    if (!hasPositiveCycle(loop, lat, lo))
        return lo;
    while (lo < hi) {
        int mid = lo + (hi - lo) / 2;
        if (hasPositiveCycle(loop, lat, mid))
            lo = mid + 1;
        else
            hi = mid;
    }
    L0_ASSERT(!hasPositiveCycle(loop, lat, lo),
              "recMii search failed for loop %s", loop.name().c_str());
    return lo;
}

int
minII(const ir::Loop &loop, const machine::MachineConfig &cfg,
      const LatencyModel &lat)
{
    return std::max(resMii(loop, cfg), recMii(loop, lat));
}

} // namespace l0vliw::sched
