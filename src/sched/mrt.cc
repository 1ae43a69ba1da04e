#include "sched/mrt.hh"

#include <algorithm>

#include "common/logging.hh"

namespace l0vliw::sched
{

FuClass
fuClassOf(ir::OpKind kind)
{
    switch (kind) {
      case ir::OpKind::IntAlu:
      case ir::OpKind::IntMul:
        return FuClass::Int;
      case ir::OpKind::FpAlu:
        return FuClass::Fp;
      case ir::OpKind::Load:
      case ir::OpKind::Store:
      case ir::OpKind::Prefetch:
        return FuClass::Mem;
    }
    return FuClass::Int;
}

Mrt::Mrt(const machine::MachineConfig &cfg, int ii)
{
    configure(cfg);
    reset(ii);
}

void
Mrt::configure(const machine::MachineConfig &cfg)
{
    numClusters = cfg.numClusters;
    numBuses = cfg.numBuses;
    limit[static_cast<int>(FuClass::Int)] = cfg.intUnitsPerCluster;
    limit[static_cast<int>(FuClass::Mem)] = cfg.memUnitsPerCluster;
    limit[static_cast<int>(FuClass::Fp)] = cfg.fpUnitsPerCluster;
}

void
Mrt::reset(int ii)
{
    L0_ASSERT(ii >= 1, "II must be positive");
    _ii = ii;
    fuUse.assign(static_cast<std::size_t>(numClusters) * 3 * ii, 0);
    busUse.assign(ii, 0);
    undoLog.clear();
}

void
Mrt::reserveFu(ClusterId c, FuClass fu, int cycle)
{
    L0_ASSERT(fuFree(c, fu, cycle), "reserving a busy FU slot");
    ++fuCount(c, fu, row(cycle));
    undoLog.push_back({false, c, static_cast<int>(fu), row(cycle)});
}

void
Mrt::reserveBus(int cycle)
{
    L0_ASSERT(busFree(cycle), "reserving a busy bus row");
    ++busUse[row(cycle)];
    undoLog.push_back({true, 0, 0, row(cycle)});
}

int
Mrt::nextFuFree(ClusterId c, FuClass fu, int from, int to, int step) const
{
    const int *use = &fuCount(c, fu, 0);
    const int cap = limit[static_cast<int>(fu)];
    for (int t = from, r = row(from); step > 0 ? t <= to : t >= to;
         t += step) {
        if (use[r] < cap)
            return t;
        r += step;
        if (r == _ii)
            r = 0;
        else if (r < 0)
            r = _ii - 1;
    }
    return kNoCycle;
}

int
Mrt::findBusSlot(int lo, int hi) const
{
    if (lo > hi)
        return -1;
    int limit = std::min(hi, lo + _ii - 1);
    for (int b = lo, r = row(lo); b <= limit; ++b) {
        if (busUse[r] < numBuses)
            return b;
        if (++r == _ii)
            r = 0;
    }
    return -1;
}

void
Mrt::rollback(Checkpoint cp)
{
    L0_ASSERT(cp.log <= undoLog.size(), "bad checkpoint");
    while (undoLog.size() > cp.log) {
        const UndoEntry &u = undoLog.back();
        if (u.isBus)
            --busUse[u.row];
        else
            --fuUse[(static_cast<std::size_t>(u.cluster) * 3 + u.fu) * _ii
                    + u.row];
        undoLog.pop_back();
    }
}

} // namespace l0vliw::sched
