#include "sim/kernel_sim.hh"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "sim/address.hh"
#include "sim/kernel_plan.hh"

namespace l0vliw::sim
{

InvocationResult
simulateInvocation(const sched::Schedule &schedule, mem::MemSystem &mem,
                   std::uint64_t trips, Cycle start_cycle,
                   const SimOptions &opts)
{
    KernelPlan plan(schedule);
    return plan.run(mem, trips, start_cycle, opts);
}

namespace
{

/** Ring buffer of per-iteration load-ready times. */
class ReadyRing
{
  public:
    void
    init(int num_ops, int depth)
    {
        this->depth = depth;
        ready.assign(static_cast<std::size_t>(num_ops) * depth, 0);
        tag.assign(static_cast<std::size_t>(num_ops) * depth, ~0ULL);
    }

    void
    set(OpId op, std::uint64_t iter, Cycle when)
    {
        std::size_t idx = slot(op, iter);
        ready[idx] = when;
        tag[idx] = iter;
    }

    Cycle
    get(OpId op, std::uint64_t iter) const
    {
        std::size_t idx = slot(op, iter);
        L0_ASSERT(tag[idx] == iter,
                  "ready-ring miss for op %d iter %llu (depth %d)", op,
                  static_cast<unsigned long long>(iter), depth);
        return ready[idx];
    }

  private:
    std::size_t
    slot(OpId op, std::uint64_t iter) const
    {
        return static_cast<std::size_t>(op) * depth + iter % depth;
    }

    int depth = 0;
    std::vector<Cycle> ready;
    std::vector<std::uint64_t> tag;
};

/** Byte overlay over the pre-invocation backing state. */
class GoldenOverlay
{
  public:
    explicit GoldenOverlay(const mem::Backing &base) : base(base) {}

    std::uint64_t
    read(Addr addr, int size) const
    {
        std::uint64_t value = base.load(addr, size);
        for (int i = 0; i < size; ++i) {
            auto it = overlay.find(addr + i);
            if (it != overlay.end()) {
                const unsigned shift = 8 * static_cast<unsigned>(i);
                value = (value & ~(0xffULL << shift))
                        | std::uint64_t{it->second} << shift;
            }
        }
        return value;
    }

    void
    write(Addr addr, std::uint64_t value, int size)
    {
        for (int i = 0; i < size; ++i)
            overlay[addr + i] = static_cast<std::uint8_t>(value >> (8 * i));
    }

  private:
    const mem::Backing &base;
    std::unordered_map<Addr, std::uint8_t> overlay;
};

/** A register flow edge whose producer is a load (the only edges with
 *  variable timing). */
struct LoadUse
{
    OpId producer;
    int distance;
    bool crossCluster;
};

} // namespace

InvocationResult
simulateInvocationReference(const sched::Schedule &schedule,
                            mem::MemSystem &mem, std::uint64_t trips,
                            Cycle start_cycle, const SimOptions &opts)
{
    InvocationResult out;
    if (trips == 0)
        return out;

    const ir::Loop &loop = schedule.loop;
    const int n = loop.numOps();
    const int ii = schedule.ii;
    const machine::MachineConfig &cfg = mem.config();

    // Kernel row -> ops issuing on that row.
    std::vector<std::vector<OpId>> row_ops(ii);
    int max_start = 0, max_dist = 0;
    for (OpId i = 0; i < n; ++i) {
        row_ops[schedule.ops[i].startCycle % ii].push_back(i);
        max_start = std::max(max_start, schedule.ops[i].startCycle);
    }
    for (const auto &e : loop.edges())
        max_dist = std::max(max_dist, e.distance);

    // Per-op list of load-producing register inputs.
    std::vector<std::vector<LoadUse>> uses(n);
    for (const auto &e : loop.edges()) {
        if (e.kind != ir::DepKind::Reg)
            continue;
        if (loop.op(e.src).kind != ir::OpKind::Load)
            continue;
        bool cross = schedule.ops[e.src].cluster
                     != schedule.ops[e.dst].cluster;
        uses[e.dst].push_back({e.src, e.distance, cross});
    }

    ReadyRing ring;
    ring.init(n, schedule.stageCount + max_dist + 2);

    // Golden replay in program order (iteration-major, op id order).
    std::vector<std::vector<std::uint64_t>> expected(n);
    if (opts.checkCoherence) {
        GoldenOverlay golden(mem.backing());
        for (OpId i = 0; i < n; ++i)
            if (loop.op(i).kind == ir::OpKind::Load)
                expected[i].resize(trips);
        for (std::uint64_t iter = 0; iter < trips; ++iter) {
            for (OpId i = 0; i < n; ++i) {
                const ir::Operation &op = loop.op(i);
                if (op.kind == ir::OpKind::Load) {
                    expected[i][iter] = golden.read(
                        addressOf(loop, i, iter), op.mem.elemSize);
                } else if (op.kind == ir::OpKind::Store
                           && op.mem.primaryStore) {
                    golden.write(addressOf(loop, i, iter),
                                 storeValue(i, iter), op.mem.elemSize);
                }
            }
        }
    }

    const long last_issue =
        max_start + static_cast<long>(trips - 1) * ii;
    std::uint64_t stall = 0;

    for (long t = 0; t <= last_issue; ++t) {
        const auto &ops_here = row_ops[t % ii];
        if (ops_here.empty())
            continue;

        // Collect the bundle and its operand readiness.
        Cycle actual = start_cycle + static_cast<Cycle>(t) + stall;
        Cycle required = actual;
        for (OpId id : ops_here) {
            long s = schedule.ops[id].startCycle;
            if (t < s)
                continue;
            std::uint64_t iter = static_cast<std::uint64_t>(t - s) / ii;
            if (iter >= trips)
                continue;
            for (const LoadUse &u : uses[id]) {
                long j = static_cast<long>(iter) - u.distance;
                if (j < 0)
                    continue; // live-in: produced before the loop
                Cycle r = ring.get(u.producer,
                                   static_cast<std::uint64_t>(j));
                if (u.crossCluster)
                    r += cfg.busLatency;
                required = std::max(required, r);
            }
        }
        if (required > actual) {
            stall += required - actual;
            actual = required;
        }

        // Issue the bundle.
        for (OpId id : ops_here) {
            long s = schedule.ops[id].startCycle;
            if (t < s)
                continue;
            std::uint64_t iter = static_cast<std::uint64_t>(t - s) / ii;
            if (iter >= trips)
                continue;
            const ir::Operation &op = loop.op(id);
            if (!ir::isMemKind(op.kind))
                continue;

            const sched::OpSchedule &os = schedule.ops[id];
            mem::MemAccess acc;
            acc.isLoad = op.kind == ir::OpKind::Load;
            acc.isPrefetch = op.kind == ir::OpKind::Prefetch;
            acc.addr = addressOf(loop, id, iter);
            acc.size = op.mem.elemSize;
            acc.cluster = os.cluster;
            acc.access = os.access;
            acc.map = os.map;
            acc.prefetch = os.prefetch;
            acc.primaryStore = op.mem.primaryStore;
            acc.psrReplicated = op.mem.psrReplicated;

            mem::MemAccessResult res = mem.access(
                acc, actual,
                op.kind == ir::OpKind::Store ? storeValue(id, iter) : 0);
            ++out.memAccesses;

            if (acc.isLoad) {
                ring.set(id, iter, res.ready);
                if (opts.checkCoherence) {
                    std::uint64_t got = res.value;
                    if (got != expected[id][iter]) {
                        ++out.coherenceViolations;
                        if (opts.strictCoherence) {
                            panic("coherence violation: loop %s op %d "
                                  "(%s) iter %llu addr %#llx: got %#llx "
                                  "expected %#llx",
                                  loop.name().c_str(), id, op.tag.c_str(),
                                  static_cast<unsigned long long>(iter),
                                  static_cast<unsigned long long>(acc.addr),
                                  static_cast<unsigned long long>(got),
                                  static_cast<unsigned long long>(
                                      expected[id][iter]));
                        }
                    }
                }
            }
        }
    }

    out.computeCycles = static_cast<std::uint64_t>(last_issue + 1);
    // The inter-loop coherence flush: one invalidate_buffer row on L0
    // machines (constant latency because the buffers are write-through).
    if (cfg.memArch == machine::MemArch::L0Buffers)
        out.computeCycles += 1;
    out.stallCycles = stall;
    mem.endLoop(start_cycle + out.totalCycles());
    return out;
}

} // namespace l0vliw::sim
