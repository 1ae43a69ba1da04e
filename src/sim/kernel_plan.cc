#include "sim/kernel_plan.hh"

#include <algorithm>

#include "common/bytes.hh"
#include "common/intmath.hh"
#include "common/logging.hh"
#include "mem/interleaved.hh"
#include "mem/l0_system.hh"
#include "mem/multivliw.hh"
#include "mem/unified.hh"
#include "metrics/registry.hh"
#include "sim/address.hh"

namespace l0vliw::sim
{

namespace detail
{

Cycle
ReadyRing::get(OpId op, std::uint64_t iter) const
{
    std::size_t idx = slot(op, iter);
    L0_ASSERT(tag[idx] == iter,
              "ready-ring miss for op %d iter %llu (depth %llu)", op,
              static_cast<unsigned long long>(iter),
              static_cast<unsigned long long>(mask + 1));
    return ready[idx];
}

std::uint64_t
ChunkedOverlay::read(Addr addr, int size) const
{
    std::uint64_t value = base->load(addr, size);
    Addr first = addr & ~(kChunkBytes - 1);
    Addr last = (addr + size - 1) & ~(kChunkBytes - 1);
    patch(first, addr, size, value);
    if (last != first)
        patch(last, addr, size, value);
    return value;
}

const ChunkedOverlay::Chunk *
ChunkedOverlay::findChunk(Addr chunk_addr) const
{
    if (chunk_addr == cachedAddr)
        return cachedChunk;
    auto it = chunks.find(chunk_addr);
    if (it == chunks.end() || it->second.generation != generation)
        return nullptr;
    cachedAddr = chunk_addr;
    cachedChunk = const_cast<Chunk *>(&it->second);
    return &it->second;
}

ChunkedOverlay::Chunk &
ChunkedOverlay::chunkFor(Addr chunk_addr)
{
    if (chunk_addr == cachedAddr)
        return *cachedChunk;
    Chunk &c = chunks[chunk_addr];
    if (c.generation != generation) {
        c.generation = generation;
        c.mask = 0;
    }
    cachedAddr = chunk_addr;
    cachedChunk = &c;
    return c;
}

void
ChunkedOverlay::patch(Addr chunk_addr, Addr addr, int size,
                      std::uint64_t &value) const
{
    const Chunk *c = findChunk(chunk_addr);
    if (!c)
        return;
    for (int i = 0; i < size; ++i) {
        Addr a = addr + i;
        if ((a & ~(kChunkBytes - 1)) != chunk_addr)
            continue;
        unsigned off = static_cast<unsigned>(a - chunk_addr);
        if (c->mask >> off & 1) {
            const unsigned shift = 8 * static_cast<unsigned>(i);
            value = (value & ~(0xffULL << shift))
                    | loadBytes(c->words, off, 1) << shift;
        }
    }
}

void
ChunkedOverlay::write(Addr addr, std::uint64_t value, int size)
{
    int i = 0;
    while (i < size) {
        Addr a = addr + i;
        Addr chunk_addr = a & ~(kChunkBytes - 1);
        Chunk &c = chunkFor(chunk_addr);
        unsigned off = static_cast<unsigned>(a - chunk_addr);
        int n = std::min(size - i, static_cast<int>(kChunkBytes - off));
        storeBytes(c.words, off, value >> (8 * i), n);
        c.mask |= ((1ULL << n) - 1) << off;
        i += n;
    }
}

} // namespace detail

namespace
{

/** @p x mod @p m with the result in [0, m) (m > 0). */
long
floorMod(long x, long m)
{
    long r = x % m;
    return r < 0 ? r + m : r;
}

/** The address generator of memory op @p id, matching addressOf(). */
detail::AddrGen
compileGen(const ir::Loop &loop, OpId id)
{
    const ir::Operation &op = loop.op(id);
    const ir::ArrayInfo &arr = loop.array(op.mem.array);
    std::uint64_t elems = arr.sizeBytes / op.mem.elemSize;
    L0_ASSERT(elems > 0, "array %s too small", arr.name.c_str());
    L0_ASSERT(elems <= UINT32_MAX,
              "array %s has too many elements for a u32 divisor",
              arr.name.c_str());

    detail::AddrGen g;
    g.op = id;
    g.elems = static_cast<std::uint32_t>(elems);
    g.elemSize = op.mem.elemSize;
    g.lo = arr.base;
    g.hi = arr.base + elems * static_cast<Addr>(op.mem.elemSize);
    g.strided = op.mem.strided;
    if (g.strided) {
        long first = floorMod(op.mem.offsetElems,
                              static_cast<long>(elems));
        long step = floorMod(op.mem.strideElems,
                             static_cast<long>(elems));
        g.start = arr.base
                  + static_cast<Addr>(first) * op.mem.elemSize;
        g.stepBytes = static_cast<Addr>(step) * op.mem.elemSize;
    }
    return g;
}

detail::AddrCursor
initialCursor(const detail::AddrGen &g)
{
    detail::AddrCursor c;
    c.cur = g.start;
    c.iter = 0;
    return c;
}

/** Some byte lies in both generators' ranges [lo, hi). */
bool
overlaps(const detail::AddrGen &a, const detail::AddrGen &b)
{
    return a.lo < b.hi && b.lo < a.hi;
}

bool
sameOptions(const SimOptions &a, const SimOptions &b)
{
    return a.checkCoherence == b.checkCoherence
           && a.strictCoherence == b.strictCoherence;
}

/**
 * Fold scratch shared by every plan on a thread (run() is not
 * reentrant): the memory state a simulated invocation starts from
 * (MemSystem::saveState(), a few thousand words, too many to keep one
 * per plan), and a probe of the counters and time key.
 */
struct FoldScratch
{
    std::vector<std::uint64_t> stateBefore, probe;
};
thread_local FoldScratch foldScratch;

} // namespace

KernelPlan::KernelPlan(sched::Schedule schedule)
    : sched_(std::move(schedule))
{
    {
        static metrics::Counter &builds = metrics::counter(
            "l0vliw_sim_plan_builds_total",
            "KernelPlans compiled from schedules (one per loop per "
            "cell execution)");
        builds.inc();
    }
    const ir::Loop &loop = sched_.loop;
    const int n = loop.numOps();
    const int ii = sched_.ii;
    numOps_ = n;

    int max_dist = 0;
    for (const auto &e : loop.edges())
        max_dist = std::max(max_dist, e.distance);
    int num_mem = 0;
    for (OpId i = 0; i < n; ++i) {
        maxStart_ = std::max(maxStart_, sched_.ops[i].startCycle);
        num_mem += ir::isMemKind(loop.op(i).kind);
    }
    ring_.init(n, sched_.stageCount + max_dist + 2);

    // The per-op and per-row tables below, carved out of one buffer.
    std::vector<int> work(5 * static_cast<std::size_t>(n) + ii + 2
                              + std::max(n, ii),
                          0);
    int *use_begin = work.data();       // n + 1
    int *row_begin = use_begin + n + 1; // ii + 1
    int *row_ops = row_begin + ii + 1;  // n
    int *gen_of = row_ops + n;          // n
    int *load_idx = gen_of + n;         // n
    int *listed = load_idx + n;         // n
    int *next = listed + n;             // max(n, ii)

    // Load-use register inputs, grouped per consumer in edge order
    // (CSR): op i's are op_uses[use_begin[i] .. use_begin[i + 1]).
    auto load_use = [&](const ir::DepEdge &e) {
        return e.kind == ir::DepKind::Reg
               && loop.op(e.src).kind == ir::OpKind::Load;
    };
    for (const auto &e : loop.edges())
        if (load_use(e))
            ++use_begin[e.dst + 1];
    for (OpId i = 0; i < n; ++i)
        use_begin[i + 1] += use_begin[i];
    std::vector<Use> op_uses(use_begin[n]);
    std::copy(use_begin, use_begin + n, next);
    for (const auto &e : loop.edges()) {
        if (!load_use(e))
            continue;
        bool cross =
            sched_.ops[e.src].cluster != sched_.ops[e.dst].cluster;
        op_uses[next[e.dst]++] = {e.src, e.distance, cross};
    }

    // Bucket ops by kernel row, preserving program (OpId) order:
    // row r's are row_ops[row_begin[r] .. row_begin[r + 1]).
    for (OpId i = 0; i < n; ++i)
        ++row_begin[sched_.ops[i].startCycle % ii + 1];
    for (int r = 0; r < ii; ++r)
        row_begin[r + 1] += row_begin[r];
    std::copy(row_begin, row_begin + ii, next);
    for (OpId i = 0; i < n; ++i)
        row_ops[next[sched_.ops[i].startCycle % ii]++] = i;

    // Address generators, in program order.
    gens_.reserve(num_mem);
    for (OpId i = 0; i < n; ++i) {
        gen_of[i] = -1;
        if (!ir::isMemKind(loop.op(i).kind))
            continue;
        gen_of[i] = static_cast<int>(gens_.size());
        gens_.push_back(compileGen(loop, i));
    }
    goldenCursors_.resize(gens_.size());
    execCursors_.resize(gens_.size());

    // The oracle's classification (ARCHITECTURE.md invariant 13). A
    // load whose bytes no primary store of the loop can write reads
    // the same backing bytes all invocation long; only loads of
    // written bytes, and the primary stores that can write them, are
    // replayed. listed[0 .. stores) holds the primary stores, then
    // listed[stores .. replayed) the replayed loads.
    auto primary_store = [&](OpId i) {
        return loop.op(i).kind == ir::OpKind::Store
               && loop.op(i).mem.primaryStore;
    };
    auto overlaps_any = [&](OpId i, const int *first, const int *last) {
        for (const int *j = first; j != last; ++j)
            if (overlaps(gens_[gen_of[i]], gens_[gen_of[*j]]))
                return true;
        return false;
    };
    int stores = 0;
    for (OpId i = 0; i < n; ++i)
        if (primary_store(i))
            listed[stores++] = i;
    storesBacking_ = stores > 0;
    int replayed_end = stores;
    for (OpId i = 0; i < n; ++i) {
        load_idx[i] = -1;
        if (loop.op(i).kind == ir::OpKind::Load
                && overlaps_any(i, listed, listed + stores)) {
            listed[replayed_end++] = i;
            load_idx[i] = numReplayed_++;
        }
    }
    for (OpId i = 0; i < n; ++i) {
        const ir::Operation &op = loop.op(i);
        if (load_idx[i] < 0
                && (!primary_store(i)
                    || !overlaps_any(i, listed + stores,
                                     listed + replayed_end)))
            continue;
        goldenOps_.push_back({i, op.kind == ir::OpKind::Load, gen_of[i],
                              load_idx[i], op.mem.elemSize});
    }

    // Flatten rows: a row matters only if some op in it needs an
    // operand check or issues a memory access; rows of pure ALU ops
    // with loop-invariant inputs contribute nothing to stall or memory
    // traffic and are skipped entirely by the executor.
    int with_uses = 0;
    for (OpId i = 0; i < n; ++i)
        with_uses += use_begin[i + 1] > use_begin[i];
    depSlots_.reserve(with_uses);
    memSlots_.reserve(num_mem);
    uses_.reserve(op_uses.size());
    rows_.reserve(std::min(n, ii));
    bool stages_seen = false;
    for (int r = 0; r < ii; ++r) {
        Row row;
        row.row = r;
        row.depBegin = static_cast<int>(depSlots_.size());
        row.memBegin = static_cast<int>(memSlots_.size());
        for (int ri = row_begin[r]; ri < row_begin[r + 1]; ++ri) {
            const OpId i = row_ops[ri];
            const ir::Operation &op = loop.op(i);
            bool is_mem = ir::isMemKind(op.kind);
            bool has_uses = use_begin[i + 1] > use_begin[i];
            if (!has_uses && !is_mem)
                continue;

            const int stage = sched_.ops[i].startCycle / ii;
            if (has_uses) {
                DepSlot ds;
                ds.stage = stage;
                ds.useBegin = static_cast<int>(uses_.size());
                uses_.insert(uses_.end(), op_uses.begin() + use_begin[i],
                             op_uses.begin() + use_begin[i + 1]);
                ds.useEnd = static_cast<int>(uses_.size());
                depSlots_.push_back(ds);
            }
            if (is_mem) {
                const sched::OpSchedule &os = sched_.ops[i];
                MemSlot sl;
                sl.op = i;
                sl.stage = stage;
                sl.isLoad = op.kind == ir::OpKind::Load;
                sl.isStore = op.kind == ir::OpKind::Store;
                sl.gen = gen_of[i];
                sl.loadIdx = load_idx[i];
                sl.acc.isLoad = sl.isLoad;
                sl.acc.isPrefetch = op.kind == ir::OpKind::Prefetch;
                sl.acc.size = op.mem.elemSize;
                sl.acc.cluster = os.cluster;
                sl.acc.access = os.access;
                sl.acc.map = os.map;
                sl.acc.prefetch = os.prefetch;
                sl.acc.primaryStore = op.mem.primaryStore;
                sl.acc.psrReplicated = op.mem.psrReplicated;
                memSlots_.push_back(sl);
            }

            if (!stages_seen) {
                minStage_ = maxStage_ = stage;
                stages_seen = true;
            } else {
                minStage_ = std::min(minStage_, stage);
                maxStage_ = std::max(maxStage_, stage);
            }
        }
        row.depEnd = static_cast<int>(depSlots_.size());
        row.memEnd = static_cast<int>(memSlots_.size());
        if (row.depEnd > row.depBegin || row.memEnd > row.memBegin)
            rows_.push_back(row);
    }
}

Addr
KernelPlan::nextAddr(int gen, detail::AddrCursor &cursor) const
{
    const detail::AddrGen &g = gens_[gen];
    if (g.strided) {
        Addr a = cursor.cur;
        Addr next = a + g.stepBytes;
        if (next >= g.hi)
            next -= g.hi - g.lo;
        cursor.cur = next;
        return a;
    }
    std::uint64_t elem = fastMod(
        mix(static_cast<std::uint64_t>(g.op) + 1, cursor.iter++), g.elems);
    return g.lo + elem * static_cast<Addr>(g.elemSize);
}

void
KernelPlan::goldenReplay(const mem::Backing &backing, std::uint64_t trips)
{
    overlay_.reset(backing);
    for (std::size_t i = 0; i < gens_.size(); ++i)
        goldenCursors_[i] = initialCursor(gens_[i]);
    expected_.resize(static_cast<std::size_t>(numReplayed_) * trips);
    for (std::uint64_t iter = 0; iter < trips; ++iter) {
        for (const GoldenOp &g : goldenOps_) {
            Addr addr = nextAddr(g.gen, goldenCursors_[g.gen]);
            if (g.isLoad) {
                expected_[static_cast<std::size_t>(g.loadIdx) * trips
                          + iter] = overlay_.read(addr, g.size);
            } else {
                overlay_.write(addr, storeValue(g.op, iter), g.size);
            }
        }
    }
}

template <bool Steady, typename TMem>
void
KernelPlan::runRowInstance(const Row &row, long k, std::uint64_t trips,
                           Cycle start_cycle, Cycle bus_latency,
                           TMem &mem, const SimOptions &opts,
                           std::uint64_t &stall, InvocationResult &out)
{
    const long t = k * sched_.ii + row.row;

    // Operand readiness of the whole bundle first; one global stall.
    Cycle actual = start_cycle + static_cast<Cycle>(t) + stall;
    Cycle required = actual;
    for (int di = row.depBegin; di < row.depEnd; ++di) {
        const DepSlot &sl = depSlots_[di];
        const long iter = k - sl.stage;
        if (!Steady
            && (iter < 0 || iter >= static_cast<long>(trips)))
            continue;
        for (int ui = sl.useBegin; ui < sl.useEnd; ++ui) {
            const Use &u = uses_[ui];
            long j = iter - u.distance;
            if (j < 0)
                continue; // live-in: produced before the loop
            Cycle r = ring_.get(u.producer,
                                static_cast<std::uint64_t>(j));
            if (u.crossCluster)
                r += bus_latency;
            if (r > required)
                required = r;
        }
    }
    if (required > actual) {
        stall += required - actual;
        actual = required;
    }

    // Issue the bundle's memory accesses in program order.
    for (int mi = row.memBegin; mi < row.memEnd; ++mi) {
        MemSlot &sl = memSlots_[mi];
        const long iter = k - sl.stage;
        if (!Steady
            && (iter < 0 || iter >= static_cast<long>(trips)))
            continue;

        mem::MemAccess &acc = sl.acc;
        acc.addr = nextAddr(sl.gen, execCursors_[sl.gen]);

        mem::MemAccessResult res = mem.access(
            acc, actual,
            sl.isStore ? storeValue(sl.op, static_cast<std::uint64_t>(iter))
                       : 0);
        ++out.memAccesses;

        if (sl.isLoad) {
            ring_.set(sl.op, static_cast<std::uint64_t>(iter),
                      res.ready);
            if (opts.checkCoherence) {
                const std::uint64_t got = res.value;
                std::uint64_t want;
                if (sl.loadIdx >= 0) {
                    want = expected_[static_cast<std::size_t>(sl.loadIdx)
                                         * trips
                                     + static_cast<std::uint64_t>(iter)];
                } else {
                    // No store of the loop writes these bytes: the
                    // backing holds the value a replay would compute.
                    want = mem.backing().load(acc.addr, acc.size);
                }
                if (got != want) {
                    ++out.coherenceViolations;
                    if (opts.strictCoherence) {
                        panic("coherence violation: loop %s op %d "
                              "(%s) iter %llu addr %#llx: got %#llx "
                              "expected %#llx",
                              sched_.loop.name().c_str(), sl.op,
                              sched_.loop.op(sl.op).tag.c_str(),
                              static_cast<unsigned long long>(iter),
                              static_cast<unsigned long long>(acc.addr),
                              static_cast<unsigned long long>(got),
                              static_cast<unsigned long long>(want));
                    }
                }
            }
        }
    }
}

template <typename TMem>
void
KernelPlan::runPhases(TMem &mem, std::uint64_t trips, Cycle start_cycle,
                      Cycle bus_latency, const SimOptions &opts,
                      std::uint64_t &stall, InvocationResult &out)
{
    // k counts kernel-row instances: cycle t = k * II + row. A slot is
    // live for k in [stage, stage + trips); between the last ramp-up
    // stage and the first drained one every slot of every row is live,
    // so that whole band runs unguarded. The per-slot liveness guards
    // subsume the t <= last_issue bound of the cycle walk: a live
    // slot's issue cycle is startCycle + iter * II <= maxStart +
    // (trips-1) * II.
    const long k_end = maxStage_ + static_cast<long>(trips);
    const long steady_beg = maxStage_;
    const long steady_end = std::max<long>(
        steady_beg, minStage_ + static_cast<long>(trips));
    for (long k = 0; k < steady_beg; ++k)
        for (const Row &row : rows_)
            runRowInstance<false>(row, k, trips, start_cycle,
                                  bus_latency, mem, opts, stall, out);
    for (long k = steady_beg; k < steady_end; ++k)
        for (const Row &row : rows_)
            runRowInstance<true>(row, k, trips, start_cycle,
                                 bus_latency, mem, opts, stall, out);
    for (long k = steady_end; k < k_end; ++k)
        for (const Row &row : rows_)
            runRowInstance<false>(row, k, trips, start_cycle,
                                  bus_latency, mem, opts, stall, out);
}

InvocationResult
KernelPlan::run(mem::MemSystem &mem, std::uint64_t trips,
                Cycle start_cycle, const SimOptions &opts)
{
    {
        static metrics::Counter &runs = metrics::counter(
            "l0vliw_sim_plan_runs_total",
            "Compiled-plan invocations (a plan builds once and runs "
            "once per loop invocation)");
        runs.inc();
    }
    if (trips == 0)
        return InvocationResult{};

    if (tryFold(mem, trips, start_cycle, opts)) {
        static metrics::Counter &folds = metrics::counter(
            "l0vliw_sim_plan_folds_total",
            "Compiled-plan invocations folded: proven exact repeats of "
            "the previous invocation, returned without simulating");
        folds.inc();
        ++folded_;
        return fold_.result;
    }
    ++simulated_;

    FoldRecord &f = fold_;
    const std::uint64_t version_before = mem.backing().version();
    // A run's writes are a function of (plan, trips) alone, so they
    // change no byte when this plan's previous call applied the same
    // writes (or folded them: a fold implies they change nothing) and
    // nothing wrote since.
    const bool rewrites = f.memId == mem.id() && f.trips == trips
                          && f.backingVersion == version_before;
    // Otherwise a plan with a primary store writes the backing (every
    // op issues once per iteration), so this call will not be
    // foldable and what only folding reads is not recorded.
    const bool may_fold = rewrites || !storesBacking_;
    std::vector<std::uint64_t> &state_before = foldScratch.stateBefore;
    if (may_fold) {
        state_before.clear();
        mem.saveState(state_before);
        f.timeKey.clear();
        mem.timeKey(start_cycle, f.timeKey);
        f.delta.clear();
        mem.counterSnapshot(f.delta);
    }

    const InvocationResult out =
        simulate(mem, trips, start_cycle, opts);

    f.backingVersion = mem.backing().version();
    f.foldable = false;
    if (may_fold) {
        f.counters.clear();
        mem.counterSnapshot(f.counters);
        for (std::size_t i = 0; i < f.counters.size(); ++i)
            f.delta[i] = f.counters[i] - f.delta[i];
        if (rewrites || f.backingVersion == version_before)
            f.foldable = mem.matchesState(state_before);
    } else {
        L0_ASSERT(f.backingVersion != version_before,
                  "a storing invocation left the backing unwritten");
    }
    f.memId = mem.id();
    f.trips = trips;
    f.opts = opts;
    f.start = start_cycle;
    f.result = out;
    return out;
}

bool
KernelPlan::tryFold(mem::MemSystem &mem, std::uint64_t trips,
                    Cycle start_cycle, const SimOptions &opts)
{
    FoldRecord &f = fold_;
    // The memory system must be exactly as this plan's previous call
    // left it — same system, no backing write, no counter moved (every
    // access moves one) — and that call must repeat a simulated
    // invocation with the same inputs that left the backing and the
    // stateKey() as it found them. What remains to compare is time.
    if (!f.foldable || f.memId != mem.id() || f.trips != trips
        || !sameOptions(f.opts, opts) || start_cycle < f.start
        || mem.backing().version() != f.backingVersion)
        return false;
    std::vector<std::uint64_t> &probe = foldScratch.probe;
    probe.clear();
    mem.counterSnapshot(probe);
    if (probe != f.counters)
        return false;
    probe.clear();
    mem.timeKey(start_cycle, probe);
    if (probe != f.timeKey)
        return false;

    mem.addCounters(f.delta.data());
    for (std::size_t i = 0; i < f.counters.size(); ++i)
        f.counters[i] += f.delta[i];
    mem.shiftTime(f.start, start_cycle);
    f.start = start_cycle;
    return true;
}

InvocationResult
KernelPlan::simulate(mem::MemSystem &mem, std::uint64_t trips,
                     Cycle start_cycle, const SimOptions &opts)
{
    InvocationResult out;
    const machine::MachineConfig &cfg = mem.config();
    const Cycle bus_latency = cfg.busLatency;

    if (opts.checkCoherence && numReplayed_ > 0)
        goldenReplay(mem.backing(), trips);

    ring_.reset();
    for (std::size_t i = 0; i < gens_.size(); ++i)
        execCursors_[i] = initialCursor(gens_[i]);

    std::uint64_t stall = 0;
    if (!rows_.empty()) {
        // One type switch per invocation so the per-access call into
        // the (final) memory system is direct, not virtual. Any other
        // MemSystem (tests' fakes) takes the virtual call.
        auto phases = [&](auto &m) {
            runPhases(m, trips, start_cycle, bus_latency, opts, stall,
                      out);
        };
        if (auto *l0 = dynamic_cast<mem::L0MemSystem *>(&mem))
            phases(*l0);
        else if (auto *u = dynamic_cast<mem::UnifiedMemSystem *>(&mem))
            phases(*u);
        else if (auto *mv = dynamic_cast<mem::MultiVliwMemSystem *>(&mem))
            phases(*mv);
        else if (auto *wi =
                     dynamic_cast<mem::InterleavedMemSystem *>(&mem))
            phases(*wi);
        else
            phases(mem);
    }

    const long last_issue =
        maxStart_ + static_cast<long>(trips - 1) * sched_.ii;
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
