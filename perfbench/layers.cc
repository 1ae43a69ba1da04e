/**
 * @file
 * The traced re-execution: one grid run again through the public
 * calls Suite::run, executeCellJob, buildLoopPlans and runCell make —
 * registry resolve, ir::specializeLoop/unrollLoop,
 * ModuloScheduler::schedule, validateSchedule, the KernelPlan
 * constructor, MemSystem::create and KernelPlan::run per invocation —
 * with a steady-clock timer around each call. The spans are the
 * benchmark's own, around calls into each layer; nothing inside the
 * program is instrumented.
 *
 * The aggregation below mirrors runCell() so that every re-executed
 * BenchmarkRun can be compared bit for bit with the one the product's
 * executor produced; a mismatch is a failed cell.
 */

#include <cstdio>
#include <memory>

#include "driver/executor.hh"
#include "driver/registry.hh"
#include "harness.hh"
#include "ir/loop.hh"
#include "ir/memdep.hh"
#include "mem/l0_system.hh"
#include "mem/mem_system.hh"
#include "sched/scheduler.hh"
#include "sched/validate.hh"
#include "sim/kernel_plan.hh"
#include "workloads/registry.hh"

namespace perfbench
{

using namespace l0vliw;

namespace
{

/** runCell()'s per-invocation specialization-check charge. */
constexpr std::uint64_t kSpecializationCheckCycles = 4;

using Plans = std::vector<std::shared_ptr<sim::KernelPlan>>;

/** Adds the time since construction to a slot when it goes out of
 *  scope. */
class Span
{
  public:
    explicit Span(double &slot) : slot_(slot), start_(Clock::now()) {}
    ~Span() { slot_ += secondsSince(start_); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    double &slot_;
    Clock::time_point start_;
};

/** buildLoopPlans(), one timed call per layer. */
Plans
tracedPlans(const workloads::Benchmark &bench,
            const driver::ArchSpec &arch, const std::vector<int> &unrolls,
            LayerTimes &t)
{
    std::unique_ptr<sched::ModuloScheduler> scheduler;
    {
        Span span(t.scheduleS);
        scheduler = std::make_unique<sched::ModuloScheduler>(arch.config,
                                                             arch.sched);
    }
    Plans plans;
    for (std::size_t i = 0; i < bench.loops.size(); ++i) {
        const workloads::LoopInstance &li = bench.loops[i];
        ir::Loop body;
        {
            Span span(t.irS);
            body = li.specialize ? ir::specializeLoop(li.loop) : li.loop;
            if (unrolls[i] > 1)
                body = ir::unrollLoop(body, unrolls[i]);
        }
        sched::Schedule schedule;
        {
            Span span(t.scheduleS);
            schedule = scheduler->schedule(body);
        }
        if (arch.sched.selectiveL0) {
            Span span(t.validateS);
            (void)sched::validateSchedule(schedule, arch.config);
        }
        Span span(t.compileS);
        plans.push_back(std::make_shared<sim::KernelPlan>(schedule));
    }
    return plans;
}

/** runCell(), with MemSystem::create, every KernelPlan::run and the
 *  aggregation timed apart. @p checkCoherence false is the oracle-off
 *  pass, which accumulates into runNoOracleS only. */
driver::BenchmarkRun
tracedRun(const workloads::Benchmark &bench, const driver::ArchSpec &arch,
          const std::vector<int> &unrolls, const Plans &plans,
          const driver::BenchmarkRun *baseline, LayerTimes &t,
          bool checkCoherence = true)
{
    double scratch = 0;
    double &memSlot = checkCoherence ? t.memCreateS : scratch;
    double &runSlot = checkCoherence ? t.runS : t.runNoOracleS;
    double &foldSlot = checkCoherence ? t.foldS : scratch;

    std::unique_ptr<mem::MemSystem> mem;
    {
        Span span(memSlot);
        mem = mem::MemSystem::create(arch.config);
    }

    sim::SimOptions opts;
    opts.checkCoherence = checkCoherence;

    driver::BenchmarkRun out;
    out.bench = bench.name;
    out.arch = arch.label;
    Cycle clock = 0;
    double unrollWeighted = 0;
    std::uint64_t loopCyclesTotal = 0;
    for (std::size_t i = 0; i < bench.loops.size(); ++i) {
        const workloads::LoopInstance &li = bench.loops[i];
        int u = unrolls[i];
        std::uint64_t trips = li.trips / u;
        std::uint64_t loopCycles = 0;
        for (std::uint64_t inv = 0; inv < li.invocations; ++inv) {
            sim::InvocationResult res;
            {
                Span span(runSlot);
                res = plans[i]->run(*mem, trips, clock, opts);
            }
            std::uint64_t specCost =
                li.specialize ? kSpecializationCheckCycles : 0;
            clock += res.totalCycles() + specCost;
            out.loopCompute += res.computeCycles + specCost;
            out.loopStall += res.stallCycles;
            out.memAccesses += res.memAccesses;
            out.coherenceViolations += res.coherenceViolations;
            loopCycles += res.totalCycles() + specCost;
        }
        unrollWeighted += static_cast<double>(loopCycles) * u;
        loopCyclesTotal += loopCycles;
    }

    Span span(foldSlot);
    out.avgUnroll = loopCyclesTotal == 0
                        ? 1.0
                        : unrollWeighted / loopCyclesTotal;
    if (auto *l0 = dynamic_cast<mem::L0MemSystem *>(mem.get())) {
        StatSet merged = l0->l0Stats();
        out.memStats = merged;
        out.l0Hits = merged.get("l0_hits");
        out.l0Misses = merged.get("l0_misses");
        out.fillsLinear = merged.get("l0_fills_linear");
        out.fillsInterleaved = merged.get("l0_fills_interleaved");
    } else {
        out.memStats = mem->stats();
    }
    out.scalarCycles = baseline->scalarCycles;
    return out;
}

bool
sameRun(const driver::BenchmarkRun &a, const driver::BenchmarkRun &b)
{
    return driver::benchmarkRunToJson(a) == driver::benchmarkRunToJson(b);
}

} // namespace

double
LayerTimes::layerSum() const
{
    return resolveS + phase0UnrollS + phase0BaselineS + irS + scheduleS
           + validateS + compileS + memCreateS + runS + foldS + renderS;
}

LayerTimes
traceGrid(const driver::ResultGrid &reference,
          const std::vector<std::string> &benchLabels)
{
    LayerTimes t;
    const std::size_t nb = reference.numBenches();
    const std::size_t na = reference.numArchs();
    const driver::ArchSpec unified = driver::ArchSpec::unified();

    struct Done
    {
        std::size_t b = 0, a = 0;
        workloads::Benchmark bench;
        driver::ArchSpec arch;
        Plans plans;
        driver::BenchmarkRun run;
    };
    std::vector<Done> done;
    std::vector<driver::BenchmarkRun> baselines(nb);
    std::vector<std::vector<int>> unrolls(nb);

    Clock::time_point start = Clock::now();
    // Phase 0, as Suite::run does it: unroll decisions, then the
    // unified baselines.
    for (std::size_t b = 0; b < nb; ++b) {
        Span span(t.phase0UnrollS);
        unrolls[b] = driver::chooseUnrollFactors(reference.bench(b));
    }
    for (std::size_t b = 0; b < nb; ++b) {
        Span span(t.phase0BaselineS);
        Plans plans = driver::buildLoopPlans(reference.bench(b), unified,
                                             unrolls[b]);
        baselines[b] = driver::runCell(reference.bench(b), unified,
                                       unrolls[b], plans, nullptr);
    }
    // Every dispatched cell, as executeCellJob runs it.
    for (std::size_t b = 0; b < nb; ++b) {
        for (std::size_t a = 0; a < na; ++a) {
            if (reference.arch(a).label == "unified")
                continue;
            Done cell;
            cell.b = b;
            cell.a = a;
            {
                Span span(t.resolveS);
                cell.bench = *workloads::workloadRegistry().tryResolve(
                    benchLabels[b]);
                cell.arch = *driver::archRegistry().tryResolve(
                    reference.arch(a).label);
            }
            cell.plans =
                tracedPlans(cell.bench, cell.arch, unrolls[b], t);
            cell.run = tracedRun(cell.bench, cell.arch, unrolls[b],
                                 cell.plans, &baselines[b], t);
            done.push_back(std::move(cell));
        }
    }
    {
        Span span(t.renderS);
        (void)tableText(reference.render());
    }
    t.wallS = secondsSince(start);

    // Outside the wall: the bit-for-bit comparison and the oracle-off
    // pass over the same plans.
    for (std::size_t b = 0; b < nb; ++b)
        if (!sameRun(baselines[b], reference.baseline(b)))
            ++t.mismatches;
    for (const Done &cell : done) {
        t.accesses += cell.run.memAccesses;
        t.l0Hits += cell.run.l0Hits;
        t.l0Misses += cell.run.l0Misses;
        if (!sameRun(cell.run, reference.cell(cell.b, cell.a).run))
            ++t.mismatches;
        (void)tracedRun(cell.bench, cell.arch, unrolls[cell.b],
                        cell.plans, &baselines[cell.b], t,
                        /*checkCoherence=*/false);
    }
    return t;
}

std::uint64_t
gridDigest(const driver::ResultGrid &grid)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](const std::string &s) {
        for (unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ULL;
        }
    };
    for (std::size_t b = 0; b < grid.numBenches(); ++b) {
        mix(driver::benchmarkRunToJson(grid.baseline(b)));
        for (std::size_t a = 0; a < grid.numArchs(); ++a)
            mix(driver::benchmarkRunToJson(grid.cell(b, a).run));
    }
    return h;
}

std::string
tableText(const ResultTable &table)
{
    char *buf = nullptr;
    std::size_t len = 0;
    std::FILE *out = open_memstream(&buf, &len);
    makeSink(SinkFormat::Table, out)->write(table);
    std::fclose(out);
    std::string text(buf, len);
    std::free(buf);
    return text;
}

} // namespace perfbench
