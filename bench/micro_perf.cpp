/**
 * @file
 * google-benchmark microbenchmarks of the toolchain's hot paths: the
 * modulo scheduler (BASE and L0-aware), the L0 buffer lookup/fill
 * path, and the kernel simulator. These track the engineering cost of
 * the infrastructure itself, not paper results.
 */

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "driver/executor.hh"
#include "driver/registry.hh"
#include "driver/suite.hh"
#include "net/server.hh"
#include "ir/loop.hh"
#include "machine/machine_config.hh"
#include "mem/l0_buffer.hh"
#include "mem/mem_system.hh"
#include "metrics/registry.hh"
#include "sched/scheduler.hh"
#include "sim/kernel_plan.hh"
#include "sim/kernel_sim.hh"
#include "store/service.hh"
#include "workloads/kernels.hh"
#include "workloads/workload.hh"

#include <unistd.h>

using namespace l0vliw;

namespace
{

ir::Loop
benchLoop()
{
    workloads::AddressSpace as;
    workloads::StreamParams p;
    p.elemSize = 2;
    p.loadStreams = 3;
    p.storeStreams = 1;
    p.intOps = 6;
    return ir::unrollLoop(workloads::streamMap(as, "bench", p), 4);
}

void
BM_BaseScheduler(benchmark::State &state)
{
    ir::Loop loop = benchLoop();
    machine::MachineConfig cfg = machine::MachineConfig::paperUnified();
    sched::ModuloScheduler s(cfg, sched::SchedulerOptions::baseUnified());
    for (auto _ : state) {
        sched::Schedule out = s.schedule(loop);
        benchmark::DoNotOptimize(out.ii);
    }
}
BENCHMARK(BM_BaseScheduler);

void
BM_L0Scheduler(benchmark::State &state)
{
    ir::Loop loop = benchLoop();
    machine::MachineConfig cfg = machine::MachineConfig::paperL0(8);
    sched::ModuloScheduler s(cfg, sched::SchedulerOptions::l0());
    for (auto _ : state) {
        sched::Schedule out = s.schedule(loop);
        benchmark::DoNotOptimize(out.ii);
    }
}
BENCHMARK(BM_L0Scheduler);

/**
 * The scheduler's half of plan building, one architecture of the
 * paper grid per run: every Mediabench loop body, prepared as
 * buildLoopPlans() prepares it (driver::loopBody), unrolled 1x and by
 * the cluster count, scheduled for @p label. One iteration schedules
 * them all; BM_KernelSimPlanReused is the simulation half. main()
 * registers one run per architecture perfbench's paper-serial grid
 * runs (l0-2 has the most failing II attempts).
 */
void
BM_ScheduleMediabench(benchmark::State &state, const std::string &label)
{
    const driver::ArchSpec arch = driver::archRegistry().resolve(label);
    sched::ModuloScheduler s(arch.config, arch.sched);
    std::vector<ir::Loop> bodies;
    for (const workloads::Benchmark &bench : workloads::mediabenchSuite()) {
        for (const workloads::LoopInstance &li : bench.loops) {
            bodies.push_back(driver::loopBody(li, arch.config.numClusters));
            bodies.push_back(driver::loopBody(li, 1));
        }
    }
    for (auto _ : state) {
        for (const ir::Loop &body : bodies) {
            sched::Schedule out = s.schedule(body);
            benchmark::DoNotOptimize(out.ii);
        }
    }
    state.SetItemsProcessed(state.iterations()
                            * static_cast<std::int64_t>(bodies.size()));
}

void
BM_L0BufferLookup(benchmark::State &state)
{
    mem::L0Buffer buf(static_cast<int>(state.range(0)), 8, 4);
    const std::uint64_t block[4] = {};
    for (int i = 0; i < state.range(0); ++i)
        buf.fillLinear(static_cast<Addr>(i) * 32, i % 4, block + i % 4);
    Addr addr = 0;
    for (auto _ : state) {
        mem::L0Lookup r = buf.lookup(addr, 4);
        benchmark::DoNotOptimize(r.hit);
        addr = (addr + 8) % (state.range(0) * 32);
    }
}
BENCHMARK(BM_L0BufferLookup)->Arg(4)->Arg(8)->Arg(16);

/**
 * The kernel simulator, four ways on the same schedule and machine
 * (Arg: 0 = coherence oracle off, 1 = on):
 *
 *  - Reference: the original cycle-walking executor, which rebuilds
 *    the row buckets / edge lists / ready ring per invocation (the
 *    "seed path" — the before number).
 *  - PlanCold: compile a KernelPlan per invocation (what the
 *    simulateInvocation() wrapper does) — compile cost included.
 *  - PlanReused: one plan reused across every invocation, as
 *    runCell() does — the after number for a simulated invocation.
 *  - Folded: the same plan once its invocations provably repeat, so
 *    run() folds them instead of simulating.
 *
 * All four share the setup: invocations chained on a shared clock per
 * memory system, 256 trips per invocation.
 */
void
BM_KernelSimReference(benchmark::State &state)
{
    ir::Loop loop = benchLoop();
    machine::MachineConfig cfg = machine::MachineConfig::paperL0(8);
    sched::ModuloScheduler s(cfg, sched::SchedulerOptions::l0());
    sched::Schedule sch = s.schedule(loop);
    sim::SimOptions opts;
    opts.checkCoherence = state.range(0) != 0;
    auto mem = mem::MemSystem::create(cfg);
    Cycle clock = 0;
    for (auto _ : state) {
        auto res = sim::simulateInvocationReference(sch, *mem, 256,
                                                    clock, opts);
        clock += res.totalCycles();
        benchmark::DoNotOptimize(res.stallCycles);
    }
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_KernelSimReference)->Arg(0)->Arg(1);

void
BM_KernelSimPlanCold(benchmark::State &state)
{
    ir::Loop loop = benchLoop();
    machine::MachineConfig cfg = machine::MachineConfig::paperL0(8);
    sched::ModuloScheduler s(cfg, sched::SchedulerOptions::l0());
    sched::Schedule sch = s.schedule(loop);
    sim::SimOptions opts;
    opts.checkCoherence = state.range(0) != 0;
    auto mem = mem::MemSystem::create(cfg);
    Cycle clock = 0;
    for (auto _ : state) {
        auto res = sim::simulateInvocation(sch, *mem, 256, clock, opts);
        clock += res.totalCycles();
        benchmark::DoNotOptimize(res.stallCycles);
    }
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_KernelSimPlanCold)->Arg(0)->Arg(1);

void
BM_KernelSimPlanReused(benchmark::State &state)
{
    ir::Loop loop = benchLoop();
    machine::MachineConfig cfg = machine::MachineConfig::paperL0(8);
    sched::ModuloScheduler s(cfg, sched::SchedulerOptions::l0());
    sched::Schedule sch = s.schedule(loop);
    sim::SimOptions opts;
    opts.checkCoherence = state.range(0) != 0;
    // Alternating two memory systems keeps every call simulated: a
    // plan folds only a repeat on the memory its previous call used.
    std::unique_ptr<mem::MemSystem> mems[2] = {
        mem::MemSystem::create(cfg), mem::MemSystem::create(cfg)};
    Cycle clocks[2] = {0, 0};
    sim::KernelPlan plan(sch);
    int m = 0;
    for (auto _ : state) {
        auto res = plan.run(*mems[m], 256, clocks[m], opts);
        clocks[m] += res.totalCycles();
        m ^= 1;
        benchmark::DoNotOptimize(res.stallCycles);
    }
    if (plan.foldedRuns() != 0)
        state.SkipWithError("a reused-plan invocation folded");
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_KernelSimPlanReused)->Arg(0)->Arg(1);

void
BM_KernelSimFolded(benchmark::State &state)
{
    ir::Loop loop = benchLoop();
    machine::MachineConfig cfg = machine::MachineConfig::paperL0(8);
    sched::ModuloScheduler s(cfg, sched::SchedulerOptions::l0());
    sched::Schedule sch = s.schedule(loop);
    sim::SimOptions opts;
    opts.checkCoherence = state.range(0) != 0;
    auto mem = mem::MemSystem::create(cfg);
    sim::KernelPlan plan(sch);
    Cycle clock = 0;
    // Simulate until the invocations reach their steady state.
    for (int i = 0; i < 8 && plan.foldedRuns() == 0; ++i)
        clock += plan.run(*mem, 256, clock, opts).totalCycles();
    const std::uint64_t simulated = plan.simulatedRuns();
    for (auto _ : state) {
        auto res = plan.run(*mem, 256, clock, opts);
        clock += res.totalCycles();
        benchmark::DoNotOptimize(res.stallCycles);
    }
    if (plan.foldedRuns() == 0 || plan.simulatedRuns() != simulated)
        state.SkipWithError("an invocation was simulated, not folded");
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_KernelSimFolded)->Arg(0)->Arg(1);

/**
 * The instrumentation itself: one counter increment, the operation
 * invariant 10 promises stays off the locks and the allocator. It is
 * the per-frame / per-access cost every instrumented hot path pays, so
 * it must price in nanoseconds.
 */
void
BM_MetricsCounterInc(benchmark::State &state)
{
    metrics::Counter &c = metrics::counter(
        "bench_metrics_counter_total", "micro_perf scratch counter");
    for (auto _ : state)
        c.inc();
    benchmark::DoNotOptimize(c.value());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsCounterInc);

/**
 * The experiment engine end to end: a 4-benchmark x 4-architecture
 * grid (the Figure 7 architectures), executed serially vs on a worker
 * pool. One iteration = the whole grid, its wave of baseline jobs
 * included, so this measures the wall-clock win of parallel cell
 * execution (bounded by the barrier between the two waves and the
 * core count; on a single-core host the two track each other,
 * parallel paying only the thread-pool overhead). Every grid benchmark reports
 * real time: their work runs on worker threads, child processes and
 * daemons whose CPU time the main thread's clock never sees.
 */
driver::ExperimentSpec
suiteSpec()
{
    driver::ExperimentSpec spec;
    spec.benchmarks = {"epicdec", "gsmdec", "jpegdec", "mpeg2dec"};
    spec.archs = {"l0-8", "multivliw", "interleaved-1",
                  "interleaved-2"};
    for (int a = 0; a < 4; ++a)
        spec.columns.push_back(
            driver::normalizedColumn(spec.archs[a], a));
    return spec;
}

void
BM_SuiteSerial(benchmark::State &state)
{
    driver::Suite suite(suiteSpec());
    driver::ExecOptions serial; // in-process, one worker
    for (auto _ : state) {
        driver::ResultGrid grid = suite.run(serial);
        benchmark::DoNotOptimize(grid.cell(0, 0).normalized);
    }
    state.SetItemsProcessed(state.iterations() * 16); // cells per grid
}
BENCHMARK(BM_SuiteSerial)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * A --serve worker daemon on a loopback ephemeral port, started once
 * and shared by every tcp-backend benchmark in this process (the
 * protocol handler is exactly the daemon's). Its endpoint is what
 * --connect would name.
 */
const std::string &
loopbackDaemonEndpoint()
{
    static net::Server server;
    static std::string endpoint = []() {
        std::string error;
        bool ok = server.start(
            0,
            [](const std::string &line) {
                return std::optional<std::string>(
                    driver::handleCellLine(line));
            },
            error);
        if (!ok) {
            std::fprintf(stderr, "loopback daemon: %s\n", error.c_str());
            std::abort();
        }
        return "127.0.0.1:" + std::to_string(server.port());
    }();
    return endpoint;
}

/** The parallel grid under a given backend; registered from main()
 *  under a backend-tagged name so trajectory entries recorded under
 *  different executors never collide in a grid-JSON diff. The tcp
 *  backend runs state.range(0) connections into the in-process
 *  loopback daemon. */
void
BM_SuiteGrid(benchmark::State &state, driver::ExecBackend backend)
{
    driver::Suite suite(suiteSpec());
    driver::ExecOptions exec;
    exec.backend = backend;
    exec.jobs = static_cast<int>(state.range(0));
    if (backend == driver::ExecBackend::Tcp)
        exec.endpoints.assign(static_cast<std::size_t>(exec.jobs),
                              loopbackDaemonEndpoint());
    for (auto _ : state) {
        driver::ResultGrid grid = suite.run(exec);
        benchmark::DoNotOptimize(grid.cell(0, 0).normalized);
    }
    state.SetItemsProcessed(state.iterations() * 16);
}

/** An in-process result-store daemon (l0store --serve) on a loopback
 *  ephemeral port, logging to a throwaway file — what --publish would
 *  name, served exactly like the real daemon.
 *  L0VLIW_BENCH_STORE=host:port
 *  substitutes an externally-run daemon (the CI smoke-bench job, which
 *  wants the published run queryable after this process exits). */
const std::string &
loopbackStoreEndpoint()
{
    static net::Server server;
    static std::string endpoint = []() -> std::string {
        if (const char *ext = std::getenv("L0VLIW_BENCH_STORE");
            ext != nullptr && *ext != '\0')
            return ext;
        static store::StoreService service;
        static const std::string path = "/tmp/l0vliw_bench_store."
                                        + std::to_string(getpid())
                                        + ".ndjson";
        std::remove(path.c_str());
        // The log is this process's scratch: gone when it exits.
        std::atexit([] { std::remove(path.c_str()); });
        std::string error;
        if (!service.open(path, error)
            || !server.start(0, service.handler(), error)) {
            std::fprintf(stderr, "loopback store: %s\n", error.c_str());
            std::abort();
        }
        return "127.0.0.1:" + std::to_string(server.port());
    }();
    return endpoint;
}

/** The --publish path's overhead: the serial grid with every cell
 *  outcome plus the rendered table sent as acked frames over loopback
 *  TCP to an in-process store daemon. The delta against BM_SuiteSerial
 *  is the publisher cost per 16-cell grid (a fresh run-id each
 *  iteration, so every frame is genuinely stored, never deduped). */
void
BM_SuitePublish(benchmark::State &state)
{
    driver::Suite suite(suiteSpec());
    std::string error;
    std::unique_ptr<driver::OutcomeStream> sink =
        driver::OutcomeStream::open("tcp:" + loopbackStoreEndpoint(),
                                    error);
    if (sink == nullptr) {
        state.SkipWithError(error.c_str());
        return;
    }
    int run = 0;
    for (auto _ : state) {
        sink->setMeta("micro", "bench", "r" + std::to_string(run++));
        driver::ExecOptions exec;
        exec.onOutcome = sink->callback();
        driver::ResultGrid grid = suite.run(exec);
        sink->writeGrid(grid.render());
        benchmark::DoNotOptimize(grid.cell(0, 0).normalized);
    }
    if (sink->dropped() > 0)
        state.SkipWithError("publisher dropped frames");
    state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_SuitePublish)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/** The publisher alone: one wire-publish-sized grid's frames — 76
 *  cell frames, then the grid frame — sent to the in-process loopback
 *  store, with no simulation in the loop, so its rate (items are
 *  frames: frames/s) tracks the publisher and the store's ingest apart
 *  from the grid's CPU. The cell frames are one serial grid's real
 *  outcomes under 76 ids; a fresh run id per iteration stores every
 *  frame, never dedups it. */
void
BM_PublishGrid(benchmark::State &state)
{
    constexpr int kCellFrames = 76;
    std::vector<std::pair<driver::CellJob, driver::CellOutcome>> ran;
    driver::ExecOptions serial;
    serial.onOutcome = [&ran](const driver::CellJob &job,
                              const driver::CellOutcome &outcome,
                              double) { ran.emplace_back(job, outcome); };
    driver::Suite suite(suiteSpec());
    ResultTable table = suite.run(serial).render();
    std::vector<std::pair<driver::CellJob, driver::CellOutcome>> frames;
    for (int i = 0; i < kCellFrames; ++i) {
        frames.push_back(ran[static_cast<std::size_t>(i) % ran.size()]);
        frames.back().first.id = static_cast<std::uint64_t>(i + 1);
        frames.back().second.id = frames.back().first.id;
    }

    std::string error;
    std::unique_ptr<driver::OutcomeStream> sink =
        driver::OutcomeStream::open("tcp:" + loopbackStoreEndpoint(),
                                    error);
    if (sink == nullptr) {
        state.SkipWithError(error.c_str());
        return;
    }
    int run = 0;
    for (auto _ : state) {
        sink->setMeta("micro-publish", "bench",
                      "r" + std::to_string(run++));
        for (const auto &[job, outcome] : frames)
            sink->write(job, outcome, 1.0);
        sink->writeGrid(table);
    }
    if (sink->dropped() > 0)
        state.SkipWithError("publisher dropped frames");
    state.SetItemsProcessed(state.iterations() * (kCellFrames + 1));
}
BENCHMARK(BM_PublishGrid)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/** The TCP transport's end-to-end cost: the same grid through a
 *  loopback --serve daemon (connect + framing + JSON both ways per
 *  cell) over state.range(0) concurrent connections, pinned to
 *  window=1 — the strict lockstep exchange, one round trip per cell,
 *  the baseline BM_SuiteTcpPipelined is measured against. */
void
BM_SuiteTcp(benchmark::State &state)
{
    driver::Suite suite(suiteSpec());
    driver::ExecOptions exec;
    exec.backend = driver::ExecBackend::Tcp;
    exec.jobs = static_cast<int>(state.range(0));
    exec.window = 1;
    exec.endpoints.assign(static_cast<std::size_t>(exec.jobs),
                          loopbackDaemonEndpoint());
    for (auto _ : state) {
        driver::ResultGrid grid = suite.run(exec);
        benchmark::DoNotOptimize(grid.cell(0, 0).normalized);
    }
    state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_SuiteTcp)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/** A loopback daemon serving each connection through a 2-worker
 *  pipelined pool — what `--serve --jobs 2` runs. */
const std::string &
loopbackPipelinedDaemonEndpoint()
{
    static net::Server server;
    static std::string endpoint = []() {
        std::string error;
        server.setWorkersPerConnection(2);
        bool ok = server.start(
            0,
            [](const std::string &line) {
                return std::optional<std::string>(
                    driver::handleCellLine(line));
            },
            error);
        if (!ok) {
            std::fprintf(stderr, "pipelined loopback daemon: %s\n",
                         error.c_str());
            std::abort();
        }
        return "127.0.0.1:" + std::to_string(server.port());
    }();
    return endpoint;
}

/** The same grid with the default window (4 jobs in flight per
 *  connection) into the pipelined daemon. On loopback the RTT is
 *  ~zero, so the delta vs BM_SuiteTcp is the protocol's overlap
 *  machinery, not a latency win — see the --window note in
 *  src/driver/README.md; on a single-core host the daemon's worker
 *  pool adds nothing and the two should be within noise. */
void
BM_SuiteTcpPipelined(benchmark::State &state)
{
    driver::Suite suite(suiteSpec());
    driver::ExecOptions exec;
    exec.backend = driver::ExecBackend::Tcp;
    exec.jobs = static_cast<int>(state.range(0));
    exec.endpoints.assign(static_cast<std::size_t>(exec.jobs),
                          loopbackPipelinedDaemonEndpoint());
    for (auto _ : state) {
        driver::ResultGrid grid = suite.run(exec);
        benchmark::DoNotOptimize(grid.cell(0, 0).normalized);
    }
    state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_SuiteTcpPipelined)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

} // namespace

/** Hand-rolled BENCHMARK_MAIN(): BM_SuiteParallel registers
 *  dynamically so bench/run_bench.sh --executor (via L0VLIW_EXECUTOR)
 *  tags its name with any non-default backend, and
 *  BM_ScheduleMediabench registers once per paper-grid architecture. */
int
main(int argc, char **argv)
{
    driver::ExecBackend backend = driver::execBackendFromEnv();
    const char *name = backend == driver::ExecBackend::Tcp
                           ? "BM_SuiteParallel<tcp>"
                           : "BM_SuiteParallel";
    for (int jobs : {2, 4})
        ::benchmark::RegisterBenchmark(name, BM_SuiteGrid, backend)
            ->Arg(jobs)
            ->UseRealTime()
            ->Unit(benchmark::kMillisecond);
    for (const char *label :
         {"unified", "l0-2", "l0-4", "l0-8", "l0-16", "l0-unbounded",
          "l0-4-allcand", "multivliw", "interleaved-1", "interleaved-2",
          "l0-8-pf1", "l0-8-pf2"})
        ::benchmark::RegisterBenchmark(
            ("BM_ScheduleMediabench/" + std::string(label)).c_str(),
            BM_ScheduleMediabench, std::string(label))
            ->UseRealTime()
            ->Unit(benchmark::kMillisecond);

    ::benchmark::Initialize(&argc, argv);
    if (::benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    ::benchmark::RunSpecifiedBenchmarks();
    ::benchmark::Shutdown();
    return 0;
}
