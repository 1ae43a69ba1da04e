/**
 * @file
 * Per-loop inspection of a benchmark model under one architecture:
 * unroll decision, II, stage count, latency assignment, hit rates,
 * the compute/stall split, and how many invocations the simulator
 * actually simulated rather than folded as exact repeats. Useful to understand *why* a benchmark
 * behaves as it does in the paper-level figures.
 *
 * Usage: inspect_benchmark [benchmark] [arch] [--format=...]
 *   benchmark: any label workloadRegistry() resolves — the 13
 *         Mediabench names or a synthetic-family label such as
 *         stream-4, stride-32x2, stencil2d-3, reduce-8, pchase-64,
 *         rand-s7-12                              (default: epicdec)
 *   arch: any label archRegistry() resolves — unified, l0-N,
 *         l0-unbounded, multivliw, int1, int2, ...   (default: l0-8)
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/result_sink.hh"
#include "driver/cli.hh"
#include "driver/registry.hh"
#include "driver/runner.hh"
#include "driver/suite.hh"
#include "ir/memdep.hh"
#include "mem/l0_system.hh"
#include "mem/mem_system.hh"
#include "sched/scheduler.hh"
#include "sim/kernel_plan.hh"
#include "workloads/registry.hh"
#include "workloads/workload.hh"

using namespace l0vliw;

int
main(int argc, char **argv)
{
    driver::CliOptions cli = driver::parseCli(argc, argv);
    std::string bench_name =
        cli.positional.empty() ? "epicdec" : cli.positional[0];
    std::string arch_name =
        cli.positional.size() < 2 ? "l0-8" : cli.positional[1];

    workloads::Benchmark bench =
        workloads::workloadRegistry().resolve(bench_name);
    driver::ArchSpec arch = driver::archRegistry().resolve(arch_name);

    // The grid's own unroll decision, one factor per loop.
    std::vector<int> unrolls = driver::chooseUnrollFactors(bench);
    sched::ModuloScheduler scheduler(arch.config, arch.sched);

    ResultTable t;
    char title[128];
    std::snprintf(title, sizeof(title), "benchmark %s on %s\n\n",
                  bench_name.c_str(), arch.label.c_str());
    t.title = title;
    t.header = {"loop", "unroll", "II", "SC", "l0loads", "trips", "inv",
                "simulated", "folded", "compute", "stall", "hit%",
                "viol"};

    Cycle clock = 0;
    for (std::size_t i = 0; i < bench.loops.size(); ++i) {
        const workloads::LoopInstance &li = bench.loops[i];
        ir::Loop body =
            li.specialize ? ir::specializeLoop(li.loop) : li.loop;
        int u = unrolls[i];
        if (u > 1)
            body = ir::unrollLoop(body, u);
        sched::Schedule s = scheduler.schedule(body);

        int l0_loads = 0;
        for (OpId i = 0; i < s.loop.numOps(); ++i)
            if (s.loop.op(i).kind == ir::OpKind::Load && s.ops[i].usesL0)
                ++l0_loads;

        // Fresh memory system per loop so the stats are per-loop.
        auto mem = mem::MemSystem::create(arch.config);
        sim::KernelPlan plan(s);
        sim::SimOptions so;
        std::uint64_t compute = 0, stall = 0, viol = 0;
        for (std::uint64_t inv = 0; inv < li.invocations; ++inv) {
            auto r = plan.run(*mem, li.trips / u, clock, so);
            clock += r.totalCycles();
            compute += r.computeCycles;
            stall += r.stallCycles;
            viol += r.coherenceViolations;
        }
        double hit = 0;
        if (auto *l0sys = dynamic_cast<mem::L0MemSystem *>(mem.get())) {
            StatSet st = l0sys->l0Stats();
            std::uint64_t h = st.get("l0_hits");
            std::uint64_t m = st.get("l0_misses");
            hit = h + m == 0 ? 0 : 100.0 * h / (h + m);
        }
        t.rows.push_back(
            {CellValue::text(li.loop.name()),
             CellValue::integer(static_cast<std::uint64_t>(u)),
             CellValue::integer(static_cast<std::uint64_t>(s.ii)),
             CellValue::integer(static_cast<std::uint64_t>(s.stageCount)),
             CellValue::integer(static_cast<std::uint64_t>(l0_loads)),
             CellValue::integer(li.trips), CellValue::integer(li.invocations),
             CellValue::integer(plan.simulatedRuns()),
             CellValue::integer(plan.foldedRuns()),
             CellValue::integer(compute), CellValue::integer(stall),
             CellValue::fixed(hit, 1), CellValue::integer(viol)});
    }
    makeSink(cli.format)->write(t);

    // Whole-benchmark summary via a 1x1 suite (normalised), through
    // whatever executor the command line picked.
    driver::ExperimentSpec spec;
    spec.benchmarks = {bench_name};
    spec.archs = {arch.label};
    driver::ResultGrid grid =
        driver::Suite(std::move(spec)).run(cli.exec());
    const driver::Cell &cell = grid.cell(0, 0);
    const driver::BenchmarkRun &r = cell.run;
    std::printf("\nnormalised execution time: %.3f (stall %.3f), "
                "avg unroll %.2f, L0 hit rate %.1f%%\n",
                cell.normalized, cell.normalizedStall, r.avgUnroll,
                100.0 * r.l0HitRate());
    std::printf("fills: linear %llu, interleaved %llu\n",
                static_cast<unsigned long long>(r.fillsLinear),
                static_cast<unsigned long long>(r.fillsInterleaved));
    for (const auto &kv : r.memStats.all())
        std::printf("  %-32s %llu\n", kv.first.c_str(),
                    static_cast<unsigned long long>(kv.second));
    return 0;
}
