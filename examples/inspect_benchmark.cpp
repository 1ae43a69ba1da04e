/**
 * @file
 * Per-loop inspection of one (benchmark, architecture) cell: unroll
 * decision, II, stage count, L0 loads, how many invocations the
 * simulator actually simulated rather than folded as exact repeats,
 * and each loop's compute/stall split, accesses, L0 hit rate and fills
 * by mapping. Useful to understand *why* a benchmark behaves as it
 * does in the paper-level figures.
 *
 * The rows are the cell's own: this runs the grid's cell primitives
 * (chooseUnrollFactors, buildLoopPlans, runCell) locally, and runCell
 * fills one row per loop of the same run that yields the summary, so
 * the rows sum exactly to the final "cell" row. Cells are
 * deterministic, so the local run is the one any executor would make.
 * The shared driver flags that pick an executor or sink (--executor
 * other than inprocess, --connect, --stream, --publish, --trace, an
 * explicit --jobs, --filter) have nothing to act on here: naming one
 * is an error (exit 2), never a silently local answer.
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
#include "workloads/registry.hh"
#include "workloads/workload.hh"

using namespace l0vliw;

namespace
{

/** The summed columns of a row: one loop's, or the cell's totals. */
void
appendCounts(std::vector<CellValue> &cells, const driver::LoopRow &row)
{
    std::uint64_t lookups = row.l0Hits + row.l0Misses;
    double hit = lookups == 0 ? 0 : 100.0 * row.l0Hits / lookups;
    cells.insert(cells.end(),
                 {CellValue::integer(row.compute),
                  CellValue::integer(row.stall),
                  CellValue::integer(row.memAccesses),
                  CellValue::fixed(hit, 1),
                  CellValue::integer(row.fillsLinear),
                  CellValue::integer(row.fillsInterleaved),
                  CellValue::integer(row.coherenceViolations)});
}

/** The first shared driver flag @p cli sets that this in-process,
 *  one-cell example would ignore, or null. */
const char *
ignoredFlag(const driver::CliOptions &cli)
{
    if (cli.executor != driver::ExecBackend::InProcess)
        return "--executor";
    if (!cli.connect.empty())
        return "--connect";
    if (!cli.stream.empty())
        return "--stream";
    if (!cli.publish.empty())
        return "--publish";
    if (!cli.trace.empty())
        return "--trace";
    if (cli.jobsExplicit)
        return "--jobs";
    if (!cli.filter.empty())
        return "--filter";
    return nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    driver::CliOptions cli = driver::parseCli(argc, argv);
    if (const char *flag = ignoredFlag(cli)) {
        std::fprintf(stderr,
                     "inspect_benchmark: %s does not apply: this "
                     "example runs its one cell in-process\n",
                     flag);
        return 2;
    }
    std::string bench_name =
        cli.positional.empty() ? "epicdec" : cli.positional[0];
    std::string arch_name =
        cli.positional.size() < 2 ? "l0-8" : cli.positional[1];

    workloads::Benchmark bench =
        workloads::workloadRegistry().resolve(bench_name);
    driver::ArchSpec arch = driver::archRegistry().resolve(arch_name);
    driver::ArchSpec unified = driver::ArchSpec::unified();

    // The grid's cell, step by step: the unroll decision, the unified
    // baseline (for the scalar region and the normalisation), then
    // the cell itself with its per-loop rows.
    std::vector<int> unrolls = driver::chooseUnrollFactors(bench);
    auto base_plans = driver::buildLoopPlans(bench, unified, unrolls);
    auto plans = driver::buildLoopPlans(bench, arch, unrolls);
    driver::BenchmarkRun base =
        driver::runCell(bench, unified, unrolls, base_plans, nullptr);
    std::vector<driver::LoopRow> rows;
    driver::BenchmarkRun r =
        driver::runCell(bench, arch, unrolls, plans, &base, &rows);

    ResultTable t;
    t.title = "benchmark " + bench_name + " on " + arch.label + "\n\n";
    t.header = {"loop",    "unroll", "II",       "SC",     "l0loads",
                "trips",   "inv",    "simulated", "folded", "compute",
                "stall",   "access", "hit%",     "fill-lin", "fill-int",
                "viol"};

    for (std::size_t i = 0; i < bench.loops.size(); ++i) {
        const workloads::LoopInstance &li = bench.loops[i];
        const sched::Schedule &s = plans[i]->schedule();
        std::uint64_t l0_loads = 0;
        for (OpId op = 0; op < s.loop.numOps(); ++op)
            if (s.loop.op(op).kind == ir::OpKind::Load && s.ops[op].usesL0)
                ++l0_loads;
        std::vector<CellValue> cells = {
            CellValue::text(li.loop.name()),
            CellValue::integer(static_cast<std::uint64_t>(unrolls[i])),
            CellValue::integer(static_cast<std::uint64_t>(s.ii)),
            CellValue::integer(static_cast<std::uint64_t>(s.stageCount)),
            CellValue::integer(l0_loads), CellValue::integer(li.trips),
            CellValue::integer(li.invocations),
            CellValue::integer(plans[i]->simulatedRuns()),
            CellValue::integer(plans[i]->foldedRuns())};
        appendCounts(cells, rows[i]);
        t.rows.push_back(std::move(cells));
    }
    // The cell's own totals, which the loop rows sum to; blank under
    // the nine per-loop columns.
    std::vector<CellValue> total(9);
    total[0] = CellValue::text("cell");
    appendCounts(total, {r.loopCompute, r.loopStall, r.memAccesses,
                         r.coherenceViolations, r.l0Hits, r.l0Misses,
                         r.fillsLinear, r.fillsInterleaved});
    t.rows.push_back(std::move(total));
    makeSink(cli.format)->write(t);

    // Normalised as the grid normalises a cell (Suite::run).
    const double base_cycles = static_cast<double>(base.totalCycles());
    std::printf("\nnormalised execution time: %.3f (stall %.3f), "
                "avg unroll %.2f, L0 hit rate %.1f%%\n",
                r.totalCycles() / base_cycles, r.loopStall / base_cycles,
                r.avgUnroll, 100.0 * r.l0HitRate());
    std::printf("fills: linear %llu, interleaved %llu\n",
                static_cast<unsigned long long>(r.fillsLinear),
                static_cast<unsigned long long>(r.fillsInterleaved));
    for (const auto &kv : r.memStats.all())
        std::printf("  %-32s %llu\n", kv.first.c_str(),
                    static_cast<unsigned long long>(kv.second));
    return 0;
}
