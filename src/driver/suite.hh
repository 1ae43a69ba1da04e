/**
 * @file
 * The declarative experiment engine: a grid of (benchmark,
 * architecture) cells described as data, executed serially or across
 * a thread pool, and rendered through typed result sinks.
 *
 * Every figure/table driver used to hand-roll the same serial double
 * loop over the cell primitives; with this API a driver is a spec:
 *
 *   ExperimentSpec spec;
 *   spec.archs = {"l0-2", "l0-8", "l0-unbounded"};
 *   spec.columns = {normalizedColumn("2e", 0), stallColumn("2e.st", 0),
 *                   ...};
 *   spec.meanRow = true;
 *   Suite(std::move(spec)).run(exec).emit(SinkFormat::Table);
 *
 * Execution contract: Suite::run(const ExecOptions&) runs the grid
 * as two waves of serializable CellJobs through one Executor
 * (driver/executor.hh) — worker threads in this process, or the
 * windowed channel executor over TCP to --serve daemons. Wave 1 is one baseline job per benchmark: its
 * worker makes the unroll decision and runs the unified cell. Wave 2
 * is every other cell, carrying that decision and the baseline's
 * scalar-region cycles; a "unified" column is the wave-1 run itself.
 * Each worker constructs its own KernelPlans — a plan's scratch is
 * not reentrant, one plan per worker — so results are bit-identical
 * for every (backend, jobs, endpoints) combination
 * (tests/test_driver.cc and tests/test_executor.cc prove it).
 * ExecOptions.onOutcome additionally streams every completed cell,
 * baselines included, as it lands — see OutcomeStream.
 *
 * Failure contract: a cell whose outcome failed (after the executor's
 * retries) is a *hole*: its Cell keeps the outcome's FailReason
 * instead of a run, and the other cells stand. A failed baseline job
 * leaves its row without an unroll decision, so the whole row is
 * holes with that reason and its wave-2 jobs are never dispatched.
 * render() shows each hole as `failed(<reason>)` in every column that
 * reads it (a computed column reads its whole row), and a mean row
 * takes each column's mean over the cells that ran and flags how many
 * it left out.
 */

#ifndef L0VLIW_DRIVER_SUITE_HH
#define L0VLIW_DRIVER_SUITE_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result_sink.hh"
#include "driver/executor.hh"
#include "driver/registry.hh"
#include "driver/runner.hh"
#include "workloads/workload.hh"

namespace l0vliw::driver
{

/** What the rows of the rendered grid enumerate. */
enum class RowAxis
{
    Benchmarks, ///< one row per benchmark (columns pick an arch)
    Archs,      ///< one row per architecture (single-benchmark spec)
};

/** Built-in per-cell metrics a column can reference. */
enum class Metric
{
    Normalized,       ///< total cycles / unified baseline
    NormalizedStall,  ///< stall cycles / unified baseline
    HitRate,          ///< L0 hit fraction
    AvgUnroll,        ///< cycle-weighted unroll factor
    LinearFillShare,  ///< linear fills / all fills
    InterleavedFillShare,
    Violations,       ///< coherence violations (summed when arch < 0)
    TotalCycles,
};

/** One executed (benchmark, architecture) cell plus derived metrics. */
struct Cell
{
    BenchmarkRun run;
    double normalized = 0;
    double normalizedStall = 0;
    /** Why the cell is a hole; None when it ran (see the failure
     *  contract above). A hole's run and metrics stay zero. */
    FailReason reason = FailReason::None;

    bool failed() const { return reason != FailReason::None; }
};

/** The row handed to computed columns: one benchmark, its cells. */
struct RowView
{
    const workloads::Benchmark &bench;
    const std::vector<ArchSpec> &archs; ///< spec order
    const Cell *cells = nullptr;        ///< numCells entries
    std::size_t numCells = 0;

    const Cell &
    cell(std::size_t a = 0) const
    {
        return cells[a];
    }
};

/** One output column of a grid. */
struct ColumnSpec
{
    /** Mean-row entry for this column. */
    enum class MeanPolicy
    {
        Blank, ///< empty cell
        Amean, ///< arithmetic mean of the column's raw numeric values
               ///< (holes left out, and counted on the mean)
        Zero,  ///< literal 0 (the "all runs coherent" convention)
    };

    std::string header;
    /** Built-in metric column: index into the spec's archs, or -1 for
     *  the row's (only) cell — arch-major and single-arch grids. */
    int arch = -1;
    Metric metric = Metric::Normalized;
    /** Custom column; when set it overrides `metric`. */
    std::function<CellValue(const RowView &)> compute;
    /** Rendering of built-in metric values. */
    CellValue::Kind kind = CellValue::Kind::Fixed;
    int digits = 2;
    MeanPolicy mean = MeanPolicy::Blank;
};

/** Normalised execution time: fixed(2), contributes to the mean row. */
ColumnSpec normalizedColumn(std::string header, int arch = -1);
/** Normalised stall time: fixed(2), blank in the mean row. */
ColumnSpec stallColumn(std::string header, int arch = -1);
/** L0 hit rate as a percentage. */
ColumnSpec hitRateColumn(std::string header, int arch = -1,
                         int digits = 1);
/** Cycle-weighted average unroll factor. */
ColumnSpec unrollColumn(std::string header, int arch = -1,
                        int digits = 1);
/** Share of L0 fills mapped linearly (or interleaved). */
ColumnSpec fillShareColumn(std::string header, bool linear,
                           int arch = -1, int digits = 0);
/** Coherence violations; arch = -1 sums the whole row. */
ColumnSpec violationsColumn(std::string header, int arch = -1);
/** A custom column computed from the row. */
ColumnSpec computedColumn(std::string header,
                          std::function<CellValue(const RowView &)> fn);

/** A declarative experiment grid. */
struct ExperimentSpec
{
    /** Emitted verbatim around the table by the text sink. */
    std::string title;
    std::string footer;
    /** Benchmark labels, resolved through workloadRegistry() —
     *  Mediabench names or the synthetic-family grammar; empty = the
     *  full Mediabench suite. */
    std::vector<std::string> benchmarks;
    /** Architecture labels, resolved through archRegistry(). */
    std::vector<std::string> archs;
    RowAxis rows = RowAxis::Benchmarks;
    std::string rowHeader = "benchmark";
    std::vector<ColumnSpec> columns;
    /** Append an AMEAN row (per-column MeanPolicy). */
    bool meanRow = false;
    std::string meanLabel = "AMEAN";

    /**
     * Keep only benchmarks whose label contains @p pattern; in an
     * arch-major grid the pattern also narrows the architecture
     * labels. An axis where nothing matches is left whole; fatal when
     * neither axis matches.
     */
    void filter(const std::string &pattern);
};

namespace detail
{

/** The resolved, immutable inputs a grid was executed from. */
struct SuiteState
{
    ExperimentSpec spec;
    std::vector<workloads::Benchmark> benches;
    std::vector<ArchSpec> archs;
};

} // namespace detail

/** The executed grid: cells, baselines, and rendering. */
class ResultGrid
{
  public:
    std::size_t numBenches() const { return state_->benches.size(); }
    std::size_t numArchs() const { return state_->archs.size(); }

    const workloads::Benchmark &
    bench(std::size_t b) const
    {
        return state_->benches[b];
    }

    const ArchSpec &arch(std::size_t a) const { return state_->archs[a]; }

    const Cell &
    cell(std::size_t b, std::size_t a) const
    {
        return cells_[b * numArchs() + a];
    }

    /** The unified-baseline run of benchmark @p b (empty when that
     *  row is holes). */
    const BenchmarkRun &baseline(std::size_t b) const
    {
        return baselines_[b];
    }

    /** True when no cell is a hole. */
    bool complete() const;

    /** Apply the spec's columns: a typed table ready for any sink. */
    ResultTable render() const;

    /** render() and write to @p out in @p format. */
    void emit(SinkFormat format, std::FILE *out = stdout) const;

  private:
    friend class Suite;

    std::shared_ptr<const detail::SuiteState> state_;
    std::vector<BenchmarkRun> baselines_; ///< per benchmark
    std::vector<Cell> cells_;             ///< bench-major
};

/** Executes an ExperimentSpec. */
class Suite
{
  public:
    /** Resolve the spec's benchmarks and arch labels (fatal on
     *  unknown names, or an arch-major spec without exactly one
     *  benchmark). */
    explicit Suite(ExperimentSpec spec);

    /**
     * Execute every (benchmark, architecture) cell through the
     * executor @p exec selects (in-process thread pool, or channels to
     * --serve daemons). Bit-identical results for every
     * (backend, jobs, window) combination; see the execution
     * contract above. A failed cell becomes a hole, with a warning
     * naming it; see the failure contract.
     */
    ResultGrid run(const ExecOptions &exec) const;

    const ExperimentSpec &spec() const { return state_->spec; }

  private:
    std::shared_ptr<const detail::SuiteState> state_;
};

} // namespace l0vliw::driver

#endif // L0VLIW_DRIVER_SUITE_HH
