#include "driver/suite.hh"

#include "common/logging.hh"
#include "common/stats.hh"
#include "driver/executor.hh"
#include "metrics/trace.hh"
#include "workloads/registry.hh"

namespace l0vliw::driver
{

// ---- column builders ----

ColumnSpec
normalizedColumn(std::string header, int arch)
{
    ColumnSpec c;
    c.header = std::move(header);
    c.arch = arch;
    c.metric = Metric::Normalized;
    c.mean = ColumnSpec::MeanPolicy::Amean;
    return c;
}

ColumnSpec
stallColumn(std::string header, int arch)
{
    ColumnSpec c;
    c.header = std::move(header);
    c.arch = arch;
    c.metric = Metric::NormalizedStall;
    return c;
}

ColumnSpec
hitRateColumn(std::string header, int arch, int digits)
{
    ColumnSpec c;
    c.header = std::move(header);
    c.arch = arch;
    c.metric = Metric::HitRate;
    c.kind = CellValue::Kind::Percent;
    c.digits = digits;
    return c;
}

ColumnSpec
unrollColumn(std::string header, int arch, int digits)
{
    ColumnSpec c;
    c.header = std::move(header);
    c.arch = arch;
    c.metric = Metric::AvgUnroll;
    c.digits = digits;
    return c;
}

ColumnSpec
fillShareColumn(std::string header, bool linear, int arch, int digits)
{
    ColumnSpec c;
    c.header = std::move(header);
    c.arch = arch;
    c.metric = linear ? Metric::LinearFillShare
                      : Metric::InterleavedFillShare;
    c.kind = CellValue::Kind::Percent;
    c.digits = digits;
    return c;
}

ColumnSpec
violationsColumn(std::string header, int arch)
{
    ColumnSpec c;
    c.header = std::move(header);
    c.arch = arch;
    c.metric = Metric::Violations;
    c.kind = CellValue::Kind::Integer;
    c.mean = ColumnSpec::MeanPolicy::Zero;
    return c;
}

ColumnSpec
computedColumn(std::string header,
               std::function<CellValue(const RowView &)> fn)
{
    ColumnSpec c;
    c.header = std::move(header);
    c.compute = std::move(fn);
    return c;
}

void
ExperimentSpec::filter(const std::string &pattern)
{
    if (pattern.empty())
        return;
    if (benchmarks.empty())
        benchmarks = workloads::benchmarkNames();
    std::vector<std::string> keptBenches;
    for (const auto &name : benchmarks)
        if (name.find(pattern) != std::string::npos)
            keptBenches.push_back(name);
    // Arch labels are only filterable when rows enumerate them: a
    // benchmark-major grid's columns index into `archs`, so dropping
    // labels there would silently rebind every column.
    std::vector<std::string> keptArchs;
    if (rows == RowAxis::Archs)
        for (const auto &label : archs)
            if (label.find(pattern) != std::string::npos)
                keptArchs.push_back(label);
    if (keptBenches.empty() && keptArchs.empty())
        fatal("--filter=%s matches no benchmark%s label",
              pattern.c_str(),
              rows == RowAxis::Archs ? " or architecture" : "");
    if (!keptBenches.empty())
        benchmarks = std::move(keptBenches);
    if (!keptArchs.empty())
        archs = std::move(keptArchs);
}

// ---- execution ----

Suite::Suite(ExperimentSpec spec)
{
    auto state = std::make_shared<detail::SuiteState>();
    if (spec.benchmarks.empty())
        spec.benchmarks = workloads::benchmarkNames();
    for (const auto &name : spec.benchmarks)
        state->benches.push_back(
            workloads::workloadRegistry().resolve(name));
    for (const auto &label : spec.archs)
        state->archs.push_back(archRegistry().resolve(label));
    if (spec.rows == RowAxis::Archs && state->benches.size() != 1)
        fatal("an arch-major grid needs exactly one benchmark "
              "(got %zu)", state->benches.size());
    state->spec = std::move(spec);
    state_ = std::move(state);
}

ResultGrid
Suite::run(const ExecOptions &exec) const
{
    const auto &benches = state_->benches;
    const auto &archs = state_->archs;
    const std::size_t nb = benches.size();
    const std::size_t na = archs.size();

    ResultGrid grid;
    grid.state_ = state_;
    grid.baselines_.resize(nb);
    grid.cells_.resize(nb * na);

    // Phase 0, serial and in suite order: the architecture-independent
    // unroll decision and the unified baseline of every benchmark.
    // Both ride inside each CellJob, so workers stay stateless. An
    // arch-less grid (computed columns only, like table1) simulates
    // nothing and skips both.
    std::vector<std::vector<int>> unrolls(nb);
    if (na > 0) {
        for (std::size_t b = 0; b < nb; ++b)
            unrolls[b] = chooseUnrollFactors(benches[b]);
        const ArchSpec uni = ArchSpec::unified();
        for (std::size_t b = 0; b < nb; ++b) {
            auto plans = buildLoopPlans(benches[b], uni, unrolls[b]);
            grid.baselines_[b] =
                runCell(benches[b], uni, unrolls[b], plans, nullptr);
        }
    }

    // Phase 1: every remaining cell becomes a serializable CellJob,
    // label-addressed through the registries, and the executor decides
    // where it runs — this process, a subprocess pool, or --serve
    // daemons over TCP; the event stream (ExecOptions.onOutcome) sees
    // exactly these dispatched jobs, one event per cell as it
    // completes. "unified" cells are the baseline bit-for-bit and
    // never dispatch. The in-process backend pays the same
    // value-semantics cost as subprocess (a baseline copy per job,
    // label re-resolution per cell) so that every cell exercises the
    // one protocol path; measured at ~3% of BM_SuiteSerial's 16-cell
    // grid, shrinking as cells grow.
    std::vector<CellJob> jobs;
    std::vector<std::size_t> cellOf; // job index -> cell index
    jobs.reserve(nb * na);
    for (std::size_t i = 0; i < nb * na; ++i) {
        std::size_t b = i / na, a = i % na;
        if (archs[a].label == "unified")
            continue;
        CellJob job;
        // Ids start at 1: an executing side that receives a corrupted
        // or malformed frame replies with a failed id-0 outcome
        // (handleCellLine), and that sentinel must never match a real
        // job — the client retries instead of adopting the failure.
        job.id = jobs.size() + 1;
        job.bench = state_->spec.benchmarks[b];
        job.arch = archs[a].label;
        job.unrolls = unrolls[b];
        job.baseline = grid.baselines_[b];
        jobs.push_back(std::move(job));
        cellOf.push_back(i);
    }

    // The head of each job's span chain: a zero-duration "enqueue"
    // mark on the job's trace lane, stamped before the executor sees
    // the batch.
    if (exec.trace != nullptr)
        for (const CellJob &job : jobs) {
            metrics::TraceSpan span;
            span.job = job.id;
            span.name = "enqueue";
            span.cat = "driver";
            span.tsUs = exec.trace->nowUs();
            span.args = {{"bench", job.bench}, {"arch", job.arch}};
            exec.trace->record(std::move(span));
        }

    std::vector<CellOutcome> outcomes;
    if (!jobs.empty())
        outcomes = makeExecutor(exec)->execute(jobs);

    auto finishCell = [&](std::size_t i, Cell cell) {
        std::size_t b = i / na;
        const double base = static_cast<double>(
            grid.baselines_[b].totalCycles());
        cell.normalized = cell.run.totalCycles() / base;
        cell.normalizedStall = cell.run.loopStall / base;
        grid.cells_[i] = std::move(cell);
    };

    for (std::size_t j = 0; j < outcomes.size(); ++j) {
        if (!outcomes[j].ok)
            fatal("suite cell %s/%s: %s", jobs[j].bench.c_str(),
                  jobs[j].arch.c_str(), outcomes[j].error.c_str());
        double foldStart =
            exec.trace != nullptr ? exec.trace->nowUs() : 0;
        Cell cell;
        cell.run = std::move(outcomes[j].run);
        finishCell(cellOf[j], std::move(cell));
        if (exec.trace != nullptr) {
            // The tail of the chain: the outcome folding back into
            // the grid.
            metrics::TraceSpan span;
            span.job = jobs[j].id;
            span.name = "fold";
            span.cat = "driver";
            span.tsUs = foldStart;
            span.durUs = exec.trace->nowUs() - foldStart;
            exec.trace->record(std::move(span));
        }
    }
    for (std::size_t i = 0; i < nb * na; ++i) {
        if (archs[i % na].label != "unified")
            continue;
        // The baseline already ran this cell bit-for-bit.
        Cell cell;
        cell.run = grid.baselines_[i / na];
        finishCell(i, std::move(cell));
    }
    return grid;
}

// ---- rendering ----

namespace
{

double
metricValue(Metric m, const Cell &c)
{
    switch (m) {
    case Metric::Normalized:
        return c.normalized;
    case Metric::NormalizedStall:
        return c.normalizedStall;
    case Metric::HitRate:
        return c.run.l0HitRate();
    case Metric::AvgUnroll:
        return c.run.avgUnroll;
    case Metric::LinearFillShare:
    case Metric::InterleavedFillShare: {
        double fills = static_cast<double>(c.run.fillsLinear)
                       + static_cast<double>(c.run.fillsInterleaved);
        double lin = fills == 0 ? 0 : c.run.fillsLinear / fills;
        return m == Metric::LinearFillShare ? lin
               : fills == 0                 ? 0
                                            : 1.0 - lin;
    }
    case Metric::Violations:
        return static_cast<double>(c.run.coherenceViolations);
    case Metric::TotalCycles:
        return static_cast<double>(c.run.totalCycles());
    }
    return 0;
}

CellValue
evalColumn(const ColumnSpec &col, const RowView &row)
{
    if (col.compute)
        return col.compute(row);

    if (col.metric == Metric::Violations && col.arch < 0) {
        std::uint64_t sum = 0;
        for (std::size_t a = 0; a < row.numCells; ++a)
            sum += row.cell(a).run.coherenceViolations;
        return CellValue::integer(sum);
    }

    std::size_t a = col.arch < 0 ? 0 : static_cast<std::size_t>(col.arch);
    L0_ASSERT(a < row.numCells, "column '%s' references arch %zu of %zu",
              col.header.c_str(), a, row.numCells);
    const Cell &c = row.cell(a);
    double v = metricValue(col.metric, c);
    switch (col.kind) {
    case CellValue::Kind::Fixed:
        return CellValue::fixed(v, col.digits);
    case CellValue::Kind::Percent:
        return CellValue::percent(v, col.digits);
    case CellValue::Kind::Integer:
        return CellValue::integer(static_cast<std::uint64_t>(v));
    case CellValue::Kind::Text:
        break; // meaningless for a numeric metric; fall through
    }
    return CellValue::fixed(v, col.digits);
}

} // namespace

ResultTable
ResultGrid::render() const
{
    const ExperimentSpec &spec = state_->spec;
    ResultTable t;
    t.title = spec.title;
    t.footer = spec.footer;
    t.header.push_back(spec.rowHeader);
    for (const auto &col : spec.columns)
        t.header.push_back(col.header);

    const std::size_t na = numArchs();
    std::vector<std::vector<double>> meanVals(spec.columns.size());

    auto addRow = [&](const std::string &label, const RowView &row) {
        std::vector<CellValue> cells;
        cells.reserve(spec.columns.size() + 1);
        cells.push_back(CellValue::text(label));
        for (std::size_t c = 0; c < spec.columns.size(); ++c) {
            CellValue v = evalColumn(spec.columns[c], row);
            if (spec.columns[c].mean == ColumnSpec::MeanPolicy::Amean
                && v.isNumeric())
                meanVals[c].push_back(v.number());
            cells.push_back(std::move(v));
        }
        t.rows.push_back(std::move(cells));
    };

    if (spec.rows == RowAxis::Benchmarks) {
        for (std::size_t b = 0; b < numBenches(); ++b) {
            RowView row{bench(b), state_->archs,
                        na ? &cells_[b * na] : nullptr, na};
            addRow(bench(b).name, row);
        }
    } else {
        for (std::size_t a = 0; a < na; ++a) {
            RowView row{bench(0), state_->archs, &cells_[a], 1};
            addRow(arch(a).label, row);
        }
    }

    if (spec.meanRow) {
        std::vector<CellValue> cells;
        cells.push_back(CellValue::text(spec.meanLabel));
        for (std::size_t c = 0; c < spec.columns.size(); ++c) {
            const ColumnSpec &col = spec.columns[c];
            switch (col.mean) {
            case ColumnSpec::MeanPolicy::Amean:
                cells.push_back(
                    col.kind == CellValue::Kind::Percent
                        ? CellValue::percent(amean(meanVals[c]),
                                             col.digits)
                        : CellValue::fixed(amean(meanVals[c]),
                                           col.digits));
                break;
            case ColumnSpec::MeanPolicy::Zero:
                cells.push_back(CellValue::integer(0));
                break;
            case ColumnSpec::MeanPolicy::Blank:
                cells.push_back(CellValue::text(""));
                break;
            }
        }
        t.rows.push_back(std::move(cells));
    }
    return t;
}

void
ResultGrid::emit(SinkFormat format, std::FILE *out) const
{
    makeSink(format, out)->write(render());
}

} // namespace l0vliw::driver
