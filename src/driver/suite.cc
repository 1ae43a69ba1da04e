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
    // An arch-less grid (computed columns only, like table1) simulates
    // nothing.
    if (na == 0)
        return grid;

    // Every cell is a serializable CellJob, label-addressed through
    // the registries, and one executor decides where the jobs run —
    // this process, worker children, or --serve daemons over TCP. The
    // event stream (ExecOptions.onOutcome) and the trace see each job
    // once. Ids start at 1 and run on across both waves: an executing
    // side that receives a corrupted or malformed frame replies with
    // a failed id-0 outcome (handleCellLine), and that sentinel must
    // never match a real job — the client retries instead of adopting
    // the failure.
    std::unique_ptr<Executor> executor = makeExecutor(exec);
    std::uint64_t nextId = 1;
    auto runWave = [&](std::vector<CellJob> &jobs, const auto &fold) {
        // The head of each job's span chain: a zero-duration
        // "enqueue" mark on the job's trace lane, stamped before the
        // executor sees the batch.
        for (CellJob &job : jobs) {
            job.id = nextId++;
            if (exec.trace != nullptr)
                exec.trace->record(
                    {job.id, "enqueue", "driver", exec.trace->nowUs(), 0,
                     {{"bench", job.bench}, {"arch", job.arch}}});
        }
        std::vector<CellOutcome> outcomes = executor->execute(jobs);
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            if (!outcomes[j].ok) {
                warn("suite cell %s/%s: %s", jobs[j].bench.c_str(),
                     jobs[j].arch.c_str(), outcomes[j].error.c_str());
                // A failure a peer could not classify is still a hole.
                if (outcomes[j].reason == FailReason::None)
                    outcomes[j].reason = FailReason::JobError;
            }
            double foldStart =
                exec.trace != nullptr ? exec.trace->nowUs() : 0;
            fold(j, outcomes[j]);
            // The tail of the chain: the outcome folding back into the
            // grid.
            if (exec.trace != nullptr)
                exec.trace->record({jobs[j].id, "fold", "driver", foldStart,
                                    exec.trace->nowUs() - foldStart, {}});
        }
    };
    auto setCell = [&](std::size_t b, std::size_t a, BenchmarkRun run) {
        const double base =
            static_cast<double>(grid.baselines_[b].totalCycles());
        Cell &cell = grid.cells_[b * na + a];
        cell.normalized = run.totalCycles() / base;
        cell.normalizedStall = run.loopStall / base;
        cell.run = std::move(run);
    };

    // Wave 1: one baseline job per benchmark. Its worker makes the
    // architecture-independent unroll decision and runs the unified
    // cell, whose scalar region is self-referential; both travel back
    // in the outcome. A "unified" column is that run.
    std::vector<CellJob> baselineJobs;
    for (const std::string &label : state_->spec.benchmarks)
        baselineJobs.push_back(
            {0, label, "unified", /*unrolls=*/{}, /*baseline=*/{}});
    std::vector<std::vector<int>> unrolls(nb);
    runWave(baselineJobs, [&](std::size_t b, CellOutcome &outcome) {
        if (!outcome.ok) {
            // No unroll decision and no baseline: the row is holes.
            for (std::size_t a = 0; a < na; ++a)
                grid.cells_[b * na + a].reason = outcome.reason;
            return;
        }
        unrolls[b] = std::move(outcome.unrolls);
        grid.baselines_[b] = std::move(outcome.run);
        for (std::size_t a = 0; a < na; ++a)
            if (archs[a].label == "unified")
                setCell(b, a, grid.baselines_[b]);
    });

    // Wave 2: every other cell of a row whose baseline ran, carrying
    // the decision and the baseline's scalar-region cycles.
    std::vector<CellJob> jobs;
    std::vector<std::size_t> cellOf; // job index -> cell index
    for (std::size_t i = 0; i < nb * na; ++i) {
        std::size_t b = i / na, a = i % na;
        if (archs[a].label == "unified" || grid.cells_[i].failed())
            continue;
        jobs.push_back({0, state_->spec.benchmarks[b], archs[a].label,
                        unrolls[b], /*baseline=*/{}});
        jobs.back().baseline.scalarCycles =
            grid.baselines_[b].scalarCycles;
        cellOf.push_back(i);
    }
    runWave(jobs, [&](std::size_t j, CellOutcome &outcome) {
        if (outcome.ok)
            setCell(cellOf[j] / na, cellOf[j] % na, std::move(outcome.run));
        else
            grid.cells_[cellOf[j]].reason = outcome.reason;
    });
    return grid;
}

bool
ResultGrid::complete() const
{
    for (const Cell &cell : cells_)
        if (cell.failed())
            return false;
    return true;
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
hole(const Cell &c)
{
    return CellValue::failed(failReasonName(c.reason));
}

CellValue
evalColumn(const ColumnSpec &col, const RowView &row)
{
    // A column that reads a hole shows it; a computed column or a row
    // sum reads the whole row.
    if (col.compute || (col.metric == Metric::Violations && col.arch < 0)) {
        std::uint64_t sum = 0;
        for (std::size_t a = 0; a < row.numCells; ++a) {
            if (row.cell(a).failed())
                return hole(row.cell(a));
            sum += row.cell(a).run.coherenceViolations;
        }
        return col.compute ? col.compute(row) : CellValue::integer(sum);
    }

    std::size_t a = col.arch < 0 ? 0 : static_cast<std::size_t>(col.arch);
    L0_ASSERT(a < row.numCells, "column '%s' references arch %zu of %zu",
              col.header.c_str(), a, row.numCells);
    const Cell &c = row.cell(a);
    if (c.failed())
        return hole(c);
    double v = metricValue(col.metric, c);
    switch (col.kind) {
    case CellValue::Kind::Fixed:
        return CellValue::fixed(v, col.digits);
    case CellValue::Kind::Percent:
        return CellValue::percent(v, col.digits);
    case CellValue::Kind::Integer:
        return CellValue::integer(static_cast<std::uint64_t>(v));
    case CellValue::Kind::Text:
    case CellValue::Kind::Failed:
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
    // Per column: the values a mean takes, and the holes it leaves out.
    struct MeanInputs
    {
        std::vector<double> values;
        int holes = 0;
        std::string reason; ///< the last hole's
    };
    std::vector<MeanInputs> means(spec.columns.size());

    auto addRow = [&](const std::string &label, const RowView &row) {
        std::vector<CellValue> cells;
        cells.reserve(spec.columns.size() + 1);
        cells.push_back(CellValue::text(label));
        for (std::size_t c = 0; c < spec.columns.size(); ++c) {
            CellValue v = evalColumn(spec.columns[c], row);
            if (v.kind() == CellValue::Kind::Failed) {
                ++means[c].holes;
                means[c].reason = v.textValue();
            } else if (spec.columns[c].mean
                           == ColumnSpec::MeanPolicy::Amean
                       && v.isNumeric()) {
                means[c].values.push_back(v.number());
            }
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
            const MeanInputs &in = means[c];
            CellValue mean;
            switch (col.mean) {
            case ColumnSpec::MeanPolicy::Amean:
                mean = col.kind == CellValue::Kind::Percent
                           ? CellValue::percent(amean(in.values),
                                                col.digits)
                           : CellValue::fixed(amean(in.values),
                                              col.digits);
                break;
            case ColumnSpec::MeanPolicy::Zero:
                mean = CellValue::integer(0);
                break;
            case ColumnSpec::MeanPolicy::Blank:
                mean = CellValue::text("");
                break;
            }
            // A column of nothing but holes has no mean.
            if (col.mean != ColumnSpec::MeanPolicy::Blank && in.holes > 0
                && static_cast<std::size_t>(in.holes) == t.rows.size())
                mean = CellValue::failed(in.reason);
            mean.setExcluded(in.holes);
            cells.push_back(std::move(mean));
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
