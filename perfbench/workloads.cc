/**
 * @file
 * The benchmark's workloads and the paper-fidelity metrics.
 *
 * paper-serial is the paper's grid and ignores the seed. The two
 * synthetic workloads take their points from the registry grammar:
 * the default seed gives the fixed lists below, and any other seed
 * redraws each slot's access-pattern parameters (strides, chase
 * stride, stream depth) within the ranges those lists span; these
 * leave a cell's cost unchanged. The parameters that set a cell's cost
 * stay fixed per slot: stencil width, reduce fan-in, and the random
 * DDGs, whose seed alone moves a row's cost by up to 2.5x. So grids
 * drawn from different seeds cost the same to within a few percent.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json.hh"
#include "common/rng.hh"
#include "driver/registry.hh"
#include "harness.hh"
#include "workloads/workload.hh"

namespace perfbench
{

using namespace l0vliw;

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    double rank = p * static_cast<double>(values.size() - 1);
    std::size_t lo = static_cast<std::size_t>(std::floor(rank));
    std::size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace
{

/** One synthetic slot: its default label and how a seed redraws it. */
struct Slot
{
    const char *fixed;
    std::string (*draw)(Rng &rng);
};

long
between(Rng &rng, long lo, long hi)
{
    return lo + static_cast<long>(rng.below(hi - lo + 1));
}

std::string
stream(Rng &rng)
{
    return "stream-" + std::to_string(between(rng, 2, 8));
}

std::string
strideOps2(Rng &rng)
{
    return "stride-" + std::to_string(between(rng, 4, 32)) + "x2";
}

std::string
strideOps4(Rng &rng)
{
    return "stride-" + std::to_string(between(rng, 4, 32)) + "x4";
}

std::string
pchase(Rng &rng)
{
    return "pchase-" + std::to_string(between(rng, 8, 256));
}

std::vector<std::string>
drawPoints(const std::vector<Slot> &slots, std::uint64_t seed)
{
    std::vector<std::string> labels;
    Rng rng(seed);
    for (const Slot &slot : slots)
        labels.push_back(seed == kDefaultSeed || slot.draw == nullptr
                             ? slot.fixed
                             : slot.draw(rng));
    return labels;
}

/** fig8's twelve points. */
const std::vector<Slot> kSweepSlots = {
    {"stream-2", stream},        {"stream-8", stream},
    {"stride-4x2", strideOps2},  {"stride-32x4", strideOps4},
    {"stencil2d-2", nullptr},    {"stencil2d-4", nullptr},
    {"reduce-4", nullptr},       {"reduce-12", nullptr},
    {"pchase-8", pchase},        {"pchase-256", pchase},
    {"rand-s1-12", nullptr},     {"rand-s7-16", nullptr},
};

/** The cheapest synthetic points: transport-bound cells. */
const std::vector<Slot> kWireSlots = {
    {"pchase-8", pchase},      {"pchase-256", pchase},
    {"stream-2", stream},      {"stride-4x2", strideOps2},
    {"rand-s1-12", nullptr},
};

/** Normalised time per architecture, violations, AMEAN row. */
void
normalizedGrid(driver::ExperimentSpec &spec)
{
    for (std::size_t a = 0; a < spec.archs.size(); ++a)
        spec.columns.push_back(driver::normalizedColumn(
            spec.archs[a], static_cast<int>(a)));
    spec.columns.push_back(driver::violationsColumn("viol"));
    spec.meanRow = true;
}

int
archIndex(const driver::ResultGrid &grid, const std::string &label)
{
    for (std::size_t a = 0; a < grid.numArchs(); ++a)
        if (grid.arch(a).label == label)
            return static_cast<int>(a);
    return -1;
}

int
benchIndex(const driver::ResultGrid &grid, const std::string &name)
{
    for (std::size_t b = 0; b < grid.numBenches(); ++b)
        if (grid.bench(b).name == name)
            return static_cast<int>(b);
    return -1;
}

} // namespace

bool
makeWorkload(const std::string &name, std::uint64_t seed, Workload &out)
{
    out = Workload{};
    out.name = name;
    driver::ExperimentSpec &spec = out.spec;
    if (name == "paper-serial") {
        out.paper = true;
        spec.benchmarks = workloads::benchmarkNames();
        spec.archs = {"unified",       "l0-2",          "l0-4",
                      "l0-8",          "l0-16",         "l0-unbounded",
                      "l0-4-allcand",  "multivliw",     "interleaved-1",
                      "interleaved-2", "l0-8-pf1",      "l0-8-pf2"};
        normalizedGrid(spec);
        int l08 = 3;
        spec.columns.push_back(driver::hitRateColumn("l0-8.hit", l08));
        spec.columns.push_back(driver::unrollColumn("l0-8.unroll", l08));
    } else if (name == "synthetic-sweep" || name == "wire-publish") {
        out.wire = name == "wire-publish";
        spec.benchmarks =
            drawPoints(out.wire ? kWireSlots : kSweepSlots, seed);
        spec.archs = driver::archRegistry().names();
        normalizedGrid(spec);
    } else {
        return false;
    }
    spec.title = "perfbench " + name + "\n\n";
    return true;
}

// ---- paper fidelity ----

bool
paperFidelity(const driver::ResultGrid &grid,
              const std::string &referencePath,
              std::map<std::string, double> &out, std::string &error)
{
    std::ifstream in(referencePath);
    if (!in) {
        error = "cannot read " + referencePath;
        return false;
    }
    std::stringstream text;
    text << in.rdbuf();
    std::optional<json::Value> doc = json::parse(text.str(), &error);
    const json::Value *claims =
        doc && doc->isObject() ? doc->find("claims") : nullptr;
    if (claims == nullptr || !claims->isArray()) {
        error = referencePath + ": no claims array " + error;
        return false;
    }

    auto column = [&](const std::string &arch) -> std::vector<double> {
        std::vector<double> v;
        int a = archIndex(grid, arch);
        if (a >= 0)
            for (std::size_t b = 0; b < grid.numBenches(); ++b)
                v.push_back(grid.cell(b, a).normalized);
        return v;
    };
    auto mean = [](const std::vector<double> &v) {
        double s = 0;
        for (double x : v)
            s += x;
        return v.empty() ? 0.0 : s / static_cast<double>(v.size());
    };
    auto need = [&](const std::string &arch) {
        if (archIndex(grid, arch) >= 0)
            return true;
        error = "grid has no " + arch + " column";
        return false;
    };

    for (const json::Value &claim : claims->items()) {
        const json::Value *id = claim.find("metric");
        const json::Value *paper = claim.find("paper");
        if (id == nullptr || !id->isString() || paper == nullptr
            || !(paper->isNumber() || paper->isObject())) {
            error = referencePath + ": claim without metric/paper";
            return false;
        }
        const std::string &metric = id->str();
        if (metric == "fid.fig5_8e_err" || metric == "fid.fig5_2e_err") {
            const char *arch =
                metric == "fid.fig5_8e_err" ? "l0-8" : "l0-2";
            if (!need(arch))
                return false;
            out[metric] =
                std::fabs(mean(column(arch)) - paper->asDouble());
        } else if (metric == "fid.allcand_err") {
            if (!need("l0-4") || !need("l0-4-allcand"))
                return false;
            double delta = mean(column("l0-4-allcand"))
                               / mean(column("l0-4"))
                           - 1.0;
            out[metric] = std::fabs(delta - paper->asDouble());
        } else if (metric == "fid.unroll_mae"
                   || metric == "fid.hitrate_gap") {
            if (!paper->isObject() || !need("l0-8"))
                return false;
            int a = archIndex(grid, "l0-8");
            double sum = 0;
            std::size_t n = 0;
            for (const auto &[bench, value] : paper->members()) {
                int b = benchIndex(grid, bench);
                if (b < 0) {
                    error = "grid has no benchmark " + bench;
                    return false;
                }
                const driver::Cell &cell = grid.cell(b, a);
                if (metric == "fid.unroll_mae"
                    && std::fabs(value.asDouble()
                                 - grid.bench(b).paper.unroll)
                           > 1e-9) {
                    error = "reference unroll of " + bench
                            + " disagrees with Benchmark.paper.unroll";
                    return false;
                }
                sum += metric == "fid.unroll_mae"
                           ? std::fabs(cell.run.avgUnroll
                                       - value.asDouble())
                           : std::max(0.0, value.asDouble()
                                               - cell.run.l0HitRate());
                ++n;
            }
            out[metric] = n == 0 ? 0 : sum / static_cast<double>(n);
        } else if (metric == "fid.prefetch_err") {
            const json::Value *bench = claim.find("benchmark");
            int b = bench != nullptr && bench->isString()
                        ? benchIndex(grid, bench->str())
                        : -1;
            if (b < 0 || !need("l0-8-pf1") || !need("l0-8-pf2")) {
                if (b < 0)
                    error = "prefetch claim names no grid benchmark";
                return false;
            }
            double d1 = grid.cell(b, archIndex(grid, "l0-8-pf1"))
                            .normalized;
            double d2 = grid.cell(b, archIndex(grid, "l0-8-pf2"))
                            .normalized;
            out[metric] =
                std::fabs((d2 - d1) / d1 - paper->asDouble());
        } else {
            error = referencePath + ": unknown metric " + metric;
            return false;
        }
    }
    return true;
}

} // namespace perfbench
