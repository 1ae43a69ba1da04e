/**
 * @file
 * The repository benchmark harness: shared declarations.
 *
 * harness.cc runs one workload as a closed loop of warm grids and
 * prints the end-to-end metrics; layers.cc re-executes a grid through
 * each module's public calls with a timer around every call (the
 * per-layer metrics); workloads.cc defines the workloads, their seeded
 * points, and the paper-fidelity metrics. See perfbench/README.md.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "driver/suite.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Median / percentile (nearest rank on a sorted copy); 0 when empty. */
double percentile(std::vector<double> values, double p);

/** One benchmark workload: the grid it runs and how it dispatches. */
struct Workload
{
    std::string name;
    l0vliw::driver::ExperimentSpec spec;
    /** Cells go over TCP to a spawned daemon and publish to a spawned
     *  store; otherwise they run in-process on one worker. */
    bool wire = false;
    /** Has paper reference points (the fid.* metrics). */
    bool paper = false;
};

/**
 * Build workload @p name for @p seed. The default seed reproduces the
 * fixed point lists; other seeds draw synthetic points from the
 * registry grammar (paper-serial ignores the seed). False on an
 * unknown name.
 */
bool makeWorkload(const std::string &name, std::uint64_t seed,
                  Workload &out);

/** The seed that reproduces the fixed point lists. */
constexpr std::uint64_t kDefaultSeed = 1;

/**
 * The paper-fidelity metrics of a paper-serial grid, keyed by metric
 * name (fid.*), computed against the claims in @p referencePath.
 * False sets @p error (unreadable data, or a grid without the
 * architectures a claim needs).
 */
bool paperFidelity(const l0vliw::driver::ResultGrid &grid,
                   const std::string &referencePath,
                   std::map<std::string, double> &out,
                   std::string &error);

/** Per-grid layer totals of one traced re-execution. */
struct LayerTimes
{
    double wallS = 0; ///< traced grid wall time
    double resolveS = 0;
    double phase0UnrollS = 0;
    double phase0BaselineS = 0;
    double irS = 0;
    double scheduleS = 0;
    double validateS = 0;
    double compileS = 0;
    double memCreateS = 0;
    double runS = 0;
    double foldS = 0;
    double renderS = 0;
    /** sim.run_s of the same invocations with checkCoherence off, each
     *  cell on a fresh memory system (outside wallS). */
    double runNoOracleS = 0;
    std::uint64_t accesses = 0;
    std::uint64_t l0Hits = 0;
    std::uint64_t l0Misses = 0;
    /** Cells whose re-executed BenchmarkRun differs from the
     *  reference grid's (executeCellJob's) bit for bit. */
    std::size_t mismatches = 0;

    /** Sum of the disjoint layer times (everything but wallS and the
     *  oracle-off pass). */
    double layerSum() const;
};

/**
 * Re-execute every cell of @p reference's grid through the public
 * calls Suite::run, buildLoopPlans and runCell make, timing each call,
 * then render @p reference (the render.emit slice). Every re-executed
 * BenchmarkRun is compared with the reference's.
 */
LayerTimes traceGrid(const l0vliw::driver::ResultGrid &reference,
                     const std::vector<std::string> &benchLabels);

/** FNV-1a 64 over the lossless JSON of every cell and baseline run. */
std::uint64_t gridDigest(const l0vliw::driver::ResultGrid &grid);

/** @p table through the text sink, as a string. */
std::string tableText(const l0vliw::ResultTable &table);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
