/**
 * @file
 * The shared command line of every figure/table driver and example:
 *
 *   --filter=<substr>   keep only benchmarks whose label contains it
 *                       (and, in arch-major grids, only matching
 *                       architecture labels)
 *   --jobs=N            workers for Suite::run (default: all hardware
 *                       threads; results are bit-identical for every
 *                       value). For --executor tcp an explicit N sets
 *                       the connection count: beyond the --connect
 *                       list it replicates the endpoints round-robin,
 *                       below it keeps only the first N.
 *   --executor=inprocess|tcp
 *                       where cells execute: worker threads in this
 *                       process, or remote --serve daemons speaking
 *                       the NDJSON cell protocol (default: inprocess,
 *                       overridable via L0VLIW_EXECUTOR)
 *   --connect=host:port[,host:port...]
 *                       the worker daemons for --executor tcp, one
 *                       connection per entry
 *   --window=N          jobs pipelined per tcp connection (default 4;
 *                       1 = strict lockstep, one request one reply).
 *                       Results are bit-identical for every value —
 *                       windowing only changes how many round trips
 *                       overlap. See src/net/PROTOCOL.md and the
 *                       README on picking a value.
 *   --stream=<file|->   emit one NDJSON event per completed cell, as
 *                       it completes, from any executor backend
 *   --publish=host:port publish the same per-cell events — plus the
 *                       final rendered grid of a run without holes —
 *                       to an `l0store --serve` result-store daemon
 *                       (acked, idempotent, bounded retries; see
 *                       src/store/README.md)
 *   --suite=NAME        run identity stamped into published events:
 *                       the suite name queries group by (default:
 *                       the driver binary's basename)
 *   --rev=REV           ... the source revision, for `l0store diff`
 *                       (default: "unknown")
 *   --run-id=ID         ... the unique run id published events dedup
 *                       on (default: generated from time and pid)
 *   --cell-timeout-ms=N per-job wall-clock deadline for the tcp
 *                       executor (0 = off; default 60000)
 *   --fault-inject=<spec>
 *                       deterministic transport fault injection (see
 *                       src/net/fault.hh for the grammar, e.g.
 *                       seed=7,delay=0..50ms@0.2,drop@0.05; env:
 *                       L0VLIW_FAULT_INJECT)
 *   --trace=<file>      record every dispatched cell's span chain
 *                       (enqueue -> cell -> wire-write -> plan-build/
 *                       execute -> fold, keyed by wire job id) and
 *                       write the run as Chrome trace-event JSON on
 *                       exit — loadable in Perfetto or chrome://
 *                       tracing (see src/metrics/trace.hh)
 *   --format=table|csv|json   output sink (default: table)
 *   --list              print every registered architecture and
 *                       workload label (plus the parametric grammars)
 *                       and exit
 *
 * Every flag also accepts its value space-separated (--jobs 4).
 * Numbers — in flags and ports — are canonical decimals in the stated
 * range: digits only, no '+', no space, no leading zero
 * (common/decimal.hh); anything else is fatal, never wrapped or
 * narrowed.
 * Anything else is passed through as a positional argument (the
 * examples take benchmark/architecture names positionally).
 *
 * One mode preempts the driver body: --serve <port> turns the process
 * into a TCP worker daemon answering the cell protocol until
 * SIGINT/SIGTERM. Under --serve, an explicit --jobs N sets the
 * daemon's per-connection worker-pool size (default: all hardware
 * threads; 1 restores the strict serial request/reply loop).
 *
 * Exit codes: 0 for a complete grid; kExitHoles when the grid has
 * holes (cells that failed after the executor's retries, printed as
 * `failed(<reason>)`; see driver/suite.hh); 1 for every fatal error.
 */

#ifndef L0VLIW_DRIVER_CLI_HH
#define L0VLIW_DRIVER_CLI_HH

#include <memory>
#include <string>
#include <vector>

#include "common/result_sink.hh"
#include "driver/executor.hh"
#include "driver/suite.hh"
#include "metrics/trace.hh"

namespace l0vliw::driver
{

/** runSuiteMain's exit code for a grid with holes (fatal() exits 1). */
constexpr int kExitHoles = 3;

/** Parsed shared driver options. */
struct CliOptions
{
    std::string filter;
    int jobs = 1;
    /** True when --jobs was given (vs the hardware-thread default) —
     *  the tcp backend widens its connection pool only on an
     *  explicit ask. */
    bool jobsExplicit = false;
    ExecBackend executor = ExecBackend::InProcess;
    /** --connect endpoints for the tcp executor (host:port each). */
    std::vector<std::string> connect;
    /** --stream destination ("" = no event stream). */
    std::string stream;
    /** --publish store daemon host:port ("" = no store). */
    std::string publish;
    /** Run identity published with every event (see --suite/--rev/
     *  --run-id above; parseCli fills the defaults in). */
    std::string suiteName;
    std::string rev;
    std::string runId;
    /** --cell-timeout-ms (0 = off). */
    int cellTimeoutMs = ExecOptions{}.cellTimeoutMs;
    /** --window pipelined jobs per connection. */
    int window = ExecOptions{}.window;
    /** True when --window was given (not for inprocess). */
    bool windowExplicit = false;
    /** --trace output file ("" = no tracing). */
    std::string trace;
    SinkFormat format = SinkFormat::Table;
    std::vector<std::string> positional;

    /**
     * The Suite execution options these flags select, --stream's
     * event sink bound and ready (the sink rides inside onOutcome, so
     * every caller of exec() gets it — not just runSuiteMain). The
     * tcp backend needs --connect (fatal without it), and an explicit
     * --jobs beyond the endpoint count replicates the list
     * round-robin into that many connections. A --publish sink is opened (and cached) here too,
     * its events stamped with the run identity; both sinks compose
     * into the same onOutcome.
     */
    ExecOptions exec() const;

    /** The --publish store connection exec() opened (null without
     *  --publish) — runSuiteMain sends the rendered grid through it. */
    std::shared_ptr<OutcomeStream> publishSink() const
    {
        return publishSink_;
    }

    /** The --trace span recorder exec() created (null without
     *  --trace) — runSuiteMain writes its file after the run. */
    std::shared_ptr<metrics::TraceRecorder> traceRecorder() const
    {
        return traceRecorder_;
    }

  private:
    /** Cached by exec() so the grid frame rides the same connection
     *  (and run identity) as the cell events. */
    mutable std::shared_ptr<OutcomeStream> publishSink_;
    /** Cached by exec() so repeated exec() calls share one trace and
     *  the recorder outlives the ExecOptions copies pointing at it. */
    mutable std::shared_ptr<metrics::TraceRecorder> traceRecorder_;
};

/** Parse argv (fatal on unknown --flags; --help prints usage). */
CliOptions parseCli(int argc, char **argv);

/**
 * The whole body of a grid driver: apply the filter, execute the
 * suite through the requested executor, emit through the requested
 * sink, and publish the grid when it has no holes. Returns the
 * process exit code: 0, or kExitHoles.
 */
int runSuiteMain(ExperimentSpec spec, const CliOptions &cli);

} // namespace l0vliw::driver

#endif // L0VLIW_DRIVER_CLI_HH
