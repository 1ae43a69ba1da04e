/**
 * @file
 * Compiled kernel plans: the static structure of a modulo schedule,
 * separated from per-invocation state.
 *
 * simulateInvocation() used to rebuild the kernel-row buckets, the
 * load-use edge lists and the ready ring on every call, then walk every
 * cycle t in [0, last_issue] and re-derive each access address with a
 * div/mod in addressOf() — O(trips x ops) hashing and allocation
 * repeated per invocation, for state that only depends on the schedule.
 * A KernelPlan compiles a Schedule once into flat arrays:
 *
 *  - the non-empty kernel rows, each with the slots that must be
 *    operand-checked (they consume a load's value) and the slots that
 *    issue a memory access, in program order;
 *  - per-memory-op affine address generators (start/step/wrap
 *    precomputed, so the steady state advances an address with one add
 *    and one compare instead of a div/mod per access);
 *  - the load-use dependence lists in CSR form;
 *  - reusable scratch: the ready ring (power-of-two deep, so a slot is
 *    a shift and a mask) and the golden-replay buffers (a
 *    block-granular overlay instead of a per-byte hash map).
 *
 * run() is then a thin executor: iteration-major stepping over only the
 * non-empty rows, with an unguarded steady-state fast path between the
 * ramp-up and drain phases. Results are bit-for-bit identical to the
 * reference executor (tests/test_plan.cc proves it); one plan is meant
 * to be reused across every invocation of its loop.
 *
 * Most invocations need not be simulated at all. The inter-loop flush
 * (MemSystem::endLoop) empties the L0 buffers at every loop exit, so
 * once the L1 settles, invocation k starts from the state invocation
 * k-1 started from and repeats it exactly. run() folds such a call —
 * returns the last simulated invocation's result without simulating —
 * when it can prove the repeat:
 *
 *  - same memory system (MemSystem::id()), trips and SimOptions;
 *  - nothing touched the memory since this plan's previous call: the
 *    Backing version and the counter snapshot are as it left them;
 *  - the last simulated invocation left the backing content and the
 *    memory system's stateKey() as it found them (its writes repeat
 *    the previous call's, which a run's writes do: they depend only
 *    on the plan and trips). The state is saved before the run
 *    (MemSystem::saveState()) and compared in place after it
 *    (matchesState()), never built into two keys. A run that does
 *    not repeat the previous call's writes and stores at all moves
 *    the backing, so it saves nothing: it cannot be folded;
 *  - the timeKey() (bus and fill cycles relative to the start) equals
 *    the one that invocation started from.
 *
 * The fold adds that invocation's counter delta and shifts the
 * absolute-cycle fields, leaving the memory system exactly as a full
 * simulation would (ARCHITECTURE.md invariant 11; tests/test_plan.cc
 * checks it against the reference walker, which never folds).
 *
 * The coherence oracle compares every load of every simulated
 * invocation, but replays only what the loop writes. When the plan
 * compiles, each load is classified by its byte range (its array's
 * wrap range, never its array id, so aliasing arrays stay replayed):
 *
 *  - a load whose range overlaps no primary store's range reads bytes
 *    nothing writes during the invocation; the buffers are
 *    write-through, so its expected value is the backing's current
 *    content, read at the compare;
 *  - every other load is replayed: the golden replay runs those loads
 *    and the primary stores overlapping them in program order, and is
 *    skipped when no load is replayed (ARCHITECTURE.md invariant 13).
 */

#ifndef L0VLIW_SIM_KERNEL_PLAN_HH
#define L0VLIW_SIM_KERNEL_PLAN_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "mem/mem_system.hh"
#include "sched/schedule.hh"
#include "sim/kernel_sim.hh"

namespace l0vliw::sim
{

namespace detail
{

/**
 * Ring buffer of per-iteration load-ready times. The depth is rounded
 * up to a power of two, so a slot costs a shift and a mask, never a
 * runtime division.
 */
class ReadyRing
{
  public:
    void
    init(int num_ops, int min_depth)
    {
        shift = 0;
        while ((1 << shift) < min_depth)
            ++shift;
        mask = (std::uint64_t{1} << shift) - 1;
        const std::size_t n = static_cast<std::size_t>(num_ops) << shift;
        ready.assign(n, 0);
        tag.assign(n, ~0ULL);
    }

    /** Forget every entry (between invocations) without reallocating. */
    void
    reset()
    {
        std::fill(tag.begin(), tag.end(), ~0ULL);
    }

    void
    set(OpId op, std::uint64_t iter, Cycle when)
    {
        std::size_t idx = slot(op, iter);
        ready[idx] = when;
        tag[idx] = iter;
    }

    Cycle get(OpId op, std::uint64_t iter) const;

  private:
    std::size_t
    slot(OpId op, std::uint64_t iter) const
    {
        return (static_cast<std::size_t>(op) << shift) | (iter & mask);
    }

    int shift = 0;          ///< log2 of the depth
    std::uint64_t mask = 0; ///< depth - 1
    std::vector<Cycle> ready;
    std::vector<std::uint64_t> tag;
};

/**
 * Block-granular overlay over the pre-invocation backing state for the
 * golden replay. Equivalent to a per-byte map, but one hash probe
 * covers a whole chunk. Chunks outlive reset(): each carries the
 * generation (replay) that last wrote it and reads as empty in any
 * other, so a plan's later replays over the same addresses allocate
 * nothing. Values in and out, like the Backing.
 */
class ChunkedOverlay
{
  public:
    /** Start a new invocation's replay over @p backing. */
    void
    reset(const mem::Backing &backing)
    {
        base = &backing;
        ++generation;
        cachedAddr = kNoChunk;
        cachedChunk = nullptr;
    }

    std::uint64_t read(Addr addr, int size) const;
    void write(Addr addr, std::uint64_t value, int size);

  private:
    static constexpr Addr kChunkBytes = 64;
    static constexpr Addr kNoChunk = ~0ULL;

    struct Chunk
    {
        std::uint64_t generation = 0; ///< the replay mask belongs to
        std::uint64_t mask = 0; ///< bit i set => byte i overlaid
        std::uint64_t words[kChunkBytes / 8] = {}; ///< little-endian
    };

    /** Replace the bytes of @p value (read at @p addr) that chunk
     *  @p chunk_addr overlays. */
    void patch(Addr chunk_addr, Addr addr, int size,
               std::uint64_t &value) const;

    /** This replay's chunk at aligned @p chunk_addr, or null. */
    const Chunk *findChunk(Addr chunk_addr) const;

    /** This replay's chunk at aligned @p chunk_addr, created (or an
     *  older replay's emptied) on demand. */
    Chunk &chunkFor(Addr chunk_addr);

    const mem::Backing *base = nullptr;
    std::uint64_t generation = 0; ///< bumped by every reset()
    std::unordered_map<Addr, Chunk> chunks;
    /**
     * One-entry chunk cache of this replay's chunks: a strided stream
     * touches the same chunk many times in a row. Node pointers stay
     * valid for the overlay's life.
     */
    mutable Addr cachedAddr = kNoChunk;
    mutable Chunk *cachedChunk = nullptr;
};

/**
 * Precompiled affine address generator of one memory operation.
 * Strided streams step a wrapped address; irregular streams keep the
 * deterministic hash walk of addressOf().
 */
struct AddrGen
{
    bool strided = true;
    Addr start = 0;     ///< wrapped address at iteration 0
    Addr stepBytes = 0; ///< wrapped positive step, < hi - lo
    Addr lo = 0;        ///< array base
    Addr hi = 0;        ///< wrap limit: lo + elems * elemSize
    OpId op = kNoOp;    ///< irregular: hash stream id
    std::uint32_t elems = 0; ///< irregular: fastMod divisor
    int elemSize = 4;
};

/** Mutable cursor of one AddrGen (one for replay, one for execution). */
struct AddrCursor
{
    Addr cur = 0;
    std::uint64_t iter = 0;
};

} // namespace detail

/**
 * A Schedule compiled for repeated execution. Compile once (the
 * constructor), then run() every invocation; the plan owns a copy of
 * the schedule, so it can outlive the scheduler that produced it (plan
 * caches key plans per benchmark/architecture/loop).
 *
 * A plan is stateful scratch plus immutable structure: run() may be
 * called any number of times, but not concurrently from two threads.
 */
class KernelPlan
{
  public:
    explicit KernelPlan(sched::Schedule schedule);

    const sched::Schedule &schedule() const { return sched_; }

    /**
     * Execute @p trips kernel iterations against @p mem starting at
     * @p start_cycle — same contract (and bit-for-bit the same result)
     * as simulateInvocation(), including the mem.endLoop() call.
     */
    InvocationResult run(mem::MemSystem &mem, std::uint64_t trips,
                         Cycle start_cycle, const SimOptions &opts);

    /** Calls of run() that simulated / that folded (trips > 0). */
    std::uint64_t simulatedRuns() const { return simulated_; }
    std::uint64_t foldedRuns() const { return folded_; }

  private:
    /** A register flow edge whose producer is a load. */
    struct Use
    {
        OpId producer = kNoOp;
        int distance = 0;
        bool crossCluster = false;
    };

    /** Operand-check record: an op consuming some load's value. */
    struct DepSlot
    {
        int stage = 0;                ///< startCycle / ii
        int useBegin = 0, useEnd = 0; ///< range into uses
    };

    /** Memory-issue record (packed; the executor scans these linearly). */
    struct MemSlot
    {
        mem::MemAccess acc;     ///< template; addr filled per access
        OpId op = kNoOp;
        int stage = 0;          ///< startCycle / ii
        int gen = -1;           ///< address generator index
        /** Replayed load: its row of the oracle table; -1 for a load
         *  compared against the backing, and for other ops. */
        int loadIdx = -1;
        bool isLoad = false, isStore = false;
    };

    /** One non-empty kernel row. */
    struct Row
    {
        int row = 0;                  ///< kernel row index in [0, ii)
        int depBegin = 0, depEnd = 0; ///< range into depSlots_
        int memBegin = 0, memEnd = 0; ///< range into memSlots_
    };

    /** Replay ops in program order (replayed loads and the primary
     *  stores overlapping them). */
    struct GoldenOp
    {
        OpId op = kNoOp;
        bool isLoad = false;
        int gen = -1;
        int loadIdx = -1;
        int size = 0;
    };

    /**
     * What folding the next call needs to know about this plan's
     * previous call (simulated or folded) and the last simulated one.
     */
    struct FoldRecord
    {
        std::uint64_t memId = 0; ///< previous call's memory; 0 = none
        std::uint64_t trips = 0;
        SimOptions opts;
        Cycle start = 0;         ///< previous call's start cycle
        /** Backing version and counter snapshot as it returned. */
        std::uint64_t backingVersion = 0;
        std::vector<std::uint64_t> counters;
        /**
         * The last simulated invocation left the backing content and
         * the memory system's stateKey() as it found them.
         */
        bool foldable = false;
        std::vector<std::uint64_t> timeKey; ///< its start timeKey()
        std::vector<std::uint64_t> delta;   ///< its counter delta
        InvocationResult result;
    };

    /** Fold this call if it provably repeats the previous one. */
    bool tryFold(mem::MemSystem &mem, std::uint64_t trips,
                 Cycle start_cycle, const SimOptions &opts);

    /** The simulation proper (everything run() did before folding). */
    InvocationResult simulate(mem::MemSystem &mem, std::uint64_t trips,
                              Cycle start_cycle, const SimOptions &opts);

    Addr nextAddr(int gen, detail::AddrCursor &cursor) const;

    void goldenReplay(const mem::Backing &backing, std::uint64_t trips);

    /**
     * The ramp-up / steady / drain loops, templated on the concrete
     * memory-system type so the hot path calls access() directly
     * (simulate() type-switches once per invocation, over all four
     * final memory systems).
     */
    template <typename TMem>
    void runPhases(TMem &mem, std::uint64_t trips, Cycle start_cycle,
                   Cycle bus_latency, const SimOptions &opts,
                   std::uint64_t &stall, InvocationResult &out);

    template <bool Steady, typename TMem>
    void runRowInstance(const Row &row, long k, std::uint64_t trips,
                        Cycle start_cycle, Cycle bus_latency, TMem &mem,
                        const SimOptions &opts, std::uint64_t &stall,
                        InvocationResult &out);

    // ---- immutable structure ----
    sched::Schedule sched_;
    int numOps_ = 0;
    int maxStart_ = 0;  ///< latest start cycle over all ops
    int minStage_ = 0, maxStage_ = 0; ///< over ops in non-empty rows
    int numReplayed_ = 0; ///< loads the golden replay computes
    bool storesBacking_ = false; ///< some op is a primary store
    std::vector<DepSlot> depSlots_; ///< row-major, program order inside
    std::vector<MemSlot> memSlots_; ///< row-major, program order inside
    std::vector<Use> uses_;         ///< CSR payload of DepSlot ranges
    std::vector<Row> rows_;         ///< the non-empty rows, ascending
    std::vector<detail::AddrGen> gens_;
    std::vector<GoldenOp> goldenOps_;

    // ---- reusable scratch ----
    detail::ReadyRing ring_;
    detail::ChunkedOverlay overlay_;
    std::vector<std::uint64_t> expected_; ///< loadIdx * trips + iter
    std::vector<detail::AddrCursor> goldenCursors_;
    std::vector<detail::AddrCursor> execCursors_;
    FoldRecord fold_;
    std::uint64_t simulated_ = 0, folded_ = 0;
};

} // namespace l0vliw::sim

#endif // L0VLIW_SIM_KERNEL_PLAN_HH
