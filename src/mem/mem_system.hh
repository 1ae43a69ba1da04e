/**
 * @file
 * Architecture-independent memory-system interface.
 *
 * The kernel simulator drives one MemSystem per run. An access carries
 * the compiler's hints (which the hardware must honour for NO/SEQ/PAR
 * and may honour for mapping/prefetch), the issuing cluster, and the
 * stall-adjusted issue cycle; the system returns the cycle the data is
 * ready plus the value the load actually observed (possibly stale if
 * the compiler mismanaged coherence — the oracle checks). Data moves
 * as 64-bit little-endian values end to end, never as byte buffers.
 */

#ifndef L0VLIW_MEM_MEM_SYSTEM_HH
#define L0VLIW_MEM_MEM_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "ir/hints.hh"
#include "machine/machine_config.hh"
#include "mem/backing.hh"
#include "mem/fold.hh"

namespace l0vliw::mem
{

/** One dynamic memory access. */
struct MemAccess
{
    bool isLoad = true;
    bool isPrefetch = false;    ///< explicit software prefetch
    Addr addr = 0;
    int size = 4;
    ClusterId cluster = 0;
    ir::AccessHint access = ir::AccessHint::NoAccess;
    ir::MapHint map = ir::MapHint::LinearMap;
    ir::PrefetchHint prefetch = ir::PrefetchHint::NoPrefetch;
    bool primaryStore = true;   ///< false: PSR replica (invalidate only)
    bool psrReplicated = false; ///< primary of a PSR-replicated store
};

/** Timing and routing outcome of one access. */
struct MemAccessResult
{
    Cycle ready = 0;        ///< cycle the loaded data can be consumed
    bool l0Hit = false;     ///< L0-buffer hit (L0 architecture only)
    bool l1Hit = true;      ///< L1 (or slice) hit
    bool local = true;      ///< served without crossing clusters
    /** Loads: the acc.size bytes observed, little-endian. */
    std::uint64_t value = 0;
};

/** Abstract memory hierarchy under the clustered VLIW core. */
class MemSystem
{
  public:
    explicit MemSystem(const machine::MachineConfig &config)
        : uid(nextId()), cfg(config)
    {
    }

    virtual ~MemSystem() = default;

    /**
     * Perform one access.
     *
     * @param acc the access descriptor
     * @param now stall-adjusted issue cycle
     * @param store_value stores: the value whose low acc.size bytes
     *        are written (ignored otherwise)
     * @return timing, routing and (loads) the observed value
     */
    virtual MemAccessResult access(const MemAccess &acc, Cycle now,
                                   std::uint64_t store_value) = 0;

    /**
     * Loop boundary: the inter-loop coherence flush (invalidate_buffer
     * scheduled in every cluster). Architectures without L0 buffers
     * treat this as a no-op.
     */
    virtual void endLoop(Cycle now) { (void)now; }

    /** Backing store (for initialisation and the oracle). */
    Backing &backing() { return back; }

    /** Process-unique id; unlike the address, never reused. */
    std::uint64_t id() const { return uid; }

    // ---- fold hooks (sim::KernelPlan::run; ARCHITECTURE.md inv. 11) ----

    /**
     * Append a canonical key of every behaviour-affecting field that
     * holds no absolute cycle: each cache set's or buffer's valid
     * tags in LRU order (appendLruOrder(): never the raw use clock nor
     * the way a tag sits in), the payload words of valid L0 entries,
     * pending fills. Two states with equal keys (and equal timeKey()s
     * and backing contents) produce the same results from then on.
     */
    virtual void stateKey(std::vector<std::uint64_t> &key) const = 0;

    /**
     * Append every absolute-cycle field (bus next-free cycles, pending
     * fill ready cycles) relative to @p start, clamped at 0: a cycle
     * at or before the start of a run cannot delay anything in it.
     */
    virtual void timeKey(Cycle start,
                         std::vector<std::uint64_t> &key) const = 0;

    /** Append every hot counter, this system's and its buffers'. */
    virtual void counterSnapshot(std::vector<std::uint64_t> &out) const = 0;

    /** Add @p delta, laid out as counterSnapshot(), to the counters. */
    virtual void addCounters(const std::uint64_t *delta) = 0;

    /**
     * Move every absolute-cycle field later than @p from by
     * @p to - @p from (to >= from). A run starting at cycle c writes
     * only cycles > c, so this replays a run's timing effects at a
     * later start without touching fields the run left alone.
     */
    virtual void shiftTime(Cycle from, Cycle to) = 0;

    StatSet &stats() { syncStats(); return statSet; }
    const StatSet &stats() const { syncStats(); return statSet; }

    const machine::MachineConfig &config() const { return cfg; }

    /** Build the memory system matching @p config.memArch. */
    static std::unique_ptr<MemSystem>
    create(const machine::MachineConfig &config);

  private:
    static std::uint64_t nextId();

    const std::uint64_t uid;

  protected:
    /**
     * Publish any plain-integer hot-path counters into statSet. Called
     * whenever stats() is read; systems with per-access counters
     * override it so the access path never touches the string-keyed
     * map. Counters absent until nonzero, exactly as with add().
     */
    virtual void syncStats() const {}

    machine::MachineConfig cfg;
    Backing back;
    mutable StatSet statSet;
};

} // namespace l0vliw::mem

#endif // L0VLIW_MEM_MEM_SYSTEM_HH
