/**
 * @file
 * Machine description for the clustered VLIW processor (paper Table 2)
 * and for the two distributed-cache baselines of Section 5.3.
 */

#ifndef L0VLIW_MACHINE_MACHINE_CONFIG_HH
#define L0VLIW_MACHINE_MACHINE_CONFIG_HH

#include <string>

#include "common/types.hh"
#include "ir/operation.hh"

namespace l0vliw::machine
{

/** Which memory architecture the machine uses. */
enum class MemArch
{
    /** Unified L1, no L0 buffers: the normalisation baseline. */
    UnifiedL1,
    /** Unified L1 plus flexible compiler-managed L0 buffers (ours). */
    L0Buffers,
    /** MultiVLIW: snoop-coherent distributed L1 (Sanchez/Gonzalez). */
    MultiVliw,
    /** Word-interleaved distributed L1 + Attraction Buffers (Gibert). */
    WordInterleaved,
};

const char *toString(MemArch a);

/**
 * Full machine description. Defaults reproduce Table 2 of the paper:
 * 4 lock-step clusters, (1 INT + 1 MEM + 1 FP) per cluster, 4
 * register-to-register buses of 2-cycle latency, 1-cycle fully
 * associative L0 buffers with 8-byte subblocks and 2 ports, a 6-cycle
 * 8 KB 2-way 32-byte-block L1 (plus 1 cycle of shift/interleave logic
 * for interleaved fills), and a 10-cycle always-hit L2.
 */
struct MachineConfig
{
    // --- core ---
    int numClusters = 4;
    int intUnitsPerCluster = 1;
    int memUnitsPerCluster = 1;
    int fpUnitsPerCluster = 1;

    // --- inter-cluster communication ---
    int numBuses = 4;
    int busLatency = 2;

    // --- memory architecture selection ---
    MemArch memArch = MemArch::L0Buffers;

    // --- L0 buffers (MemArch::L0Buffers) ---
    int l0Entries = 8;          ///< entries per cluster; <0 => unbounded
    int l0Latency = 1;
    int l0SubblockBytes = 8;
    int l0Ports = 2;

    // --- unified L1 (UnifiedL1 and L0Buffers) ---
    int l1Latency = 6;          ///< 2 request + 2 access + 2 response
    int l1SizeBytes = 8 * 1024;
    int l1Assoc = 2;
    int l1BlockBytes = 32;
    int interleavePenalty = 1;  ///< extra cycle of shift/interleave logic

    // --- L2 ---
    int l2Latency = 10;         ///< always hits

    /**
     * How many subblocks ahead the POSITIVE/NEGATIVE hints fetch.
     * The paper uses 1 and evaluates 2 as a smarter mechanism for the
     * small-II loops of epicdec/rasta (Section 5.2).
     */
    int prefetchDistance = 1;

    // --- distributed baselines ---
    /**
     * MultiVLIW: each cluster holds an L1 slice of l1SizeBytes /
     * numClusters kept coherent by a snoop MSI protocol. Local hits are
     * fast because the slice is small and close; the MICRO-2000 paper
     * uses a 2-cycle local hit, which we adopt. A miss served by a
     * remote slice pays the bus round trip on top of the remote lookup.
     */
    int mvLocalHitLatency = 2;
    int mvRemoteTransfer = 4;   ///< added cycles when a remote slice supplies

    /**
     * Both distributed baselines ship a sequential tagged next-block
     * prefetcher in each slice: on a demand fill, the following block
     * is fetched too. The original systems relied on their slices
     * capturing streaming locality (working sets sized to their
     * testbed); without this our synthetic streams would charge them
     * cold misses their papers never saw. Write-through keeps the data
     * path correct regardless.
     */
    bool sliceSeqPrefetch = true;

    /**
     * Word-interleaved: words of wiWordBytes are statically
     * round-robined across the clusters' slices. Remote accesses cross
     * the inter-cluster fabric both ways. Attraction Buffers cache
     * remotely-mapped words locally.
     */
    int wiWordBytes = 4;
    int wiLocalHitLatency = 2;
    int wiRemotePenalty = 4;    ///< added cycles for a remote word access
    int abEntries = 8;          ///< attraction-buffer entries per cluster

    // --- operation latencies (non-memory) ---
    int intAluLatency = 1;
    int intMulLatency = 2;
    int fpAluLatency = 4;
    int storeIssueLatency = 1;

    /**
     * Latency the scheduler assumes for a load not using L0: the L1
     * latency (unified and L0 machines), MultiVLIW's local hit, or the
     * word-interleaved machine's remote access (local hit plus the
     * remote penalty: without ownership analysis any load may be
     * remote).
     */
    int scheduledLoadLatency() const;

    /** Scheduling latency of a non-memory operation. */
    int opLatency(ir::OpKind kind) const;

    /** True when the per-cluster L0 entry count is unbounded. */
    bool l0Unbounded() const { return l0Entries < 0; }

    /** Abort via fatal() on an inconsistent configuration. */
    void validate() const;

    /** The Table 2 configuration with L0 buffers of @p entries. */
    static MachineConfig paperL0(int entries = 8);
    /** The unified-L1 baseline with no L0 buffers. */
    static MachineConfig paperUnified();
    /** The MultiVLIW distributed-cache baseline. */
    static MachineConfig paperMultiVliw();
    /** The word-interleaved + attraction-buffer baseline. */
    static MachineConfig paperInterleaved();
};

} // namespace l0vliw::machine

#endif // L0VLIW_MACHINE_MACHINE_CONFIG_HH
