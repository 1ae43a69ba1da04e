#include "machine/machine_config.hh"

#include "common/logging.hh"

namespace l0vliw::machine
{

const char *
toString(MemArch a)
{
    switch (a) {
      case MemArch::UnifiedL1: return "unified-L1";
      case MemArch::L0Buffers: return "L0-buffers";
      case MemArch::MultiVliw: return "MultiVLIW";
      case MemArch::WordInterleaved: return "word-interleaved";
    }
    return "?";
}

int
MachineConfig::opLatency(ir::OpKind kind) const
{
    switch (kind) {
      case ir::OpKind::IntAlu: return intAluLatency;
      case ir::OpKind::IntMul: return intMulLatency;
      case ir::OpKind::FpAlu: return fpAluLatency;
      case ir::OpKind::Store: return storeIssueLatency;
      case ir::OpKind::Prefetch: return storeIssueLatency;
      case ir::OpKind::Load:
        panic("load latency depends on the assigned level; "
              "query the schedule instead");
    }
    return 1;
}

int
MachineConfig::scheduledLoadLatency() const
{
    switch (memArch) {
      case MemArch::MultiVliw: return mvLocalHitLatency;
      case MemArch::WordInterleaved:
        return wiLocalHitLatency + wiRemotePenalty;
      case MemArch::UnifiedL1:
      case MemArch::L0Buffers: break;
    }
    return l1Latency;
}

void
MachineConfig::validate() const
{
    if (numClusters < 1)
        fatal("numClusters must be >= 1 (got %d)", numClusters);
    if (numBuses < 1 || busLatency < 1)
        fatal("bus configuration invalid");
    if (l1BlockBytes <= 0 || (l1BlockBytes & (l1BlockBytes - 1)) != 0)
        fatal("l1BlockBytes must be a power of two (got %d)", l1BlockBytes);
    if (memArch == MemArch::L0Buffers) {
        if (l0SubblockBytes * numClusters != l1BlockBytes) {
            fatal("an L0 subblock must be an L1 block divided by the "
                  "number of clusters (%d * %d != %d)",
                  l0SubblockBytes, numClusters, l1BlockBytes);
        }
        if (l0Entries == 0)
            fatal("l0Entries must be nonzero (use UnifiedL1 for no L0)");
        if (l0Latency > l1Latency)
            fatal("an L0 buffer must be no slower than the L1 (%d > %d)",
                  l0Latency, l1Latency);
    }
    if (l1SizeBytes % (l1Assoc * l1BlockBytes) != 0)
        fatal("L1 size must be a whole number of sets");
    if (memArch == MemArch::WordInterleaved && wiWordBytes <= 0)
        fatal("wiWordBytes must be positive");
}

MachineConfig
MachineConfig::paperL0(int entries)
{
    MachineConfig c;
    c.memArch = MemArch::L0Buffers;
    c.l0Entries = entries;
    return c;
}

MachineConfig
MachineConfig::paperUnified()
{
    MachineConfig c;
    c.memArch = MemArch::UnifiedL1;
    return c;
}

MachineConfig
MachineConfig::paperMultiVliw()
{
    MachineConfig c;
    c.memArch = MemArch::MultiVliw;
    return c;
}

MachineConfig
MachineConfig::paperInterleaved()
{
    MachineConfig c;
    c.memArch = MemArch::WordInterleaved;
    return c;
}

} // namespace l0vliw::machine
