#include "mem/mem_system.hh"

#include <atomic>

#include "common/logging.hh"
#include "mem/interleaved.hh"
#include "mem/l0_system.hh"
#include "mem/multivliw.hh"
#include "mem/unified.hh"

namespace l0vliw::mem
{

std::uint64_t
MemSystem::nextId()
{
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

std::unique_ptr<MemSystem>
MemSystem::create(const machine::MachineConfig &config)
{
    config.validate();
    switch (config.memArch) {
      case machine::MemArch::UnifiedL1:
        return std::make_unique<UnifiedMemSystem>(config);
      case machine::MemArch::L0Buffers:
        return std::make_unique<L0MemSystem>(config);
      case machine::MemArch::MultiVliw:
        return std::make_unique<MultiVliwMemSystem>(config);
      case machine::MemArch::WordInterleaved:
        return std::make_unique<InterleavedMemSystem>(config);
    }
    panic("unknown memory architecture");
}

} // namespace l0vliw::mem
