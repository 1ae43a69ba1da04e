#include "mem/mem_system.hh"

#include <algorithm>
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

void
MemSystem::stateKey(std::vector<std::uint64_t> &key) const
{
    for (const TagCache *t : tagStores)
        t->appendKey(key);
    appendOtherState(key);
}

void
MemSystem::saveState(std::vector<std::uint64_t> &out) const
{
    for (const TagCache *t : tagStores)
        t->appendRaw(out);
    appendOtherState(out);
}

bool
MemSystem::matchesState(const std::vector<std::uint64_t> &saved) const
{
    const std::uint64_t *raw = saved.data();
    for (const TagCache *t : tagStores)
        if (!t->matchesRaw(raw))
            return false;
    thread_local std::vector<std::uint64_t> other;
    other.clear();
    appendOtherState(other);
    return static_cast<std::size_t>(saved.data() + saved.size() - raw)
               == other.size()
           && std::equal(other.begin(), other.end(), raw);
}

} // namespace l0vliw::mem
