#include "mem/unified.hh"

namespace l0vliw::mem
{

UnifiedMemSystem::UnifiedMemSystem(const machine::MachineConfig &config)
    : MemSystem(config),
      l1(config.l1SizeBytes, config.l1Assoc, config.l1BlockBytes),
      buses(config.numClusters)
{
}

MemAccessResult
UnifiedMemSystem::access(const MemAccess &acc, Cycle now,
                         std::uint64_t store_value)
{
    MemAccessResult res;
    Bus &bus = buses[acc.cluster];

    if (acc.isLoad || acc.isPrefetch) {
        Cycle grant = bus.reserve(now);
        bool hit = l1.access(acc.addr, /*allocate=*/true);
        ++(hit ? hot.l1Hits : hot.l1Misses);
        Cycle lat = cfg.l1Latency + (hit ? 0 : cfg.l2Latency);
        res.ready = grant + lat;
        res.l1Hit = hit;
        if (acc.isLoad)
            res.value = back.load(acc.addr, acc.size);
        return res;
    }

    // Store: write-through, non-allocating; completion does not gate
    // any consumer, so ready is just past issue.
    Cycle grant = bus.reserve(now);
    bool hit = l1.access(acc.addr, /*allocate=*/false);
    ++(hit ? hot.l1StoreHits : hot.l1StoreMisses);
    back.store(acc.addr, store_value, acc.size);
    res.ready = grant + 1;
    res.l1Hit = hit;
    return res;
}

void
UnifiedMemSystem::stateKey(std::vector<std::uint64_t> &key) const
{
    l1.appendKey(key);
}

void
UnifiedMemSystem::timeKey(Cycle start,
                          std::vector<std::uint64_t> &key) const
{
    for (const auto &b : buses)
        key.push_back(b.timeKey(start));
}

void
UnifiedMemSystem::counterSnapshot(std::vector<std::uint64_t> &out) const
{
    appendHot(hot, out);
}

void
UnifiedMemSystem::addCounters(const std::uint64_t *delta)
{
    addHot(hot, delta);
}

void
UnifiedMemSystem::shiftTime(Cycle from, Cycle to)
{
    for (auto &b : buses)
        b.shiftTime(from, to);
}

void
UnifiedMemSystem::syncStats() const
{
    statSet.setNonzero("l1_hits", hot.l1Hits);
    statSet.setNonzero("l1_misses", hot.l1Misses);
    statSet.setNonzero("l1_store_hits", hot.l1StoreHits);
    statSet.setNonzero("l1_store_misses", hot.l1StoreMisses);
}

} // namespace l0vliw::mem
