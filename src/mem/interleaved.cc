#include "mem/interleaved.hh"

namespace l0vliw::mem
{

InterleavedMemSystem::InterleavedMemSystem(
        const machine::MachineConfig &config)
    : MemSystem(config)
{
    int slice_bytes = config.l1SizeBytes / config.numClusters;
    // Slices cache their share of each block; 8-byte slice lines keep
    // the geometry comparable to the L0 subblocks.
    for (int c = 0; c < config.numClusters; ++c) {
        slices.emplace_back(slice_bytes, config.l1Assoc, 8);
        abs.push_back(TagCache::fullyAssociative(config.abEntries,
                                                 config.wiWordBytes));
    }
}

Addr
InterleavedMemSystem::localAddr(Addr addr) const
{
    Addr word = fastDiv(addr, cfg.wiWordBytes);
    Addr local_word = fastDiv(word, cfg.numClusters);
    return local_word * cfg.wiWordBytes + fastMod(addr, cfg.wiWordBytes);
}

MemAccessResult
InterleavedMemSystem::access(const MemAccess &acc, Cycle now,
                             std::uint64_t store_value)
{
    MemAccessResult res;
    ClusterId home = owner(acc.addr);
    // Accesses spanning an ownership boundary involve two clusters;
    // they behave like remote accesses (rare: only misaligned or
    // 8-byte accesses can span 4-byte words).
    bool spans = owner(acc.addr + acc.size - 1) != home;

    if (!acc.isLoad && !acc.isPrefetch) {
        // Update the home slice (no allocate), write through backing,
        // keep ABs coherent: the writer's own AB copy is updated
        // in place (same data path), every remote AB copy is dropped.
        slices[home].access(localAddr(acc.addr), /*allocate=*/false);
        for (int c = 0; c < cfg.numClusters; ++c) {
            if (c == acc.cluster)
                continue;
            if (abs[c].invalidate(acc.addr))
                ++hot.abStoreInvalidations;
        }
        back.store(acc.addr, store_value, acc.size);
        ++(home == acc.cluster ? hot.localStores : hot.remoteStores);
        res.ready = now + 1;
        res.local = home == acc.cluster;
        return res;
    }

    // Loads and prefetches.
    if (home == acc.cluster && !spans) {
        bool hit = slices[home].access(localAddr(acc.addr),
                                       /*allocate=*/true);
        ++(hit ? hot.localHits : hot.localMisses);
        res.ready = now + cfg.wiLocalHitLatency
                    + (hit ? 0 : cfg.l2Latency);
        res.local = true;
        res.l1Hit = hit;
        if (!hit && cfg.sliceSeqPrefetch) {
            // Sequential tagged prefetch within the slice's own
            // (home-compacted) address space.
            slices[home].access(localAddr(acc.addr) + 8,
                                /*allocate=*/true);
        }
    } else {
        // Remote word: try the local Attraction Buffer first.
        if (abs[acc.cluster].access(acc.addr, /*allocate=*/false)) {
            ++hot.abHits;
            res.ready = now + cfg.wiLocalHitLatency;
            res.local = true;
        } else {
            ++hot.remoteAccesses;
            bool hit = slices[home].access(localAddr(acc.addr),
                                           /*allocate=*/true);
            res.ready = now + cfg.wiLocalHitLatency + cfg.wiRemotePenalty
                        + (hit ? 0 : cfg.l2Latency);
            res.local = false;
            res.l1Hit = hit;
            abs[acc.cluster].access(acc.addr, /*allocate=*/true);
        }
    }
    if (acc.isLoad)
        res.value = back.load(acc.addr, acc.size);
    return res;
}

void
InterleavedMemSystem::stateKey(std::vector<std::uint64_t> &key) const
{
    for (const auto &s : slices)
        s.appendKey(key);
    for (const auto &ab : abs)
        ab.appendKey(key);
}

void
InterleavedMemSystem::counterSnapshot(
        std::vector<std::uint64_t> &out) const
{
    appendHot(hot, out);
}

void
InterleavedMemSystem::addCounters(const std::uint64_t *delta)
{
    addHot(hot, delta);
}

void
InterleavedMemSystem::syncStats() const
{
    statSet.setNonzero("ab_store_invalidations", hot.abStoreInvalidations);
    statSet.setNonzero("wi_local_stores", hot.localStores);
    statSet.setNonzero("wi_remote_stores", hot.remoteStores);
    statSet.setNonzero("wi_local_hits", hot.localHits);
    statSet.setNonzero("wi_local_misses", hot.localMisses);
    statSet.setNonzero("ab_hits", hot.abHits);
    statSet.setNonzero("wi_remote_accesses", hot.remoteAccesses);
}

} // namespace l0vliw::mem
