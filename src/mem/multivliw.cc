#include "mem/multivliw.hh"

namespace l0vliw::mem
{

MultiVliwMemSystem::MultiVliwMemSystem(const machine::MachineConfig &config)
    : MemSystem(config)
{
    // Each cluster gets a full-size slice: dynamic replication means a
    // block can live in all four slices at once, and the MultiVLIW
    // design pays for that in area — the very cost argument Section
    // 5.3 makes against it. Splitting the unified capacity four ways
    // would instead model a machine the MultiVLIW paper never built.
    for (int c = 0; c < config.numClusters; ++c)
        slices.emplace_back(config.l1SizeBytes, config.l1Assoc,
                            config.l1BlockBytes);
}

MemAccessResult
MultiVliwMemSystem::access(const MemAccess &acc, Cycle now,
                           std::uint64_t store_value)
{
    MemAccessResult res;
    TagCache &local = slices[acc.cluster];

    if (!acc.isLoad && !acc.isPrefetch) {
        // Write-through invalidate: update the local slice if present,
        // invalidate every remote copy, always update backing.
        local.access(acc.addr, /*allocate=*/false);
        for (int c = 0; c < cfg.numClusters; ++c) {
            if (c == acc.cluster)
                continue;
            if (slices[c].invalidate(acc.addr))
                ++hot.storeInvalidations;
        }
        back.store(acc.addr, store_value, acc.size);
        res.ready = now + 1;
        return res;
    }

    // Loads and prefetches.
    if (local.access(acc.addr, /*allocate=*/false)) {
        ++hot.localHits;
        res.ready = now + cfg.mvLocalHitLatency;
        res.local = true;
        if (acc.isLoad)
            res.value = back.load(acc.addr, acc.size);
        return res;
    }

    // Snoop the other slices: a remote copy supplies the block and the
    // local slice replicates it (S state).
    bool remote = false;
    for (int c = 0; c < cfg.numClusters && !remote; ++c)
        remote = c != acc.cluster && slices[c].present(acc.addr);

    local.access(acc.addr, /*allocate=*/true);
    if (remote) {
        ++hot.remoteHits;
        res.ready = now + cfg.mvLocalHitLatency + cfg.mvRemoteTransfer;
        res.local = false;
    } else {
        ++hot.l2Fills;
        res.ready = now + cfg.mvLocalHitLatency + cfg.l2Latency;
        res.local = false;
        res.l1Hit = false;
    }
    if (cfg.sliceSeqPrefetch) {
        // Sequential tagged prefetch: pull the next block alongside the
        // demand fill so streaming misses are charged once per stream,
        // not once per block (see MachineConfig::sliceSeqPrefetch).
        local.access(acc.addr + cfg.l1BlockBytes, /*allocate=*/true);
    }
    if (acc.isLoad)
        res.value = back.load(acc.addr, acc.size);
    return res;
}

void
MultiVliwMemSystem::stateKey(std::vector<std::uint64_t> &key) const
{
    for (const auto &s : slices)
        s.appendKey(key);
}

void
MultiVliwMemSystem::counterSnapshot(std::vector<std::uint64_t> &out) const
{
    appendHot(hot, out);
}

void
MultiVliwMemSystem::addCounters(const std::uint64_t *delta)
{
    addHot(hot, delta);
}

void
MultiVliwMemSystem::syncStats() const
{
    statSet.setNonzero("mv_store_invalidations", hot.storeInvalidations);
    statSet.setNonzero("mv_local_hits", hot.localHits);
    statSet.setNonzero("mv_remote_hits", hot.remoteHits);
    statSet.setNonzero("mv_l2_fills", hot.l2Fills);
}

} // namespace l0vliw::mem
