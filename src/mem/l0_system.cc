#include "mem/l0_system.hh"

#include <algorithm>

#include "common/intmath.hh"
#include "common/logging.hh"

namespace l0vliw::mem
{

L0MemSystem::L0MemSystem(const machine::MachineConfig &config)
    : MemSystem(config),
      l1(config.l1SizeBytes, config.l1Assoc, config.l1BlockBytes),
      buses(config.numClusters),
      fillWords((config.l1BlockBytes + 7) / 8)
{
    for (int c = 0; c < config.numClusters; ++c)
        l0s.emplace_back(config.l0Entries, config.l0SubblockBytes,
                         config.numClusters);
}

void
L0MemSystem::commitFillsSlow(Cycle now)
{
    const int n = cfg.numClusters;
    auto it = pending.begin();
    while (it != pending.end()) {
        if (it->ready > now) {
            ++it;
            continue;
        }
        if (it->interleaved) {
            // Scatter residues r0, r0+1, ... to consecutive clusters
            // starting at the accessing cluster (Section 3.1).
            const std::uint64_t *block =
                readFillWords(it->blockAddr, cfg.l1BlockBytes);
            int residue = it->firstResidue;
            ClusterId c = it->firstCluster;
            for (int k = 0; k < n; ++k) {
                l0s[c].fillInterleaved(it->blockAddr, it->factor, residue,
                                       block);
                if (++residue == n)
                    residue = 0;
                if (++c == n)
                    c = 0;
            }
        } else {
            // A linear fill carries only its subblock.
            const int sub_bytes = cfg.l0SubblockBytes;
            l0s[it->firstCluster].fillLinear(
                it->blockAddr, it->subIndex,
                readFillWords(it->blockAddr
                                  + static_cast<Addr>(it->subIndex)
                                        * sub_bytes,
                              sub_bytes));
        }
        it = pending.erase(it);
    }
    resetNextReady();
}

const std::uint64_t *
L0MemSystem::readFillWords(Addr addr, int bytes)
{
    for (int k = 0; 8 * k < bytes; ++k)
        fillWords[k] = back.load(addr + 8 * static_cast<Addr>(k),
                                 std::min(8, bytes - 8 * k));
    return fillWords.data();
}

void
L0MemSystem::resetNextReady()
{
    nextReady = kNever;
    for (const auto &f : pending)
        nextReady = std::min(nextReady, f.ready);
}

const L0MemSystem::PendingFill *
L0MemSystem::coveringFill(const MemAccess &acc) const
{
    const int n = cfg.numClusters;
    Addr block = acc.addr & ~static_cast<Addr>(cfg.l1BlockBytes - 1);
    for (const auto &f : pending) {
        if (f.blockAddr != block)
            continue;
        if (f.interleaved) {
            if (acc.size > f.factor)
                continue;
            Addr off = acc.addr - f.blockAddr;
            Addr first_elem = fastDiv(off, f.factor);
            Addr last_elem = fastDiv(off + acc.size - 1, f.factor);
            if (first_elem != last_elem)
                continue;
            // Which cluster will receive this element's residue? The
            // k-th cluster from firstCluster gets firstResidue + k.
            int residue = static_cast<int>(fastMod(first_elem, n));
            int k = residue - f.firstResidue;
            if (k < 0)
                k += n;
            int c = f.firstCluster + k;
            if (c >= n)
                c -= n;
            if (c == acc.cluster)
                return &f;
        } else {
            Addr base = f.blockAddr
                        + static_cast<Addr>(f.subIndex) * cfg.l0SubblockBytes;
            if (acc.addr >= base
                    && acc.addr + acc.size <= base + cfg.l0SubblockBytes
                    && f.firstCluster == acc.cluster)
                return &f;
        }
    }
    return nullptr;
}

Cycle
L0MemSystem::l1AccessLatency(Addr addr, bool allocate)
{
    bool hit = l1.access(addr, allocate);
    ++(hit ? hot.l1Hits : hot.l1Misses);
    return cfg.l1Latency + (hit ? 0 : cfg.l2Latency);
}

Cycle
L0MemSystem::startFill(const MemAccess &acc, Cycle grant)
{
    Cycle lat = l1AccessLatency(acc.addr, /*allocate=*/true);
    Addr block = acc.addr & ~static_cast<Addr>(cfg.l1BlockBytes - 1);

    PendingFill f;
    f.blockAddr = block;
    f.firstCluster = acc.cluster;
    if (acc.map == ir::MapHint::InterleavedMap) {
        lat += cfg.interleavePenalty;
        f.interleaved = true;
        f.factor = acc.size;
        f.firstResidue = static_cast<int>(fastMod(
            fastDiv(acc.addr - block, acc.size), cfg.numClusters));
    } else {
        f.interleaved = false;
        f.subIndex = static_cast<int>(
            fastDiv(acc.addr - block, cfg.l0SubblockBytes));
    }
    f.ready = grant + lat;
    queueFill(f);
    return f.ready;
}

void
L0MemSystem::prefetchLinear(Addr block_addr, int sub_index,
                            ClusterId cluster, Cycle now)
{
    if (l0s[cluster].hasLinear(block_addr, sub_index))
        return;
    for (const auto &f : pending)
        if (!f.interleaved && f.blockAddr == block_addr
                && f.subIndex == sub_index && f.firstCluster == cluster)
            return;
    Cycle grant = buses[cluster].reserve(now);
    Cycle lat = l1AccessLatency(block_addr, /*allocate=*/true);
    PendingFill f;
    f.ready = grant + lat;
    f.interleaved = false;
    f.blockAddr = block_addr;
    f.subIndex = sub_index;
    f.firstCluster = cluster;
    queueFill(f);
    ++hot.prefetchFillsLinear;
}

void
L0MemSystem::prefetchInterleaved(Addr block_addr, int factor,
                                 int first_residue, ClusterId first_cluster,
                                 Cycle now)
{
    if (l0s[first_cluster].hasInterleaved(block_addr, factor, first_residue))
        return;
    for (const auto &f : pending)
        if (f.interleaved && f.blockAddr == block_addr
                && f.factor == factor)
            return;
    Cycle grant = buses[first_cluster].reserve(now);
    Cycle lat = l1AccessLatency(block_addr, /*allocate=*/true)
                + cfg.interleavePenalty;
    PendingFill f;
    f.ready = grant + lat;
    f.interleaved = true;
    f.blockAddr = block_addr;
    f.factor = factor;
    f.firstResidue = first_residue;
    f.firstCluster = first_cluster;
    queueFill(f);
    ++hot.prefetchFillsInterleaved;
}

void
L0MemSystem::hintPrefetchSlow(const MemAccess &acc, bool positive,
                              Cycle now)
{
    const Addr block_bytes = cfg.l1BlockBytes;
    Addr block = acc.addr & ~static_cast<Addr>(block_bytes - 1);

    const Addr dist = static_cast<Addr>(cfg.prefetchDistance);
    if (acc.map == ir::MapHint::InterleavedMap) {
        // "The block brought from L1 will be split into subblocks and
        // mapped in an interleaved manner among clusters" — one trigger
        // fetches the whole next/previous block for all clusters.
        Addr target = positive ? block + dist * block_bytes
                               : block - dist * block_bytes;
        if (!positive && block < dist * block_bytes)
            return;
        int residue = static_cast<int>(fastMod(
            fastDiv(acc.addr - block, acc.size), cfg.numClusters));
        prefetchInterleaved(target, acc.size, residue, acc.cluster,
                            now + 1);
        ++hot.hintPrefetches;
        return;
    }

    // Linear: the adjacent subblock, possibly in the adjacent block.
    Addr base = fastDiv(acc.addr, cfg.l0SubblockBytes)
                * cfg.l0SubblockBytes;
    Addr span = dist * cfg.l0SubblockBytes;
    Addr target = positive ? base + span : base - span;
    if (!positive && base < span)
        return;
    Addr tblock = target & ~static_cast<Addr>(block_bytes - 1);
    int sub =
        static_cast<int>(fastDiv(target - tblock, cfg.l0SubblockBytes));
    prefetchLinear(tblock, sub, acc.cluster, now + 1);
    ++hot.hintPrefetches;
}

MemAccessResult
L0MemSystem::access(const MemAccess &acc, Cycle now,
                    std::uint64_t store_value)
{
    MemAccessResult res;
    commitFills(now);

    if (acc.isPrefetch) {
        // Explicit software prefetch: linear mapping only (step 5 —
        // there is no benefit from interleaving a prefetch).
        Addr block = acc.addr & ~static_cast<Addr>(cfg.l1BlockBytes - 1);
        int sub = static_cast<int>(
            fastDiv(acc.addr - block, cfg.l0SubblockBytes));
        prefetchLinear(block, sub, acc.cluster, now);
        ++hot.explicitPrefetches;
        res.ready = now + 1;
        return res;
    }

    if (!acc.isLoad) {
        if (!acc.primaryStore) {
            // PSR replica: invalidate matching local entries, and also
            // cancel in-flight fills that would deliver a pre-store
            // copy of the data into this cluster after the replica has
            // already passed.
            l0s[acc.cluster].invalidateMatching(acc.addr, acc.size);
            Addr block = acc.addr & ~static_cast<Addr>(cfg.l1BlockBytes - 1);
            auto it = pending.begin();
            while (it != pending.end()) {
                if (it->blockAddr == block
                        && (it->interleaved
                            || it->firstCluster == acc.cluster)) {
                    it = pending.erase(it);
                    ++hot.psrFillCancels;
                } else {
                    ++it;
                }
            }
            ++hot.psrReplicaStores;
            res.ready = now + 1;
            return res;
        }
        Cycle grant = buses[acc.cluster].reserve(now);
        bool l1hit = l1.access(acc.addr, /*allocate=*/false);
        ++(l1hit ? hot.l1StoreHits : hot.l1StoreMisses);
        back.store(acc.addr, store_value, acc.size);
        if (acc.access == ir::AccessHint::ParAccess)
            l0s[acc.cluster].store(acc.addr, acc.size, store_value);
        if (acc.psrReplicated) {
            // Together with the replica-side cancellation this closes
            // the fill-vs-replication race: a fill issued after the
            // replicas but completing before this write is dropped and
            // refetched with current data.
            Addr block = acc.addr & ~static_cast<Addr>(cfg.l1BlockBytes - 1);
            auto it = pending.begin();
            while (it != pending.end()) {
                if (it->blockAddr == block) {
                    it = pending.erase(it);
                    ++hot.psrFillCancels;
                } else {
                    ++it;
                }
            }
        }
        res.ready = grant + 1;
        res.l1Hit = l1hit;
        return res;
    }

    // ---- loads ----
    if (acc.access == ir::AccessHint::NoAccess) {
        Cycle grant = buses[acc.cluster].reserve(now);
        Cycle lat = l1AccessLatency(acc.addr, /*allocate=*/true);
        res.ready = grant + lat;
        res.l1Hit = lat == static_cast<Cycle>(cfg.l1Latency);
        res.value = back.load(acc.addr, acc.size);
        return res;
    }

    // PAR_ACCESS launches the bus/L1 request unconditionally, in
    // parallel with the L0 probe; the L1 reply is discarded on a hit.
    // This is PAR's cost — it keeps the cluster bus busy, which is the
    // contention Section 5.2 reports for jpegdec's saturated loops.
    // SEQ_ACCESS only touches the bus after a miss.
    const bool seq = acc.access == ir::AccessHint::SeqAccess;
    Cycle par_grant = 0;
    if (!seq)
        par_grant = buses[acc.cluster].reserve(now);

    L0Lookup probe = l0s[acc.cluster].lookup(acc.addr, acc.size);
    if (probe.hit) {
        res.ready = now + cfg.l0Latency;
        res.l0Hit = true;
        res.value = probe.value;
        triggerHintPrefetch(acc, probe, now);
        return res;
    }

    // Covered by an in-flight (possibly prefetched) fill: wait for it
    // rather than duplicating the L1 request. Counts as a miss — this
    // is the prefetched-too-late stall of Section 5.2.
    if (const PendingFill *f = coveringFill(acc)) {
        res.ready = std::max(f->ready, now + cfg.l0Latency);
        ++hot.pendingWaits;
        res.value = back.load(acc.addr, acc.size);
        return res;
    }

    // Genuine L0 miss: go to L1 and fill. SEQ forwards one cycle after
    // the probe; PAR already holds its bus grant.
    Cycle grant = seq ? buses[acc.cluster].reserve(now + cfg.l0Latency)
                      : par_grant;
    res.ready = startFill(acc, grant);
    res.value = back.load(acc.addr, acc.size);
    return res;
}

void
L0MemSystem::endLoop(Cycle now)
{
    (void)now;
    for (auto &b : l0s)
        b.invalidateAll();
    pending.clear();
    nextReady = kNever;
}

void
L0MemSystem::stateKey(std::vector<std::uint64_t> &key) const
{
    l1.appendKey(key);
    for (const auto &b : l0s)
        b.appendKey(key);
    key.push_back(pending.size());
    for (const auto &f : pending) {
        key.push_back(f.interleaved);
        key.push_back(f.blockAddr);
        key.push_back(static_cast<std::uint64_t>(f.subIndex));
        key.push_back(static_cast<std::uint64_t>(f.factor));
        key.push_back(static_cast<std::uint64_t>(f.firstResidue));
        key.push_back(static_cast<std::uint64_t>(f.firstCluster));
    }
}

void
L0MemSystem::timeKey(Cycle start, std::vector<std::uint64_t> &key) const
{
    for (const auto &b : buses)
        key.push_back(b.timeKey(start));
    for (const auto &f : pending)
        key.push_back(relativeCycle(f.ready, start));
}

void
L0MemSystem::counterSnapshot(std::vector<std::uint64_t> &out) const
{
    appendHot(hot, out);
    for (const auto &b : l0s)
        b.appendCounters(out);
}

void
L0MemSystem::addCounters(const std::uint64_t *delta)
{
    delta = addHot(hot, delta);
    for (auto &b : l0s)
        delta = b.addCounters(delta);
}

void
L0MemSystem::shiftTime(Cycle from, Cycle to)
{
    for (auto &b : buses)
        b.shiftTime(from, to);
    for (auto &f : pending)
        shiftCycle(f.ready, from, to);
    resetNextReady();
}

void
L0MemSystem::syncStats() const
{
    statSet.setNonzero("l1_hits", hot.l1Hits);
    statSet.setNonzero("l1_misses", hot.l1Misses);
    statSet.setNonzero("l1_store_hits", hot.l1StoreHits);
    statSet.setNonzero("l1_store_misses", hot.l1StoreMisses);
    statSet.setNonzero("l0_pending_waits", hot.pendingWaits);
    statSet.setNonzero("psr_fill_cancels", hot.psrFillCancels);
    statSet.setNonzero("psr_replica_stores", hot.psrReplicaStores);
    statSet.setNonzero("explicit_prefetches", hot.explicitPrefetches);
    statSet.setNonzero("hint_prefetches", hot.hintPrefetches);
    statSet.setNonzero("prefetch_fills_linear", hot.prefetchFillsLinear);
    statSet.setNonzero("prefetch_fills_interleaved", hot.prefetchFillsInterleaved);
}

StatSet
L0MemSystem::l0Stats() const
{
    StatSet merged;
    for (const auto &b : l0s)
        merged.merge(b.stats());
    merged.merge(stats());
    return merged;
}

} // namespace l0vliw::mem
