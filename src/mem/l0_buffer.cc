#include "mem/l0_buffer.hh"

#include <algorithm>
#include <cstring>

#include "common/bytes.hh"
#include "common/intmath.hh"
#include "common/logging.hh"

namespace l0vliw::mem
{

L0Buffer::L0Buffer(int num_entries, int subblock_bytes, int num_clusters)
    : numEntries(num_entries), subblockBytes(subblock_bytes),
      numClusters(num_clusters),
      blockBytes(static_cast<Addr>(subblock_bytes) * num_clusters)
{
    L0_ASSERT(subblockBytes > 0 && numClusters > 0, "bad L0 geometry");
    if (numEntries > 0) {
        entries.resize(numEntries);
        quick.assign(numEntries, kNoBlock);
    }
}

bool
L0Buffer::contains(const L0Entry &e, Addr addr, int size) const
{
    if (!e.valid)
        return false;
    // One unsigned compare rejects everything outside the block.
    if (addr - e.blockAddr >= blockBytes
        || addr + size > e.blockAddr + blockBytes)
        return false;
    if (e.kind == ir::MapHint::LinearMap) {
        Addr base = e.blockAddr + static_cast<Addr>(e.index) * subblockBytes;
        return addr >= base && addr + size <= base + subblockBytes;
    }
    // Interleaved: the access must land inside a single element whose
    // residue matches. Accesses wider than the interleaving factor span
    // elements held by other clusters, which Section 3.3 defines as an
    // L0 miss (L1 is always up to date).
    if (size > e.factor)
        return false;
    Addr off = addr - e.blockAddr;
    Addr first_elem = fastDiv(off, e.factor);
    Addr last_elem = fastDiv(off + size - 1, e.factor);
    if (first_elem != last_elem)
        return false;
    return static_cast<int>(fastMod(first_elem, numClusters)) == e.index;
}

int
L0Buffer::payloadOffset(const L0Entry &e, Addr addr, int size) const
{
    if (!contains(e, addr, size))
        return -1;
    return payloadOffsetUnchecked(e, addr);
}

int
L0Buffer::payloadOffsetUnchecked(const L0Entry &e, Addr addr) const
{
    if (e.kind == ir::MapHint::LinearMap) {
        Addr base = e.blockAddr + static_cast<Addr>(e.index) * subblockBytes;
        return static_cast<int>(addr - base);
    }
    Addr off = addr - e.blockAddr;
    Addr elem = fastDiv(off, e.factor);
    // Elements packed densely by residue.
    Addr slot = fastDiv(elem, numClusters);
    return static_cast<int>(slot * e.factor + fastMod(off, e.factor));
}

L0Lookup
L0Buffer::lookup(Addr addr, int size, std::uint8_t *out)
{
    L0Lookup res;
    L0Entry *best = nullptr;
    int best_idx = -1;
    for (std::size_t i = 0; i < quick.size(); ++i) {
        // Cheap block-range reject against the dense address array
        // before touching the entry itself (kNoBlock never passes).
        if (addr - quick[i] >= blockBytes)
            continue;
        L0Entry &e = entries[i];
        if (!contains(e, addr, size))
            continue;
        if (!best || e.lastUse > best->lastUse) {
            best = &e;
            best_idx = static_cast<int>(i);
        }
    }
    if (!best) {
        ++hot.misses;
        return res;
    }
    best->lastUse = ++useClock;
    res.hit = true;
    res.entry = best_idx;
    int off = payloadOffsetUnchecked(*best, addr);
    if (out)
        copySmall(out, best->data.data() + off, size);

    // Boundary detection for the POSITIVE / NEGATIVE prefetch hints:
    // did this access touch the subblock's extremal element?
    res.firstElement = off == 0;
    res.lastElement = off + size == subblockBytes;
    if (best->kind == ir::MapHint::InterleavedMap) {
        // The subblock's elements are packed densely; the extremal
        // elements are the first/last factor-sized slots.
        res.firstElement = off < best->factor;
        res.lastElement = off + size > subblockBytes - best->factor;
    }
    ++hot.hits;
    return res;
}

std::size_t
L0Buffer::victimIndex()
{
    if (unbounded()) {
        entries.emplace_back();
        entries.back().data.resize(subblockBytes);
        quick.push_back(kNoBlock);
        return entries.size() - 1;
    }
    std::size_t v = 0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (!entries[i].valid)
            return i;
        if (entries[i].lastUse < entries[v].lastUse)
            v = i;
    }
    ++hot.evictions;
    return v;
}

void
L0Buffer::fillLinear(Addr block_addr, int sub_index,
                     const std::uint8_t *sub_data)
{
    // Refill of a present subblock: refresh the data (it may be a
    // demand refill racing a prefetch); no new entry.
    for (std::size_t i = 0; i < quick.size(); ++i) {
        if (quick[i] != block_addr)
            continue;
        L0Entry &e = entries[i];
        if (e.kind == ir::MapHint::LinearMap && e.index == sub_index) {
            std::memcpy(e.data.data(), sub_data, subblockBytes);
            return;
        }
    }
    std::size_t vi = victimIndex();
    L0Entry &e = entries[vi];
    e.valid = true;
    e.blockAddr = block_addr;
    e.kind = ir::MapHint::LinearMap;
    e.index = sub_index;
    e.factor = 0;
    e.lastUse = ++useClock;
    if (e.data.size() != static_cast<std::size_t>(subblockBytes))
        e.data.resize(subblockBytes);
    std::memcpy(e.data.data(), sub_data, subblockBytes);
    syncQuick(vi);
    ++hot.fillsLinear;
}

void
L0Buffer::fillInterleaved(Addr block_addr, int factor, int residue,
                          const std::uint8_t *block_data)
{
    L0_ASSERT(factor > 0 && subblockBytes % factor == 0,
              "interleave factor %d incompatible with %d-byte subblocks",
              factor, subblockBytes);

    // Refill of a present subblock: refresh the data in place.
    for (std::size_t i = 0; i < quick.size(); ++i) {
        if (quick[i] != block_addr)
            continue;
        L0Entry &e = entries[i];
        if (e.kind == ir::MapHint::InterleavedMap && e.factor == factor
            && e.index == residue) {
            gatherResidue(e.data.data(), block_data, factor, residue);
            return;
        }
    }
    std::size_t vi = victimIndex();
    L0Entry &e = entries[vi];
    e.valid = true;
    e.blockAddr = block_addr;
    e.kind = ir::MapHint::InterleavedMap;
    e.index = residue;
    e.factor = factor;
    e.lastUse = ++useClock;
    if (e.data.size() != static_cast<std::size_t>(subblockBytes))
        e.data.resize(subblockBytes);
    gatherResidue(e.data.data(), block_data, factor, residue);
    syncQuick(vi);
    ++hot.fillsInterleaved;
}

void
L0Buffer::gatherResidue(std::uint8_t *dst, const std::uint8_t *block_data,
                        int factor, int residue) const
{
    // Pack this residue's elements of the block densely into dst.
    int slots = subblockBytes / factor;
    for (int s = 0; s < slots; ++s) {
        int elem = s * numClusters + residue;
        copySmall(dst + s * factor, block_data + elem * factor, factor);
    }
}

bool
L0Buffer::store(Addr addr, int size, const std::uint8_t *in)
{
    // Update the most recently used matching copy; invalidate the rest
    // (one write port, Section 4.1 intra-cluster coherence).
    L0Entry *update = nullptr;
    for (std::size_t i = 0; i < quick.size(); ++i) {
        if (addr - quick[i] >= blockBytes)
            continue;
        L0Entry &e = entries[i];
        if (!contains(e, addr, size))
            continue;
        if (!update || e.lastUse > update->lastUse)
            update = &e;
    }
    if (!update)
        return false;
    for (std::size_t i = 0; i < quick.size(); ++i) {
        if (addr - quick[i] >= blockBytes)
            continue;
        L0Entry &e = entries[i];
        if (&e != update && contains(e, addr, size)) {
            e.valid = false;
            syncQuick(i);
            ++hot.storeDupInvalidations;
        }
    }
    int off = payloadOffsetUnchecked(*update, addr);
    copySmall(update->data.data() + off, in, size);
    ++hot.storeUpdates;
    return true;
}

void
L0Buffer::invalidateMatching(Addr addr, int size)
{
    for (std::size_t i = 0; i < quick.size(); ++i) {
        if (addr - quick[i] >= blockBytes)
            continue;
        if (contains(entries[i], addr, size)) {
            entries[i].valid = false;
            syncQuick(i);
            ++hot.psrInvalidations;
        }
    }
}

void
L0Buffer::invalidateAll()
{
    for (auto &e : entries)
        e.valid = false;
    if (unbounded())
        entries.clear();
    quick.assign(entries.size(), kNoBlock);
    ++hot.flushes;
}

bool
L0Buffer::hasLinear(Addr block_addr, int sub_index) const
{
    for (const auto &e : entries)
        if (e.valid && e.kind == ir::MapHint::LinearMap
                && e.blockAddr == block_addr && e.index == sub_index)
            return true;
    return false;
}

bool
L0Buffer::hasInterleaved(Addr block_addr, int factor, int residue) const
{
    for (const auto &e : entries)
        if (e.valid && e.kind == ir::MapHint::InterleavedMap
                && e.blockAddr == block_addr && e.factor == factor
                && e.index == residue)
            return true;
    return false;
}

void
L0Buffer::syncStats() const
{
    statSet.setNonzero("l0_hits", hot.hits);
    statSet.setNonzero("l0_misses", hot.misses);
    statSet.setNonzero("l0_evictions", hot.evictions);
    statSet.setNonzero("l0_fills_linear", hot.fillsLinear);
    statSet.setNonzero("l0_fills_interleaved", hot.fillsInterleaved);
    statSet.setNonzero("l0_store_updates", hot.storeUpdates);
    statSet.setNonzero("l0_store_dup_invalidations", hot.storeDupInvalidations);
    statSet.setNonzero("l0_psr_invalidations", hot.psrInvalidations);
    statSet.setNonzero("l0_flushes", hot.flushes);
}

void
L0Buffer::appendKey(std::vector<std::uint64_t> &key) const
{
    const L0Entry *begin = entries.data();
    appendLruOrder(begin, begin + entries.size(), key,
                   [&key](const L0Entry &e) {
        key.push_back(e.blockAddr);
        key.push_back(static_cast<std::uint64_t>(e.kind));
        key.push_back(static_cast<std::uint64_t>(e.index));
        key.push_back(static_cast<std::uint64_t>(e.factor));
        for (std::size_t i = 0; i < e.data.size(); i += 8) {
            std::uint64_t word = 0;
            std::memcpy(&word, e.data.data() + i,
                        std::min<std::size_t>(8, e.data.size() - i));
            key.push_back(word);
        }
    });
}

int
L0Buffer::validEntries() const
{
    int n = 0;
    for (const auto &e : entries)
        n += e.valid ? 1 : 0;
    return n;
}

} // namespace l0vliw::mem
