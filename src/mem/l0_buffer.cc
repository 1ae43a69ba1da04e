#include "mem/l0_buffer.hh"

#include <algorithm>

#include "common/bytes.hh"
#include "common/intmath.hh"
#include "common/logging.hh"

namespace l0vliw::mem
{

namespace
{

/** No slot. */
constexpr std::size_t kNone = ~std::size_t{0};

/** Buckets of the block-tag index for @p slots slots: a power of two,
 *  at least four per slot, so chains stay a slot or two long. */
std::size_t
bucketsFor(std::size_t slots)
{
    std::size_t n = 16;
    while (n < 4 * slots)
        n *= 2;
    return n;
}

} // namespace

L0Buffer::L0Buffer(int num_entries, int subblock_bytes, int num_clusters)
    : numEntries(num_entries), subblockBytes(subblock_bytes),
      numClusters(num_clusters), wordsPerEntry((subblock_bytes + 7) / 8),
      blockBytes(static_cast<Addr>(subblock_bytes) * num_clusters),
      blockMask(~(blockBytes - 1)),
      blockShift(static_cast<unsigned>(__builtin_ctzll(blockBytes)))
{
    L0_ASSERT(subblockBytes > 0 && numClusters > 0
                  && (blockBytes & (blockBytes - 1)) == 0,
              "bad L0 geometry");
    if (numEntries > 0) {
        live = static_cast<std::size_t>(numEntries);
        quick.assign(live, kNoBlock);
        stamp.assign(live, 0);
        shapes.resize(live);
        payload.assign(live * wordsPerEntry, 0);
        next.assign(live, kEnd);
        linked.assign(live, kNoBlock);
    }
    rehash(bucketsFor(live));
}

void
L0Buffer::link(std::size_t i, Addr block)
{
    if (linked[i] == block)
        return;
    const std::int32_t slot = static_cast<std::int32_t>(i);
    if (linked[i] != kNoBlock) {
        std::int32_t *p =
            &head[(linked[i] >> blockShift) & (head.size() - 1)];
        while (*p != slot)
            p = &next[*p];
        *p = next[i];
    }
    std::int32_t &first = head[(block >> blockShift) & (head.size() - 1)];
    next[i] = first;
    first = slot;
    linked[i] = block;
}

void
L0Buffer::rehash(std::size_t buckets)
{
    head.assign(buckets, kEnd);
    for (std::size_t i = 0; i < live; ++i) {
        const Addr block = linked[i];
        linked[i] = kNoBlock;
        if (block != kNoBlock)
            link(i, block);
    }
}

bool
L0Buffer::containsInBlock(std::size_t i, Addr addr, int size) const
{
    const Addr block = quick[i];
    const Shape &e = shapes[i];
    if (e.kind == ir::MapHint::LinearMap) {
        Addr base = block + static_cast<Addr>(e.index) * subblockBytes;
        return addr >= base && addr + size <= base + subblockBytes;
    }
    // Interleaved: the access must land inside a single element whose
    // residue matches. Accesses wider than the interleaving factor span
    // elements held by other clusters, which Section 3.3 defines as an
    // L0 miss (L1 is always up to date).
    if (size > e.factor)
        return false;
    Addr off = addr - block;
    Addr first_elem = fastDiv(off, e.factor);
    Addr last_elem = fastDiv(off + size - 1, e.factor);
    if (first_elem != last_elem)
        return false;
    return static_cast<int>(fastMod(first_elem, numClusters)) == e.index;
}

unsigned
L0Buffer::payloadOffset(std::size_t i, Addr addr) const
{
    const Shape &e = shapes[i];
    if (e.kind == ir::MapHint::LinearMap) {
        Addr base =
            quick[i] + static_cast<Addr>(e.index) * subblockBytes;
        return static_cast<unsigned>(addr - base);
    }
    Addr off = addr - quick[i];
    Addr elem = fastDiv(off, e.factor);
    // Elements packed densely by residue.
    Addr slot = fastDiv(elem, numClusters);
    return static_cast<unsigned>(slot * e.factor + fastMod(off, e.factor));
}

L0Lookup
L0Buffer::lookup(Addr addr, int size)
{
    L0Lookup res;
    std::size_t best = kNone;
    forEachInBlock(addr & blockMask, [&](std::size_t i) {
        if (containsInBlock(i, addr, size)
            && (best == kNone || stamp[i] > stamp[best]))
            best = i;
    });
    if (best == kNone) {
        ++hot.misses;
        return res;
    }
    stamp[best] = ++useClock;
    res.hit = true;
    const unsigned off = payloadOffset(best, addr);
    res.value = loadBytes(words(best), off, size);

    // Boundary detection for the POSITIVE / NEGATIVE prefetch hints:
    // did this access touch the subblock's extremal element?
    const int end = static_cast<int>(off) + size;
    res.firstElement = off == 0;
    res.lastElement = end == subblockBytes;
    if (shapes[best].kind == ir::MapHint::InterleavedMap) {
        // The subblock's elements are packed densely; the extremal
        // elements are the first/last factor-sized slots.
        const int factor = shapes[best].factor;
        res.firstElement = static_cast<int>(off) < factor;
        res.lastElement = end > subblockBytes - factor;
    }
    ++hot.hits;
    return res;
}

std::size_t
L0Buffer::victimIndex()
{
    if (unbounded()) {
        if (live == quick.size()) {
            // Past the high-water mark: grow geometrically, so a
            // loop's fills allocate at most logarithmically often and
            // later loops not at all.
            const std::size_t n = std::max<std::size_t>(16, 2 * live);
            quick.resize(n, kNoBlock);
            stamp.resize(n, 0);
            shapes.resize(n);
            payload.resize(n * wordsPerEntry, 0);
            next.resize(n, kEnd);
            linked.resize(n, kNoBlock);
            rehash(bucketsFor(n));
        }
        return live++;
    }
    std::size_t v = 0;
    for (std::size_t i = 0; i < live; ++i) {
        if (quick[i] == kNoBlock)
            return i;
        if (stamp[i] < stamp[v])
            v = i;
    }
    ++hot.evictions;
    return v;
}

void
L0Buffer::claim(std::size_t i, Addr block_addr, Shape shape)
{
    L0_ASSERT((block_addr & ~blockMask) == 0,
              "L0 fill of unaligned block %#llx",
              static_cast<unsigned long long>(block_addr));
    link(i, block_addr);
    quick[i] = block_addr;
    stamp[i] = ++useClock;
    shapes[i] = shape;
}

void
L0Buffer::fillLinear(Addr block_addr, int sub_index,
                     const std::uint64_t *sub_words)
{
    // Refill of a present subblock: refresh the data (it may be a
    // demand refill racing a prefetch); no new entry.
    std::size_t slot = kNone;
    forEachInBlock(block_addr, [&](std::size_t i) {
        if (shapes[i].kind == ir::MapHint::LinearMap
            && shapes[i].index == sub_index)
            slot = i;
    });
    if (slot == kNone) {
        slot = victimIndex();
        claim(slot, block_addr, {ir::MapHint::LinearMap, sub_index, 0});
        ++hot.fillsLinear;
    }
    std::copy(sub_words, sub_words + wordsPerEntry, words(slot));
}

void
L0Buffer::fillInterleaved(Addr block_addr, int factor, int residue,
                          const std::uint64_t *block_words)
{
    L0_ASSERT(factor <= 8 && isPow2(static_cast<std::uint32_t>(factor))
                  && subblockBytes % factor == 0,
              "interleave factor %d incompatible with %d-byte subblocks",
              factor, subblockBytes);

    // Refill of a present subblock: refresh the data in place.
    std::size_t slot = kNone;
    forEachInBlock(block_addr, [&](std::size_t i) {
        if (shapes[i].kind == ir::MapHint::InterleavedMap
            && shapes[i].factor == factor && shapes[i].index == residue)
            slot = i;
    });
    if (slot == kNone) {
        slot = victimIndex();
        claim(slot, block_addr,
              {ir::MapHint::InterleavedMap, residue, factor});
        ++hot.fillsInterleaved;
    }
    gatherResidue(slot, block_words, factor, residue);
}

void
L0Buffer::gatherResidue(std::size_t i, const std::uint64_t *block_words,
                        int factor, int residue)
{
    // Pack this residue's elements of the block densely: element
    // s * N + residue goes to payload slot s. The factor is a power of
    // two no wider than a word, so no element straddles a word, in the
    // block or in the payload.
    std::uint64_t *w = words(i);
    std::fill(w, w + wordsPerEntry, 0);
    const std::uint64_t mask = sizeMask(factor);
    const unsigned f = static_cast<unsigned>(factor);
    const unsigned stride = static_cast<unsigned>(numClusters) * f;
    unsigned src = static_cast<unsigned>(residue) * f;
    for (unsigned off = 0; off < static_cast<unsigned>(subblockBytes);
         off += f, src += stride)
        w[off >> 3] |= (block_words[src >> 3] >> ((src & 7) * 8) & mask)
                       << ((off & 7) * 8);
}

bool
L0Buffer::store(Addr addr, int size, std::uint64_t value)
{
    // Update the most recently used matching copy; invalidate the rest
    // (one write port, Section 4.1 intra-cluster coherence).
    const Addr block = addr & blockMask;
    std::size_t update = kNone;
    forEachInBlock(block, [&](std::size_t i) {
        if (containsInBlock(i, addr, size)
            && (update == kNone || stamp[i] > stamp[update]))
            update = i;
    });
    if (update == kNone)
        return false;
    forEachInBlock(block, [&](std::size_t i) {
        if (i != update && containsInBlock(i, addr, size)) {
            quick[i] = kNoBlock;
            ++hot.storeDupInvalidations;
        }
    });
    storeBytes(words(update), payloadOffset(update, addr), value, size);
    ++hot.storeUpdates;
    return true;
}

void
L0Buffer::invalidateMatching(Addr addr, int size)
{
    forEachInBlock(addr & blockMask, [&](std::size_t i) {
        if (containsInBlock(i, addr, size)) {
            quick[i] = kNoBlock;
            ++hot.psrInvalidations;
        }
    });
}

void
L0Buffer::invalidateAll()
{
    std::fill(quick.begin(), quick.begin() + live, kNoBlock);
    std::fill(linked.begin(), linked.begin() + live, kNoBlock);
    std::fill(head.begin(), head.end(), kEnd);
    if (unbounded())
        live = 0;
    ++hot.flushes;
}

bool
L0Buffer::hasLinear(Addr block_addr, int sub_index) const
{
    bool found = false;
    forEachInBlock(block_addr, [&](std::size_t i) {
        found |= shapes[i].kind == ir::MapHint::LinearMap
                 && shapes[i].index == sub_index;
    });
    return found;
}

bool
L0Buffer::hasInterleaved(Addr block_addr, int factor, int residue) const
{
    bool found = false;
    forEachInBlock(block_addr, [&](std::size_t i) {
        found |= shapes[i].kind == ir::MapHint::InterleavedMap
                 && shapes[i].factor == factor && shapes[i].index == residue;
    });
    return found;
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
    const std::size_t wpe = static_cast<std::size_t>(wordsPerEntry);
    appendLruOrder(
        live, [this](std::size_t i) { return quick[i] != kNoBlock; },
        [this](std::size_t i) { return stamp[i]; }, key,
        [this, &key, wpe](std::size_t i) {
            key.push_back(quick[i]);
            key.push_back(static_cast<std::uint64_t>(shapes[i].kind));
            key.push_back(static_cast<std::uint64_t>(shapes[i].index));
            key.push_back(static_cast<std::uint64_t>(shapes[i].factor));
            key.insert(key.end(), payload.begin() + i * wpe,
                       payload.begin() + (i + 1) * wpe);
        });
}

int
L0Buffer::validEntries() const
{
    return static_cast<int>(
        std::count_if(quick.begin(), quick.begin() + live,
                      [](Addr b) { return b != kNoBlock; }));
}

} // namespace l0vliw::mem
