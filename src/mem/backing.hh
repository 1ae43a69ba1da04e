/**
 * @file
 * Backing store standing in for L2 / main memory, accessed by value.
 *
 * Table 2 gives L2 a fixed 10-cycle latency and it always hits, so no
 * tag state is needed — only data. Every level above is write-through
 * in this reproduction, so the backing store always holds the current
 * value of every byte; stale data can only live in L0 buffers, which
 * is exactly the coherence hazard the paper's compiler manages.
 *
 * Accesses move values, not byte buffers: load() returns the @p size
 * bytes at an address as a little-endian integer and store() writes
 * one. Pages hold 8-byte words, so an aligned access is one shift and
 * mask, and only an access straddling two words touches both (possibly
 * on two pages). Unwritten memory reads as a deterministic pattern
 * generated per 8-byte word, so cold loads are reproducible and
 * checkable by the oracle.
 */

#ifndef L0VLIW_MEM_BACKING_HH
#define L0VLIW_MEM_BACKING_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/bytes.hh"
#include "common/types.hh"

namespace l0vliw::mem
{

/**
 * Sparse paged word store with deterministic default contents.
 *
 * Not copyable: the one-entry page cache points into this object's
 * own page map, so a copy would read the source's pages and dangle once
 * the source is destroyed. A Backing lives inside its MemSystem, whose
 * id() therefore identifies it.
 */
class Backing
{
  public:
    Backing() = default;
    Backing(const Backing &) = delete;
    Backing &operator=(const Backing &) = delete;

    /** The @p size bytes at @p addr, little-endian (1 <= size <= 8). */
    std::uint64_t
    load(Addr addr, int size) const
    {
        const unsigned shift = static_cast<unsigned>(addr & 7) * 8;
        const Addr w = addr >> 3;
        std::uint64_t v = word(w) >> shift;
        if (shift + 8 * static_cast<unsigned>(size) > 64)
            v |= word(w + 1) << (64 - shift);
        return v & sizeMask(size);
    }

    /** Write the low @p size bytes of @p value at @p addr
     *  (1 <= size <= 8). */
    void
    store(Addr addr, std::uint64_t value, int size)
    {
        ++writes;
        const unsigned shift = static_cast<unsigned>(addr & 7) * 8;
        const Addr w = addr >> 3;
        const std::uint64_t mask = sizeMask(size);
        value &= mask;
        std::uint64_t &lo = wordRef(w);
        lo = (lo & ~(mask << shift)) | (value << shift);
        if (shift + 8 * static_cast<unsigned>(size) > 64) {
            const unsigned rest = 64 - shift;
            std::uint64_t &hi = wordRef(w + 1);
            hi = (hi & ~(mask >> rest)) | (value >> rest);
        }
    }

    /** The deterministic content of an unwritten byte: byte addr & 7
     *  of its word's default. */
    static std::uint8_t
    defaultByte(Addr addr)
    {
        return static_cast<std::uint8_t>(defaultWord(addr >> 3)
                                         >> ((addr & 7) * 8));
    }

    /** Drop all written data (reset to the default pattern). */
    void
    clear()
    {
        pages.clear();
        cachedId = kNoPage;
        cachedPage = nullptr;
        ++writes;
    }

    /**
     * Count of store() and clear() calls so far: equal values at two
     * moments prove nothing wrote in between.
     */
    std::uint64_t version() const { return writes; }

  private:
    static constexpr unsigned kPageShift = 9; ///< 512 words = 4 KB
    static constexpr Addr kPageWords = Addr{1} << kPageShift;
    static constexpr Addr kNoPage = ~0ULL;

    /** The deterministic content of unwritten word @p w (= addr >> 3). */
    static std::uint64_t
    defaultWord(Addr w)
    {
        // splitmix64 finaliser; any fixed mixing function works as
        // long as the oracle reads through the same Backing.
        std::uint64_t z = w + 0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Word @p w, written or default. */
    std::uint64_t
    word(Addr w) const
    {
        const Addr page = w >> kPageShift;
        if (page != cachedId)
            findPage(page);
        return cachedPage ? cachedPage[w & (kPageWords - 1)]
                          : defaultWord(w);
    }

    /** Word @p w, its page materialised on demand. */
    std::uint64_t &
    wordRef(Addr w)
    {
        const Addr page = w >> kPageShift;
        if (page != cachedId || !cachedPage)
            pageFor(page);
        return cachedPage[w & (kPageWords - 1)];
    }

    /** Point the page cache at page @p page, materialising it. */
    void pageFor(Addr page);

    /** Point the page cache at page @p page, or at null (a cached
     *  miss) when it was never written. */
    void findPage(Addr page) const;

    std::unordered_map<Addr, std::vector<std::uint64_t>> pages;
    /**
     * One-entry page cache: accesses stream sequentially, so almost
     * every access lands on the last page touched. A null cachedPage
     * caches a miss: reads of a never-written page stop probing the
     * map. Pointers into the node-based map stay valid until clear().
     */
    mutable Addr cachedId = kNoPage;
    mutable std::uint64_t *cachedPage = nullptr;
    std::uint64_t writes = 0;
};

} // namespace l0vliw::mem

#endif // L0VLIW_MEM_BACKING_HH
