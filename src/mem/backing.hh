/**
 * @file
 * Byte-addressed backing store standing in for L2 / main memory.
 *
 * Table 2 gives L2 a fixed 10-cycle latency and it always hits, so no
 * tag state is needed — only data. Every level above is write-through
 * in this reproduction, so the backing store always holds the current
 * value of every byte; stale data can only live in L0 buffers, which
 * is exactly the coherence hazard the paper's compiler manages.
 *
 * Unwritten bytes read as a deterministic per-address pattern so that
 * cold loads are reproducible and checkable by the oracle.
 */

#ifndef L0VLIW_MEM_BACKING_HH
#define L0VLIW_MEM_BACKING_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace l0vliw::mem
{

/**
 * Sparse paged byte store with deterministic default contents.
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

    /** Read @p size bytes at @p addr into @p out. */
    void read(Addr addr, std::uint8_t *out, int size) const;

    /** Write @p size bytes from @p in at @p addr. */
    void write(Addr addr, const std::uint8_t *in, int size);

    /** The deterministic content of an unwritten byte. */
    static std::uint8_t defaultByte(Addr addr);

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
     * Count of write() and clear() calls so far: equal values at two
     * moments prove nothing wrote in between.
     */
    std::uint64_t version() const { return writes; }

  private:
    static constexpr Addr pageBytes = 4096;
    static constexpr Addr kNoPage = ~0ULL;

    struct Page
    {
        std::vector<std::uint8_t> data;
    };

    /** Get the page holding @p addr, materialising it on demand. */
    Page &pageFor(Addr addr);

    /** Materialised page containing @p addr, or null. */
    const Page *findPage(Addr addr) const;

    std::unordered_map<Addr, Page> pages;
    /**
     * One-entry page cache: accesses stream sequentially, so almost
     * every access lands on the last page touched. Pointers into the
     * node-based map stay valid until clear().
     */
    mutable Addr cachedId = kNoPage;
    mutable Page *cachedPage = nullptr;
    std::uint64_t writes = 0;
};

} // namespace l0vliw::mem

#endif // L0VLIW_MEM_BACKING_HH
