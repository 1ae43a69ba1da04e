#include "mem/backing.hh"

#include <algorithm>
#include <cstring>

#include "common/bytes.hh"

namespace l0vliw::mem
{

std::uint8_t
Backing::defaultByte(Addr addr)
{
    // Cheap per-byte hash; any fixed mixing function works as long as
    // the oracle uses the same one.
    std::uint64_t z = addr + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::uint8_t>(z ^ (z >> 31));
}

Backing::Page &
Backing::pageFor(Addr addr)
{
    Addr page_id = addr / pageBytes;
    if (page_id == cachedId)
        return *cachedPage;
    auto it = pages.find(page_id);
    if (it == pages.end()) {
        Page p;
        p.data.resize(pageBytes);
        Addr base = page_id * pageBytes;
        for (Addr i = 0; i < pageBytes; ++i)
            p.data[i] = defaultByte(base + i);
        it = pages.emplace(page_id, std::move(p)).first;
    }
    cachedId = page_id;
    cachedPage = &it->second;
    return it->second;
}

const Backing::Page *
Backing::findPage(Addr addr) const
{
    Addr page_id = addr / pageBytes;
    if (page_id == cachedId)
        return cachedPage;
    auto it = pages.find(page_id);
    if (it == pages.end())
        return nullptr;
    cachedId = page_id;
    cachedPage = const_cast<Page *>(&it->second);
    return &it->second;
}

void
Backing::read(Addr addr, std::uint8_t *out, int size) const
{
    // Page-span (not per-byte) resolution: one lookup per page touched,
    // and accesses of at most 8 bytes touch at most two.
    while (size > 0) {
        Addr off = addr % pageBytes;
        int n = static_cast<int>(
            std::min<Addr>(size, pageBytes - off));
        if (const Page *p = findPage(addr)) {
            copySmall(out, p->data.data() + off, n);
        } else {
            for (int i = 0; i < n; ++i)
                out[i] = defaultByte(addr + i);
        }
        addr += n;
        out += n;
        size -= n;
    }
}

void
Backing::write(Addr addr, const std::uint8_t *in, int size)
{
    ++writes;
    while (size > 0) {
        Addr off = addr % pageBytes;
        int n = static_cast<int>(
            std::min<Addr>(size, pageBytes - off));
        copySmall(pageFor(addr).data.data() + off, in, n);
        addr += n;
        in += n;
        size -= n;
    }
}

} // namespace l0vliw::mem
