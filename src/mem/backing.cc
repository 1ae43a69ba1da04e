#include "mem/backing.hh"

namespace l0vliw::mem
{

void
Backing::pageFor(Addr page)
{
    auto it = pages.find(page);
    if (it == pages.end()) {
        std::vector<std::uint64_t> words(kPageWords);
        const Addr base = page << kPageShift;
        for (Addr i = 0; i < kPageWords; ++i)
            words[i] = defaultWord(base + i);
        it = pages.emplace(page, std::move(words)).first;
    }
    cachedId = page;
    cachedPage = it->second.data();
}

void
Backing::findPage(Addr page) const
{
    auto it = pages.find(page);
    cachedId = page;
    cachedPage = it == pages.end()
                     ? nullptr
                     : const_cast<std::uint64_t *>(it->second.data());
}

} // namespace l0vliw::mem
