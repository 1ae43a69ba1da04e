#include "mem/backing.hh"

namespace l0vliw::mem
{

Backing::Page &
Backing::materialise(Addr page)
{
    const Addr top = page >> kLeafShift;
    if (top >= dir.size())
        dir.resize(top + 1);
    if (!dir[top])
        dir[top] = std::make_unique<Leaf>();
    std::unique_ptr<Page> &slot = (*dir[top])[page & (kLeafPages - 1)];
    slot = std::make_unique<Page>();
    const Addr base = page << kPageShift;
    for (Addr i = 0; i < kPageWords; ++i)
        (*slot)[i] = defaultWord(base + i);
    return *slot;
}

} // namespace l0vliw::mem
