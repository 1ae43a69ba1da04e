#include "ir/memdep.hh"

#include <algorithm>
#include <numeric>

namespace l0vliw::ir
{

namespace
{

/** Plain union-find over op ids. */
class UnionFind
{
  public:
    explicit UnionFind(int n) : parent(n)
    {
        std::iota(parent.begin(), parent.end(), 0);
    }

    int
    find(int x)
    {
        while (parent[x] != x) {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        return x;
    }

    void unite(int a, int b) { parent[find(a)] = find(b); }

  private:
    std::vector<int> parent;
};

} // namespace

MemorySets
memorySets(const Loop &loop)
{
    UnionFind uf(loop.numOps());
    for (const auto &e : loop.edges())
        if (e.kind == DepKind::Mem)
            uf.unite(e.src, e.dst);

    // Sets ordered by their union-find root, members ascending.
    std::vector<std::pair<int, OpId>> keyed;
    for (OpId i = 0; i < loop.numOps(); ++i)
        if (isMemKind(loop.op(i).kind))
            keyed.emplace_back(uf.find(i), i);
    std::sort(keyed.begin(), keyed.end());

    MemorySets out;
    out.ops.reserve(keyed.size());
    for (std::size_t i = 0; i < keyed.size(); ++i) {
        if (i > 0 && keyed[i].first != keyed[i - 1].first)
            out.begin.push_back(static_cast<int>(i));
        out.ops.push_back(keyed[i].second);
    }
    if (!keyed.empty())
        out.begin.push_back(static_cast<int>(keyed.size()));
    return out;
}

bool
setHasLoadAndStore(const Loop &loop, MemorySets::Members set)
{
    bool has_load = false, has_store = false;
    for (OpId id : set) {
        OpKind k = loop.op(id).kind;
        has_load |= (k == OpKind::Load);
        has_store |= (k == OpKind::Store);
    }
    return has_load && has_store;
}

Loop
specializeLoop(const Loop &loop)
{
    Loop out(loop.name() + "_spec");
    for (const auto &a : loop.arrays())
        out.addArray(a);
    for (const auto &o : loop.ops()) {
        Operation copy = o;
        out.addOp(copy);
    }
    for (const auto &e : loop.edges()) {
        if (e.kind == DepKind::Mem && e.conservative)
            continue;
        if (e.kind == DepKind::Reg)
            out.addRegEdge(e.src, e.dst, e.distance);
        else
            out.addMemEdge(e.src, e.dst, e.distance, false);
    }
    out.setUnrollFactor(loop.unrollFactor());
    out.setSpecialized(true);
    return out;
}

int
countConservativeEdges(const Loop &loop)
{
    int n = 0;
    for (const auto &e : loop.edges())
        if (e.kind == DepKind::Mem && e.conservative)
            ++n;
    return n;
}

} // namespace l0vliw::ir
