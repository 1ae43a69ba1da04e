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
    const int n = loop.numOps();
    UnionFind uf(n);
    for (const auto &e : loop.edges())
        if (e.kind == DepKind::Mem)
            uf.unite(e.src, e.dst);

    // Sets ordered by their union-find root, members ascending: a
    // counting sort of the memory ops by root.
    std::vector<int> at(n + 1, 0); // per root: its set's first slot
    int members = 0;
    for (OpId i = 0; i < n; ++i) {
        if (isMemKind(loop.op(i).kind)) {
            ++at[uf.find(i) + 1];
            ++members;
        }
    }
    MemorySets out;
    out.ops.resize(members);
    out.begin.reserve(1 + n - std::count(at.begin() + 1, at.end(), 0));
    for (int r = 0; r < n; ++r) {
        if (at[r + 1] != 0)
            out.begin.push_back(out.begin.back() + at[r + 1]);
        at[r + 1] += at[r];
    }
    for (OpId i = 0; i < n; ++i)
        if (isMemKind(loop.op(i).kind))
            out.ops[at[uf.find(i)]++] = i;
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
    out.reserve(loop.ops().size(), loop.edges().size(),
                loop.arrays().size());
    for (const auto &a : loop.arrays())
        out.addArray(a);
    for (const auto &o : loop.ops())
        out.addOp(o);
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
