#include "ir/loop.hh"

#include "common/logging.hh"

namespace l0vliw::ir
{

OpId
Loop::addOp(Operation op)
{
    op.id = static_cast<OpId>(_ops.size());
    _ops.push_back(std::move(op));
    return _ops.back().id;
}

int
Loop::addArray(ArrayInfo info)
{
    _arrays.push_back(std::move(info));
    return static_cast<int>(_arrays.size()) - 1;
}

void
Loop::addRegEdge(OpId src, OpId dst, int distance)
{
    _edges.push_back({src, dst, DepKind::Reg, distance, false});
}

void
Loop::addMemEdge(OpId src, OpId dst, int distance, bool conservative)
{
    _edges.push_back({src, dst, DepKind::Mem, distance, conservative});
}

std::vector<const DepEdge *>
Loop::succs(OpId id) const
{
    std::vector<const DepEdge *> out;
    for (const auto &e : _edges)
        if (e.src == id)
            out.push_back(&e);
    return out;
}

std::vector<const DepEdge *>
Loop::preds(OpId id) const
{
    std::vector<const DepEdge *> out;
    for (const auto &e : _edges)
        if (e.dst == id)
            out.push_back(&e);
    return out;
}

int
Loop::numMemOps() const
{
    int n = 0;
    for (const auto &o : _ops)
        if (isMemKind(o.kind))
            ++n;
    return n;
}

void
Loop::validate() const
{
    const int n = numOps();
    for (const auto &e : _edges) {
        L0_ASSERT(e.src >= 0 && e.src < n && e.dst >= 0 && e.dst < n,
                  "edge endpoint out of range in loop %s", _name.c_str());
        L0_ASSERT(e.distance >= 0, "negative edge distance");
        if (e.kind == DepKind::Mem) {
            L0_ASSERT(isMemKind(_ops[e.src].kind)
                          && isMemKind(_ops[e.dst].kind),
                      "memory edge between non-memory ops");
        }
    }
    for (const auto &o : _ops) {
        if (isMemKind(o.kind)) {
            L0_ASSERT(o.mem.array >= 0
                          && o.mem.array < static_cast<int>(_arrays.size()),
                      "memory op %d has no array", o.id);
            L0_ASSERT(o.mem.elemSize == 1 || o.mem.elemSize == 2
                          || o.mem.elemSize == 4 || o.mem.elemSize == 8,
                      "memory op %d has bad element size %d", o.id,
                      o.mem.elemSize);
        }
    }

    // Reject zero-distance cycles: with all distance-0 edges the DDG
    // must be acyclic or no schedule exists at any II. A depth-first
    // search with an explicit stack over each op's distance-0
    // out-edges (in edge order, in CSR form): O(ops + edges), in one
    // allocation.
    int zero = 0;
    for (const auto &e : _edges)
        zero += e.distance == 0;
    std::vector<int> work(4 * static_cast<std::size_t>(n) + 2 + zero, 0);
    int *first = work.data();   // n + 2: op v's out-edges are
    int *succ = first + n + 2;  // succ[first[v] .. first[v + 1])
    int *state = succ + zero;   // n: 0 unvisited, 1 on stack, 2 done
    int *stack = state + n;     // 2n: (op, next out-edge) pairs
    for (const auto &e : _edges)
        if (e.distance == 0)
            ++first[e.src + 2];
    for (int v = 1; v <= n; ++v)
        first[v + 1] += first[v];
    for (const auto &e : _edges)
        if (e.distance == 0)
            succ[first[e.src + 1]++] = e.dst;
    for (OpId root = 0; root < n; ++root) {
        if (state[root] != 0)
            continue;
        int depth = 0;
        auto push = [&](OpId v) {
            state[v] = 1;
            stack[2 * depth] = v;
            stack[2 * depth + 1] = first[v];
            ++depth;
        };
        push(root);
        while (depth > 0) {
            const OpId u = stack[2 * depth - 2];
            int &next = stack[2 * depth - 1];
            if (next == first[u + 1]) {
                state[u] = 2;
                --depth;
                continue;
            }
            const OpId v = succ[next++];
            if (state[v] == 1)
                panic("zero-distance dependence cycle through op %d in %s",
                      v, _name.c_str());
            if (state[v] == 0)
                push(v);
        }
    }
}

Loop
unrollLoop(const Loop &loop, int factor)
{
    L0_ASSERT(factor >= 1, "unroll factor must be >= 1");
    if (factor == 1) {
        Loop copy = loop;
        copy.setUnrollFactor(1);
        return copy;
    }

    Loop out(loop.name() + "_u" + std::to_string(factor));
    const int n = loop.numOps();
    out.reserve(factor * n, factor * loop.edges().size(),
                loop.arrays().size());
    for (const auto &a : loop.arrays())
        out.addArray(a);

    // Copy k of original op i gets id k * n + i.
    for (int k = 0; k < factor; ++k) {
        for (const Operation &orig : loop.ops()) {
            Operation op = orig;
            op.tag += '#';
            op.tag += std::to_string(k);
            if (isMemKind(op.kind)) {
                op.mem.offsetElems += k * op.mem.strideElems;
                op.mem.strideElems *= factor;
            }
            out.addOp(std::move(op));
        }
    }
    for (const auto &e : loop.edges()) {
        for (int k = 0; k < factor; ++k) {
            int t = k + e.distance;
            OpId src = k * n + e.src;
            OpId dst = (t % factor) * n + e.dst;
            if (e.kind == DepKind::Reg)
                out.addRegEdge(src, dst, t / factor);
            else
                out.addMemEdge(src, dst, t / factor, e.conservative);
        }
    }
    out.setUnrollFactor(factor * loop.unrollFactor());
    out.setSpecialized(loop.specialized());
    return out;
}

} // namespace l0vliw::ir
