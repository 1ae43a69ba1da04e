/**
 * @file
 * Unit tests of the IR: loop construction and validation, unrolling
 * semantics, memory-dependent sets, and code specialization.
 */

#include <gtest/gtest.h>

#include "ir/hints.hh"
#include "ir/loop.hh"
#include "ir/memdep.hh"

using namespace l0vliw;
using namespace l0vliw::ir;

namespace
{

Operation
load(int array, int elem, long stride, long offset)
{
    Operation op;
    op.kind = OpKind::Load;
    op.mem.array = array;
    op.mem.elemSize = elem;
    op.mem.strideElems = stride;
    op.mem.offsetElems = offset;
    return op;
}

Operation
store(int array, int elem, long stride, long offset)
{
    Operation op = load(array, elem, stride, offset);
    op.kind = OpKind::Store;
    return op;
}

Operation
alu()
{
    Operation op;
    op.kind = OpKind::IntAlu;
    return op;
}

/** load -> alu -> store with a loop-carried memory recurrence. */
Loop
makeRecurrence()
{
    Loop l("rec");
    int a = l.addArray({"a", 0x1000, 4096});
    OpId ld = l.addOp(load(a, 4, 1, -1));
    OpId al = l.addOp(alu());
    OpId st = l.addOp(store(a, 4, 1, 0));
    l.addRegEdge(ld, al);
    l.addRegEdge(al, st);
    l.addMemEdge(st, ld, 1);
    l.addMemEdge(ld, st, 0);
    l.validate();
    return l;
}

} // namespace

TEST(Loop, IdsAreDense)
{
    Loop l;
    int a = l.addArray({"a", 0, 64});
    EXPECT_EQ(l.addOp(load(a, 4, 1, 0)), 0);
    EXPECT_EQ(l.addOp(alu()), 1);
    EXPECT_EQ(l.numOps(), 2);
}

TEST(Loop, SuccsAndPreds)
{
    Loop l = makeRecurrence();
    auto succs = l.succs(0);
    ASSERT_EQ(succs.size(), 2u); // reg to alu + anti mem edge to store
    auto preds = l.preds(0);
    ASSERT_EQ(preds.size(), 1u);
    EXPECT_EQ(preds[0]->src, 2);
    EXPECT_EQ(preds[0]->distance, 1);
}

TEST(Loop, NumMemOps)
{
    Loop l = makeRecurrence();
    EXPECT_EQ(l.numMemOps(), 2);
}

TEST(LoopValidate, RejectsZeroDistanceCycle)
{
    Loop l;
    OpId a = l.addOp(alu());
    OpId b = l.addOp(alu());
    l.addRegEdge(a, b, 0);
    l.addRegEdge(b, a, 0);
    EXPECT_DEATH(l.validate(), "zero-distance");
}

TEST(LoopValidate, AcceptsCycleWithDistance)
{
    Loop l;
    OpId a = l.addOp(alu());
    OpId b = l.addOp(alu());
    l.addRegEdge(a, b, 0);
    l.addRegEdge(b, a, 1);
    l.validate(); // must not die
}

TEST(LoopValidate, RejectsMemOpWithoutArray)
{
    Loop l;
    Operation op;
    op.kind = OpKind::Load;
    op.mem.array = -1;
    l.addOp(op);
    EXPECT_DEATH(l.validate(), "no array");
}

TEST(Unroll, FactorOneIsIdentity)
{
    Loop l = makeRecurrence();
    Loop u = unrollLoop(l, 1);
    EXPECT_EQ(u.numOps(), l.numOps());
    EXPECT_EQ(u.unrollFactor(), 1);
}

TEST(Unroll, ReplicatesOpsAndScalesStrides)
{
    Loop l = makeRecurrence();
    Loop u = unrollLoop(l, 4);
    EXPECT_EQ(u.numOps(), 12);
    EXPECT_EQ(u.unrollFactor(), 4);
    // Copy k of the load has offset -1 + k and stride 4.
    for (int k = 0; k < 4; ++k) {
        const Operation &ld = u.op(k * 3);
        EXPECT_EQ(ld.kind, OpKind::Load);
        EXPECT_EQ(ld.mem.offsetElems, -1 + k);
        EXPECT_EQ(ld.mem.strideElems, 4);
    }
}

TEST(Unroll, EdgeDistancesFold)
{
    // Edge with distance 1 from copy k lands in copy (k+1) mod 4;
    // only the wrap-around copy keeps distance 1.
    Loop l = makeRecurrence();
    Loop u = unrollLoop(l, 4);
    int wrap = 0, inner = 0;
    for (const auto &e : u.edges()) {
        if (e.kind != DepKind::Mem)
            continue;
        if (u.op(e.src).kind == OpKind::Store
                && u.op(e.dst).kind == OpKind::Load) {
            if (e.distance == 1)
                ++wrap;
            else if (e.distance == 0)
                ++inner;
        }
    }
    EXPECT_EQ(wrap, 1);
    EXPECT_EQ(inner, 3);
}

TEST(Unroll, ValidAfterUnroll)
{
    Loop u = unrollLoop(makeRecurrence(), 4);
    u.validate(); // must not die
}

TEST(MemDep, SingletonSets)
{
    Loop l;
    int a = l.addArray({"a", 0, 64});
    int b = l.addArray({"b", 4096, 64});
    l.addOp(load(a, 4, 1, 0));
    l.addOp(load(b, 4, 1, 0));
    MemorySets sets = memorySets(l);
    ASSERT_EQ(sets.size(), 2);
    EXPECT_EQ(sets[0].size(), 1u);
}

TEST(MemDep, UnionOverMemEdges)
{
    Loop l = makeRecurrence();
    MemorySets sets = memorySets(l);
    ASSERT_EQ(sets.size(), 1);
    EXPECT_EQ(sets[0].size(), 2u);
    EXPECT_TRUE(setHasLoadAndStore(l, sets[0]));
}

TEST(MemDep, StoreOnlySetIsNotLoadStore)
{
    Loop l;
    int a = l.addArray({"a", 0, 64});
    OpId s1 = l.addOp(store(a, 4, 1, 0));
    OpId s2 = l.addOp(store(a, 4, 1, 8));
    l.addMemEdge(s1, s2, 0);
    MemorySets sets = memorySets(l);
    ASSERT_EQ(sets.size(), 1);
    EXPECT_FALSE(setHasLoadAndStore(l, sets[0]));
}

TEST(MemDep, AluOpsNotInSets)
{
    Loop l = makeRecurrence();
    MemorySets sets = memorySets(l);
    for (int s = 0; s < sets.size(); ++s)
        for (OpId id : sets[s])
            EXPECT_TRUE(isMemKind(l.op(id).kind));
}

TEST(Specialize, StripsConservativeEdgesOnly)
{
    Loop l = makeRecurrence();
    OpId extra = l.addOp(load(0, 4, 1, 100));
    l.addMemEdge(2, extra, 1, /*conservative=*/true);
    EXPECT_EQ(countConservativeEdges(l), 1);

    Loop s = specializeLoop(l);
    EXPECT_EQ(countConservativeEdges(s), 0);
    EXPECT_TRUE(s.specialized());
    // The genuine recurrence edges survive.
    int mem_edges = 0;
    for (const auto &e : s.edges())
        mem_edges += e.kind == DepKind::Mem;
    EXPECT_EQ(mem_edges, 2);
    // Specialization splits the set.
    MemorySets sets = memorySets(s);
    EXPECT_EQ(sets.size(), 2);
}

TEST(Specialize, KeepsOpsAndArrays)
{
    Loop l = makeRecurrence();
    Loop s = specializeLoop(l);
    EXPECT_EQ(s.numOps(), l.numOps());
    EXPECT_EQ(s.arrays().size(), l.arrays().size());
}

TEST(MemInfo, StrideBytes)
{
    MemInfo m;
    m.elemSize = 2;
    m.strideElems = -3;
    EXPECT_EQ(m.strideBytes(), -6);
}

TEST(Hints, ToStringRoundTrip)
{
    EXPECT_STREQ(toString(AccessHint::NoAccess), "NO_ACCESS");
    EXPECT_STREQ(toString(AccessHint::SeqAccess), "SEQ_ACCESS");
    EXPECT_STREQ(toString(AccessHint::ParAccess), "PAR_ACCESS");
    EXPECT_STREQ(toString(MapHint::LinearMap), "LINEAR_MAP");
    EXPECT_STREQ(toString(MapHint::InterleavedMap), "INTERLEAVED_MAP");
    EXPECT_STREQ(toString(PrefetchHint::Positive), "POSITIVE");
    EXPECT_STREQ(toString(PrefetchHint::Negative), "NEGATIVE");
    EXPECT_STREQ(toString(PrefetchHint::NoPrefetch), "NO_PREFETCH");
}
