/**
 * @file
 * Unit tests of the memory primitives: backing store, bus, tag cache,
 * and — most importantly — the flexible L0 buffer's linear and
 * interleaved entry semantics.
 */

#include <cstring>
#include <gtest/gtest.h>

#include "mem/backing.hh"
#include "mem/bus.hh"
#include "mem/l0_buffer.hh"
#include "mem/tag_cache.hh"

using namespace l0vliw;
using namespace l0vliw::mem;

// ---------------------------------------------------------------- backing

TEST(Backing, DefaultPatternIsDeterministic)
{
    Backing a, b;
    std::uint8_t x[8], y[8];
    a.read(0x1234, x, 8);
    b.read(0x1234, y, 8);
    EXPECT_EQ(0, std::memcmp(x, y, 8));
}

TEST(Backing, WriteThenRead)
{
    Backing m;
    std::uint8_t w[4] = {1, 2, 3, 4};
    m.write(0x2000, w, 4);
    std::uint8_t r[4];
    m.read(0x2000, r, 4);
    EXPECT_EQ(0, std::memcmp(w, r, 4));
}

TEST(Backing, WritesSpanPages)
{
    Backing m;
    std::uint8_t w[8] = {9, 9, 9, 9, 9, 9, 9, 9};
    m.write(4096 - 4, w, 8); // straddles a page boundary
    std::uint8_t r[8];
    m.read(4096 - 4, r, 8);
    EXPECT_EQ(0, std::memcmp(w, r, 8));
}

TEST(Backing, UnwrittenNeighboursKeepPattern)
{
    Backing m;
    std::uint8_t w = 0xAA;
    m.write(0x3000, &w, 1);
    std::uint8_t r;
    m.read(0x3001, &r, 1);
    EXPECT_EQ(r, Backing::defaultByte(0x3001));
}

// ------------------------------------------------------------------- bus

TEST(Bus, GrantsRequestedWhenFree)
{
    Bus b;
    EXPECT_EQ(b.reserve(5), 5u);
}

TEST(Bus, SerialisesBackToBack)
{
    Bus b;
    EXPECT_EQ(b.reserve(5), 5u);
    EXPECT_EQ(b.reserve(5), 6u);
    EXPECT_EQ(b.reserve(5), 7u);
    EXPECT_EQ(b.reserve(10), 10u);
}

// ------------------------------------------------------------- tag cache

TEST(TagCache, MissThenHit)
{
    TagCache c(8 * 1024, 2, 32);
    EXPECT_FALSE(c.access(0x100, true));
    EXPECT_TRUE(c.access(0x100, false));
    EXPECT_TRUE(c.access(0x11f, false)); // same 32-byte block
    EXPECT_FALSE(c.present(0x120));      // next block
}

TEST(TagCache, LruEvictionWithinSet)
{
    // 2-way: three conflicting blocks evict the least recently used.
    TagCache c(8 * 1024, 2, 32);
    Addr way_stride = 4 * 1024; // sets * block
    c.access(0, true);
    c.access(way_stride, true);
    c.access(0, false);              // touch block 0 (MRU)
    c.access(2 * way_stride, true);  // evicts way_stride
    EXPECT_TRUE(c.present(0));
    EXPECT_FALSE(c.present(way_stride));
    EXPECT_TRUE(c.present(2 * way_stride));
}

TEST(TagCache, InvalidateRemoves)
{
    TagCache c(1024, 2, 32);
    c.access(0x40, true);
    EXPECT_TRUE(c.invalidate(0x40));
    EXPECT_FALSE(c.present(0x40));
    EXPECT_FALSE(c.invalidate(0x40));
}

TEST(TagCache, FullyAssociativeHoldsExactlyEntries)
{
    TagCache c = TagCache::fullyAssociative(4, 32);
    for (Addr a = 0; a < 5 * 32; a += 32)
        c.access(a, true);
    int present = 0;
    for (Addr a = 0; a < 5 * 32; a += 32)
        present += c.present(a);
    EXPECT_EQ(present, 4);
    EXPECT_FALSE(c.present(0)); // the LRU one was evicted
}

TEST(TagCache, ClearDropsEverything)
{
    TagCache c(1024, 2, 32);
    c.access(0, true);
    c.access(64, true);
    c.clear();
    EXPECT_FALSE(c.present(0));
    EXPECT_FALSE(c.present(64));
}

// ------------------------------------------------------------- L0 buffer

namespace
{

/** An L1 block with bytes 0..31. */
std::vector<std::uint8_t>
pattern32()
{
    std::vector<std::uint8_t> v(32);
    for (int i = 0; i < 32; ++i)
        v[i] = static_cast<std::uint8_t>(i);
    return v;
}

} // namespace

TEST(L0Buffer, LinearContainment)
{
    L0Buffer b(4, 8, 4);
    auto blk = pattern32();
    b.fillLinear(0x100, 1, blk.data() + 8); // bytes 8..15 of the block

    std::uint8_t out[4];
    EXPECT_TRUE(b.lookup(0x108, 4, out).hit);
    EXPECT_EQ(out[0], 8);
    EXPECT_EQ(out[3], 11);
    EXPECT_TRUE(b.lookup(0x10c, 4, out).hit);
    EXPECT_FALSE(b.lookup(0x100, 4, nullptr).hit); // sub-slot 0 absent
    EXPECT_FALSE(b.lookup(0x10e, 4, nullptr).hit); // crosses subblock end
}

TEST(L0Buffer, LinearFirstAndLastElementFlags)
{
    L0Buffer b(4, 8, 4);
    auto blk = pattern32();
    b.fillLinear(0x100, 0, blk.data());
    auto first = b.lookup(0x100, 2, nullptr);
    EXPECT_TRUE(first.hit);
    EXPECT_TRUE(first.firstElement);
    EXPECT_FALSE(first.lastElement);
    auto last = b.lookup(0x106, 2, nullptr);
    EXPECT_TRUE(last.hit);
    EXPECT_TRUE(last.lastElement);
    EXPECT_FALSE(last.firstElement);
}

TEST(L0Buffer, InterleavedContainmentAndPayload)
{
    // Factor 2, residue 1: elements 1, 5, 9, 13 (byte pairs 2-3,
    // 10-11, 18-19, 26-27 of the block).
    L0Buffer b(4, 8, 4);
    auto blk = pattern32();
    b.fillInterleaved(0x200, 2, 1, blk.data());

    std::uint8_t out[2];
    EXPECT_TRUE(b.lookup(0x202, 2, out).hit);
    EXPECT_EQ(out[0], 2);
    EXPECT_EQ(out[1], 3);
    EXPECT_TRUE(b.lookup(0x20a, 2, out).hit);
    EXPECT_EQ(out[0], 10);
    EXPECT_TRUE(b.lookup(0x21a, 2, out).hit);
    EXPECT_EQ(out[0], 26);
    // Other residues miss.
    EXPECT_FALSE(b.lookup(0x200, 2, nullptr).hit);
    EXPECT_FALSE(b.lookup(0x204, 2, nullptr).hit);
}

TEST(L0Buffer, InterleavedWiderAccessMisses)
{
    // Section 3.3: a 4-byte access to data interleaved at 1-byte
    // granularity spans other clusters' subblocks — defined as a miss.
    L0Buffer b(4, 8, 4);
    auto blk = pattern32();
    b.fillInterleaved(0x200, 1, 0, blk.data());
    EXPECT_TRUE(b.lookup(0x200, 1, nullptr).hit);
    EXPECT_FALSE(b.lookup(0x200, 4, nullptr).hit);
}

TEST(L0BufferDeathTest, IncompatibleInterleaveFactorPanicsReadably)
{
    // 8-byte subblocks cannot be split 3 ways. The assertion's text
    // carries a '%', which must reach the message verbatim rather
    // than act as a printf conversion.
    L0Buffer b(4, 8, 4);
    auto blk = pattern32();
    EXPECT_DEATH(b.fillInterleaved(0x200, 3, 0, blk.data()),
                 "subblockBytes % factor == 0.*interleave factor 3 "
                 "incompatible with 8-byte subblocks");
}

TEST(L0Buffer, InterleavedBoundaryFlags)
{
    L0Buffer b(4, 8, 4);
    auto blk = pattern32();
    b.fillInterleaved(0x200, 2, 0, blk.data()); // elems 0,4,8,12
    auto first = b.lookup(0x200, 2, nullptr);
    EXPECT_TRUE(first.firstElement);
    auto last = b.lookup(0x218, 2, nullptr); // element 12
    EXPECT_TRUE(last.lastElement);
}

TEST(L0Buffer, LruVictimSelection)
{
    L0Buffer b(2, 8, 4);
    auto blk = pattern32();
    b.fillLinear(0x100, 0, blk.data());
    b.fillLinear(0x200, 0, blk.data());
    b.lookup(0x100, 4, nullptr);        // 0x100 becomes MRU
    b.fillLinear(0x300, 0, blk.data()); // evicts 0x200
    EXPECT_TRUE(b.hasLinear(0x100, 0));
    EXPECT_FALSE(b.hasLinear(0x200, 0));
    EXPECT_TRUE(b.hasLinear(0x300, 0));
}

TEST(L0Buffer, UnboundedNeverEvicts)
{
    L0Buffer b(-1, 8, 4);
    auto blk = pattern32();
    for (Addr a = 0; a < 100 * 32; a += 32)
        b.fillLinear(a, 0, blk.data());
    EXPECT_EQ(b.validEntries(), 100);
    EXPECT_TRUE(b.unbounded());
}

TEST(L0Buffer, StoreUpdatesMruCopyInvalidatesDuplicates)
{
    // The same data mapped twice (linear + interleaved): a store
    // updates one copy and invalidates the other (one write port).
    L0Buffer b(4, 8, 4);
    auto blk = pattern32();
    b.fillLinear(0x100, 0, blk.data());        // covers bytes 0..7
    b.fillInterleaved(0x100, 2, 0, blk.data()); // covers elems 0,4,8,12

    std::uint8_t val[2] = {0xEE, 0xFF};
    EXPECT_TRUE(b.store(0x100, 2, val)); // element 0: both copies match
    EXPECT_EQ(b.validEntries(), 1);

    std::uint8_t out[2];
    ASSERT_TRUE(b.lookup(0x100, 2, out).hit);
    EXPECT_EQ(out[0], 0xEE);
    EXPECT_EQ(out[1], 0xFF);
}

TEST(L0Buffer, StoreMissesWhenAbsent)
{
    L0Buffer b(4, 8, 4);
    std::uint8_t val[2] = {1, 2};
    EXPECT_FALSE(b.store(0x500, 2, val)); // non-write-allocate
    EXPECT_EQ(b.validEntries(), 0);
}

TEST(L0Buffer, InvalidateMatching)
{
    L0Buffer b(4, 8, 4);
    auto blk = pattern32();
    b.fillLinear(0x100, 0, blk.data());
    b.fillLinear(0x200, 0, blk.data());
    b.invalidateMatching(0x102, 2);
    EXPECT_FALSE(b.hasLinear(0x100, 0));
    EXPECT_TRUE(b.hasLinear(0x200, 0));
}

TEST(L0Buffer, InvalidateAllIsTotal)
{
    L0Buffer b(4, 8, 4);
    auto blk = pattern32();
    b.fillLinear(0x100, 0, blk.data());
    b.fillInterleaved(0x200, 2, 1, blk.data());
    b.invalidateAll();
    EXPECT_EQ(b.validEntries(), 0);
    EXPECT_FALSE(b.lookup(0x100, 4, nullptr).hit);
}

TEST(L0Buffer, RefillRefreshesData)
{
    L0Buffer b(4, 8, 4);
    auto blk = pattern32();
    b.fillLinear(0x100, 0, blk.data());
    auto blk2 = pattern32();
    for (auto &x : blk2)
        x = static_cast<std::uint8_t>(x + 100);
    b.fillLinear(0x100, 0, blk2.data());
    EXPECT_EQ(b.validEntries(), 1); // no duplicate entry
    std::uint8_t out[1];
    b.lookup(0x100, 1, out);
    EXPECT_EQ(out[0], 100);
}

TEST(L0Buffer, StatsCountHitsAndMisses)
{
    L0Buffer b(4, 8, 4);
    auto blk = pattern32();
    b.fillLinear(0x100, 0, blk.data());
    b.lookup(0x100, 4, nullptr);
    b.lookup(0x900, 4, nullptr);
    EXPECT_EQ(b.stats().get("l0_hits"), 1u);
    EXPECT_EQ(b.stats().get("l0_misses"), 1u);
}

/** Interleaved factors sweep: containment must hold for each factor. */
class L0InterleaveFactor : public ::testing::TestWithParam<int>
{
};

TEST_P(L0InterleaveFactor, ResiduePartitionIsExact)
{
    const int f = GetParam();
    L0Buffer b(8, 8, 4);
    auto blk = pattern32();
    b.fillInterleaved(0x400, f, 2, blk.data());
    int elems = 32 / f;
    for (int j = 0; j < elems; ++j) {
        std::uint8_t out[8];
        bool hit = b.lookup(0x400 + static_cast<Addr>(j) * f, f, out).hit;
        if (j % 4 == 2) {
            EXPECT_TRUE(hit) << "factor " << f << " element " << j;
            EXPECT_EQ(out[0], static_cast<std::uint8_t>(j * f));
        } else {
            EXPECT_FALSE(hit) << "factor " << f << " element " << j;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Factors, L0InterleaveFactor,
                         ::testing::Values(1, 2, 4, 8));
