/**
 * @file
 * Unit tests of the memory primitives: backing store, bus, tag cache,
 * and — most importantly — the flexible L0 buffer's linear and
 * interleaved entry semantics.
 */

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <random>

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
    EXPECT_EQ(a.load(0x1234, 8), b.load(0x1234, 8));
}

TEST(Backing, WriteThenRead)
{
    Backing m;
    const std::uint64_t w = 0x04030201; // bytes 1, 2, 3, 4
    m.store(0x2000, w, 4);
    EXPECT_EQ(m.load(0x2000, 4), w);
}

TEST(Backing, WritesSpanPages)
{
    Backing m;
    const std::uint64_t w = 0x0909090909090909;
    m.store(4096 - 4, w, 8); // straddles a page boundary
    EXPECT_EQ(m.load(4096 - 4, 8), w);
}

TEST(Backing, UnwrittenNeighboursKeepPattern)
{
    Backing m;
    m.store(0x3000, 0xAA, 1);
    EXPECT_EQ(m.load(0x3001, 1), Backing::defaultByte(0x3001));
}

TEST(Backing, FarPagesWriteBackAndFarReadsKeepPattern)
{
    // Pages in other 2 MB leaves than the first store's, a read far
    // past every written page, and clear() back to the pattern.
    Backing m;
    const std::uint64_t w = 0x0102030405060708;
    m.store(0x100000, w, 8);
    m.store(0x40000000 - 4, w, 8); // straddles two leaves
    EXPECT_EQ(m.load(0x100000, 8), w);
    EXPECT_EQ(m.load(0x40000000 - 4, 8), w);
    const Addr far = ~Addr{0} - 15;
    EXPECT_EQ(m.load(far, 1), Backing::defaultByte(far));
    const std::uint64_t version = m.version();
    m.clear();
    EXPECT_GT(m.version(), version);
    EXPECT_EQ(m.load(0x100000, 1), Backing::defaultByte(0x100000));
}

TEST(Backing, LoadStoreMatchesByteModel)
{
    // Seeded random 1/2/4/8-byte stores and loads, biased toward word
    // and page boundaries, against a byte map over the default
    // pattern: values are little-endian, straddling accesses split
    // across words and pages, and unwritten bytes keep defaultByte().
    std::map<Addr, std::uint8_t> model;
    auto model_load = [&model](Addr addr, int size) {
        std::uint64_t v = 0;
        for (int i = 0; i < size; ++i) {
            auto it = model.find(addr + i);
            std::uint8_t b = it != model.end()
                                 ? it->second
                                 : Backing::defaultByte(addr + i);
            v |= std::uint64_t{b} << (8 * i);
        }
        return v;
    };
    Backing m;
    std::mt19937_64 rng(20260118);
    const int sizes[] = {1, 2, 4, 8};
    // Near word and page boundaries of three pages, one never written.
    const Addr bases[] = {0x1000, 0x2000, 0x7fff8};
    for (int step = 0; step < 20000; ++step) {
        const int size = sizes[rng() % 4];
        const Addr addr = bases[rng() % 3] - 12 + rng() % 24;
        if (rng() % 3 == 0 && addr < 0x7f000) {
            const std::uint64_t v = rng();
            m.store(addr, v, size);
            for (int i = 0; i < size; ++i)
                model[addr + i] = static_cast<std::uint8_t>(v >> (8 * i));
        } else {
            ASSERT_EQ(m.load(addr, size), model_load(addr, size))
                << "step " << step << " addr " << addr << " size "
                << size;
        }
    }
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

/** An L1 block with bytes 0..31 (each plus @p add), in words. */
std::array<std::uint64_t, 4>
pattern32(int add = 0)
{
    std::array<std::uint64_t, 4> w{};
    for (int i = 0; i < 32; ++i)
        w[i / 8] |= static_cast<std::uint64_t>((i + add) & 0xff)
                    << (8 * (i % 8));
    return w;
}

/** Byte @p i of a little-endian value. */
int
byteOf(std::uint64_t v, int i)
{
    return static_cast<int>(v >> (8 * i) & 0xff);
}

} // namespace

TEST(L0Buffer, LinearContainment)
{
    L0Buffer b(4, 8, 4);
    auto blk = pattern32();
    b.fillLinear(0x100, 1, blk.data() + 1); // bytes 8..15 of the block

    L0Lookup r = b.lookup(0x108, 4);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(byteOf(r.value, 0), 8);
    EXPECT_EQ(byteOf(r.value, 3), 11);
    EXPECT_TRUE(b.lookup(0x10c, 4).hit);
    EXPECT_FALSE(b.lookup(0x100, 4).hit); // sub-slot 0 absent
    EXPECT_FALSE(b.lookup(0x10e, 4).hit); // crosses subblock end
}

TEST(L0Buffer, LinearFirstAndLastElementFlags)
{
    L0Buffer b(4, 8, 4);
    auto blk = pattern32();
    b.fillLinear(0x100, 0, blk.data());
    auto first = b.lookup(0x100, 2);
    EXPECT_TRUE(first.hit);
    EXPECT_TRUE(first.firstElement);
    EXPECT_FALSE(first.lastElement);
    auto last = b.lookup(0x106, 2);
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

    L0Lookup r = b.lookup(0x202, 2);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(byteOf(r.value, 0), 2);
    EXPECT_EQ(byteOf(r.value, 1), 3);
    r = b.lookup(0x20a, 2);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(byteOf(r.value, 0), 10);
    r = b.lookup(0x21a, 2);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(byteOf(r.value, 0), 26);
    // Other residues miss.
    EXPECT_FALSE(b.lookup(0x200, 2).hit);
    EXPECT_FALSE(b.lookup(0x204, 2).hit);
}

TEST(L0Buffer, InterleavedWiderAccessMisses)
{
    // Section 3.3: a 4-byte access to data interleaved at 1-byte
    // granularity spans other clusters' subblocks — defined as a miss.
    L0Buffer b(4, 8, 4);
    auto blk = pattern32();
    b.fillInterleaved(0x200, 1, 0, blk.data());
    EXPECT_TRUE(b.lookup(0x200, 1).hit);
    EXPECT_FALSE(b.lookup(0x200, 4).hit);
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
    auto first = b.lookup(0x200, 2);
    EXPECT_TRUE(first.firstElement);
    auto last = b.lookup(0x218, 2); // element 12
    EXPECT_TRUE(last.lastElement);
}

TEST(L0Buffer, LruVictimSelection)
{
    L0Buffer b(2, 8, 4);
    auto blk = pattern32();
    b.fillLinear(0x100, 0, blk.data());
    b.fillLinear(0x200, 0, blk.data());
    b.lookup(0x100, 4);         // 0x100 becomes MRU
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

    // Element 0: both copies match.
    EXPECT_TRUE(b.store(0x100, 2, 0xFFEE)); // bytes 0xEE, 0xFF
    EXPECT_EQ(b.validEntries(), 1);

    L0Lookup r = b.lookup(0x100, 2);
    ASSERT_TRUE(r.hit);
    EXPECT_EQ(byteOf(r.value, 0), 0xEE);
    EXPECT_EQ(byteOf(r.value, 1), 0xFF);
}

TEST(L0Buffer, StoreMissesWhenAbsent)
{
    L0Buffer b(4, 8, 4);
    EXPECT_FALSE(b.store(0x500, 2, 0x0201)); // non-write-allocate
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
    EXPECT_FALSE(b.lookup(0x100, 4).hit);
}

TEST(L0Buffer, RefillRefreshesData)
{
    L0Buffer b(4, 8, 4);
    auto blk = pattern32();
    b.fillLinear(0x100, 0, blk.data());
    auto blk2 = pattern32(100);
    b.fillLinear(0x100, 0, blk2.data());
    EXPECT_EQ(b.validEntries(), 1); // no duplicate entry
    EXPECT_EQ(b.lookup(0x100, 1).value, 100u);
}

TEST(L0Buffer, StatsCountHitsAndMisses)
{
    L0Buffer b(4, 8, 4);
    auto blk = pattern32();
    b.fillLinear(0x100, 0, blk.data());
    b.lookup(0x100, 4);
    b.lookup(0x900, 4);
    StatSet stats;
    b.addStats(stats);
    EXPECT_EQ(stats.get("l0_hits"), 1u);
    EXPECT_EQ(stats.get("l0_misses"), 1u);
    b.addStats(stats);
    EXPECT_EQ(stats.get("l0_hits"), 2u); // a shared name sums
}

TEST(L0Buffer, ValueRoundTripLinearAndInterleaved)
{
    // Every access a linear or an interleaved entry holds reads back
    // the block's little-endian value, at every size that fits, by a
    // byte model of the block.
    std::mt19937_64 rng(7);
    std::array<std::uint64_t, 4> blk;
    for (auto &w : blk)
        w = rng();
    auto model = [&blk](int off, int size) {
        std::uint64_t v = 0;
        for (int i = 0; i < size; ++i)
            v |= (blk[(off + i) / 8] >> (8 * ((off + i) % 8)) & 0xff)
                 << (8 * i);
        return v;
    };
    const Addr block = 0x600;

    L0Buffer lin(4, 8, 4);
    for (int sub = 0; sub < 4; ++sub)
        lin.fillLinear(block, sub, blk.data() + sub);
    for (int size : {1, 2, 4, 8}) {
        for (int off = 0; off + size <= 32; ++off) {
            L0Lookup r = lin.lookup(block + off, size);
            const bool inside = off % 8 + size <= 8;
            EXPECT_EQ(r.hit, inside) << off << "/" << size;
            if (inside) {
                EXPECT_EQ(r.value, model(off, size))
                    << off << "/" << size;
            }
        }
    }

    for (int f : {1, 2, 4, 8}) {
        for (int residue = 0; residue < 4; ++residue) {
            L0Buffer il(4, 8, 4);
            il.fillInterleaved(block, f, residue, blk.data());
            for (int size : {1, 2, 4, 8}) {
                for (int off = 0; off + size <= 32; ++off) {
                    const int elem = off / f;
                    const bool inside = (off + size - 1) / f == elem
                                        && elem % 4 == residue;
                    L0Lookup r = il.lookup(block + off, size);
                    EXPECT_EQ(r.hit, inside);
                    if (inside) {
                        EXPECT_EQ(r.value, model(off, size))
                            << "factor " << f << " off " << off
                            << " size " << size;
                    }
                }
            }
        }
    }
}

TEST(L0Buffer, StoreThenNarrowerAndWiderLookups)
{
    const std::uint64_t word = 0x8877665544332211;
    L0Buffer b(4, 8, 4);
    b.fillLinear(0x700, 0, &word);
    ASSERT_TRUE(b.store(0x704, 4, 0xDDCCBBAA));
    EXPECT_EQ(b.lookup(0x704, 2).value, 0xBBAAu);
    EXPECT_EQ(b.lookup(0x706, 2).value, 0xDDCCu);
    EXPECT_EQ(b.lookup(0x707, 1).value, 0xDDu);
    EXPECT_EQ(b.lookup(0x702, 4).value, 0xBBAA4433u);
    EXPECT_EQ(b.lookup(0x700, 8).value, 0xDDCCBBAA44332211u);
    // A narrow store into the middle of the word.
    ASSERT_TRUE(b.store(0x701, 2, 0xF00F));
    EXPECT_EQ(b.lookup(0x700, 8).value, 0xDDCCBBAA44F00F11u);
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
        L0Lookup r = b.lookup(0x400 + static_cast<Addr>(j) * f, f);
        bool hit = r.hit;
        if (j % 4 == 2) {
            EXPECT_TRUE(hit) << "factor " << f << " element " << j;
            EXPECT_EQ(byteOf(r.value, 0), j * f);
        } else {
            EXPECT_FALSE(hit) << "factor " << f << " element " << j;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Factors, L0InterleaveFactor,
                         ::testing::Values(1, 2, 4, 8));
