/**
 * @file
 * Unit tests of the common utilities: RNG determinism, stat sets, the
 * table formatter and the number rule.
 */

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>

#include "common/decimal.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"

using namespace l0vliw;

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = r.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, RealInUnitInterval)
{
    Rng r(11);
    for (int i = 0; i < 1000; ++i) {
        double v = r.real();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng r(13);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(StatSet, AddAndGet)
{
    StatSet s;
    EXPECT_EQ(s.get("x"), 0u);
    s.add("x");
    s.add("x", 4);
    EXPECT_EQ(s.get("x"), 5u);
}

TEST(StatSet, MergeAccumulates)
{
    StatSet a, b;
    a.add("x", 2);
    b.add("x", 3);
    b.add("y", 1);
    a.merge(b);
    EXPECT_EQ(a.get("x"), 5u);
    EXPECT_EQ(a.get("y"), 1u);
}

TEST(StatSet, ClearResets)
{
    StatSet s;
    s.add("x", 9);
    s.clear();
    EXPECT_EQ(s.get("x"), 0u);
    EXPECT_TRUE(s.all().empty());
}

TEST(TextTable, AlignsColumns)
{
    TextTable t;
    t.setHeader({"a", "bb"});
    t.addRow({"xxx", "y"});
    std::string out = t.render();
    EXPECT_NE(out.find("a    bb"), std::string::npos);
    EXPECT_NE(out.find("xxx  y"), std::string::npos);
}

TEST(TextTable, FmtAndPct)
{
    EXPECT_EQ(TextTable::fmt(1.2345, 2), "1.23");
    EXPECT_EQ(TextTable::pct(0.5, 0), "50%");
    EXPECT_EQ(TextTable::pct(0.123, 1), "12.3%");
}

TEST(TextTable, HandlesShortRows)
{
    TextTable t;
    t.setHeader({"a", "b", "c"});
    t.addRow({"1"});
    EXPECT_FALSE(t.render().empty());
}

TEST(Decimal, OneSpellingPerValue)
{
    std::uint64_t u = 0;
    EXPECT_TRUE(parseDecimal("18446744073709551615", 0, UINT64_MAX, u));
    EXPECT_EQ(u, UINT64_MAX);
    for (const char *bad :
         {"", "-0", "-1", "+1", " 1", "1 ", "007", "1.5e3", "0x10",
          "18446744073709551616"})
        EXPECT_FALSE(parseDecimal(bad, 0, UINT64_MAX, u)) << bad;
    EXPECT_FALSE(parseDecimal("4294967297", 1, 4294967296, u));
    EXPECT_FALSE(parseDecimal("0", 1, 9, u));

    std::int64_t s = 0;
    EXPECT_TRUE(parseDecimal("-9223372036854775808", INT64_MIN,
                             INT64_MAX, s));
    EXPECT_EQ(s, INT64_MIN);
    for (const char *bad : {"-", "-0", "-05", "--1", "-9223372036854775809"})
        EXPECT_FALSE(parseDecimal(bad, INT64_MIN, INT64_MAX, s)) << bad;

    int i = 0;
    EXPECT_TRUE(parseDecimal("-3", -5, -1, i));
    EXPECT_EQ(i, -3);
    // A '-' is accepted only where the range admits negatives.
    EXPECT_FALSE(parseDecimal("-1", 0, 10, i));
    EXPECT_FALSE(parseDecimal("0", -5, -1, i));
    EXPECT_FALSE(parseDecimal("-6", -5, -1, i));
    EXPECT_FALSE(parseDecimal("2147483648", INT_MIN, INT_MAX, i));
    EXPECT_EQ(i, -3) << "a rejected parse leaves the output alone";
    EXPECT_TRUE(parseDecimal("-2147483648", INT_MIN, INT_MAX, i));
    EXPECT_EQ(i, INT_MIN);
}
