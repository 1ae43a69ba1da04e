/**
 * @file
 * Deterministic mutation fuzzing of every decoder that reads bytes
 * from outside the program: the cell protocol frames, store events,
 * the table wire form, fault specs, endpoints, registry labels and
 * the number rule itself (common/decimal.hh).
 *
 * Valid inputs are mutated by byte flips, truncation, splicing in a
 * slice of another input, and number tokens swapped for spellings the
 * number rule refuses ("-1", "1.5e3", 2^64, "007", "-0"). Every
 * mutant must be rejected, or decode to a value that re-encodes and
 * decodes to itself; nothing may crash or hang. The seed and the
 * iteration counts are fixed, so a failure replays exactly, and the
 * whole file runs in well under two seconds — also under the
 * sanitizer build.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/decimal.hh"
#include "common/json.hh"
#include "common/result_sink.hh"
#include "common/rng.hh"
#include "driver/executor.hh"
#include "driver/registry.hh"
#include "net/fault.hh"
#include "net/socket.hh"
#include "store/event_log.hh"
#include "workloads/registry.hh"

using namespace l0vliw;

namespace
{

constexpr std::uint64_t kSeed = 0x5eed0f0f;
constexpr int kIterations = 2000;

const char *const kNumberSwaps[] = {
    "-1", "1.5e3", "18446744073709551616", "007", "-0", "0",
    "4294967297", "18446744073709551615", "-2147483649", "1e999"};

/** [begin, end) of every number-looking token in @p s. */
std::vector<std::pair<std::size_t, std::size_t>>
numberTokens(const std::string &s)
{
    auto digit = [](char c) { return c >= '0' && c <= '9'; };
    std::vector<std::pair<std::size_t, std::size_t>> out;
    for (std::size_t i = 0; i < s.size();) {
        if (!digit(s[i])) {
            ++i;
            continue;
        }
        std::size_t begin = i > 0 && s[i - 1] == '-' ? i - 1 : i;
        while (i < s.size()
               && (digit(s[i]) || s[i] == '.' || s[i] == 'e'
                   || s[i] == 'E' || s[i] == '+' || s[i] == '-'))
            ++i;
        out.emplace_back(begin, i);
    }
    return out;
}

/** One or two stacked mutations of a random member of @p corpus. */
std::string
mutate(const std::vector<std::string> &corpus, Rng &rng)
{
    std::string s = corpus[rng.below(corpus.size())];
    for (std::uint64_t n = 1 + rng.below(2); n > 0; --n) {
        switch (rng.below(4)) {
        case 0: // byte flips
            for (std::uint64_t k = 1 + rng.below(3); k > 0 && !s.empty();
                 --k)
                s[rng.below(s.size())] ^=
                    static_cast<char>(1u << rng.below(8));
            break;
        case 1: // truncation
            s.resize(rng.below(s.size() + 1));
            break;
        case 2: { // splice a slice of another input over a range
            const std::string &other = corpus[rng.below(corpus.size())];
            std::size_t from = rng.below(other.size() + 1);
            std::size_t len = rng.below(other.size() - from + 1);
            std::size_t at = rng.below(s.size() + 1);
            std::size_t cut = rng.below(s.size() - at + 1);
            s.replace(at, cut, other, from, len);
            break;
        }
        default: { // number token swap
            auto tokens = numberTokens(s);
            if (tokens.empty())
                break;
            auto [begin, end] = tokens[rng.below(tokens.size())];
            s.replace(begin, end - begin,
                      kNumberSwaps[rng.below(std::size(kNumberSwaps))]);
            break;
        }
        }
    }
    return s;
}

/**
 * The property, for one input: @p decode rejects it with a reason, or
 * accepts it and the value's encoding decodes to a value with the same
 * encoding. Every corpus entry itself must be accepted.
 */
template <typename T, typename Decode, typename Encode>
void
fuzz(const std::vector<std::string> &corpus, Decode decode, Encode encode)
{
    auto check = [&](const std::string &input, bool mustAccept) {
        T first{};
        std::string error;
        if (!decode(input, first, error)) {
            EXPECT_FALSE(mustAccept) << input << ": " << error;
            EXPECT_FALSE(error.empty()) << input;
            return;
        }
        const std::string wire = encode(first);
        T second{};
        ASSERT_TRUE(decode(wire, second, error))
            << input << " -> " << wire << ": " << error;
        EXPECT_EQ(encode(second), wire) << input;
    };
    for (const std::string &input : corpus)
        check(input, true);
    Rng rng(kSeed);
    for (int i = 0; i < kIterations; ++i)
        check(mutate(corpus, rng), false);
}

driver::CellOutcome
sampleOutcome()
{
    driver::CellOutcome o;
    o.id = 12;
    o.ok = false;
    o.error = "conn reset \"mid-frame\"";
    o.reason = FailReason::ConnReset;
    o.attempts = 3;
    o.execUs = 1234.5;
    o.planUs = 0.25;
    o.unrolls = {4, 1, 2};
    o.run.bench = "gsmdec";
    o.run.arch = "l0-8-pf2";
    o.run.loopCompute = 123456789;
    o.run.loopStall = 42;
    o.run.scalarCycles = 7;
    o.run.memAccesses = (1ULL << 62) + 5;
    o.run.avgUnroll = 0.1 + 0.2;
    o.run.l0Hits = 999;
    o.run.memStats.set("l0_hits", 999);
    o.run.memStats.set("max", UINT64_MAX);
    return o;
}

ResultTable
sampleTable()
{
    ResultTable t;
    t.title = "grid\n";
    t.footer = "AMEAN row\n";
    t.header = {"benchmark", "l0-8", "hit", "cells"};
    t.rows = {{CellValue::text("gsmdec"), CellValue::fixed(0.92, 2),
               CellValue::percent(0.871, 1), CellValue::integer(156)},
              {CellValue::text("epicdec"), CellValue::fixed(-0.0, 17),
               CellValue::percent(1e-300, 0),
               CellValue::integer(UINT64_MAX)}};
    return t;
}

/** A store event in the publisher's frame shape (the store has no
 *  encoder of its own: it persists the lines it accepted). */
std::string
encodeEvent(const store::Event &e)
{
    std::string out = "{\"event\":";
    out += e.kind == store::Event::Kind::Grid ? "\"grid\"" : "\"cell\"";
    out += ",\"suite\":" + json::quote(e.suite);
    out += ",\"rev\":" + json::quote(e.rev);
    out += ",\"run\":" + json::quote(e.run);
    if (e.kind == store::Event::Kind::Grid)
        return out + ",\"table\":" + tableToWireJson(e.table) + "}";
    out += ",\"id\":" + std::to_string(e.id);
    out += ",\"bench\":" + json::quote(e.bench);
    out += ",\"arch\":" + json::quote(e.arch);
    out += e.ok ? ",\"ok\":true" : ",\"ok\":false";
    if (e.reason != FailReason::None)
        out += ",\"reason\":" + json::quote(failReasonName(e.reason));
    out += ",\"attempts\":" + std::to_string(e.attempts);
    out += ",\"wallMs\":" + json::fromDouble(e.wallMs);
    out += ",\"outcome\":{\"run\":{\"loopCompute\":"
           + std::to_string(e.totalCycles) + "}}";
    return out + "}";
}

/** A registry lookup as a decoder: a label resolves to a value that
 *  carries it, and the value's label is its encoding. */
template <typename Registry>
auto
labelDecoder(const Registry &registry)
{
    return [&registry](const std::string &label, std::string &out,
                       std::string &error) {
        auto value = registry.tryResolve(label);
        if (!value) {
            error = "unknown label";
            return false;
        }
        out = label;
        return true;
    };
}

std::string
identity(const std::string &s)
{
    return s;
}

} // namespace

TEST(DecoderFuzz, CellJobFrames)
{
    driver::CellJob job;
    job.id = 7;
    job.bench = "gsmdec";
    job.arch = "l0-8";
    job.unrolls = {4, 1};
    job.baseline.scalarCycles = 123;
    driver::CellJob baseline = job;
    baseline.arch = "unified";
    baseline.unrolls.clear();
    fuzz<driver::CellJob>(
        {job.toJson(), baseline.toJson()}, driver::CellJob::fromJson,
        [](const driver::CellJob &j) { return j.toJson(); });
}

TEST(DecoderFuzz, CellOutcomeFrames)
{
    driver::CellOutcome failed = sampleOutcome();
    driver::CellOutcome ok = sampleOutcome();
    ok.ok = true;
    ok.error.clear();
    ok.reason = FailReason::None;
    ok.unrolls.clear();
    fuzz<driver::CellOutcome>(
        {failed.toJson(), ok.toJson()}, driver::CellOutcome::fromJson,
        [](const driver::CellOutcome &o) { return o.toJson(); });
}

TEST(DecoderFuzz, StoreEvents)
{
    store::Event cell;
    cell.suite = "fig7";
    cell.rev = "abc123";
    cell.run = "r1";
    cell.id = 9;
    cell.bench = "gsmdec";
    cell.arch = "l0-8";
    cell.ok = false;
    cell.reason = FailReason::Timeout;
    cell.attempts = 2;
    cell.wallMs = 1.5;
    cell.totalCycles = 500;
    store::Event grid;
    grid.kind = store::Event::Kind::Grid;
    grid.table = sampleTable();
    const std::string outcome = sampleOutcome().toJson();
    // A driver's own event line, outcome embedded whole.
    const std::string published =
        "{\"event\":\"cell\",\"suite\":\"s\",\"rev\":\"r\",\"run\":\"x\","
        "\"id\":12,\"bench\":\"gsmdec\",\"arch\":\"l0-8-pf2\","
        "\"ok\":false,\"reason\":\"conn-reset\",\"attempts\":3,"
        "\"wallMs\":2.25,\"outcome\":"
        + outcome + "}";
    fuzz<store::Event>(
        {encodeEvent(cell), encodeEvent(grid), published},
        [](const std::string &line, store::Event &e, std::string &error) {
            return store::Event::decode(line, e, error);
        },
        encodeEvent);
}

TEST(DecoderFuzz, WireTables)
{
    fuzz<ResultTable>({tableToWireJson(sampleTable())}, tableFromWireJson,
                      tableToWireJson);
}

TEST(DecoderFuzz, FaultSpecs)
{
    fuzz<net::FaultSpec>(
        {"seed=7,delay=0..50ms@0.2,drop@0.05,corrupt@0.02,stall@0.01,"
         "reset@0.02",
         "seed=18446744073709551615,latency=25ms", "drop@1"},
        net::FaultSpec::parse,
        [](const net::FaultSpec &spec) { return spec.summary(); });
}

TEST(DecoderFuzz, HostPorts)
{
    fuzz<net::HostPort>(
        {"127.0.0.1:8080", "worker-3.cluster:65535", "localhost:1"},
        net::parseHostPort, [](const net::HostPort &hp) {
            return hp.host + ":" + std::to_string(hp.port);
        });
}

TEST(DecoderFuzz, RegistryLabels)
{
    fuzz<std::string>({"l0-8", "l0-unbounded-nl0", "l0-4-pf2",
                       "l0-16-allcand", "unified"},
                      labelDecoder(driver::archRegistry()), identity);
    fuzz<std::string>({"gsmdec", "stream-4", "stride-16x2",
                       "stencil2d-2", "reduce-8", "pchase-3",
                       "rand-s7-12"},
                      labelDecoder(workloads::workloadRegistry()),
                      identity);
}

TEST(DecoderFuzz, ParseDecimal)
{
    // Accepted means canonical: the value prints back as the input.
    auto unsignedIn = [](std::uint64_t lo, std::uint64_t hi) {
        return [lo, hi](const std::string &s, std::string &out,
                        std::string &error) {
            std::uint64_t v = 0;
            if (!parseDecimal(s, lo, hi, v)) {
                error = "rejected";
                return false;
            }
            EXPECT_TRUE(v >= lo && v <= hi) << s;
            out = std::to_string(v);
            EXPECT_EQ(out, s);
            return true;
        };
    };
    auto signedIn = [](std::int64_t lo, std::int64_t hi) {
        return [lo, hi](const std::string &s, std::string &out,
                        std::string &error) {
            std::int64_t v = 0;
            if (!parseDecimal(s, lo, hi, v)) {
                error = "rejected";
                return false;
            }
            EXPECT_TRUE(v >= lo && v <= hi) << s;
            out = std::to_string(v);
            EXPECT_EQ(out, s);
            return true;
        };
    };
    fuzz<std::string>({"0", "42", "65535", "4294967296",
                       "18446744073709551615", "9223372036854775807"},
                      unsignedIn(0, UINT64_MAX), identity);
    fuzz<std::string>({"1", "65535", "4294967296"},
                      unsignedIn(1, 4294967296), identity);
    fuzz<std::string>({"-9223372036854775808", "-1", "0", "17",
                       "9223372036854775807"},
                      signedIn(INT64_MIN, INT64_MAX), identity);
    fuzz<std::string>({"-5", "-1"}, signedIn(-5, -1), identity);
}
