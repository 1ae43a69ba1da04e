#include "workloads/synthetic.hh"

#include <limits>

#include "common/decimal.hh"
#include "common/rng.hh"
#include "workloads/kernels.hh"

namespace l0vliw::workloads
{

namespace
{

/** Log-depth combine tree over @p inputs; returns the root. */
OpId
combineTree(ir::Loop &loop, std::vector<OpId> inputs)
{
    while (inputs.size() > 1) {
        std::vector<OpId> next;
        for (std::size_t i = 0; i + 1 < inputs.size(); i += 2) {
            ir::Operation comb;
            comb.kind = ir::OpKind::IntAlu;
            comb.tag = "comb";
            OpId id = loop.addOp(comb);
            loop.addRegEdge(inputs[i], id);
            loop.addRegEdge(inputs[i + 1], id);
            next.push_back(id);
        }
        if (inputs.size() % 2)
            next.push_back(inputs.back());
        inputs = std::move(next);
    }
    return inputs[0];
}

Benchmark
singleLoop(ir::Loop loop, std::uint64_t trips, std::uint64_t invocations)
{
    Benchmark b;
    b.name = loop.name();
    b.loops.push_back({std::move(loop), trips, invocations});
    return b;
}

// ---- family builders ----

/** stream-<ops>: the canonical unit-stride map/filter. */
Benchmark
makeStream(const std::string &label, long ops)
{
    AddressSpace as;
    StreamParams p;
    p.elemSize = 4;
    p.loadStreams = 2;
    p.storeStreams = 1;
    p.intOps = static_cast<int>(ops);
    p.arrayBytes = 16384;
    return singleLoop(streamMap(as, label, p), 512, 12);
}

/** stride-<s>x<ops>: a non-unit-stride walk (SO accesses when the
 *  stride exceeds an L0 subblock, SG at 1). */
Benchmark
makeStride(const std::string &label, long stride, long ops)
{
    AddressSpace as;
    ColumnParams p;
    p.elemSize = 4;
    p.strideElems = static_cast<int>(stride);
    p.streams = 2;
    p.intOps = static_cast<int>(ops);
    p.arrayBytes = 32768;
    return singleLoop(columnWalk(as, label, p), 256, 16);
}

/**
 * stencil2d-<w>: taps at element offsets -w..+w plus one row above and
 * below (row = 64 elements). All taps are unit-stride streams over the
 * same array with different offsets, so an L0 entry filled for one tap
 * is reused by its 2w neighbours — the reuse-distance axis.
 */
Benchmark
makeStencil2d(const std::string &label, long w)
{
    constexpr long kRowElems = 64;
    ir::Loop loop(label);
    AddressSpace as;
    int x = loop.addArray({label + "_x", as.alloc(8192), 8192});
    std::vector<OpId> taps;
    for (long j = -w; j <= w; ++j)
        taps.push_back(loop.addOp(makeLoad(
            x, 4, 1, j, "tap" + std::to_string(j + w))));
    for (long r : {-kRowElems, kRowElems})
        taps.push_back(loop.addOp(makeLoad(
            x, 4, 1, r, r < 0 ? "row_up" : "row_dn")));
    OpId tail = chainAlu(loop, combineTree(loop, std::move(taps)), 2, 0);
    int y = loop.addArray({label + "_y", as.alloc(8192), 8192});
    OpId st = loop.addOp(
        makeStore(y, 4, 1, 0, "st"));
    loop.addRegEdge(tail, st);
    loop.validate();
    return singleLoop(std::move(loop), 256, 12);
}

/** reduce-<fan>: <fan> streamed inputs folded into a load->chain->
 *  store memory recurrence, so the accumulator load's L0-vs-L1
 *  latency bounds the II while <fan> scales the memory-slot
 *  pressure — the fan-in axis. */
Benchmark
makeReduce(const std::string &label, long fan)
{
    AddressSpace as;
    RecurrenceParams p;
    p.elemSize = 4;
    p.lookback = 1;
    p.chainOps = 1;
    p.extraLoads = static_cast<int>(fan);
    p.arrayBytes = 8192;
    return singleLoop(memRecurrence(as, label, p), 384, 10);
}

/**
 * pchase-<s>: a pointer chase — the load's address depends on the
 * value the previous iteration loaded (a distance-1 register
 * self-dependence), so iterations serialize on the load latency; the
 * footprint advances <s> elements per step. The limit case of the
 * dependence-chain axis: RecMII == assigned load latency.
 */
Benchmark
makePchase(const std::string &label, long stride)
{
    ir::Loop loop(label);
    AddressSpace as;
    std::uint64_t bytes =
        static_cast<std::uint64_t>(stride) * 4 * 256 + 4096;
    int x = loop.addArray({label + "_x", as.alloc(bytes), bytes});
    OpId ld = loop.addOp(
        makeLoad(x, 4, stride, 0, "chase"));
    loop.addRegEdge(ld, ld, 1); // next address = f(loaded value)
    OpId tail = chainAlu(loop, ld, 1, 0);
    int y = loop.addArray({label + "_y", as.alloc(4096), 4096});
    OpId st = loop.addOp(
        makeStore(y, 4, 1, 0, "st"));
    loop.addRegEdge(tail, st);
    loop.validate();
    return singleLoop(std::move(loop), 256, 10);
}

/**
 * rand-s<seed>-<ops>: a random DDG drawn from Rng(seed) — random mix
 * of loads (strided and irregular), ALU chains, and stores over
 * per-op arrays, with forward same-iteration register edges, plus an
 * optional accumulator recurrence. Stores write dedicated output
 * arrays so the random graph never needs memory-dependence edges.
 */
Benchmark
makeRand(const std::string &label, std::uint64_t seed, long ops)
{
    static const long kStrides[] = {0, 1, 1, 1, 2, 4, 8, -1};
    ir::Loop loop(label);
    AddressSpace as;
    Rng rng(seed);
    std::vector<OpId> values; // ops whose results edges may consume
    int arrays = 0;
    auto newArray = [&](const char *what) {
        std::uint64_t bytes = 1024ULL << rng.below(5); // 1-16 KiB
        return loop.addArray(
            {label + "_" + what + std::to_string(arrays++),
             as.alloc(bytes), bytes});
    };
    // First op is always a load so every consumer has a producer.
    long nloads = 1 + static_cast<long>(rng.below(
                      static_cast<std::uint64_t>(ops + 2) / 3));
    for (long i = 0; i < nloads; ++i) {
        bool irregular = rng.chance(0.2);
        long stride =
            irregular ? 0 : kStrides[rng.below(8)];
        OpId ld = loop.addOp(makeLoad(
            newArray("in"), 4, stride,
            static_cast<long>(rng.below(8)),
            "ld" + std::to_string(i), !irregular));
        if (irregular && !values.empty()) // index from a prior value
            loop.addRegEdge(values[rng.below(values.size())], ld);
        values.push_back(ld);
    }
    long nalu = ops - nloads;
    for (long i = 0; i < nalu; ++i) {
        ir::Operation alu;
        alu.kind = rng.chance(0.15) ? ir::OpKind::IntMul
                                    : ir::OpKind::IntAlu;
        alu.tag = "op" + std::to_string(i);
        OpId id = loop.addOp(alu);
        loop.addRegEdge(values[rng.below(values.size())], id);
        if (rng.chance(0.5))
            loop.addRegEdge(values[rng.below(values.size())], id);
        // Occasionally close a cross-iteration recurrence.
        if (rng.chance(0.1))
            loop.addRegEdge(id, id, 1 + static_cast<int>(rng.below(2)));
        values.push_back(id);
    }
    long nstores = 1 + static_cast<long>(rng.below(2));
    for (long i = 0; i < nstores; ++i) {
        OpId st = loop.addOp(makeStore(
            newArray("out"), 4, kStrides[1 + rng.below(7)], 0,
            "st" + std::to_string(i)));
        loop.addRegEdge(values[rng.below(values.size())], st);
    }
    loop.validate();
    return singleLoop(std::move(loop),
                      128 + 32 * rng.below(8), 6 + rng.below(6));
}

} // namespace

std::optional<Benchmark>
makeSyntheticWorkload(const std::string &label)
{
    auto param = [&](const char *prefix) -> std::optional<std::string> {
        std::size_t n = std::string(prefix).size();
        if (label.rfind(prefix, 0) != 0)
            return std::nullopt;
        return label.substr(n);
    };

    int a = 0, b = 0;
    std::uint64_t seed = 0;
    if (auto p = param("stream-")) {
        if (parseDecimal(*p, 1, 64, a))
            return makeStream(label, a);
    } else if (auto p = param("stride-")) {
        std::size_t x = p->find('x');
        if (x != std::string::npos
            && parseDecimal(p->substr(0, x), 1, 1024, a)
            && parseDecimal(p->substr(x + 1), 0, 64, b))
            return makeStride(label, a, b);
    } else if (auto p = param("stencil2d-")) {
        if (parseDecimal(*p, 1, 16, a))
            return makeStencil2d(label, a);
    } else if (auto p = param("reduce-")) {
        if (parseDecimal(*p, 1, 32, a))
            return makeReduce(label, a);
    } else if (auto p = param("pchase-")) {
        if (parseDecimal(*p, 1, 1024, a))
            return makePchase(label, a);
    } else if (auto p = param("rand-s")) {
        std::size_t dash = p->find('-');
        if (dash != std::string::npos
            && parseDecimal(p->substr(0, dash), 0,
                            std::numeric_limits<std::int64_t>::max(), seed)
            && parseDecimal(p->substr(dash + 1), 2, 128, b))
            return makeRand(label, seed, b);
    }
    return std::nullopt;
}

const std::vector<std::string> &
syntheticFamilyLabels()
{
    static const std::vector<std::string> labels = {
        "stream-4",  "stride-16x2", "stencil2d-2",
        "reduce-8",  "pchase-64",   "rand-s1-12",
    };
    return labels;
}

} // namespace l0vliw::workloads
