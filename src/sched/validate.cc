#include "sched/validate.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <tuple>

#include "ir/memdep.hh"
#include "sched/mrt.hh"

namespace l0vliw::sched
{

namespace
{

std::string
fmt(const char *f, ...)
{
    char buf[256];
    std::va_list ap;
    va_start(ap, f);
    std::vsnprintf(buf, sizeof(buf), f, ap);
    va_end(ap);
    return buf;
}

} // namespace

std::vector<std::string>
validateSchedule(const Schedule &s, const machine::MachineConfig &cfg)
{
    std::vector<std::string> bad;
    const ir::Loop &loop = s.loop;
    const int n = loop.numOps();
    const int ii = s.ii;

    if (ii < 1) {
        bad.push_back("II < 1");
        return bad;
    }
    if (static_cast<int>(s.ops.size()) != n) {
        bad.push_back("schedule size != op count");
        return bad;
    }

    // 1. placement sanity
    for (OpId i = 0; i < n; ++i) {
        const OpSchedule &os = s.ops[i];
        if (os.cluster < 0 || os.cluster >= cfg.numClusters)
            bad.push_back(fmt("op %d: bad cluster %d", i, os.cluster));
        if (os.startCycle < 0)
            bad.push_back(fmt("op %d: negative start %d", i,
                              os.startCycle));
    }
    if (!bad.empty())
        return bad;

    // 2. dependences modulo II (+ bus latency when crossing clusters)
    for (const auto &e : loop.edges()) {
        const OpSchedule &src = s.ops[e.src];
        const OpSchedule &dst = s.ops[e.dst];
        int lat = e.kind == ir::DepKind::Mem ? 1 : src.assignedLatency;
        int comm = e.kind == ir::DepKind::Reg
                           && src.cluster != dst.cluster
                       ? cfg.busLatency
                       : 0;
        if (dst.startCycle + ii * e.distance
                < src.startCycle + lat + comm) {
            bad.push_back(fmt("edge %d->%d (dist %d) violated: "
                              "src@%d lat %d comm %d dst@%d ii %d",
                              e.src, e.dst, e.distance, src.startCycle,
                              lat, comm, dst.startCycle, ii));
        }
    }

    const int clusters = cfg.numClusters;
    constexpr int kFuClasses = 3;

    // The per-row tables of rules 3, 4 and 6 in one buffer: FU use
    // counts [cluster][fu][row], bus channels [row], and whether a
    // memory op issues at [cluster][row].
    std::vector<int> tables(static_cast<std::size_t>(clusters)
                                * (kFuClasses + 1) * ii
                            + ii);
    int *fu_use = tables.data();
    int *bus_use = fu_use + static_cast<std::size_t>(clusters) * kFuClasses
                                * ii;
    int *mem_rows = bus_use + ii;

    // 3. FU capacity per kernel row: a slot only an op uses can be
    // oversubscribed, so the ops are checked first and the table is
    // walked in order only to name the slots that are.
    const int limits[kFuClasses] = {cfg.intUnitsPerCluster,
                                    cfg.memUnitsPerCluster,
                                    cfg.fpUnitsPerCluster};
    bool oversubscribed = false;
    for (OpId i = 0; i < n; ++i) {
        int fu = static_cast<int>(fuClassOf(loop.op(i).kind));
        oversubscribed |= ++fu_use[(s.ops[i].cluster * kFuClasses + fu) * ii
                                   + s.ops[i].startCycle % ii]
                          > limits[fu];
    }
    for (int c = 0; c < clusters && oversubscribed; ++c) {
        for (int fu = 0; fu < kFuClasses; ++fu) {
            for (int row = 0; row < ii; ++row) {
                int used = fu_use[(c * kFuClasses + fu) * ii + row];
                if (used > limits[fu])
                    bad.push_back(fmt("cluster %d fu %d row %d "
                                      "oversubscribed (%d > %d)",
                                      c, fu, row, used, limits[fu]));
            }
        }
    }

    // 4. bus channel capacity
    for (const auto &tr : s.transfers)
        ++bus_use[((tr.startCycle % ii) + ii) % ii];
    for (int row = 0; row < ii; ++row) {
        if (bus_use[row] > cfg.numBuses)
            bad.push_back(fmt("bus row %d oversubscribed (%d > %d)", row,
                              bus_use[row], cfg.numBuses));
    }

    // 5. L0 capacity per cluster (distinct streams): the L0 loads'
    // (cluster, stream) pairs, sorted, deduplicated and counted per
    // cluster.
    if (cfg.memArch == machine::MemArch::L0Buffers && !cfg.l0Unbounded()) {
        std::vector<std::tuple<int, int, long, int, long>> streams;
        streams.reserve(n);
        for (OpId i = 0; i < n; ++i) {
            const ir::Operation &op = loop.op(i);
            if (op.kind == ir::OpKind::Load && s.ops[i].usesL0)
                streams.emplace_back(s.ops[i].cluster, op.mem.array,
                                     op.mem.strideElems, op.mem.elemSize,
                                     op.mem.offsetElems);
        }
        std::sort(streams.begin(), streams.end());
        streams.erase(std::unique(streams.begin(), streams.end()),
                      streams.end());
        for (std::size_t k = 0; k < streams.size();) {
            const int c = std::get<0>(streams[k]);
            std::size_t distinct = 0;
            for (; k < streams.size() && std::get<0>(streams[k]) == c; ++k)
                ++distinct;
            if (static_cast<int>(distinct) > cfg.l0Entries)
                bad.push_back(fmt("cluster %d: %zu L0 streams exceed %d "
                                  "entries",
                                  c, distinct, cfg.l0Entries));
        }
    }

    // 6. SEQ_ACCESS legality
    for (OpId i = 0; i < n; ++i)
        if (ir::isMemKind(loop.op(i).kind))
            mem_rows[s.ops[i].cluster * ii + s.ops[i].startCycle % ii] = 1;
    for (OpId i = 0; i < n; ++i) {
        if (loop.op(i).kind != ir::OpKind::Load
                || s.ops[i].access != ir::AccessHint::SeqAccess)
            continue;
        int next = (s.ops[i].startCycle + 1) % ii;
        if (mem_rows[s.ops[i].cluster * ii + next])
            bad.push_back(fmt("op %d: SEQ_ACCESS with a memory op in "
                              "the next row", i));
    }

    // 7. coherence constraints per load+store set
    const ir::MemorySets sets = ir::memorySets(loop);
    std::vector<bool> constrained(clusters); // clusters of L0 loads/stores
    for (int set = 0; set < sets.size(); ++set) {
        if (!ir::setHasLoadAndStore(loop, sets[set]))
            continue;
        bool psr = false;
        for (OpId id : sets[set])
            psr |= !loop.op(id).mem.primaryStore;
        if (psr) {
            // PSR: replicated store groups must cover distinct clusters.
            // (group tag, cluster) pairs, sorted and deduplicated.
            std::vector<std::pair<std::string, int>> groups;
            for (OpId id : sets[set]) {
                if (loop.op(id).kind != ir::OpKind::Store)
                    continue;
                const std::string &tag = loop.op(id).tag;
                groups.emplace_back(tag.substr(0, tag.find("_psr")),
                                    s.ops[id].cluster);
            }
            std::sort(groups.begin(), groups.end());
            groups.erase(std::unique(groups.begin(), groups.end()),
                         groups.end());
            for (auto g = groups.begin(); g != groups.end();) {
                auto next = std::find_if(g, groups.end(), [&](auto &o) {
                    return o.first != g->first;
                });
                if (next - g != cfg.numClusters)
                    bad.push_back(fmt("PSR group '%s' does not cover all "
                                      "clusters", g->first.c_str()));
                g = next;
            }
            continue;
        }
        std::fill(constrained.begin(), constrained.end(), false);
        bool any_l0_load = false;
        for (OpId id : sets[set]) {
            const ir::Operation &op = loop.op(id);
            bool l0_load = op.kind == ir::OpKind::Load && s.ops[id].usesL0;
            any_l0_load |= l0_load;
            // Every store binds the set once it has an L0 load (1C).
            if (l0_load || op.kind == ir::OpKind::Store)
                constrained[s.ops[id].cluster] = true;
        }
        if (!any_l0_load)
            continue; // NL0: nothing to check (L1 always up to date)
        auto spans = static_cast<std::size_t>(
            std::count(constrained.begin(), constrained.end(), true));
        if (spans > 1)
            bad.push_back(fmt("1C violation: set with L0 loads spans %zu "
                              "clusters", spans));
    }

    // 8. hint sanity
    for (OpId i = 0; i < n; ++i) {
        const ir::Operation &op = loop.op(i);
        if (op.kind == ir::OpKind::Store
                && s.ops[i].access == ir::AccessHint::SeqAccess)
            bad.push_back(fmt("op %d: store marked SEQ_ACCESS", i));
        if (op.kind == ir::OpKind::Load && s.ops[i].usesL0
                && s.ops[i].access == ir::AccessHint::NoAccess)
            bad.push_back(fmt("op %d: L0 load marked NO_ACCESS", i));
        if (op.kind == ir::OpKind::Load && !s.ops[i].usesL0
                && s.ops[i].access != ir::AccessHint::NoAccess)
            bad.push_back(fmt("op %d: non-L0 load accesses L0", i));
    }

    return bad;
}

} // namespace l0vliw::sched
