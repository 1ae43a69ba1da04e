#include "sched/coherence.hh"

#include <algorithm>

#include "common/logging.hh"

namespace l0vliw::sched
{

ir::Loop
psrTransform(const ir::Loop &loop, int num_clusters,
             std::vector<std::vector<OpId>> *replica_groups)
{
    // Identify the stores needing replication: members of load+store
    // memory-dependent sets.
    std::vector<bool> replicate(loop.numOps(), false);
    const ir::MemorySets sets = ir::memorySets(loop);
    for (int s = 0; s < sets.size(); ++s) {
        ir::MemorySets::Members set = sets[s];
        if (set.size() < 2 || !ir::setHasLoadAndStore(loop, set))
            continue;
        for (OpId id : set)
            if (loop.op(id).kind == ir::OpKind::Store)
                replicate[id] = true;
    }

    ir::Loop out(loop.name() + "_psr");
    for (const auto &a : loop.arrays())
        out.addArray(a);
    // Original ops keep their ids (copied in order).
    for (const auto &o : loop.ops())
        out.addOp(o);
    for (const auto &e : loop.edges()) {
        if (e.kind == ir::DepKind::Reg)
            out.addRegEdge(e.src, e.dst, e.distance);
        else
            out.addMemEdge(e.src, e.dst, e.distance, e.conservative);
    }

    if (replica_groups)
        replica_groups->clear();

    for (OpId id = 0; id < loop.numOps(); ++id) {
        if (!replicate[id])
            continue;
        std::vector<OpId> group{id};
        out.op(id).fixedCluster = 0; // primary instance
        out.op(id).mem.psrReplicated = true;
        for (int k = 1; k < num_clusters; ++k) {
            ir::Operation rep = loop.op(id);
            rep.tag += "_psr" + std::to_string(k);
            rep.mem.primaryStore = false;
            rep.fixedCluster = k;
            OpId rid = out.addOp(rep);
            group.push_back(rid);
            // The replicas consume the same register inputs (address
            // broadcast) and respect the same memory ordering.
            for (const auto &e : loop.edges()) {
                if (e.dst != id)
                    continue;
                if (e.kind == ir::DepKind::Reg)
                    out.addRegEdge(e.src, rid, e.distance);
                else
                    out.addMemEdge(e.src, rid, e.distance, e.conservative);
            }
            for (const auto &e : loop.edges()) {
                if (e.src != id || e.kind != ir::DepKind::Mem)
                    continue;
                out.addMemEdge(rid, e.dst, e.distance, e.conservative);
            }
        }
        if (replica_groups)
            replica_groups->push_back(std::move(group));
    }
    out.setUnrollFactor(loop.unrollFactor());
    out.setSpecialized(loop.specialized());
    return out;
}

} // namespace l0vliw::sched
