#include "sched/scheduler.hh"

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <tuple>

#include "common/logging.hh"
#include "ir/memdep.hh"
#include "sched/latency_model.hh"
#include "sched/mii.hh"
#include "sched/mrt.hh"
#include "sched/sms.hh"

namespace l0vliw::sched
{

namespace
{

constexpr int kNegInf = std::numeric_limits<int>::min() / 4;
constexpr int kPosInf = std::numeric_limits<int>::max() / 4;

/** Candidate instructions: strided loads (Section 4.3). */
bool
isCandidate(const ir::Operation &op)
{
    return op.kind == ir::OpKind::Load && op.mem.strided;
}

/** Identity of a load's address stream, for L0-entry dedup. */
using StreamKey = std::tuple<int, long, int, long>;

StreamKey
streamKey(const ir::Operation &op)
{
    return {op.mem.array, op.mem.strideElems, op.mem.elemSize,
            op.mem.offsetElems};
}

/**
 * What one schedule() call knows about its body before it picks an
 * II. None of it depends on the II, so it is derived once and lent,
 * read-only, to every attempt: primary and fallback, at every II.
 */
struct LoopFacts
{
    LoopFacts(const ir::Loop &body, const machine::MachineConfig &cfg,
              const SchedulerOptions &opts)
        : loop(body), incident(body), sets(ir::memorySets(body)),
          tracked(sets.size()), setOf(body.numOps(), -1),
          baseLat(body, cfg, opts.memLoadLatency), optLat(baseLat)
    {
        for (int s = 0; s < sets.size(); ++s) {
            tracked[s] = ir::setHasLoadAndStore(body, sets[s]);
            for (OpId m : sets[s])
                setOf[m] = s;
        }
        for (const auto &op : body.ops()) {
            if (isCandidate(op)) {
                candidates.push_back(op.id);
                optLat.setLoadLatency(op.id, cfg.l0Latency);
            }
        }
    }

    const ir::Loop &loop;
    /** The placement steps only look at an op's neighbours. */
    IncidentEdges incident;
    /** Memory-dependent sets (Section 4.1); each op's, or -1. */
    ir::MemorySets sets;
    /** Per set: mixes loads and stores, so NL0/1C/PSR constrain it. */
    std::vector<bool> tracked;
    std::vector<int> setOf;
    /** Candidate loads, ascending id. */
    std::vector<OpId> candidates;
    /** Loads at memLoadLatency; and the step-2 assumption, every
     *  candidate at the L0 latency. */
    LatencyModel baseLat, optLat;
};

/** One II attempt: all mutable state of the Figure 4 algorithm. */
class Attempt
{
  public:
    /**
     * @param topo_order use a forward ASAP-topological order instead
     *        of the SMS order. The SMS bidirectional windows can wedge
     *        on rare shapes without backtracking; in a forward order
     *        only loop-carried (distance >= 1) edges constrain an op
     *        from above, and those windows grow with II, so increasing
     *        II always terminates.
     * @param step2_slack the slack at @p ii under step 2's latencies
     *        (every candidate at the L0 latency when L0-aware), which
     *        the ordering starts from.
     */
    Attempt(const machine::MachineConfig &config,
            const SchedulerOptions &options, const LoopFacts &loop_facts,
            int ii, const SlackInfo &step2_slack, bool topo_order = false)
        : cfg(config), opts(options), facts(loop_facts),
          loop(loop_facts.loop), mrt(config, ii), _ii(ii), slackII(ii),
          topoOrder(topo_order), latWork(loop_facts.baseLat),
          slack(step2_slack)
    {
    }

    /** Run the whole placement; false when the body does not fit. */
    bool run();

    /**
     * The result over @p body, the borrowed loop itself moved in,
     * with the explicit prefetches appended. Only after run()
     * returned true, and last: the borrowed loop is gone.
     */
    Schedule finish(ir::Loop body);

  private:
    // --- initialisation (items 1-3 of Figure 4) ---
    void init();

    // --- per-instruction steps ---
    void decideSetTreatment(OpId id);                       // item 4
    const std::vector<ClusterId> &orderClusters(OpId id);   // items 5-6
    bool tryPlace(OpId id, ClusterId c);                    // item 7
    void markRelated(OpId id);                              // item 8
    void consumeEntry(OpId id);                             // item 9
    void reassignLatencies();                               // item 10

    // --- post passes ---
    void normalize();
    void assignMapHints();          // step 4 (mapping part)
    void insertExplicitPrefetches();// step 5 (needs the maps)
    void assignAccessAndPrefetchHints(); // step 4 (needs final MRT)

    /** ranked = every candidate, least slack first (ties: lower id). */
    void rankCandidates();

    /** (latency, usesL0) instruction @p id would get in cluster @p c. */
    std::pair<int, bool> latencyFor(OpId id, ClusterId c) const;

    /** Latency carried by edge @p e given current assignments. */
    int edgeLatency(const ir::DepEdge &e) const;

    /** @p op's stream already holds an entry in cluster @p c. */
    bool entryCounted(ClusterId c, const ir::Operation &op) const;

    /** Remaining capacity check including the counted streams. */
    bool entryAvailable(ClusterId c, const ir::Operation &op) const;

    int totalFreeEntries() const;

    /** Cluster statically owning the first word touched by @p op
     *  (Interleaved-2 heuristic), or kNoCluster. */
    ClusterId ownerCluster(const ir::Operation &op) const;

    /** |strideElems| equals the cluster count: the access pattern the
     *  interleaved mapping serves (unit stride unrolled N times). */
    bool interleavedPattern(const ir::Operation &op) const
    {
        return op.mem.strided
               && std::abs(op.mem.strideElems) == cfg.numClusters;
    }

    const machine::MachineConfig &cfg;
    const SchedulerOptions &opts;
    const LoopFacts &facts;
    const ir::Loop &loop;
    Mrt mrt;
    int _ii;
    /** II the re-slack of item 10 runs at: _ii until an NL0 demotion
     *  pushes recMII above it, then the re-derived feasible II. */
    int slackII = 0;
    bool topoOrder;

    LatencyModel latWork;
    SlackInfo slack;
    /** latWork.version() and slackII the current slack was derived
     *  from; unset while it still holds init()'s optimistic slack. */
    std::optional<std::pair<unsigned long, int>> slackInputs;
    /** The candidates ranked under the current slack (item 10). */
    std::vector<OpId> ranked;
    std::vector<OpId> order;

    std::vector<bool> wantL0;       // current latency-assignment intent
    std::vector<bool> placed;
    std::vector<OpSchedule> sched;
    std::vector<BusTransfer> transfers;
    std::vector<int> clusterLoad;   // placed ops per cluster (balance)
    std::vector<int> freeEntries;
    /** The streams holding an L0 entry, with their cluster. */
    std::vector<std::pair<ClusterId, StreamKey>> countedKeys;
    std::vector<ClusterId> recommended;

    // Per memory-dependent set of facts.sets.
    std::vector<SetTreatment> treatment;
    std::vector<ClusterId> boundCluster;

    /** MultiVLIW array affinity: each array's first cluster. */
    std::vector<ClusterId> arrayHome;

    /** orderClusters()' result and its scoring buffer. */
    struct Scored
    {
        long score;
        ClusterId c;
    };
    std::vector<Scored> scored;
    std::vector<ClusterId> clusterOrder;

    /** Step 5's prefetch operations, appended to the body by finish(). */
    std::vector<ir::Operation> prefetchOps;
};

void
Attempt::init()
{
    const int n = loop.numOps();
    placed.assign(n, false);
    sched.assign(n, {});
    clusterLoad.assign(cfg.numClusters, 0);
    recommended.assign(n, kNoCluster);
    if (opts.arrayAffinity)
        arrayHome.assign(loop.arrays().size(), kNoCluster);
    freeEntries.assign(cfg.numClusters,
                       cfg.l0Unbounded() ? kPosInf : cfg.l0Entries);
    if (cfg.memArch != machine::MemArch::L0Buffers)
        freeEntries.assign(cfg.numClusters, 0);

    // Step 2 works under the assumption that every candidate gets the
    // L0 latency; ordering and slack use that optimistic model.
    wantL0.assign(n, false);
    if (topoOrder) {
        order.resize(n);
        for (OpId i = 0; i < n; ++i)
            order[i] = i;
        std::stable_sort(order.begin(), order.end(),
                         [&](OpId a, OpId b) {
                             return slack.asap[a] < slack.asap[b];
                         });
    } else {
        order = smsOrder(facts.incident, slack);
    }

    // Item 2: the N*NE most critical candidates start with L0 latency.
    if (opts.l0Aware) {
        rankCandidates();
        std::size_t budget = ranked.size();
        if (opts.selectiveL0 && !cfg.l0Unbounded()) {
            budget = static_cast<std::size_t>(cfg.numClusters)
                     * cfg.l0Entries;
        }
        for (std::size_t i = 0; i < ranked.size() && i < budget; ++i) {
            wantL0[ranked[i]] = true;
            latWork.setLoadLatency(ranked[i], cfg.l0Latency);
        }
    }

    // Memory-dependent sets (Section 4.1).
    const int num_sets = facts.sets.size();
    treatment.assign(num_sets, SetTreatment::Unconstrained);
    boundCluster.assign(num_sets, kNoCluster);
    for (int s = 0; s < num_sets; ++s) {
        if (!facts.tracked[s])
            continue;
        if (opts.coherence == CoherenceMode::Psr) {
            treatment[s] = SetTreatment::PartialStoreReplication;
        } else {
            treatment[s] = SetTreatment::Undecided;
        }
    }
}

void
Attempt::decideSetTreatment(OpId id)
{
    int s = facts.setOf[id];
    if (s < 0 || treatment[s] != SetTreatment::Undecided)
        return;
    if (!opts.l0Aware || opts.coherence == CoherenceMode::ForceNL0) {
        treatment[s] = opts.l0Aware ? SetTreatment::NotUseL0
                                    : SetTreatment::Unconstrained;
        if (!opts.l0Aware)
            return;
    } else {
        // 1C whenever some load of the set holds an L0 latency and
        // entries remain; otherwise fall back to NL0 (Figure 4 item 4).
        bool load_with_l0 = false;
        for (OpId m : facts.sets[s])
            load_with_l0 |= loop.op(m).kind == ir::OpKind::Load
                            && wantL0[m];
        treatment[s] = (load_with_l0 && totalFreeEntries() > 0)
                           ? SetTreatment::OneCluster
                           : SetTreatment::NotUseL0;
    }
    if (treatment[s] == SetTreatment::NotUseL0) {
        for (OpId m : facts.sets[s]) {
            if (loop.op(m).kind == ir::OpKind::Load && !placed[m]) {
                wantL0[m] = false;
                latWork.setLoadLatency(m, opts.memLoadLatency);
            }
        }
    }
}

void
Attempt::rankCandidates()
{
    ranked.assign(facts.candidates.begin(), facts.candidates.end());
    std::sort(ranked.begin(), ranked.end(), [&](OpId a, OpId b) {
        if (slack.slack[a] != slack.slack[b])
            return slack.slack[a] < slack.slack[b];
        return a < b;
    });
}

std::pair<int, bool>
Attempt::latencyFor(OpId id, ClusterId c) const
{
    const ir::Operation &op = loop.op(id);
    if (op.kind != ir::OpKind::Load)
        return {cfg.opLatency(op.kind), false};
    if (!opts.l0Aware || !wantL0[id]) {
        if (opts.ownerLatency && ownerCluster(op) == c
                && ownerCluster(op) != kNoCluster)
            return {cfg.wiLocalHitLatency, false};
        return {opts.memLoadLatency, false};
    }

    int s = facts.setOf[id];
    if (s >= 0 && treatment[s] == SetTreatment::OneCluster
            && boundCluster[s] != kNoCluster && boundCluster[s] != c) {
        // The footnote case: L0 latency in the set's cluster, L1
        // latency anywhere else.
        return {opts.memLoadLatency, false};
    }
    // The all-candidates ablation (Section 5.2) marks every candidate
    // regardless of capacity — that is exactly how the buffers
    // overflow there.
    if (!opts.selectiveL0 || entryAvailable(c, op))
        return {cfg.l0Latency, true};
    return {opts.memLoadLatency, false};
}

bool
Attempt::entryCounted(ClusterId c, const ir::Operation &op) const
{
    return std::find(countedKeys.begin(), countedKeys.end(),
                     std::make_pair(c, streamKey(op)))
           != countedKeys.end();
}

bool
Attempt::entryAvailable(ClusterId c, const ir::Operation &op) const
{
    return entryCounted(c, op) || freeEntries[c] > 0;
}

int
Attempt::totalFreeEntries() const
{
    long total = 0;
    for (int v : freeEntries)
        total += v;
    return static_cast<int>(std::min<long>(total, kPosInf));
}

ClusterId
Attempt::ownerCluster(const ir::Operation &op) const
{
    if (!ir::isMemKind(op.kind) || !op.mem.strided)
        return kNoCluster;
    // The static word-to-cluster binding only helps when every access
    // of the stream lands in the same cluster: the stride must be a
    // multiple of wordBytes * numClusters (or zero). Sub-word streams
    // rotate owners every iteration — the inflexibility the L0
    // buffers' dynamic binding removes.
    long span = static_cast<long>(cfg.wiWordBytes) * cfg.numClusters;
    if (op.mem.strideBytes() % span != 0)
        return kNoCluster;
    Addr first = loop.array(op.mem.array).base
                 + static_cast<Addr>(op.mem.offsetElems) * op.mem.elemSize;
    return static_cast<ClusterId>((first / cfg.wiWordBytes)
                                  % cfg.numClusters);
}

int
Attempt::edgeLatency(const ir::DepEdge &e) const
{
    if (e.kind == ir::DepKind::Mem)
        return 1;
    return placed[e.src] ? sched[e.src].assignedLatency : latWork.of(e.src);
}

const std::vector<ClusterId> &
Attempt::orderClusters(OpId id)
{
    const ir::Operation &op = loop.op(id);
    clusterOrder.clear();

    if (op.fixedCluster != kNoCluster) {
        clusterOrder.push_back(op.fixedCluster);
        return clusterOrder;
    }

    int s = facts.setOf[id];
    if (op.kind == ir::OpKind::Store && s >= 0
            && treatment[s] == SetTreatment::OneCluster
            && boundCluster[s] != kNoCluster) {
        clusterOrder.push_back(boundCluster[s]);
        return clusterOrder;
    }

    scored.clear();
    ClusterId owner = opts.ownerAware ? ownerCluster(op) : kNoCluster;
    ClusterId affinity = kNoCluster;
    if (opts.arrayAffinity && ir::isMemKind(op.kind))
        affinity = arrayHome[op.mem.array];

    const IncidentEdges &inc = facts.incident;
    for (ClusterId c = 0; c < cfg.numClusters; ++c) {
        long score = 0;
        // Register communication cost with already-placed neighbours.
        int comm = 0;
        for (int i = inc.begin[id]; i < inc.begin[id + 1]; ++i) {
            const ir::DepEdge &e = *inc.edges[i];
            if (e.kind != ir::DepKind::Reg)
                continue;
            if (e.src == id && placed[e.dst] && sched[e.dst].cluster != c)
                ++comm;
            if (e.dst == id && placed[e.src] && sched[e.src].cluster != c)
                ++comm;
        }
        score += comm * 100L;
        score += clusterLoad[c];    // workload balance
        if (opts.l0Aware && ir::isMemKind(op.kind)) {
            auto [lat, uses] = latencyFor(id, c);
            (void)lat;
            // In a bound 1C set the only cluster where the load can
            // keep its L0 latency is the set's cluster: that binding
            // overrides any stream-rotation recommendation.
            ClusterId want = recommended[id];
            if (s >= 0 && treatment[s] == SetTreatment::OneCluster
                    && boundCluster[s] != kNoCluster)
                want = boundCluster[s];
            if (want != kNoCluster && want != c)
                score += 100000L;
            if (!uses && op.kind == ir::OpKind::Load && wantL0[id])
                score += 50000L;
        }
        if (owner != kNoCluster && owner != c)
            score += 20000L;
        if (affinity != kNoCluster && affinity != c)
            score += 20000L;
        scored.push_back({score, c});
    }
    std::sort(scored.begin(), scored.end(), [](const Scored &a,
                                               const Scored &b) {
        if (a.score != b.score)
            return a.score < b.score;
        return a.c < b.c;
    });
    for (const auto &sc : scored)
        clusterOrder.push_back(sc.c);
    return clusterOrder;
}

bool
Attempt::tryPlace(OpId id, ClusterId c)
{
    const ir::Operation &op = loop.op(id);
    auto [latency, uses_l0] = latencyFor(id, c);

    // Earliest start from placed predecessors; latest from placed
    // successors (the SMS bidirectional window).
    const IncidentEdges &inc = facts.incident;
    int estart = kNegInf, lstart = kPosInf;
    for (int i = inc.begin[id]; i < inc.begin[id + 1]; ++i) {
        const ir::DepEdge &e = *inc.edges[i];
        if (e.dst == id && placed[e.src]) {
            bool cross = e.kind == ir::DepKind::Reg
                         && sched[e.src].cluster != c;
            int need = sched[e.src].startCycle + edgeLatency(e)
                       + (cross ? cfg.busLatency : 0) - _ii * e.distance;
            estart = std::max(estart, need);
        }
        if (e.src == id && placed[e.dst]) {
            bool cross = e.kind == ir::DepKind::Reg
                         && sched[e.dst].cluster != c;
            int lat_out = e.kind == ir::DepKind::Mem ? 1 : latency;
            int limit = sched[e.dst].startCycle - lat_out
                        + _ii * e.distance - (cross ? cfg.busLatency : 0);
            lstart = std::min(lstart, limit);
        }
    }

    bool has_pred = estart != kNegInf;
    bool has_succ = lstart != kPosInf;
    int t0, t1, step;
    if (has_pred) {
        t0 = estart;
        t1 = estart + _ii - 1;
        if (has_succ)
            t1 = std::min(t1, lstart);
        step = 1;
    } else if (has_succ) {
        t0 = lstart;
        t1 = lstart - _ii + 1;
        step = -1;
    } else {
        t0 = std::max(slack.asap[id], 0);
        t1 = t0 + _ii - 1;
        step = 1;
    }

    FuClass fu = fuClassOf(op.kind);
    for (int t = t0; step > 0 ? t <= t1 : t >= t1; t += step) {
        if (!mrt.fuFree(c, fu, t))
            continue;
        auto cp = mrt.checkpoint();
        const std::size_t transfers_mark = transfers.size();
        mrt.reserveFu(c, fu, t);
        bool ok = true;

        for (int i = inc.begin[id]; ok && i < inc.begin[id + 1]; ++i) {
            const ir::DepEdge &e = *inc.edges[i];
            if (e.kind != ir::DepKind::Reg)
                continue;
            if (e.dst == id && placed[e.src]
                    && sched[e.src].cluster != c) {
                int lo = sched[e.src].startCycle + edgeLatency(e);
                int hi = t + _ii * e.distance - cfg.busLatency;
                int b = mrt.findBusSlot(lo, hi);
                if (b < 0) {
                    ok = false;
                } else {
                    mrt.reserveBus(b);
                    transfers.push_back({e.src, id, b});
                }
            }
            if (e.src == id && placed[e.dst]
                    && sched[e.dst].cluster != c) {
                int lo = t + latency;
                int hi = sched[e.dst].startCycle + _ii * e.distance
                         - cfg.busLatency;
                int b = mrt.findBusSlot(lo, hi);
                if (b < 0) {
                    ok = false;
                } else {
                    mrt.reserveBus(b);
                    transfers.push_back({id, e.dst, b});
                }
            }
        }
        if (!ok) {
            mrt.rollback(cp);
            transfers.resize(transfers_mark);
            continue;
        }

        sched[id].cluster = c;
        sched[id].startCycle = t;
        sched[id].assignedLatency = latency;
        sched[id].usesL0 = uses_l0;
        placed[id] = true;
        ++clusterLoad[c];
        if (opts.arrayAffinity && ir::isMemKind(op.kind)
                && arrayHome[op.mem.array] == kNoCluster)
            arrayHome[op.mem.array] = c;
        return true;
    }
    return false;
}

void
Attempt::markRelated(OpId id)
{
    const ir::Operation &op = loop.op(id);
    int s = facts.setOf[id];

    // Bind a 1C set's cluster at the first constrained placement.
    if (s >= 0 && treatment[s] == SetTreatment::OneCluster
            && boundCluster[s] == kNoCluster) {
        bool binds = op.kind == ir::OpKind::Store
                     || (op.kind == ir::OpKind::Load && sched[id].usesL0);
        if (binds)
            boundCluster[s] = sched[id].cluster;
    }

    if (op.kind != ir::OpKind::Load || !sched[id].usesL0)
        return;

    const ClusterId c = sched[id].cluster;
    const int n = cfg.numClusters;
    for (OpId other_id : facts.candidates) {
        const ir::Operation &other = loop.op(other_id);
        if (other.id == id || placed[other.id])
            continue;
        if (other.mem.array != op.mem.array
                || other.mem.strideElems != op.mem.strideElems
                || other.mem.elemSize != op.mem.elemSize)
            continue;
        // Loads belonging to a 1C set follow the set's binding, not
        // the stream rotation.
        int os = facts.setOf[other.id];
        if (os >= 0 && treatment[os] == SetTreatment::OneCluster)
            continue;
        long delta = other.mem.offsetElems - op.mem.offsetElems;
        if (delta == 0) {
            recommended[other.id] = c;
        } else if (interleavedPattern(op)) {
            // Consecutive elements land in consecutive clusters under
            // the interleaved fill rotation.
            long rot = ((delta % n) + n) % n;
            recommended[other.id] = static_cast<ClusterId>((c + rot) % n);
        } else if (std::abs(op.mem.strideBytes()) <= cfg.l0SubblockBytes
                   && std::abs(delta) * op.mem.elemSize
                          < cfg.l0SubblockBytes) {
            // Same linear subblock stream.
            recommended[other.id] = c;
        }
    }
}

void
Attempt::consumeEntry(OpId id)
{
    const ir::Operation &op = loop.op(id);
    if (op.kind != ir::OpKind::Load || !sched[id].usesL0)
        return;
    ClusterId c = sched[id].cluster;
    if (entryCounted(c, op))
        return;
    countedKeys.emplace_back(c, streamKey(op));
    if (freeEntries[c] > 0 && !cfg.l0Unbounded())
        --freeEntries[c];
}

void
Attempt::reassignLatencies()
{
    if (!opts.l0Aware || !opts.selectiveL0)
        return;
    // The slack, and so the candidates' ranking, is a function of the
    // working latencies and slackII alone: re-derive it only when one
    // of them moved since the last derivation (init()'s slack used the
    // optimistic latencies).
    if (slackInputs != std::make_pair(latWork.version(), slackII)) {
        bool converged = true;
        computeSlack(loop, latWork, slackII, slack, &converged);
        if (!converged) {
            // NL0 demotion raised recurrence latencies above what this
            // attempt's II supports. Re-derive the minimum feasible II
            // for the working latencies and order the remaining
            // candidates at that II (the demoted loops still *schedule*
            // at _ii — slack here only ranks L0-entry assignment)
            // instead of warning on every relaxation.
            slackII = std::max(slackII, recMii(loop, latWork));
            computeSlack(loop, latWork, slackII, slack);
        }
        slackInputs = std::make_pair(latWork.version(), slackII);
        rankCandidates();
    }

    // The unplaced candidates outside NL0 sets, in ranking order, take
    // the free entries.
    std::size_t budget = cfg.l0Unbounded()
                             ? ranked.size()
                             : static_cast<std::size_t>(
                                   std::max(totalFreeEntries(), 0));
    std::size_t rank = 0;
    for (OpId id : ranked) {
        int s = facts.setOf[id];
        if (placed[id] || (s >= 0 && treatment[s] == SetTreatment::NotUseL0))
            continue;
        bool use = rank++ < budget;
        if (wantL0[id] != use) {
            wantL0[id] = use;
            latWork.setLoadLatency(id, use ? cfg.l0Latency
                                           : opts.memLoadLatency);
        }
    }
}

bool
Attempt::run()
{
    init();
    for (OpId id : order) {
        decideSetTreatment(id);
        bool done = false;
        for (ClusterId c : orderClusters(id)) {
            if (tryPlace(id, c)) {
                done = true;
                break;
            }
        }
        if (!done)
            return false;
        markRelated(id);
        consumeEntry(id);
        reassignLatencies();
    }
    normalize();
    if (opts.l0Aware) {
        // Mapping hints first, then the explicit prefetches (which
        // need them and occupy memory slots), then the access hints:
        // the SEQ_ACCESS legality check must see the final reservation
        // table, prefetch operations included.
        assignMapHints();
        insertExplicitPrefetches();
        assignAccessAndPrefetchHints();
    }
    return true;
}

void
Attempt::normalize()
{
    int min_start = kPosInf;
    for (OpId id = 0; id < loop.numOps(); ++id)
        min_start = std::min(min_start, sched[id].startCycle);
    if (min_start == kPosInf || min_start >= 0)
        return;
    // Shift by a multiple of II: rows (and therefore every MRT
    // reservation) are preserved.
    int shift = ((-min_start + _ii - 1) / _ii) * _ii;
    for (OpId id = 0; id < loop.numOps(); ++id)
        sched[id].startCycle += shift;
    for (auto &tr : transfers)
        tr.startCycle += shift;
}

void
Attempt::assignMapHints()
{
    for (OpId id = 0; id < loop.numOps(); ++id) {
        const ir::Operation &op = loop.op(id);
        if (op.kind == ir::OpKind::Load && sched[id].usesL0) {
            sched[id].map = interleavedPattern(op)
                                ? ir::MapHint::InterleavedMap
                                : ir::MapHint::LinearMap;
        }
    }
}

void
Attempt::assignAccessAndPrefetchHints()
{
    const int n = cfg.numClusters;

    for (OpId id = 0; id < loop.numOps(); ++id) {
        const ir::Operation &op = loop.op(id);
        OpSchedule &os = sched[id];
        if (op.kind == ir::OpKind::Load) {
            if (!os.usesL0) {
                os.access = ir::AccessHint::NoAccess;
                continue;
            }
            // SEQ_ACCESS legality: the cluster's memory slot in the
            // next kernel row must be empty so the forwarded miss finds
            // the bus free (Section 3.2).
            bool next_busy =
                mrt.memSlotBusy(os.cluster, os.startCycle + 1);
            os.access = next_busy ? ir::AccessHint::ParAccess
                                  : ir::AccessHint::SeqAccess;
        } else if (op.kind == ir::OpKind::Store) {
            int s = facts.setOf[id];
            bool update_l0 =
                (s >= 0 && treatment[s] == SetTreatment::OneCluster
                 && boundCluster[s] == os.cluster)
                || (s >= 0
                    && treatment[s]
                           == SetTreatment::PartialStoreReplication);
            os.access = update_l0 ? ir::AccessHint::ParAccess
                                  : ir::AccessHint::NoAccess;
        }
    }

    // Prefetch hints with redundancy suppression: one trigger per
    // stream group (Section 4.3 step 4).
    // Interleaved groups: key by (array, |stride|, elemSize, block of
    // the first iteration); only the schedule-first member triggers.
    std::map<std::tuple<int, long, int, long>, OpId> group_first;
    for (OpId id = 0; id < loop.numOps(); ++id) {
        const ir::Operation &op = loop.op(id);
        OpSchedule &os = sched[id];
        if (op.kind != ir::OpKind::Load || !os.usesL0)
            continue;
        long sb = op.mem.strideBytes();
        if (sb == 0)
            continue; // stride 0: the subblock never advances
        if (std::abs(sb) > cfg.l1BlockBytes
                && os.map != ir::MapHint::InterleavedMap)
            continue; // step 5 territory: explicit prefetch
        long bucket;
        if (os.map == ir::MapHint::InterleavedMap) {
            bucket = (op.mem.offsetElems * op.mem.elemSize)
                     / cfg.l1BlockBytes;
        } else {
            if (std::abs(sb) > cfg.l0SubblockBytes)
                continue; // non-contiguous linear walk: explicit pf
            bucket = (op.mem.offsetElems * op.mem.elemSize)
                     / cfg.l0SubblockBytes;
            // Linear streams are per cluster.
            bucket = bucket * (n + 1) + os.cluster;
        }
        auto key = std::make_tuple(op.mem.array,
                                   std::abs(op.mem.strideElems),
                                   op.mem.elemSize, bucket);
        auto it = group_first.find(key);
        if (it == group_first.end()
                || sched[it->second].startCycle > os.startCycle)
            group_first[key] = id;
    }
    for (const auto &kv : group_first) {
        OpId id = kv.second;
        // No prefetch for loads in PSR-treated sets: a prefetched
        // subblock holds elements the replicated stores write later,
        // and replicas only *invalidate* — they cannot repair a copy
        // that lands after them (1C's updating stores can).
        int s = facts.setOf[id];
        if (s >= 0
                && treatment[s] == SetTreatment::PartialStoreReplication)
            continue;
        long sb = loop.op(id).mem.strideBytes();
        sched[id].prefetch = sb > 0 ? ir::PrefetchHint::Positive
                                    : ir::PrefetchHint::Negative;
    }
}

void
Attempt::insertExplicitPrefetches()
{
    // Step 5: strided L0 loads whose stride outruns the subblock (e.g.
    // column walks) get a software prefetch scheduled lookahead
    // iterations ahead, linear mapping, if a memory slot is free.
    const int num_ops = loop.numOps();
    for (OpId id = 0; id < num_ops; ++id) {
        const ir::Operation &op = loop.op(id);
        const OpSchedule &os = sched[id];
        if (op.kind != ir::OpKind::Load || !os.usesL0)
            continue;
        if (!op.mem.strided
                || std::abs(op.mem.strideBytes()) <= cfg.l0SubblockBytes)
            continue;
        if (os.map == ir::MapHint::InterleavedMap)
            continue;

        int row = -1;
        for (int r = 0; r < _ii; ++r) {
            if (mrt.fuFree(os.cluster, FuClass::Mem, r)) {
                row = r;
                break;
            }
        }
        if (row < 0)
            continue; // not enough resources: keep L0 and accept stalls

        int lookahead = std::max(
            1, (cfg.l1Latency + cfg.busLatency + _ii - 1) / _ii);
        ir::Operation pf;
        pf.kind = ir::OpKind::Prefetch;
        pf.tag = op.tag + "_pf";
        pf.mem = op.mem;
        pf.mem.offsetElems =
            op.mem.offsetElems + lookahead * op.mem.strideElems;
        prefetchOps.push_back(std::move(pf));

        mrt.reserveFu(os.cluster, FuClass::Mem, row);
        OpSchedule ps;
        ps.cluster = os.cluster;
        ps.startCycle = row;
        ps.assignedLatency = 1;
        ps.access = ir::AccessHint::NoAccess;
        sched.push_back(ps);
    }
}

Schedule
Attempt::finish(ir::Loop body)
{
    Schedule out;
    out.ii = _ii;
    int max_stage = 0, max_start = 0;
    for (const auto &os : sched) {
        max_stage = std::max(max_stage, os.startCycle / _ii);
        max_start = std::max(max_start, os.startCycle);
    }
    out.stageCount = max_stage + 1;
    out.rampCycles = max_start;
    for (ir::Operation &pf : prefetchOps)
        body.addOp(std::move(pf));
    out.loop = std::move(body);
    out.ops = std::move(sched);
    out.transfers = std::move(transfers);
    out.explicitPrefetches = static_cast<int>(prefetchOps.size());
    return out;
}

/**
 * The primary attempt at @p ii, then the topological fallback; true
 * when one fit, and @p out holds it. Both start from one slack.
 */
bool
attemptAt(const machine::MachineConfig &cfg, const SchedulerOptions &opts,
          const LoopFacts &facts, int ii, std::optional<Attempt> &out)
{
    const SlackInfo step2_slack = computeSlack(
        facts.loop, opts.l0Aware ? facts.optLat : facts.baseLat, ii);
    out.emplace(cfg, opts, facts, ii, step2_slack);
    if (out->run())
        return true;
    out.emplace(cfg, opts, facts, ii, step2_slack, /*topo_order=*/true);
    return out->run();
}

} // namespace

ModuloScheduler::ModuloScheduler(const machine::MachineConfig &config,
                                 const SchedulerOptions &options)
    : cfg(config), opts(options)
{
    cfg.validate();
}

Schedule
ModuloScheduler::schedule(const ir::Loop &input) const
{
    ir::Loop body = opts.coherence == CoherenceMode::Psr
                        ? psrTransform(input, cfg.numClusters, nullptr)
                        : input;
    body.validate();
    const LoopFacts facts(body, cfg, opts);

    // MII under the step-2 assumption (candidates at L0 latency).
    LatencyModel lat = opts.l0Aware ? facts.optLat : facts.baseLat;
    if (opts.l0Aware && opts.coherence == CoherenceMode::ForceNL0) {
        // Forced NL0 demotion is static: every tracked load+store set
        // keeps its loads at the L1 latency. Re-derive the MII with
        // those latencies up front instead of spinning attempts at IIs
        // the demoted recurrences can never meet.
        for (int s = 0; s < facts.sets.size(); ++s) {
            if (!facts.tracked[s])
                continue;
            for (OpId m : facts.sets[s])
                if (body.op(m).kind == ir::OpKind::Load)
                    lat.setLoadLatency(m, opts.memLoadLatency);
        }
    }
    std::optional<Attempt> attempt;
    for (int ii = minII(body, cfg, lat); ii <= opts.maxII; ++ii) {
        if (attemptAt(cfg, opts, facts, ii, attempt))
            return attempt->finish(std::move(body));
    }
    fatal("no schedule for loop %s up to II=%d", body.name().c_str(),
          opts.maxII);
}

std::uint64_t
ModuloScheduler::estimateCycles(const ir::Loop &body,
                                std::uint64_t trips) const
{
    Schedule s = schedule(body);
    return s.computeCycles(trips);
}

int
chooseUnrollFactor(const ir::Loop &loop, std::uint64_t trips,
                   const ModuloScheduler &sched, int num_clusters)
{
    if (trips < static_cast<std::uint64_t>(num_clusters) * 2)
        return 1;
    std::uint64_t plain = sched.estimateCycles(loop, trips);
    ir::Loop unrolled = ir::unrollLoop(loop, num_clusters);
    std::uint64_t wide =
        sched.estimateCycles(unrolled, trips / num_clusters);
    if (wide < plain)
        return num_clusters;
    // Near-ties (the unrolled steady state matches and only the deeper
    // prologue differs) go to the unrolled version when the trip count
    // amortises it: unrolling balances workload across clusters and
    // enables the interleaved mapping [22].
    bool amortised = trips >= 32ULL * num_clusters;
    if (amortised && wide <= plain + plain / 50)
        return num_clusters;
    return 1;
}

} // namespace l0vliw::sched
