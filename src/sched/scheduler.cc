#include "sched/scheduler.hh"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <tuple>

#include "common/logging.hh"
#include "ir/memdep.hh"
#include "metrics/registry.hh"
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

/** Give up (fatal) past this II. */
constexpr int kMaxII = 512;

/** Candidate instructions: strided loads (Section 4.3). */
bool
isCandidate(const ir::Operation &op)
{
    return op.kind == ir::OpKind::Load && op.mem.strided;
}

/**
 * What one schedule() call knows about its body before it picks an
 * II. None of it depends on the II, so it is derived once and lent,
 * read-only, to every attempt: primary and fallback, at every II.
 */
struct LoopFacts
{
    /** Derive the facts of @p body, which must outlive their use,
     *  into this object's storage. */
    void
    derive(const ir::Loop &body, const machine::MachineConfig &cfg)
    {
        const int n = body.numOps();
        loop = &body;
        hasL0 = cfg.memArch == machine::MemArch::L0Buffers;
        incident.assign(body);
        graph.assign(body);
        sets = ir::memorySets(body);
        tracked.assign(sets.size(), false);
        setOf.assign(n, -1);
        stream.assign(n, -1);
        group.assign(n, -1);
        owner.assign(n, kNoCluster);
        baseLat.assign(body, cfg);
        optLat = baseLat;
        candidates.clear();
        groupBegin.clear();
        numStreams = 0;
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
            if (ir::isMemKind(op.kind))
                owner[op.id] = ownerCluster(body, cfg, op);
        }

        // Number the candidates' streams and list them by stream, so
        // that each group is a run of byStream.
        auto group_key = [&](OpId id) {
            const ir::MemInfo &m = body.op(id).mem;
            return std::make_tuple(m.array, m.strideElems, m.elemSize);
        };
        auto stream_key = [&](OpId id) {
            return std::tuple_cat(group_key(id),
                                  std::make_tuple(body.op(id).mem.offsetElems));
        };
        byStream = candidates;
        std::sort(byStream.begin(), byStream.end(), [&](OpId a, OpId b) {
            return stream_key(a) < stream_key(b);
        });
        for (std::size_t i = 0; i < byStream.size(); ++i) {
            const OpId id = byStream[i];
            if (i == 0 || group_key(id) != group_key(byStream[i - 1]))
                groupBegin.push_back(static_cast<int>(i));
            if (i == 0 || stream_key(id) != stream_key(byStream[i - 1]))
                ++numStreams;
            stream[id] = numStreams - 1;
            group[id] = static_cast<int>(groupBegin.size()) - 1;
        }
        groupBegin.push_back(static_cast<int>(byStream.size()));
    }

    /**
     * Cluster statically owning the first word touched by @p op
     * (Interleaved-2 heuristic), or kNoCluster.
     */
    static ClusterId
    ownerCluster(const ir::Loop &body, const machine::MachineConfig &cfg,
                 const ir::Operation &op)
    {
        if (!op.mem.strided)
            return kNoCluster;
        // The static word-to-cluster binding only helps when every
        // access of the stream lands in the same cluster: the stride
        // must be a multiple of wordBytes * numClusters (or zero).
        // Sub-word streams rotate owners every iteration — the
        // inflexibility the L0 buffers' dynamic binding removes.
        long span = static_cast<long>(cfg.wiWordBytes) * cfg.numClusters;
        if (op.mem.strideBytes() % span != 0)
            return kNoCluster;
        Addr first = body.array(op.mem.array).base
                     + static_cast<Addr>(op.mem.offsetElems)
                           * op.mem.elemSize;
        return static_cast<ClusterId>((first / cfg.wiWordBytes)
                                      % cfg.numClusters);
    }

    const ir::Loop *loop = nullptr;
    /** The machine has L0 buffers: the Section 4.3 extensions apply. */
    bool hasL0 = false;
    /** The placement steps only look at an op's neighbours. */
    IncidentEdges incident;
    /** The slack and recMII relaxations' edge order. */
    DepGraph graph;
    /** Memory-dependent sets (Section 4.1); each op's, or -1. */
    ir::MemorySets sets;
    /** Per set: mixes loads and stores, so NL0/1C/PSR constrain it. */
    std::vector<bool> tracked;
    std::vector<int> setOf;
    /** Candidate loads, ascending id. */
    std::vector<OpId> candidates;
    /**
     * Each candidate's address stream (array, stride, element size,
     * offset: the identity an L0 entry is counted by) and stream group
     * (the same but the offset: the loads a placement recommends a
     * cluster to); -1 for other ops.
     */
    std::vector<int> stream, group;
    int numStreams = 0;
    /** The candidates by stream; group g is byStream[groupBegin[g] ..
     *  groupBegin[g + 1]). */
    std::vector<OpId> byStream;
    std::vector<int> groupBegin;
    /** Each memory op's ownerCluster(), kNoCluster for other ops. */
    std::vector<ClusterId> owner;
    /** Loads at the machine's scheduledLoadLatency(); and every
     *  candidate at the L0 latency. */
    LatencyModel baseLat, optLat;

    /** Step 2's assumption: every candidate at the L0 latency on a
     *  machine with L0 buffers, every load at baseLat's elsewhere. */
    const LatencyModel &
    step2Lat() const
    {
        return hasL0 ? optLat : baseLat;
    }
};

/**
 * The Figure 4 algorithm's mutable state: each run() starts from
 * scratch at its II, but in the storage of the previous one.
 */
class Attempt
{
  public:
    /** Attempts over the bodies @p loop_facts is derived from, which
     *  it must outlive. */
    explicit Attempt(const LoopFacts &loop_facts) : facts(loop_facts) {}

    /** Attempt for @p config and @p options from now on (they must
     *  outlive the attempts). */
    void
    bind(const machine::MachineConfig &config,
         const SchedulerOptions &options)
    {
        cfg = &config;
        opts = &options;
        keepArrays = config.memArch == machine::MemArch::MultiVliw;
        ownerLocalHit =
            options.ownerAware
            && config.memArch == machine::MemArch::WordInterleaved;
        loadLatency = config.scheduledLoadLatency();
        mrt.configure(config);
        neighboursIn.resize(config.numClusters);
        score.resize(config.numClusters);
    }

    /**
     * Run the whole placement at @p ii; false when the body does not
     * fit.
     *
     * @param step2_slack the slack at @p ii under step 2's latencies
     *        (every candidate at the L0 latency when L0-aware), which
     *        the ordering starts from.
     * @param topo_order use a forward ASAP-topological order instead
     *        of the SMS order. The SMS bidirectional windows can wedge
     *        on rare shapes without backtracking; in a forward order
     *        only loop-carried (distance >= 1) edges constrain an op
     *        from above, and those windows grow with II, so increasing
     *        II always terminates.
     */
    bool run(int ii, const SlackInfo &step2_slack, bool topo_order);

    /**
     * The result over @p body, the borrowed loop itself moved in,
     * with the explicit prefetches appended. Only after run()
     * returned true, and last: the borrowed loop is gone.
     */
    Schedule finish(ir::Loop body);

  private:
    // --- initialisation (items 1-3 of Figure 4) ---
    void init(int ii, const SlackInfo &step2_slack, bool topo_order);

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

    /** Load @p id, which wants the L0 latency, gets it in cluster
     *  @p c. */
    bool l0Usable(OpId id, ClusterId c) const;

    /** Latency carried by edge @p e given current assignments. */
    int edgeLatency(const ir::DepEdge &e) const;

    /** The stream of load @p id already holds an entry in cluster
     *  @p c. */
    bool
    entryCounted(ClusterId c, OpId id) const
    {
        return counted[static_cast<std::size_t>(c) * facts.numStreams
                       + facts.stream[id]];
    }

    /** Remaining capacity check including the counted streams. */
    bool entryAvailable(ClusterId c, OpId id) const
    {
        return entryCounted(c, id) || freeEntries[c] > 0;
    }

    int totalFreeEntries() const;

    /** |strideElems| equals the cluster count: the access pattern the
     *  interleaved mapping serves (unit stride unrolled N times). */
    bool interleavedPattern(const ir::Operation &op) const
    {
        return op.mem.strided
               && std::abs(op.mem.strideElems) == cfg->numClusters;
    }

    /** The body the facts are derived from. */
    const ir::Loop &loop() const { return *facts.loop; }

    const machine::MachineConfig *cfg = nullptr;
    const SchedulerOptions *opts = nullptr;
    /** What the machine decides (bind()), besides facts.hasL0:
     *  MultiVLIW's array affinity; an owner-aware load of the
     *  word-interleaved machine at the local-hit latency in its owner
     *  cluster; the latency of a load not using L0. */
    bool keepArrays = false;
    bool ownerLocalHit = false;
    int loadLatency = 0;
    const LoopFacts &facts;
    Mrt mrt;
    int _ii = 0;
    /** II the re-slack of item 10 runs at: _ii until an NL0 demotion
     *  pushes recMII above it, then the re-derived feasible II. */
    int slackII = 0;

    LatencyModel latWork;
    SlackInfo slack;
    /** latWork.version() and slackII the current slack was derived
     *  from; unset while it still holds init()'s optimistic slack. */
    std::optional<std::pair<unsigned long, int>> slackInputs;
    /** The candidates ranked under the current slack (item 10). */
    std::vector<OpId> ranked;
    std::vector<OpId> order;
    SmsScratch smsScratch;
    std::vector<std::uint64_t> topoKeys;

    std::vector<char> wantL0;       // current latency-assignment intent
    std::vector<char> placed;
    std::vector<OpSchedule> sched;
    std::vector<BusTransfer> transfers;
    std::vector<int> clusterLoad;   // placed ops per cluster (balance)
    std::vector<int> freeEntries;
    /** Per cluster and stream: the stream holds an L0 entry there. */
    std::vector<char> counted;
    std::vector<ClusterId> recommended;

    // Per memory-dependent set of facts.sets.
    std::vector<SetTreatment> treatment;
    std::vector<ClusterId> boundCluster;

    /** MultiVLIW array affinity: each array's first cluster. */
    std::vector<ClusterId> arrayHome;

    /** orderClusters()' result and its scratch: per cluster, the
     *  placed register neighbours there and the score. */
    std::vector<ClusterId> clusterOrder;
    std::vector<int> neighboursIn;
    std::vector<long> score;

    /** Step 4's prefetch-trigger groups and their first member. */
    std::vector<std::pair<std::tuple<int, long, int, long>, OpId>>
        groupFirst;

    /** Step 5's prefetch operations, appended to the body by finish(). */
    std::vector<ir::Operation> prefetchOps;
};

void
Attempt::init(int ii, const SlackInfo &step2_slack, bool topo_order)
{
    const int n = loop().numOps();
    _ii = ii;
    slackII = ii;
    mrt.reset(ii);
    latWork = facts.baseLat;
    slack = step2_slack;
    slackInputs.reset();
    placed.assign(n, false);
    sched.assign(n, {});
    transfers.clear();
    prefetchOps.clear();
    clusterLoad.assign(cfg->numClusters, 0);
    recommended.assign(n, kNoCluster);
    if (keepArrays)
        arrayHome.assign(loop().arrays().size(), kNoCluster);
    freeEntries.assign(cfg->numClusters,
                       cfg->l0Unbounded() ? kPosInf : cfg->l0Entries);
    if (cfg->memArch != machine::MemArch::L0Buffers)
        freeEntries.assign(cfg->numClusters, 0);
    counted.assign(static_cast<std::size_t>(cfg->numClusters)
                       * facts.numStreams,
                   false);

    // Step 2 works under the assumption that every candidate gets the
    // L0 latency; ordering and slack use that optimistic model.
    wantL0.assign(n, false);
    if (topo_order) {
        // Ascending ASAP, ties in id order: one sort of (ASAP, id)
        // pairs packed into integers (an ASAP is never negative).
        topoKeys.resize(n);
        for (OpId i = 0; i < n; ++i)
            topoKeys[i] = static_cast<std::uint64_t>(slack.asap[i]) << 32
                          | static_cast<std::uint32_t>(i);
        std::sort(topoKeys.begin(), topoKeys.end());
        order.resize(n);
        for (OpId i = 0; i < n; ++i)
            order[i] = static_cast<OpId>(topoKeys[i] & 0xffffffffu);
    } else {
        smsOrder(facts.incident, slack, order, smsScratch);
    }

    // Item 2: the N*NE most critical candidates start with L0 latency.
    if (facts.hasL0) {
        rankCandidates();
        std::size_t budget = ranked.size();
        if (opts->selectiveL0 && !cfg->l0Unbounded()) {
            budget = static_cast<std::size_t>(cfg->numClusters)
                     * cfg->l0Entries;
        }
        for (std::size_t i = 0; i < ranked.size() && i < budget; ++i) {
            wantL0[ranked[i]] = true;
            latWork.setLoadLatency(ranked[i], cfg->l0Latency);
        }
    }

    // Memory-dependent sets (Section 4.1).
    const int num_sets = facts.sets.size();
    treatment.assign(num_sets, SetTreatment::Unconstrained);
    boundCluster.assign(num_sets, kNoCluster);
    for (int s = 0; s < num_sets; ++s) {
        if (!facts.tracked[s])
            continue;
        if (opts->coherence == CoherenceMode::Psr) {
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
    if (!facts.hasL0 || opts->coherence == CoherenceMode::ForceNL0) {
        treatment[s] = facts.hasL0 ? SetTreatment::NotUseL0
                                   : SetTreatment::Unconstrained;
        if (!facts.hasL0)
            return;
    } else {
        // 1C whenever some load of the set holds an L0 latency and
        // entries remain; otherwise fall back to NL0 (Figure 4 item 4).
        bool load_with_l0 = false;
        for (OpId m : facts.sets[s])
            load_with_l0 |= loop().op(m).kind == ir::OpKind::Load
                            && wantL0[m];
        treatment[s] = (load_with_l0 && totalFreeEntries() > 0)
                           ? SetTreatment::OneCluster
                           : SetTreatment::NotUseL0;
    }
    if (treatment[s] == SetTreatment::NotUseL0) {
        for (OpId m : facts.sets[s]) {
            if (loop().op(m).kind == ir::OpKind::Load && !placed[m]) {
                wantL0[m] = false;
                latWork.setLoadLatency(m, loadLatency);
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
    const ir::Operation &op = loop().op(id);
    if (op.kind != ir::OpKind::Load)
        return {cfg->opLatency(op.kind), false};
    if (!facts.hasL0 || !wantL0[id]) {
        if (ownerLocalHit && facts.owner[id] == c
                && facts.owner[id] != kNoCluster)
            return {cfg->wiLocalHitLatency, false};
        return {loadLatency, false};
    }

    if (l0Usable(id, c))
        return {cfg->l0Latency, true};
    return {loadLatency, false};
}

bool
Attempt::l0Usable(OpId id, ClusterId c) const
{
    int s = facts.setOf[id];
    if (s >= 0 && treatment[s] == SetTreatment::OneCluster
            && boundCluster[s] != kNoCluster && boundCluster[s] != c) {
        // The footnote case: L0 latency in the set's cluster, L1
        // latency anywhere else.
        return false;
    }
    // The all-candidates ablation (Section 5.2) marks every candidate
    // regardless of capacity — that is exactly how the buffers
    // overflow there.
    return !opts->selectiveL0 || entryAvailable(c, id);
}

int
Attempt::totalFreeEntries() const
{
    long total = 0;
    for (int v : freeEntries)
        total += v;
    return static_cast<int>(std::min<long>(total, kPosInf));
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
    const ir::Operation &op = loop().op(id);
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

    // Register communication cost with already-placed neighbours: a
    // cluster pays one transfer per such edge whose other end sits in
    // another cluster. One pass counts them by cluster.
    const int nc = cfg->numClusters;
    std::fill(neighboursIn.begin(), neighboursIn.end(), 0);
    int neighbours = 0;
    const IncidentEdges &inc = facts.incident;
    for (int i = inc.begin[id]; i < inc.begin[id + 1]; ++i) {
        const ir::DepEdge &e = *inc.edges[i];
        if (e.kind != ir::DepKind::Reg)
            continue;
        if (e.src == id && placed[e.dst]) {
            ++neighbours;
            ++neighboursIn[sched[e.dst].cluster];
        }
        if (e.dst == id && placed[e.src]) {
            ++neighbours;
            ++neighboursIn[sched[e.src].cluster];
        }
    }

    ClusterId owner = opts->ownerAware ? facts.owner[id] : kNoCluster;
    ClusterId affinity = kNoCluster;
    if (keepArrays && ir::isMemKind(op.kind))
        affinity = arrayHome[op.mem.array];
    // In a bound 1C set the only cluster where the load can keep its L0
    // latency is the set's cluster: that binding overrides any
    // stream-rotation recommendation.
    ClusterId want = recommended[id];
    if (s >= 0 && treatment[s] == SetTreatment::OneCluster
            && boundCluster[s] != kNoCluster)
        want = boundCluster[s];
    const bool l0_mem = facts.hasL0 && ir::isMemKind(op.kind);
    const bool wants_l0 =
        l0_mem && op.kind == ir::OpKind::Load && wantL0[id];

    for (ClusterId c = 0; c < nc; ++c) {
        long sc = (neighbours - neighboursIn[c]) * 100L;
        sc += clusterLoad[c];    // workload balance
        if (l0_mem) {
            if (want != kNoCluster && want != c)
                sc += 100000L;
            if (wants_l0 && !l0Usable(id, c))
                sc += 50000L;
        }
        if (owner != kNoCluster && owner != c)
            sc += 20000L;
        if (affinity != kNoCluster && affinity != c)
            sc += 20000L;
        score[c] = sc;
        // Insert c after every cluster scoring no more: ascending
        // score, ties to the lower cluster.
        clusterOrder.push_back(c);
        for (std::size_t k = clusterOrder.size() - 1;
             k > 0 && score[clusterOrder[k - 1]] > sc; --k)
            std::swap(clusterOrder[k - 1], clusterOrder[k]);
    }
    return clusterOrder;
}

bool
Attempt::tryPlace(OpId id, ClusterId c)
{
    const ir::Operation &op = loop().op(id);
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
                       + (cross ? cfg->busLatency : 0) - _ii * e.distance;
            estart = std::max(estart, need);
        }
        if (e.src == id && placed[e.dst]) {
            bool cross = e.kind == ir::DepKind::Reg
                         && sched[e.dst].cluster != c;
            int lat_out = e.kind == ir::DepKind::Mem ? 1 : latency;
            int limit = sched[e.dst].startCycle - lat_out
                        + _ii * e.distance - (cross ? cfg->busLatency : 0);
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
    for (int t = mrt.nextFuFree(c, fu, t0, t1, step); t != Mrt::kNoCycle;
         t = mrt.nextFuFree(c, fu, t + step, t1, step)) {
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
                int hi = t + _ii * e.distance - cfg->busLatency;
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
                         - cfg->busLatency;
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
        if (keepArrays && ir::isMemKind(op.kind)
                && arrayHome[op.mem.array] == kNoCluster)
            arrayHome[op.mem.array] = c;
        return true;
    }
    return false;
}

void
Attempt::markRelated(OpId id)
{
    const ir::Operation &op = loop().op(id);
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

    // The unplaced candidates of the same array, stride and element
    // size (each gets its own recommendation: the order is free).
    const ClusterId c = sched[id].cluster;
    const int n = cfg->numClusters;
    const int g = facts.group[id];
    for (int k = facts.groupBegin[g]; k < facts.groupBegin[g + 1]; ++k) {
        const ir::Operation &other = loop().op(facts.byStream[k]);
        if (other.id == id || placed[other.id])
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
        } else if (std::abs(op.mem.strideBytes()) <= cfg->l0SubblockBytes
                   && std::abs(delta) * op.mem.elemSize
                          < cfg->l0SubblockBytes) {
            // Same linear subblock stream.
            recommended[other.id] = c;
        }
    }
}

void
Attempt::consumeEntry(OpId id)
{
    const ir::Operation &op = loop().op(id);
    if (op.kind != ir::OpKind::Load || !sched[id].usesL0)
        return;
    ClusterId c = sched[id].cluster;
    if (entryCounted(c, id))
        return;
    counted[static_cast<std::size_t>(c) * facts.numStreams
            + facts.stream[id]] = true;
    if (freeEntries[c] > 0 && !cfg->l0Unbounded())
        --freeEntries[c];
}

void
Attempt::reassignLatencies()
{
    if (!facts.hasL0 || !opts->selectiveL0)
        return;
    // The slack, and so the candidates' ranking, is a function of the
    // working latencies and slackII alone: re-derive it only when one
    // of them moved since the last derivation (init()'s slack used the
    // optimistic latencies).
    if (slackInputs != std::make_pair(latWork.version(), slackII)) {
        bool converged = true;
        computeSlack(facts.graph, latWork, slackII, slack, &converged);
        if (!converged) {
            // NL0 demotion raised recurrence latencies above what this
            // attempt's II supports. Re-derive the minimum feasible II
            // for the working latencies and order the remaining
            // candidates at that II (the demoted loops still *schedule*
            // at _ii — slack here only ranks L0-entry assignment)
            // instead of warning on every relaxation.
            slackII = recMii(facts.graph, latWork, slackII);
            computeSlack(facts.graph, latWork, slackII, slack);
        }
        slackInputs = std::make_pair(latWork.version(), slackII);
        rankCandidates();
    }

    // The unplaced candidates outside NL0 sets, in ranking order, take
    // the free entries.
    std::size_t budget = cfg->l0Unbounded()
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
            latWork.setLoadLatency(id, use ? cfg->l0Latency
                                           : loadLatency);
        }
    }
}

bool
Attempt::run(int ii, const SlackInfo &step2_slack, bool topo_order)
{
    static metrics::Counter &attempts = metrics::counter(
        "l0vliw_sched_attempts_total",
        "Placements of a loop body at one II (SMS or topological order)");
    static metrics::Counter &failures = metrics::counter(
        "l0vliw_sched_attempts_failed_total",
        "Placements that did not fit their II");
    attempts.inc();
    init(ii, step2_slack, topo_order);
    for (OpId id : order) {
        decideSetTreatment(id);
        bool done = false;
        for (ClusterId c : orderClusters(id)) {
            if (tryPlace(id, c)) {
                done = true;
                break;
            }
        }
        if (!done) {
            failures.inc();
            return false;
        }
        markRelated(id);
        consumeEntry(id);
        reassignLatencies();
    }
    normalize();
    if (facts.hasL0) {
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
    for (OpId id = 0; id < loop().numOps(); ++id)
        min_start = std::min(min_start, sched[id].startCycle);
    if (min_start == kPosInf || min_start >= 0)
        return;
    // Shift by a multiple of II: rows (and therefore every MRT
    // reservation) are preserved.
    int shift = ((-min_start + _ii - 1) / _ii) * _ii;
    for (OpId id = 0; id < loop().numOps(); ++id)
        sched[id].startCycle += shift;
    for (auto &tr : transfers)
        tr.startCycle += shift;
}

void
Attempt::assignMapHints()
{
    for (OpId id = 0; id < loop().numOps(); ++id) {
        const ir::Operation &op = loop().op(id);
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
    const int n = cfg->numClusters;

    for (OpId id = 0; id < loop().numOps(); ++id) {
        const ir::Operation &op = loop().op(id);
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
    // the first iteration); only the schedule-first member triggers
    // (ties: the lower id). Few loads use L0, so the groups are a
    // short list searched linearly.
    using GroupKey = std::tuple<int, long, int, long>;
    std::vector<std::pair<GroupKey, OpId>> &group_first = groupFirst;
    group_first.clear();
    for (OpId id = 0; id < loop().numOps(); ++id) {
        const ir::Operation &op = loop().op(id);
        OpSchedule &os = sched[id];
        if (op.kind != ir::OpKind::Load || !os.usesL0)
            continue;
        long sb = op.mem.strideBytes();
        if (sb == 0)
            continue; // stride 0: the subblock never advances
        if (std::abs(sb) > cfg->l1BlockBytes
                && os.map != ir::MapHint::InterleavedMap)
            continue; // step 5 territory: explicit prefetch
        long bucket;
        if (os.map == ir::MapHint::InterleavedMap) {
            bucket = (op.mem.offsetElems * op.mem.elemSize)
                     / cfg->l1BlockBytes;
        } else {
            if (std::abs(sb) > cfg->l0SubblockBytes)
                continue; // non-contiguous linear walk: explicit pf
            bucket = (op.mem.offsetElems * op.mem.elemSize)
                     / cfg->l0SubblockBytes;
            // Linear streams are per cluster.
            bucket = bucket * (n + 1) + os.cluster;
        }
        const GroupKey key(op.mem.array, std::abs(op.mem.strideElems),
                           op.mem.elemSize, bucket);
        auto it = std::find_if(group_first.begin(), group_first.end(),
                               [&](const auto &g) { return g.first == key; });
        if (it == group_first.end())
            group_first.emplace_back(key, id);
        else if (sched[it->second].startCycle > os.startCycle)
            it->second = id;
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
        long sb = loop().op(id).mem.strideBytes();
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
    const int num_ops = loop().numOps();
    for (OpId id = 0; id < num_ops; ++id) {
        const ir::Operation &op = loop().op(id);
        const OpSchedule &os = sched[id];
        if (op.kind != ir::OpKind::Load || !os.usesL0)
            continue;
        if (!op.mem.strided
                || std::abs(op.mem.strideBytes()) <= cfg->l0SubblockBytes)
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
            1, (cfg->l1Latency + cfg->busLatency + _ii - 1) / _ii);
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
 * when one fit, and @p attempt holds it. Both start from one slack.
 */
bool
attemptAt(const LoopFacts &facts, int ii, SlackInfo &step2_slack,
          Attempt &attempt)
{
    computeSlack(facts.graph, facts.step2Lat(), ii, step2_slack);
    return attempt.run(ii, step2_slack, /*topo_order=*/false)
           || attempt.run(ii, step2_slack, /*topo_order=*/true);
}

/** Choices of l0Entries streams out of a 1C-capped set the bound below
 *  tries at most; past this it gives up and returns the MII. */
constexpr long kMaxStreamChoices = 64;

/**
 * A lower bound, at least @p mii, on the II of every attempt, so that
 * the IIs below it need none.
 *
 * Every placement meets each dependence edge whose other end is placed
 * at the latency that end was assigned (tryPlace), so an attempt's II
 * is at least recMII under its assigned latencies. A candidate is
 * assigned the L0 latency only in a cluster where its stream holds one
 * of the l0Entries entries (l0Usable), and every L0 load of a 1C set
 * sits in the set's one cluster; an NL0 set has none. So of a tracked
 * set's candidate streams at most l0Entries keep the L0 latency, and
 * the least recMII over every such choice, the set's other candidates
 * at the L1 latency and the rest of the body at @p lat (step 2's, the
 * lowest any attempt assigns), bounds the II. Sets whose streams fit,
 * and those with a load on a register self-edge (which placement never
 * checks), are left at @p lat.
 */
int
streamCapBound(const LoopFacts &facts, const machine::MachineConfig &cfg,
               const SchedulerOptions &opts, const LatencyModel &lat,
               int mii)
{
    const int entries = cfg.l0Entries;
    if (!facts.hasL0 || !opts.selectiveL0
            || opts.coherence != CoherenceMode::Auto
            || cfg.l0Unbounded() || entries < 1)
        return mii;

    // Streams are fewer than candidates: most bodies have no set to
    // cap.
    bool any = false;
    for (int s = 0; s < facts.sets.size() && !any; ++s) {
        int candidates = 0;
        for (OpId m : facts.sets[s])
            candidates += facts.stream[m] >= 0;
        any = facts.tracked[s] && candidates > entries;
    }
    if (!any)
        return mii;

    // Per capped set: its candidates, each with the index of its
    // stream among the set's distinct streams, and their count.
    struct Capped
    {
        std::vector<std::pair<OpId, int>> loads;
        int streams = 0;
    };
    std::vector<Capped> capped;
    std::vector<int> index(facts.numStreams, -1);
    long choices = 1;
    for (int s = 0; s < facts.sets.size(); ++s) {
        if (!facts.tracked[s])
            continue;
        Capped set;
        bool self_edge = false;
        for (OpId m : facts.sets[s]) {
            const int st = facts.stream[m];
            if (st < 0)
                continue;
            const IncidentEdges &inc = facts.incident;
            for (int i = inc.begin[m]; i < inc.begin[m + 1]; ++i)
                self_edge |= inc.edges[i]->src == inc.edges[i]->dst
                             && inc.edges[i]->kind == ir::DepKind::Reg;
            if (index[st] < 0)
                index[st] = set.streams++;
            set.loads.emplace_back(m, index[st]);
        }
        for (const auto &load : set.loads)
            index[facts.stream[load.first]] = -1;
        if (self_edge || set.streams <= entries)
            continue;
        if (set.streams > 24)
            return mii;
        // C(streams, entries), stopping once past the limit.
        long ways = 1;
        for (int i = 1; i <= entries && ways <= kMaxStreamChoices; ++i)
            ways = ways * (set.streams - entries + i) / i;
        choices *= ways;
        if (choices > kMaxStreamChoices)
            return mii;
        capped.push_back(std::move(set));
    }
    if (capped.empty())
        return mii;

    // Every choice: per capped set, a mask of the streams kept at the
    // L0 latency with exactly `entries` bits (the next one by Gosper's
    // rule), advanced like an odometer.
    const unsigned first = (1u << entries) - 1;
    std::vector<unsigned> keep(capped.size(), first);
    LatencyModel work = lat;
    int best = std::numeric_limits<int>::max();
    for (;;) {
        for (std::size_t c = 0; c < capped.size(); ++c)
            for (const auto &[m, st] : capped[c].loads)
                work.setLoadLatency(m, keep[c] >> st & 1
                                           ? cfg.l0Latency
                                           : cfg.l1Latency);
        best = std::min(best, recMii(facts.graph, work, mii));
        if (best == mii)
            return mii;
        std::size_t c = 0;
        for (; c < capped.size(); ++c) {
            const unsigned m = keep[c], low = m & -m, up = m + low;
            const unsigned next = (((up ^ m) >> 2) / low) | up;
            if (next < 1u << capped[c].streams) {
                keep[c] = next;
                break;
            }
            keep[c] = first;
        }
        if (c == capped.size())
            return best;
    }
}

/**
 * The first II worth an attempt: the MII under step 2's latencies
 * (forced NL0 demotion included), raised to streamCapBound().
 */
int
firstII(const LoopFacts &facts, const machine::MachineConfig &cfg,
        const SchedulerOptions &opts)
{
    const LatencyModel &step2 = facts.step2Lat();
    if (facts.hasL0 && opts.coherence == CoherenceMode::ForceNL0) {
        // Forced NL0 demotion is static: every tracked load+store set
        // keeps its loads at the L1 latency. Re-derive the MII with
        // those latencies up front instead of spinning attempts at IIs
        // the demoted recurrences can never meet. (The stream bound
        // does not apply under forced NL0.)
        LatencyModel lat = step2;
        for (int s = 0; s < facts.sets.size(); ++s) {
            if (!facts.tracked[s])
                continue;
            for (OpId m : facts.sets[s])
                if (facts.loop->op(m).kind == ir::OpKind::Load)
                    lat.setLoadLatency(m, cfg.l1Latency);
        }
        return recMii(facts.graph, lat, resMii(*facts.loop, cfg));
    }
    const int mii = recMii(facts.graph, step2, resMii(*facts.loop, cfg));
    return streamCapBound(facts, cfg, opts, step2, mii);
}

/**
 * What one schedule() call derives, in storage the next call on the
 * same thread reuses: every field is derived again before it is read,
 * so nothing but capacity passes from one call to the next.
 */
struct Workspace
{
    LoopFacts facts;
    Attempt attempt{facts};
    SlackInfo step2Slack;
};

/** This thread's workspace, its attempt bound to @p cfg and @p opts. */
Workspace &
workspace(const machine::MachineConfig &cfg, const SchedulerOptions &opts)
{
    thread_local Workspace w;
    w.attempt.bind(cfg, opts);
    return w;
}

} // namespace

ModuloScheduler::ModuloScheduler(const machine::MachineConfig &config,
                                 const SchedulerOptions &options)
    : cfg(config), opts(options)
{
    cfg.validate();
}


ir::Loop
ModuloScheduler::prepare(ir::Loop body) const
{
    if (opts.coherence == CoherenceMode::Psr)
        body = psrTransform(body, cfg.numClusters, nullptr);
    body.validate();
    return body;
}

Schedule
ModuloScheduler::schedule(ir::Loop input) const
{
    ir::Loop body = prepare(std::move(input));
    Workspace &w = workspace(cfg, opts);
    w.facts.derive(body, cfg);
    for (int ii = firstII(w.facts, cfg, opts); ii <= kMaxII; ++ii) {
        if (attemptAt(w.facts, ii, w.step2Slack, w.attempt))
            return w.attempt.finish(std::move(body));
    }
    fatal("no schedule for loop %s up to II=%d", body.name().c_str(),
          kMaxII);
}

std::optional<Schedule>
ModuloScheduler::scheduleAt(ir::Loop input, int ii) const
{
    ir::Loop body = prepare(std::move(input));
    Workspace &w = workspace(cfg, opts);
    w.facts.derive(body, cfg);
    if (!attemptAt(w.facts, ii, w.step2Slack, w.attempt))
        return std::nullopt;
    return w.attempt.finish(std::move(body));
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
