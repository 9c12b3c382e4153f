#include "model/analytic/estimator.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "exec/coiter_strategy.hpp"
#include "format/format.hpp"
#include "ir/instantiate.hpp"
#include "util/diagnostic.hpp"
#include "util/logging.hpp"

namespace teaal::model::analytic
{

namespace
{

using mapping::baseOfDerived;

double
clamp01(double x)
{
    return std::min(1.0, std::max(0.0, x));
}

/** One input's statistics under preparation. */
class SymbolicInput : public ir::PlanInput
{
  public:
    SymbolicInput(SymbolicTensor t, std::vector<SymbolicTensor>& prepared)
        : t_(std::move(t)), prepared_(prepared)
    {
    }

    const std::vector<ft::RankInfo>& ranks() override { return t_.ranks; }

    void
    swizzle(const std::vector<std::string>& order) override
    {
        t_ = analytic::swizzle(t_, order);
    }

    void
    flatten(const std::string& upper, const std::string& lower) override
    {
        t_ = flattenRanks(t_, upper, lower);
    }

    void
    splitByShape(const std::string& rank, ft::Coord tile,
                 const std::string& upper,
                 const std::string& lower) override
    {
        t_ = splitRankByShape(t_, rank, tile, upper, lower);
    }

    void
    splitByOccupancy(const std::string& rank, std::size_t chunk,
                     const std::string& upper,
                     const std::string& lower) override
    {
        t_ = splitRankByOccupancy(t_, rank, chunk, upper, lower);
    }

    std::size_t
    elements() override
    {
        return static_cast<std::size_t>(std::llround(t_.nnz()));
    }

    std::vector<double> hints() override { return t_.occupancyHints(); }

    /** The plan gets the ranks; the walk keeps the statistics. */
    void
    finish(ir::TensorPlan& tp) override
    {
        tp.ranks = t_.ranks;
        prepared_.push_back(std::move(t_));
    }

  private:
    SymbolicTensor t_;
    std::vector<SymbolicTensor>& prepared_;
};

/** The analytic tier's tensors: statistics by name. */
class SymbolicTensors : public ir::PlanTensors
{
  public:
    explicit SymbolicTensors(
        const std::map<std::string, SymbolicTensor>& stats)
        : stats_(stats)
    {
    }

    const std::vector<ft::RankInfo>*
    ranksOf(const std::string& name) const override
    {
        const auto it = stats_.find(name);
        return it != stats_.end() ? &it->second.ranks : nullptr;
    }

    std::unique_ptr<ir::PlanInput>
    open(const std::string& name, const einsum::Expression& expr) override
    {
        const auto it = stats_.find(name);
        if (it == stats_.end())
            diagError("analytic", name, "einsum '", expr.text,
                      "': no statistics for tensor '", name, "'");
        SymbolicTensor t = it->second;
        t.name = name;
        return std::make_unique<SymbolicInput>(std::move(t), prepared);
    }

    /// Post-transform statistics, in input order.
    std::vector<SymbolicTensor> prepared;

  private:
    const std::map<std::string, SymbolicTensor>& stats_;
};

} // namespace

SymbolicPlan
symbolicInstantiate(const ir::EinsumRecipe& recipe,
                    const einsum::EinsumSpec& spec,
                    const std::map<std::string, SymbolicTensor>& stats,
                    const std::vector<std::string>& intermediates)
{
    SymbolicTensors tensors(stats);
    SymbolicPlan sp;
    sp.plan = ir::instantiateWith(recipe, spec, intermediates, tensors);
    sp.inputs = std::move(tensors.prepared);
    return sp;
}

namespace
{

/** Everything the symbolic walk accumulates for one loop. */
struct LoopStat
{
    double entries = 0;   ///< loop entries (walks attempted)
    double walkRuns = 0;  ///< walks that run (after pre-lookup misses)
    double iters = 0;     ///< coordinates entered (loopEnter events)
    double bodyIters = 0; ///< body executions (after lookup misses)
    /// Body executions per entry — the "multiplicity" a loop adds.
    double perEntryBody = 0;
};

} // namespace

EinsumEstimate
estimateEinsum(const SymbolicPlan& sp, const ModelTables& tables)
{
    const ir::EinsumPlan& plan = sp.plan;
    const std::vector<SymbolicTensor>& inputs = sp.inputs;

    EinsumEstimate est;
    model::EinsumRecord& rec = est.record;
    rec = tables.skeleton;

    auto comp = [&](const std::string& name) -> ComponentActions* {
        if (name.empty())
            return nullptr;
        return &rec.components[name];
    };
    // DRAM charge mirroring StorageReplay::chargeDramTo + the DRAM
    // component counters.
    auto chargeDram = [&](const std::string& tensor, double bytes,
                          bool write, bool partial = false) {
        if (bytes <= 0)
            return;
        TensorTraffic& tt = rec.traffic[tensor];
        if (write)
            tt.writeBytes += bytes;
        else
            tt.readBytes += bytes;
        if (partial)
            tt.poBytes += bytes;
        if (ComponentActions* dram = comp(tables.dramName))
            dram->add(write ? "write_bytes" : "read_bytes", bytes);
    };

    // ---------------------------------------------- whole-tensor copy
    if (plan.wholeTensorCopy) {
        const SymbolicTensor& src = inputs.at(0);
        const std::size_t elements =
            static_cast<std::size_t>(std::llround(src.nnz()));
        const fmt::TensorFormat& tf =
            tables.formats->getLenient(src.name);
        fmt::RankFormat leaf;
        const double bytes =
            static_cast<double>(elements) *
            (tf.rankFormat("_leaf").coordBits() +
             leaf.payloadBits(true)) /
            8.0;
        if (!tables.onChip.count(src.name))
            chargeDram(src.name, bytes, false);
        if (!tables.onChip.count(plan.output.name))
            chargeDram(plan.output.name, bytes, true);
        est.produced = src;
        est.produced.name = plan.output.name;
        est.produced.supersets.insert(src.name);
        return est;
    }

    const std::size_t nloops = plan.loops.size();
    const std::size_t ninputs = plan.inputs.size();
    const bool uni = plan.unionCombine;

    // Per-input per-level accumulators and slice divide factors.
    std::vector<std::vector<double>> scans(ninputs), accesses(ninputs),
        divide(ninputs);
    for (std::size_t t = 0; t < ninputs; ++t) {
        scans[t].assign(inputs[t].ranks.size(), 0.0);
        accesses[t].assign(inputs[t].ranks.size(), 0.0);
        divide[t].assign(inputs[t].ranks.size(), 1.0);
    }

    struct ActionRef
    {
        std::size_t input;
        std::size_t level;
        bool pre = false; // lookups only: fires on loop entry
    };
    std::vector<std::vector<ActionRef>> drivers(nloops), slices(nloops),
        lookups(nloops);
    for (std::size_t t = 0; t < ninputs; ++t) {
        const auto& actions = plan.inputs[t].actions;
        for (std::size_t ai = 0; ai < actions.size(); ++ai) {
            const ir::LevelAction& a = actions[ai];
            const auto loop = static_cast<std::size_t>(a.loopIndex);
            const auto lvl = static_cast<std::size_t>(a.level);
            switch (a.mode) {
              case ir::LevelAction::Mode::CoIterate:
                drivers[loop].push_back({t, lvl});
                break;
              case ir::LevelAction::Mode::Slice:
                slices[loop].push_back({t, lvl});
                break;
              case ir::LevelAction::Mode::Lookup: {
                // Pre-lookups fire on loop entry: no variable of the
                // index expression binds at this loop and the parent
                // level was descended earlier (exec/engine.cpp).
                bool binds_here = false;
                for (const std::string& v : a.expr.vars) {
                    const auto bit = plan.varBoundAt.find(v);
                    if (bit != plan.varBoundAt.end() &&
                        bit->second == a.loopIndex)
                        binds_here = true;
                }
                bool parent_ready = true;
                if (ai > 0 && actions[ai - 1].loopIndex == a.loopIndex)
                    parent_ready = false;
                lookups[loop].push_back(
                    {t, lvl, !binds_here && parent_ready});
                break;
              }
            }
        }
    }

    // Density of one (input, level) within its current window: the
    // probability a probed coordinate is present.
    auto rho = [&](std::size_t t, std::size_t lvl) -> double {
        const double d = divide[t][lvl];
        const double occ = inputs[t].occupancy(lvl) / d;
        const double win =
            std::max(inputs[t].windows[lvl] / d, 1.0);
        return clamp01(occ / win);
    };

    std::vector<LoopStat> ls(nloops);
    double entries = 1.0;
    double spatialPes = 1.0;
    double seqSteps = 0, isectSteps = 0, isectMatches = 0,
           isectCycles = 0;
    // Per-PE load of the walk components. A loop's scans run at the PE
    // chosen by the space loops strictly ABOVE it — a space loop's own
    // fiber is enumerated sequentially before the PE id advances — so
    // each loop's work divides only by the parallelism accumulated so
    // far (spatialPes at that point in the walk), capped by physical
    // instances. The busiest PE sits on every serial path, so its load
    // is the sum of the per-loop shares.
    double seqLoad = 0, isectLoad = 0;
    const double capSeq =
        static_cast<double>(std::max(tables.seqInstances, 1L));
    const double capIsect =
        static_cast<double>(std::max(tables.isectInstances, 1L));

    for (std::size_t i = 0; i < nloops; ++i) {
        const ir::LoopRank& lr = plan.loops[i];
        LoopStat& s = ls[i];
        s.entries = entries;

        // Pre-lookups: one coordinate scan per entry; a miss skips the
        // whole entry (non-union).
        double preP = 1.0;
        for (const ActionRef& lk : lookups[i]) {
            if (!lk.pre)
                continue;
            scans[lk.input][lk.level] += entries;
            const double p = rho(lk.input, lk.level);
            accesses[lk.input][lk.level] += entries * preP * p;
            if (!uni)
                preP *= p;
        }
        const double walkRuns = entries * preP;
        s.walkRuns = walkRuns;

        double m = 0;     // matches per walk
        double steps = 0; // walk steps per walk

        if (drivers[i].empty()) {
            const double limit =
                lr.probeOnly
                    ? 1.0
                    : std::max<double>(
                          static_cast<double>(lr.denseExtent), 1.0);
            steps = limit;
            m = limit;
        } else {
            const std::size_t nd = drivers[i].size();
            std::vector<double> occ(nd), win(nd), dens(nd);
            for (std::size_t d = 0; d < nd; ++d) {
                const ActionRef& dr = drivers[i][d];
                const double div = divide[dr.input][dr.level];
                win[d] = std::max(
                    inputs[dr.input].windows[dr.level] / div, 1.0);
                occ[d] = std::min(
                    std::max(inputs[dr.input].occupancy(dr.level) / div,
                             0.0),
                    win[d]);
                dens[d] = clamp01(occ[d] / win[d]);
            }
            const double W =
                *std::min_element(win.begin(), win.end());
            if (!uni) {
                // Expected intersection size; a driver whose support
                // contains another driver's contributes no independent
                // density factor (e.g. take() outputs vs their source).
                double prod = W;
                for (std::size_t d = 0; d < nd; ++d) {
                    bool superset_of_codriver = false;
                    for (std::size_t e = 0; e < nd && nd > 1; ++e) {
                        if (e == d)
                            continue;
                        if (inputs[drivers[i][e].input].supersets.count(
                                inputs[drivers[i][d].input].name))
                            superset_of_codriver = true;
                    }
                    if (!superset_of_codriver)
                        prod *= dens[d];
                }
                m = std::min(prod,
                             *std::min_element(occ.begin(), occ.end()));
            } else {
                double q = 1.0;
                for (std::size_t d = 0; d < nd; ++d)
                    q *= 1.0 - dens[d];
                m = W * (1.0 - q);
                m = std::max(m,
                             *std::max_element(occ.begin(), occ.end()));
                double total = 0;
                for (double c : occ)
                    total += c;
                m = std::min(m, total);
            }

            // Early exit for probe-only ranks: the walk stops at the
            // first match, paying roughly 1/matches of its work.
            double scale = 1.0;
            double mEff = m;
            if (lr.probeOnly) {
                mEff = std::min(m, 1.0);
                scale = m > 1.0 ? 1.0 / m : 1.0;
            }

            const double cmax =
                *std::max_element(occ.begin(), occ.end());
            const double cmin =
                *std::min_element(occ.begin(), occ.end());
            const bool gallop =
                !uni && nd == 2 &&
                (lr.coiter == ir::CoiterStrategy::Gallop ||
                 (cmin > 0 &&
                  cmax / cmin >= static_cast<double>(
                                     exec::kRuntimeGallopRatio)));
            if (lr.coiter == ir::CoiterStrategy::DenseDrive) {
                // Forced dense probe: every coordinate of the extent
                // probes every driver.
                const double extent = std::max<double>(
                    static_cast<double>(lr.denseExtent), 1.0);
                steps = extent * static_cast<double>(nd) * scale;
                for (std::size_t d = 0; d < nd; ++d)
                    scans[drivers[i][d].input][drivers[i][d].level] +=
                        walkRuns * extent * scale;
                double prod = extent;
                for (std::size_t d = 0; d < nd; ++d)
                    prod *= occ[d] / extent < 1.0 ? occ[d] / extent
                                                  : 1.0;
                m = uni ? m : std::min(m, prod);
                mEff = lr.probeOnly ? std::min(m, 1.0) : m;
            } else if (gallop) {
                const std::size_t lead =
                    occ[0] <= occ[1] ? std::size_t{0} : std::size_t{1};
                const std::size_t big = 1 - lead;
                steps = 2.0 * occ[lead] * scale;
                scans[drivers[i][lead].input][drivers[i][lead].level] +=
                    walkRuns * occ[lead] * scale;
                scans[drivers[i][big].input][drivers[i][big].level] +=
                    walkRuns * mEff;
            } else {
                double total = 0;
                for (std::size_t d = 0; d < nd; ++d) {
                    total += occ[d];
                    scans[drivers[i][d].input][drivers[i][d].level] +=
                        walkRuns * occ[d] * scale;
                }
                steps = total * scale;
            }

            if (nd >= 2 && !uni && !tables.isectName.empty()) {
                const double st = walkRuns * steps;
                const double ma = walkRuns * mEff;
                isectSteps += st;
                isectMatches += ma;
                const double cycles =
                    model::isectCycles(tables.isectType, st, ma);
                isectCycles += cycles;
                isectLoad += cycles /
                             std::max(1.0, std::min(capIsect, spatialPes));
            }

            // Descend into each present driver per match.
            for (std::size_t d = 0; d < nd; ++d) {
                const ActionRef& dr = drivers[i][d];
                const double presence =
                    uni ? occ[d] * scale : mEff;
                accesses[dr.input][dr.level] += walkRuns * presence;
            }
            m = mEff;
        }

        seqSteps += walkRuns * steps;
        seqLoad += walkRuns * steps /
                   std::max(1.0, std::min(capSeq, spatialPes));
        s.iters = walkRuns * m;

        // Slices narrow follower windows by the matches of this loop.
        for (const ActionRef& sl : slices[i])
            divide[sl.input][sl.level] *= std::max(1.0, m);

        // Per-coordinate lookups filter body executions (non-union).
        double postP = 1.0;
        for (const ActionRef& lk : lookups[i]) {
            if (lk.pre)
                continue;
            scans[lk.input][lk.level] += s.iters;
            const double p = rho(lk.input, lk.level);
            accesses[lk.input][lk.level] += s.iters * postP * p;
            if (!uni)
                postP *= p;
        }
        s.bodyIters = s.iters * postP;
        logDebug("analytic walk ", plan.expr.text, " loop ", lr.name,
                 ": entries=", s.entries, " walkRuns=", s.walkRuns,
                 " m=", m, " iters=", s.iters,
                 " bodyIters=", s.bodyIters, " drivers=",
                 drivers[i].size(), " strategy=",
                 ir::coiterStrategyName(lr.coiter));
        s.perEntryBody = entries > 0 ? s.bodyIters / entries : 0.0;

        if (lr.isSpace)
            spatialPes *= std::max(
                1.0, std::min(m, static_cast<double>(std::max<
                                     std::size_t>(lr.spaceExtent, 1))));

        entries = s.bodyIters;
    }

    const double leafIters = nloops == 0 ? 0.0 : ls[nloops - 1].bodyIters;
    est.leafIters = leafIters;

    // ------------------------------------------------ output distinct
    // Distinct output prefixes per production level. The visits a
    // production loop makes are NOT independent random draws: within
    // one fiber walk every coordinate is distinct, and upper
    // partitions of the same rank cover disjoint ranges. Random
    // collision (expectedDistinct) applies only when an intermediate
    // contraction loop re-parents the production loop's drivers —
    // then each re-entry walks a *different* fiber and coordinates
    // genuinely collide. An intermediate loop that does not re-parent
    // the drivers replays the very same fiber: its multiplicity is
    // pure repetition and divides out.
    const ir::OutputPlan& out = plan.output;
    auto baseVarOf = [](const std::string& v) {
        return einsum::varOfRank(baseOfDerived(einsum::rankOfVar(v)));
    };
    std::vector<double> outCounts;
    double dOut = std::min(leafIters, 1.0);
    for (std::size_t lvl = 0; lvl < out.productionOrder.size(); ++lvl) {
        const int j = out.boundAtLoop[lvl];
        const int jprev = lvl == 0 ? -1 : out.boundAtLoop[lvl - 1];
        const auto bl = static_cast<std::size_t>(j);
        const double shape =
            std::max(static_cast<double>(out.shapes[lvl]), 1.0);
        const double prev = lvl == 0 ? 1.0 : outCounts[lvl - 1];
        const double draws =
            prev > 0 ? ls[bl].bodyIters / prev : 0.0;

        double repeat = 1.0;
        bool independent = false;
        for (int k = jprev + 1; k < j; ++k) {
            const auto kk = static_cast<std::size_t>(k);
            bool reparent = false;
            for (const ActionRef& dr : drivers[bl]) {
                for (const ir::LevelAction& a :
                     plan.inputs[dr.input].actions) {
                    if (static_cast<std::size_t>(a.level) < dr.level &&
                        a.loopIndex == k)
                        reparent = true;
                }
            }
            bool same_rank = false;
            for (const std::string& v : plan.loops[kk].bindsVars) {
                if (baseVarOf(v) == out.vars[lvl])
                    same_rank = true;
            }
            // Upper partitions bind no vars but cover disjoint
            // ranges of their base rank.
            if (plan.loops[kk].isUpperPartition &&
                einsum::varOfRank(baseOfDerived(plan.loops[kk].name)) ==
                    out.vars[lvl])
                same_rank = true;
            if (reparent && !same_rank)
                independent = true; // fresh fibers: true random draws
            else if (!reparent)
                repeat *= std::max(1.0, ls[kk].perEntryBody);
            // reparent && same_rank: disjoint ranges of this very
            // rank — distinct by construction, keep in draws.
        }
        const double eff = draws / repeat;
        const double per = independent ? expectedDistinct(eff, shape)
                                       : std::min(eff, shape);
        double d = prev * per;
        d = std::min(d, ls[bl].bodyIters);
        d = std::max(d, std::min(prev, ls[bl].bodyIters));
        outCounts.push_back(d);
    }
    // The chain sees only loops between consecutive production levels;
    // when a contraction loop sits *below* the innermost production
    // loop (e.g. a reduced rank tiled above and intersected below), its
    // body iterations count candidate visits that never produce a leaf
    // and its tile revisits collide invisibly. The joint projection of
    // the actual leaf productions onto the output universe is exact in
    // that regime and a no-op otherwise — cap the chain with it,
    // keeping the counts monotone.
    double outUniverse = 1.0;
    for (std::size_t lvl = 0; lvl < out.productionOrder.size(); ++lvl)
        outUniverse *= std::max(static_cast<double>(out.shapes[lvl]), 1.0);
    double cap = expectedDistinct(leafIters, outUniverse);
    for (std::size_t lvl = outCounts.size(); lvl-- > 0;) {
        outCounts[lvl] = std::min(outCounts[lvl], cap);
        cap = outCounts[lvl];
    }
    if (!outCounts.empty())
        dOut = outCounts.back();

    // ------------------------------------------------------- compute
    double mulOps = 0, addOps = 0;
    switch (plan.expr.kind) {
      case einsum::OpKind::Multiply:
        mulOps = leafIters *
                 std::max<double>(static_cast<double>(ninputs) - 1, 0);
        addOps = std::max(0.0, leafIters - dOut);
        break;
      case einsum::OpKind::Add: {
        double presence = 0;
        for (std::size_t t = 0; t < ninputs; ++t) {
            // Deepest action's access count = leaf presence.
            int best_loop = -1;
            std::size_t best_lvl = 0;
            for (const ir::LevelAction& a : plan.inputs[t].actions) {
                if (a.mode == ir::LevelAction::Mode::Slice)
                    continue;
                if (a.loopIndex >= best_loop) {
                    best_loop = a.loopIndex;
                    best_lvl = static_cast<std::size_t>(a.level);
                }
            }
            if (best_loop >= 0)
                presence += accesses[t][best_lvl];
        }
        addOps = std::max(0.0, presence - dOut);
        break;
      }
      case einsum::OpKind::Assign:
        addOps = std::max(0.0, leafIters - dOut);
        break;
      case einsum::OpKind::Take:
        break;
    }

    const auto addPerPe = [&](ComponentActions* ca, double total,
                              long instances) {
        if (ca == nullptr)
            return;
        const double cap = static_cast<double>(std::max(instances, 1L));
        ca->perPe.add(0, total / std::max(1.0, std::min(cap, spatialPes)));
    };

    if (ComponentActions* seq = comp(tables.seqName)) {
        seq->add("steps", seqSteps);
        if (seqLoad > 0)
            seq->perPe.add(0, seqLoad);
    }
    if (isectSteps > 0 || isectMatches > 0) {
        if (ComponentActions* is = comp(tables.isectName)) {
            is->add("steps", isectSteps);
            is->add("matches", isectMatches);
            is->add("cycles", isectCycles);
            if (isectLoad > 0)
                is->perPe.add(0, isectLoad);
        }
    }
    if (mulOps > 0) {
        if (ComponentActions* mul = comp(tables.mulName)) {
            mul->add("mul_ops", mulOps);
            addPerPe(mul, mulOps, tables.mulInstances);
        }
    }
    if (addOps > 0) {
        if (ComponentActions* add = comp(tables.addName)) {
            add->add("add_ops", addOps);
            addPerPe(add, addOps, tables.addInstances);
        }
    }

    // --------------------------------------------- storage & traffic
    // Expected subtree bytes below one element at an eager unit's
    // bound level (the replay's subtreeBytes, in expectation).
    auto eagerBytes = [&](std::size_t t, std::size_t lvl,
                          const ModelTables::UnitInfo& u) -> double {
        const SymbolicTensor& st = inputs[t];
        const double at = std::max(st.counts[lvl], 1e-300);
        double bits = 0;
        const std::size_t last = st.ranks.size() - 1;
        for (std::size_t k = lvl + 1; k <= last; ++k) {
            const double fibers = st.counts[k - 1] / at;
            const double occ = st.occupancy(k);
            const auto occ_i = static_cast<std::size_t>(std::llround(
                std::max(occ, st.counts[k] > 0 ? 1.0 : 0.0)));
            bits += fibers * static_cast<double>(fmt::fiberBits(
                                 u.format->rankFormat(st.ranks[k].id),
                                 occ_i, st.ranks[k].shape, k == last));
        }
        double bytes = bits / 8.0;
        if (u.interleaved) {
            const double leaves = st.counts[last] / at;
            bytes = std::max(bytes,
                             kInterleavedTransactionBytes * leaves);
        }
        return bytes;
    };

    // Revisit factor: the multiplicity of every loop above the evict
    // loop that does not index this tensor — each of its iterations
    // re-touches the same elements after they were drained.
    auto revisitFactor = [&](const std::set<int>& idx_loops,
                             int evict_loop) -> double {
        if (evict_loop < 0)
            return 1.0;
        double f = 1.0;
        for (int j = 0; j < evict_loop &&
                        j < static_cast<int>(nloops);
             ++j) {
            if (!idx_loops.count(j))
                f *= std::max(1.0, ls[static_cast<std::size_t>(j)]
                                       .perEntryBody);
        }
        return f;
    };

    // Cache working sets accumulate per component before resolving the
    // fit-vs-thrash regime.
    struct CachePending
    {
        std::size_t unit;
        std::size_t input;
        double touched;
        double accessCount;
        double bytesPer;
    };
    std::vector<CachePending> cachePending;
    std::map<std::string, double> cacheFootprint;

    for (std::size_t t = 0; t < ninputs; ++t) {
        const SymbolicTensor& st = inputs[t];
        std::set<int> idxLoopsRunning;
        for (std::size_t lvl = 0; lvl < st.ranks.size(); ++lvl) {
            for (const ir::LevelAction& a : plan.inputs[t].actions) {
                if (static_cast<std::size_t>(a.level) <= lvl)
                    idxLoopsRunning.insert(a.loopIndex);
            }
            const ModelTables::LevelRoute& r = tables.routes[t][lvl];
            const bool onChip = tables.inputOnChip[t] != 0;

            // Coordinate scans (the accumulator tier's charge).
            const double scanBytes = r.coordBytes * scans[t][lvl];
            if (scanBytes > 0) {
                if (r.unit >= 0) {
                    if (r.unitIsCache || !r.absorbed) {
                        if (ComponentActions* ca = comp(
                                tables.units[static_cast<std::size_t>(
                                                 r.unit)]
                                    .component))
                            ca->add("access_bytes", scanBytes);
                    }
                    if (!r.absorbed && !r.unitEager && !onChip)
                        chargeDram(st.name, scanBytes, false);
                } else if (!onChip) {
                    chargeDram(st.name, scanBytes, false);
                }
            }

            const double A = accesses[t][lvl];
            if (A <= 0)
                continue;
            if (r.unit < 0) {
                if (!onChip)
                    chargeDram(st.name, A * r.payloadBytes, false);
                continue;
            }
            const auto u = static_cast<std::size_t>(r.unit);
            const ModelTables::UnitInfo& info = tables.units[u];
            if (r.absorbed) {
                // Order-free accumulator case: caches still pay the
                // port; buffets absorbed it in the eager fill.
                if (r.unitIsCache) {
                    if (ComponentActions* ca = comp(info.component))
                        ca->add("access_bytes", A * r.payloadBytes);
                }
                continue;
            }

            // Stateful storage-replay case.
            const double b =
                info.eager &&
                        info.boundLevel == static_cast<int>(lvl)
                    ? eagerBytes(t, lvl, info)
                    : r.payloadBytes;
            const double distinct =
                std::min(A, std::max(st.counts[lvl], 0.0));
            if (info.isCache) {
                cachePending.push_back({u, t, distinct, A, b});
                cacheFootprint[info.component] += distinct * b;
            } else {
                const double fills = std::min(
                    A, std::max(distinct,
                                distinct *
                                    revisitFactor(idxLoopsRunning,
                                                  info.evictLoop)));
                if (ComponentActions* ca = comp(info.component)) {
                    ca->add("access_bytes", A * b);
                    ca->add("fill_bytes", fills * b);
                }
                if (!info.onChipTensor)
                    chargeDram(st.name, fills * b, false);
                // Input buffets drop unwritten entries on drain: no
                // write-back traffic ("drop reads, drain writes").
            }
        }
    }

    for (const CachePending& cp : cachePending) {
        const ModelTables::UnitInfo& info = tables.units[cp.unit];
        const double fit = cacheFootprint[info.component];
        const double misses =
            fit <= info.cacheBytes ? cp.touched : cp.accessCount;
        if (ComponentActions* ca = comp(info.component)) {
            ca->add("access_bytes", cp.accessCount * cp.bytesPer);
            ca->add("fill_bytes", misses * cp.bytesPer);
        }
        if (!info.onChipTensor)
            chargeDram(inputs[cp.input].name, misses * cp.bytesPer,
                       false);
    }

    // -------------------------------------------------------- output
    {
        // Loops that partition the output key space: those binding an
        // output variable (directly or through their partition group).
        std::set<std::string> outVars(out.vars.begin(), out.vars.end());
        auto partitionsOutput = [&](const ir::LoopRank& lr) {
            for (const std::string& v : lr.bindsVars) {
                const std::string base = einsum::varOfRank(
                    baseOfDerived(einsum::rankOfVar(v)));
                if (outVars.count(v) || outVars.count(base))
                    return true;
            }
            // Upper partition ranks bind no variables, yet each of
            // their iterations covers a disjoint coordinate range of
            // the base rank — they partition the output whenever that
            // base rank indexes it (e.g. M1 over an output indexed by
            // m).
            if (lr.isUpperPartition &&
                outVars.count(
                    einsum::varOfRank(baseOfDerived(lr.name))))
                return true;
            return false;
        };
        double wrev = 1.0;
        int evict = -1;
        if (tables.outUnit >= 0)
            evict = tables.units[static_cast<std::size_t>(
                                     tables.outUnit)]
                        .evictLoop;
        if (evict >= 0) {
            for (int j = 0; j < evict && j < static_cast<int>(nloops);
                 ++j) {
                const auto& lr = plan.loops[static_cast<std::size_t>(j)];
                if (!partitionsOutput(lr))
                    wrev *= std::max(
                        1.0,
                        ls[static_cast<std::size_t>(j)].perEntryBody);
            }
        }

        if (leafIters > 0 && tables.outUnit >= 0) {
            const ModelTables::UnitInfo& info =
                tables.units[static_cast<std::size_t>(tables.outUnit)];
            const double b = tables.outLeafBytes;
            // A revisit loop drains the buffet between epochs, but a
            // point only re-drains if it is actually produced again in
            // a later epoch. The expected distinct productions per
            // epoch capture that: with few contributing reduced
            // coordinates per point almost nothing recurs, while a
            // dense re-walk degenerates to dOut * wrev.
            double outUni = 1.0;
            for (std::size_t lvl = 0; lvl < out.productionOrder.size();
                 ++lvl)
                outUni *=
                    std::max(static_cast<double>(out.shapes[lvl]), 1.0);
            const double epochs = std::max(wrev, 1.0);
            const double drained = std::min(
                std::max(epochs * expectedDistinct(leafIters / epochs,
                                                   outUni),
                         dOut),
                std::max(leafIters, dOut));
            if (ComponentActions* ca = comp(info.component)) {
                ca->add("access_bytes",
                        std::max(leafIters, drained) * b);
                ca->add("drain_bytes", drained * b);
            }
            const bool onChip = info.onChipTensor;
            if (!onChip) {
                chargeDram(out.name, dOut * b, true, false);
                if (drained > dOut) {
                    chargeDram(out.name, (drained - dOut) * b, true,
                               true);
                    // Re-drained partials re-fetch from DRAM first.
                    chargeDram(out.name, (drained - dOut) * b, false,
                               true);
                }
            }
        } else if (leafIters > 0 && !tables.outputOnChip) {
            const double b = tables.outLineBytes > 0
                                 ? tables.outLineBytes
                                 : tables.outLeafBytes;
            const double revisits = std::max(0.0, leafIters - dOut);
            chargeDram(out.name, dOut * b, true, false);
            if (revisits > 0) {
                chargeDram(out.name, revisits * b, false, true);
                chargeDram(out.name, revisits * b, true, true);
            }
        }
    }

    // ------------------------------------------------------ swizzles
    auto chargeSwizzle = [&](double elements, std::size_t ways) {
        if (tables.mergerName.empty()) {
            if (ComponentActions* seq = comp(tables.seqName))
                seq->add("swizzle_elems", elements);
            return;
        }
        ComponentActions* merger = comp(tables.mergerName);
        const double passes = std::max(
            1.0,
            std::ceil(std::log(static_cast<double>(
                          std::max<std::size_t>(ways, 2))) /
                      std::log(static_cast<double>(tables.mergerRadix))));
        merger->add("merge_elems", elements * passes);
        merger->add("swizzles", 1);
    };
    for (const ir::TensorPlan& tp : plan.inputs) {
        if (tp.swizzled && tp.swizzleOnline)
            chargeSwizzle(static_cast<double>(tp.swizzleElements),
                          tp.swizzleWays);
    }
    std::size_t outWays = 2;
    if (out.needsReorder && dOut > 0) {
        for (std::size_t lvl = 0; lvl < out.productionOrder.size();
             ++lvl) {
            if (lvl < out.declaredOrder.size() &&
                out.productionOrder[lvl] != out.declaredOrder[lvl]) {
                const double above =
                    lvl == 0 ? 1.0 : outCounts[lvl - 1];
                if (above > 0)
                    outWays = std::max<std::size_t>(
                        2, static_cast<std::size_t>(outCounts[lvl] /
                                                    above) +
                               1);
                break;
            }
        }
        chargeSwizzle(dOut, outWays);
    }

    // ------------------------------------------- produced statistics
    SymbolicTensor& prod = est.produced;
    prod.name = out.name;
    {
        std::vector<ft::RankInfo> pranks;
        std::vector<double> pcounts, pwindows;
        for (std::size_t lvl = 0; lvl < out.productionOrder.size();
             ++lvl) {
            pranks.push_back(
                {out.productionOrder[lvl], out.shapes[lvl], {}, {}});
            pcounts.push_back(std::max(outCounts[lvl], 0.0));
            pwindows.push_back(std::max(
                static_cast<double>(out.shapes[lvl]), 1.0));
        }
        if (pranks.empty()) {
            // Scalar output: model as a single unit rank.
            pranks.push_back({out.name, 1, {}, {}});
            pcounts.push_back(dOut);
            pwindows.push_back(1.0);
        }
        prod.ranks = std::move(pranks);
        prod.counts = std::move(pcounts);
        prod.windows = std::move(pwindows);
        if (out.needsReorder &&
            out.declaredOrder.size() == prod.ranks.size()) {
            bool resolvable = true;
            for (const std::string& id : out.declaredOrder)
                resolvable = resolvable && prod.rankLevel(id) >= 0;
            if (resolvable)
                prod = swizzle(prod, out.declaredOrder);
        }
        // Support containment for later Einsums of the cascade. An
        // intersection-style output (multiply/take/assign) is non-zero
        // only where *every* input is, so its support projects into
        // each input — and transitively into their supersets. A union
        // output only inherits supersets common to all inputs.
        if (plan.expr.kind == einsum::OpKind::Add) {
            bool first = true;
            std::set<std::string> common;
            for (const SymbolicTensor& st : inputs) {
                std::set<std::string> s = st.supersets;
                s.insert(st.name);
                if (first) {
                    common = std::move(s);
                    first = false;
                } else {
                    std::set<std::string> kept;
                    for (const std::string& n : common)
                        if (s.count(n))
                            kept.insert(n);
                    common = std::move(kept);
                }
            }
            prod.supersets = std::move(common);
        } else {
            for (const SymbolicTensor& st : inputs) {
                prod.supersets.insert(st.name);
                prod.supersets.insert(st.supersets.begin(),
                                      st.supersets.end());
            }
        }
    }

    return est;
}

} // namespace teaal::model::analytic
