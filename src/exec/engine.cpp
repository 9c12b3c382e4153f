#include "exec/engine.hpp"

#include <algorithm>
#include <limits>

#include "fibertree/transform.hpp"
#include "mapping/mapping.hpp"
#include "storage/packed.hpp"
#include "util/diagnostic.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace teaal::exec
{

namespace
{

/** Events between full cancellation checks — roughly one trace batch,
 *  so the poll amortizes against the flush the bus already does. */
constexpr std::size_t kCancelPollEvents = 1024;

double
opMul(double a, double b)
{
    return a * b;
}

double
opAdd(double a, double b)
{
    return a + b;
}

double
opMin(double a, double b)
{
    return a < b ? a : b;
}

double
opSelectRight(double a, double b)
{
    (void)a;
    return b;
}

double
opOr(double a, double b)
{
    return (a != 0.0 || b != 0.0) ? 1.0 : 0.0;
}

constexpr std::uint64_t kHashPrime = 1099511628211ULL;
constexpr ft::Coord kNoRange = -1;

/** Occupancy to pre-reserve in freshly materialized output fibers:
 *  enough to skip the first few regrowths without bloating fibers
 *  that stay tiny. */
constexpr std::size_t kOutputFiberReserve = 8;

/**
 * Merger "ways" estimate for swizzling a tensor of rank order @p ids
 * into @p target order, from its element counts by depth: the average
 * occupancy of the shallowest rank that moves deeper (the number of
 * sorted runs merged per output fiber).
 */
std::size_t
mergeWays(const std::vector<std::string>& ids,
          const std::vector<std::size_t>& counts,
          const std::vector<std::string>& target)
{
    for (std::size_t lvl = 0; lvl < ids.size(); ++lvl) {
        const auto npos = std::find(target.begin(), target.end(), ids[lvl]);
        if (npos == target.end())
            continue;
        const auto new_lvl =
            static_cast<std::size_t>(npos - target.begin());
        if (new_lvl > lvl) {
            const std::size_t above = lvl == 0
                                          ? 1
                                          : (counts.size() >= lvl
                                                 ? counts[lvl - 1]
                                                 : 1);
            if (above > 0 && counts.size() > lvl)
                return std::max<std::size_t>(2,
                                             counts[lvl] / above + 1);
            return 2;
        }
    }
    return 2;
}

} // namespace

Semiring
Semiring::arithmetic()
{
    return {opMul, opAdd, 1.0, 0.0};
}

Semiring
Semiring::minPlus()
{
    return {opAdd, opMin, 0.0, std::numeric_limits<double>::infinity()};
}

Semiring
Semiring::orSelect()
{
    return {opSelectRight, opOr, 1.0, 0.0};
}

Engine::Engine(const ir::EinsumPlan& plan, trace::Observer& obs,
               Semiring sr, const ExecOptions& opts)
    : plan_(plan), bus_(obs), sr_(sr), out_("_uninit", {"_"}, {1})
{
    buildIndexes(opts);
}

Engine::Engine(const ir::EinsumPlan& plan, trace::TraceLog& log,
               Semiring sr, const ExecOptions& opts)
    : plan_(plan), bus_(log), sr_(sr), out_("_uninit", {"_"}, {1})
{
    buildIndexes(opts);
}

void
Engine::buildIndexes(const ExecOptions& opts)
{
    cancel_ = opts.cancel;
    cancelArmed_ = cancel_.armed();

    // A co-iteration override naming a rank this plan does not loop
    // over would silently do nothing — surface it instead.
    for (const auto& [rank, strategy] : opts.coiterOverrides) {
        (void)strategy;
        const bool known = std::any_of(
            plan_.loops.begin(), plan_.loops.end(),
            [&rank](const ir::LoopRank& lr) { return lr.name == rank; });
        if (!known) {
            diagError("exec", rank,
                      "co-iteration override names rank '", rank,
                      "', which is not a loop rank of Einsum '",
                      plan_.output.name, "'");
        }
    }

    const std::size_t nloops = plan_.loops.size();
    coiter_.reserve(nloops);
    for (const ir::LoopRank& lr : plan_.loops) {
        const auto ov = opts.coiterOverrides.find(lr.name);
        coiter_.push_back(ov != opts.coiterOverrides.end()
                              ? ov->second
                              : lr.coiter);
    }
    driversAt_.resize(nloops);
    slicesAt_.resize(nloops);
    lookupsAt_.resize(nloops);
    outLevelsAt_.resize(nloops);
    loopVarSlots_.resize(nloops);

    auto intern = [this](const std::string& name) {
        for (std::size_t i = 0; i < varNames_.size(); ++i) {
            if (varNames_[i] == name)
                return static_cast<int>(i);
        }
        varNames_.push_back(name);
        varBase_.push_back(-1);
        return static_cast<int>(varNames_.size() - 1);
    };
    auto base_var_of = [](const std::string& var) {
        return einsum::varOfRank(
            mapping::baseOfDerived(einsum::rankOfVar(var)));
    };
    for (std::size_t l = 0; l < nloops; ++l) {
        for (const std::string& v : plan_.loops[l].bindsVars) {
            const int slot = intern(v);
            const std::string base = base_var_of(v);
            if (base != v)
                varBase_[static_cast<std::size_t>(slot)] = intern(base);
            loopVarSlots_[l].push_back(slot);
        }
    }

    preLookupsAt_.resize(nloops);
    for (std::size_t i = 0; i < plan_.inputs.size(); ++i) {
        const auto& actions = plan_.inputs[i].actions;
        for (std::size_t ai = 0; ai < actions.size(); ++ai) {
            const ir::LevelAction& a = actions[ai];
            const auto loop = static_cast<std::size_t>(a.loopIndex);
            TEAAL_ASSERT(loop < nloops, "action loop out of range");
            switch (a.mode) {
              case ir::LevelAction::Mode::CoIterate:
                driversAt_[loop].push_back({static_cast<int>(i), &a});
                break;
              case ir::LevelAction::Mode::Slice:
                slicesAt_[loop].push_back({static_cast<int>(i), &a});
                break;
              case ir::LevelAction::Mode::Lookup: {
                // A lookup can fire on loop *entry* when none of its
                // variables binds at this loop and its parent level
                // was descended at an earlier loop (e.g. the constant
                // plane selectors of the FFT step).
                bool var_binds_here = false;
                for (const std::string& v : a.expr.vars) {
                    const auto it = plan_.varBoundAt.find(v);
                    if (it != plan_.varBoundAt.end() &&
                        it->second == a.loopIndex)
                        var_binds_here = true;
                }
                bool parent_ready = true;
                if (ai > 0 && actions[ai - 1].loopIndex == a.loopIndex)
                    parent_ready = false;
                if (!var_binds_here && parent_ready)
                    preLookupsAt_[loop].push_back(
                        {static_cast<int>(i), &a});
                else
                    lookupsAt_[loop].push_back(
                        {static_cast<int>(i), &a});
                break;
              }
            }
        }
    }
    for (std::size_t lvl = 0; lvl < plan_.output.boundAtLoop.size();
         ++lvl) {
        const auto loop =
            static_cast<std::size_t>(plan_.output.boundAtLoop[lvl]);
        outLevelsAt_[loop].push_back(lvl);
        outVarSlots_.push_back(intern(plan_.output.vars[lvl]));
    }

    // Pre-resolve lookup expression variables to slots.
    lookupSlots_.resize(nloops);
    preLookupSlots_.resize(nloops);
    for (std::size_t l = 0; l < nloops; ++l) {
        for (const ActionRef& ar : lookupsAt_[l]) {
            std::vector<int> slots;
            for (const std::string& v : ar.action->expr.vars)
                slots.push_back(intern(v));
            lookupSlots_[l].push_back(std::move(slots));
        }
        for (const ActionRef& ar : preLookupsAt_[l]) {
            std::vector<int> slots;
            for (const std::string& v : ar.action->expr.vars)
                slots.push_back(intern(v));
            preLookupSlots_[l].push_back(std::move(slots));
        }
    }

    varValues_.assign(varNames_.size(), 0);
}

void
Engine::cancelCheckpoint(std::size_t loop)
{
    nextCancelPoll_ = bus_.eventCount() + kCancelPollEvents;
    const util::CancelReason r = cancel_.state();
    if (r == util::CancelReason::None)
        return;
    std::string position = "einsum '" + plan_.output.name + "'";
    if (loop < plan_.loops.size())
        position += ", loop rank '" + plan_.loops[loop].name + "'";
    cancel_.raise(r, position);
}

ft::Coord
Engine::evalExpr(const ir::LevelAction& a,
                 const std::vector<int>& slots) const
{
    ft::Coord value = a.expr.offset;
    for (const int slot : slots)
        value += varValues_[static_cast<std::size_t>(slot)];
    (void)a;
    return value;
}

void
Engine::beginRun(bool announce_swizzles)
{
    // Fresh output tensor in production order.
    scalarOutput_ = plan_.output.productionOrder.empty();
    if (scalarOutput_) {
        out_ = ft::Tensor(plan_.output.name, {"_S"}, {1});
    } else {
        out_ = ft::Tensor(plan_.output.name, plan_.output.productionOrder,
                          plan_.output.shapes);
    }
    outCoord_.assign(out_.numRanks(), 0);
    outMaterialized_.assign(out_.numRanks(), -1);
    outFiberAt_.assign(out_.numRanks(), nullptr);
    outHashAt_.assign(out_.numRanks(), 0);
    outFiberAt_[0] = out_.root().get();
    outPathValid_ = false;
    leafFiber_ = nullptr;

    // Fresh tensor cursors.
    states_.clear();
    for (const ir::TensorPlan& tp : plan_.inputs) {
        TensorState st;
        TEAAL_ASSERT(tp.packed != nullptr, "input '", tp.name,
                     "' has no packed store to walk");
        st.packed = tp.packed.get();
        const std::size_t nr = tp.ranks.size();
        st.view.assign(nr, ft::FiberView{});
        st.pending.assign(nr, {kNoRange, kNoRange});
        st.view[0] = st.packed->rootView();
        st.validDepth = 1;
        states_.push_back(std::move(st));
        if (tp.swizzled && announce_swizzles) {
            bus_.swizzle(tp.name, tp.swizzleElements, tp.swizzleWays,
                         tp.swizzleOnline);
        }
    }

    scratch_.assign(plan_.loops.size(), Scratch{});
}

void
Engine::emitSwizzleAnnouncements()
{
    for (const ir::TensorPlan& tp : plan_.inputs) {
        if (tp.swizzled) {
            bus_.swizzle(tp.name, tp.swizzleElements, tp.swizzleWays,
                         tp.swizzleOnline);
        }
    }
}

ft::Tensor
Engine::finishOutput(ft::Tensor produced)
{
    if (!plan_.output.productionOrder.empty() &&
        plan_.output.needsReorder) {
        std::vector<std::size_t> counts;
        if (produced.root())
            produced.root()->elementCountsByDepth(counts);
        const std::size_t ways = mergeWays(
            produced.rankIds(), counts, plan_.output.declaredOrder);
        bus_.swizzle(plan_.output.name, produced.nnz(), ways, true);
        produced = ft::swizzle(produced, plan_.output.declaredOrder);
    }
    bus_.flush();
    return produced;
}

ft::Tensor
Engine::finishReordered(ft::Tensor reordered, std::size_t nnz,
                        const std::vector<std::size_t>& counts)
{
    bus_.swizzle(plan_.output.name, nnz,
                 mergeWays(plan_.output.productionOrder, counts,
                           plan_.output.declaredOrder),
                 true);
    bus_.flush();
    return reordered;
}

void
Engine::replayTrace(const trace::TraceLog& log)
{
    bus_.replay(log);
}

ft::Tensor
Engine::run()
{
    // Whole-tensor copy (P1 = P0) bypasses the loop nest.
    if (plan_.wholeTensorCopy) {
        const ir::TensorPlan& src = plan_.inputs[0];
        ft::Tensor out = src.packed->toTensor();
        out.setName(plan_.output.name);
        bus_.tensorCopy(src.name, plan_.output.name, out.nnz());
        bus_.flush();
        stats_.outputWrites += out.nnz();
        return out;
    }

    beginRun(/*announce_swizzles=*/true);

    runLoop(0, 0);

    return finishOutput(std::move(out_));
}

void
Engine::runLoop(std::size_t loop, std::uint64_t pe)
{
    if (loop == plan_.loops.size()) {
        leafCompute(pe);
        return;
    }

    const bool skip = applyPreLookups(loop, pe);

    if (!skip) {
        if (driversAt_[loop].empty())
            denseDrive(loop, pe);
        else
            walk(loop, pe);
    }

    undoPreLookups(loop);
}

bool
Engine::applyPreLookups(std::size_t loop, std::uint64_t pe)
{
    // Loop-entry lookups (constant / already-bound indices).
    std::vector<PreUndo>& undo = scratch_[loop].preUndo;
    undo.clear();
    bool skip = false;
    for (std::size_t li = 0; li < preLookupsAt_[loop].size(); ++li) {
        const ActionRef& ar = preLookupsAt_[loop][li];
        TensorState& st = states_[static_cast<std::size_t>(ar.input)];
        PreUndo u{ar.input, st.validDepth, st.leaf,    st.leafValid,
                  st.absent, {},            false,      -1};
        const int level = ar.action->level;
        if (level + 1 < static_cast<int>(st.view.size())) {
            u.childLevel = level + 1;
            u.childView =
                st.view[static_cast<std::size_t>(level) + 1];
            u.hadChild = true;
        }
        undo.push_back(u);
        if (st.absent)
            continue;
        TEAAL_ASSERT(st.validDepth > level,
                     "pre-lookup into an undescended level");
        const ft::Coord target =
            evalExpr(*ar.action, preLookupSlots_[loop][li]);
        const ft::FiberView view =
            st.view[static_cast<std::size_t>(level)];
        bus_.coordScan(ar.input, static_cast<std::size_t>(level), 1);
        const auto found = view.find(target);
        if (!found) {
            if (plan_.unionCombine) {
                st.absent = true;
                st.leafValid = false;
                continue;
            }
            skip = true;
            break;
        }
        readAndDescend(ar.input, level, *found, target, pe);
    }
    return skip;
}

void
Engine::undoPreLookups(std::size_t loop)
{
    std::vector<PreUndo>& undo = scratch_[loop].preUndo;
    for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
        TensorState& st = states_[static_cast<std::size_t>(it->input)];
        st.validDepth = it->validDepth;
        st.leaf = it->leaf;
        st.leafValid = it->leafValid;
        st.absent = it->absent;
        if (it->hadChild) {
            st.view[static_cast<std::size_t>(it->childLevel)] =
                it->childView;
        }
    }
    undo.clear();
}

std::uint64_t
Engine::nextPe(const ir::LoopRank& lr, ft::Coord c, std::size_t ordinal,
               std::uint64_t pe) const
{
    if (!lr.isSpace)
        return pe;
    const std::uint64_t pos =
        lr.coordSpace
            ? static_cast<std::uint64_t>(c) % lr.spaceExtent
            : std::min<std::uint64_t>(ordinal, lr.spaceExtent - 1);
    return pe * lr.spaceExtent + pos;
}

ft::Coord
Engine::rangeEnd(const ir::LoopRank& lr, ft::Coord c,
                 const std::vector<ft::FiberView>& views,
                 const std::vector<std::size_t>& pos,
                 const std::vector<bool>& present) const
{
    if (!lr.isUpperPartition)
        return kNoRange;
    if (lr.rangeTile > 0)
        return c + lr.rangeTile;
    ft::Coord end = std::numeric_limits<ft::Coord>::max();
    for (std::size_t d = 0; d < views.size(); ++d) {
        if (present[d] && pos[d] + 1 < views[d].hi) {
            end = std::min(end, views[d].coordAt(pos[d] + 1));
            break;
        }
    }
    return end;
}

template <typename Sink>
WalkCounts
Engine::denseCore(std::size_t loop, Sink&& sink)
{
    const ir::LoopRank& lr = plan_.loops[loop];
    TEAAL_ASSERT(lr.denseExtent > 0, "rank '", lr.name,
                 "' has neither driver nor dense extent");
    const ft::Coord limit = lr.probeOnly ? 1 : lr.denseExtent;
    std::size_t processed = 0;
    for (ft::Coord c = 0; c < limit; ++c) {
        sink(c, kNoRange, processed);
        ++processed;
    }
    WalkCounts wc;
    wc.steps = static_cast<std::size_t>(limit);
    wc.matches = processed;
    return wc;
}

void
Engine::denseDrive(std::size_t loop, std::uint64_t pe)
{
    const ir::LoopRank& lr = plan_.loops[loop];
    const WalkCounts wc = denseCore(
        loop, [&](ft::Coord c, ft::Coord range_end, std::size_t ordinal) {
            atCoordinate(loop, c, range_end, {}, {},
                         nextPe(lr, c, ordinal, pe));
            return true;
        });
    bus_.coIterate(wc.steps, wc.matches, 0, pe);
    bus_.walkEnd();
    pollCancel(loop);
}

template <typename Sink>
WalkCounts
Engine::walkCore(std::size_t loop, Sink&& sink)
{
    const ir::LoopRank& lr = plan_.loops[loop];
    const auto& drivers = driversAt_[loop];
    const std::size_t nd = drivers.size();

    // Collect the current view of every driver (scratch reuse keeps
    // this allocation-free on the hot path).
    Scratch& scratch = scratch_[loop];
    auto& views = scratch.views;
    auto& pos = scratch.pos;
    views.assign(nd, ft::FiberView{});
    pos.assign(nd, 0);
    for (std::size_t d = 0; d < nd; ++d) {
        const TensorState& st =
            states_[static_cast<std::size_t>(drivers[d].input)];
        const int level = drivers[d].action->level;
        if (st.absent || st.validDepth <= level) {
            // Absent in union mode: empty view.
            TEAAL_ASSERT(plan_.unionCombine || st.absent == false,
                         "driver view missing at rank '", lr.name, "'");
            views[d] = ft::FiberView{};
        } else {
            views[d] = st.view[static_cast<std::size_t>(level)];
        }
        // A window that matched nothing keeps its position (lo == hi,
        // possibly > 0): the merges must not start before it.
        pos[d] = views[d].lo;
    }

    auto& scans = scratch.scans;
    auto& present = scratch.present;
    scans.assign(nd, 0);
    present.assign(nd, false);

    const bool unite = plan_.unionCombine;
    std::size_t produced = 0;

    // The per-coordinate body shared by every strategy: pos[]/present
    // describe the drivers at coordinate c.
    auto body = [&](ft::Coord c) {
        const ft::Coord range_end = rangeEnd(lr, c, views, pos, present);
        const bool keep_going = sink(c, range_end, produced);
        ++produced;
        return keep_going;
    };

    WalkCounts wc;
    // Plan-time choice (with any ExecOptions override) first;
    // TwoFinger keeps the historical runtime leader-follower escape
    // for heavily skewed fiber pairs.
    const CoiterStrategy strategy = coiter_[loop];
    const bool force_dense =
        strategy == CoiterStrategy::DenseDrive && !unite;
    int lead = -1;
    if (!unite && nd == 2 && !force_dense) {
        if (strategy == CoiterStrategy::Gallop)
            lead = views[0].size() <= views[1].size() ? 0 : 1;
        else if (strategy == CoiterStrategy::TwoFinger)
            lead = gallopLeader(views, unite);
    }

    if (unite) {
        wc = unionMergeN(views, pos, scans, present, body);
    } else if (lead >= 0) {
        const std::size_t lo = static_cast<std::size_t>(lead);
        const std::size_t hi = 1 - lo;
        present.assign(nd, true);
        wc = gallopIntersect(
            views[lo], views[hi], scans[lo], scans[hi],
            [&](ft::Coord c, std::size_t pl, std::size_t pb) {
                pos[lo] = pl;
                pos[hi] = pb;
                // Historical escape semantics: the range end of upper
                // partition ranks comes from the *leader's* next
                // element.
                ft::Coord range_end = kNoRange;
                if (lr.isUpperPartition) {
                    range_end =
                        lr.rangeTile > 0
                            ? c + lr.rangeTile
                            : (pl + 1 < views[lo].hi
                                   ? views[lo].coordAt(pl + 1)
                                   : std::numeric_limits<
                                         ft::Coord>::max());
                }
                const bool keep_going = sink(c, range_end, produced);
                ++produced;
                return keep_going;
            });
    } else if (force_dense) {
        // Dense coordinate drive over co-iterated fibers: probe every
        // driver per coordinate (never the planner's pick for sparse
        // drivers; selectable for dense data, tests, and benches).
        ft::Coord extent = lr.denseExtent;
        for (std::size_t d = 0; d < nd; ++d)
            extent = std::max(extent, views[d].shape());
        wc = denseProbe(views, extent, unite, pos, scans, present, body);
    } else {
        present.assign(nd, true);
        wc = intersectTwoFinger(views, pos, scans, body);
    }
    return wc;
}

void
Engine::walk(std::size_t loop, std::uint64_t pe)
{
    const ir::LoopRank& lr = plan_.loops[loop];
    Scratch& scratch = scratch_[loop];
    const WalkCounts wc = walkCore(
        loop, [&](ft::Coord c, ft::Coord range_end, std::size_t ordinal) {
            atCoordinate(loop, c, range_end, scratch.pos,
                         scratch.present, nextPe(lr, c, ordinal, pe));
            return !lr.probeOnly;
        });
    const auto& drivers = driversAt_[loop];
    bus_.coIterate(wc.steps, wc.matches, drivers.size(), pe);
    for (std::size_t d = 0; d < drivers.size(); ++d) {
        bus_.coordScan(drivers[d].input,
                       static_cast<std::size_t>(
                           drivers[d].action->level),
                       scratch.scans[d]);
    }
    bus_.walkEnd();
    TEAAL_FAILPOINT("exec.engine.walk");
    pollCancel(loop);
}

double
Engine::entryWeight(std::size_t loop) const
{
    double w = 1.0;
    const auto& facts = plan_.shard.loops;
    if (loop >= facts.size())
        return w;
    const std::vector<double>& factors = facts[loop].driverWeight;
    const auto& drivers = driversAt_[loop];
    const Scratch& s = scratch_[loop];
    for (std::size_t d = 0; d < drivers.size(); ++d) {
        if (!s.present[d])
            continue;
        const auto input = static_cast<std::size_t>(drivers[d].input);
        const double factor =
            input < factors.size() ? factors[input] : 0.0;
        if (factor <= 0.0)
            continue;
        const TensorState& st = states_[input];
        const int level = drivers[d].action->level;
        double child = 1.0;
        if (static_cast<std::size_t>(level) + 1 < st.view.size()) {
            child = static_cast<double>(
                st.packed
                    ->childView(static_cast<std::size_t>(level), s.pos[d])
                    .size());
        }
        w += child * factor;
    }
    return w;
}

void
Engine::enumerateTop(TopWalk& tw, std::size_t depth)
{
    TEAAL_ASSERT(depth < plan_.loops.size(), "enumerateTop: split loop ",
                 depth, " is outside the loop nest");
    tw = TopWalk{};
    tw.depth = depth;
    tw.drivers = driversAt_[depth].size();
    tw.levels.resize(depth);
    enumerated_ = 0;
    bus_.setMuted(true);
    tw.topSkipped = applyPreLookups(0, 0);
    if (!tw.topSkipped)
        tw.top = enumerateLoop(tw, 0, TopWalk::kRoot, 0);
    undoPreLookups(0);
    bus_.setMuted(false);
}

TopWalk::Summary
Engine::enumerateLoop(TopWalk& tw, std::size_t loop, std::size_t parent,
                      std::uint64_t pe)
{
    const ir::LoopRank& lr = plan_.loops[loop];
    const std::size_t nd = driversAt_[loop].size();
    Scratch& s = scratch_[loop];
    std::size_t matches = 0;
    auto record = [&](ft::Coord c, ft::Coord range_end,
                      std::size_t ordinal) {
        // The muted bus counts nothing, so the cancel poll keys off
        // the recorded coordinates instead.
        if (cancelArmed_ && (enumerated_++ & 0x3ff) == 0)
            cancelCheckpoint(loop);
        ++matches;
        const TopWalk::Entry e{c, range_end, nextPe(lr, c, ordinal, pe)};
        if (loop == tw.depth) {
            tw.entries.push_back(e);
            tw.key.push_back(lr.unpackStrides.empty()
                                 ? c
                                 : (c / lr.unpackStrides[0]) %
                                       lr.unpackShapes[0]);
            for (std::size_t d = 0; d < nd; ++d) {
                tw.pos.push_back(s.pos[d]);
                tw.present.push_back(s.present[d] ? 1 : 0);
            }
            tw.weight.push_back(entryWeight(loop));
            if (loop > 0) {
                tw.ownerLevel.push_back(loop - 1);
                tw.owner.push_back(parent);
            }
            return !lr.probeOnly;
        }
        // A prefix node: re-derive what the serial walk does at this
        // coordinate, recording the walk below it. Recursion only
        // appends to deeper levels, so this level's list stays put.
        TopWalk::Level& lv = tw.levels[loop];
        const std::size_t idx = lv.nodes.size();
        for (std::size_t d = 0; d < nd; ++d) {
            lv.pos.push_back(s.pos[d]);
            lv.present.push_back(s.present[d] ? 1 : 0);
        }
        TopWalk::Node node;
        node.e = e;
        node.parent = parent;
        node.firstUnit = tw.entries.size();
        node.entered =
            atCoordinateEnter(loop, c, range_end, s.pos, s.present, e.pe);
        if (node.entered) {
            node.walked = !applyPreLookups(loop + 1, e.pe);
            if (node.walked)
                node.below = enumerateLoop(tw, loop + 1, idx, e.pe);
            undoPreLookups(loop + 1);
        }
        atCoordinateExit(loop);
        node.units = tw.entries.size() - node.firstUnit;
        if (node.units == 0) {
            // Barren node: one placeholder unit keeps its enter events
            // — and, when it walked, its empty-walk summary —
            // schedulable.
            node.barren = true;
            node.units = 1;
            tw.entries.push_back(e);
            tw.key.push_back(0);
            tw.pos.insert(tw.pos.end(), tw.drivers, 0);
            tw.present.insert(tw.present.end(), tw.drivers, 0);
            tw.weight.push_back(1.0);
            tw.ownerLevel.push_back(loop);
            tw.owner.push_back(idx);
        }
        lv.nodes.push_back(std::move(node));
        return !lr.probeOnly;
    };
    const WalkCounts wc =
        nd == 0 ? denseCore(loop, record) : walkCore(loop, record);
    const auto& facts = plan_.shard.loops;
    if (matches >= 2 &&
        (loop >= facts.size() || facts[loop].restrictsContraction))
        tw.collides = true;
    TopWalk::Summary sum;
    sum.steps = wc.steps;
    sum.matches = wc.matches;
    sum.scans.assign(s.scans.begin(),
                     s.scans.begin() + static_cast<std::ptrdiff_t>(nd));
    return sum;
}

bool
Engine::enterTop(bool emit)
{
    open_.clear();
    bus_.setMuted(!emit);
    const bool skipped = applyPreLookups(0, 0);
    bus_.setMuted(false);
    return skipped;
}

void
Engine::beginShard()
{
    beginRun(/*announce_swizzles=*/false);
    TEAAL_ASSERT(!enterTop(/*emit=*/false),
                 "beginShard: loop-0 pre-lookups diverged from "
                 "enumeration");
}

void
Engine::openNode(const TopWalk& tw, std::size_t level, std::size_t i,
                 std::size_t u)
{
    const TopWalk::Level& lv = tw.levels[level];
    const TopWalk::Node& node = lv.nodes[i];
    const bool own = u == node.firstUnit;
    if (!own)
        bus_.setMuted(true);
    const std::size_t nd = driversAt_[level].size();
    unitPos_.assign(nd, 0);
    unitPresent_.assign(nd, false);
    for (std::size_t d = 0; d < nd; ++d) {
        unitPos_[d] = lv.pos[i * nd + d];
        unitPresent_[d] = lv.present[i * nd + d] != 0;
    }
    const bool entered =
        atCoordinateEnter(level, node.e.c, node.e.rangeEnd, unitPos_,
                          unitPresent_, node.e.pe);
    TEAAL_ASSERT(entered == node.entered,
                 "split walk diverged from enumeration at loop ", level,
                 " coordinate ", node.e.c);
    if (entered) {
        const bool skip = applyPreLookups(level + 1, node.e.pe);
        TEAAL_ASSERT(skip != node.walked,
                     "split walk pre-lookups diverged at loop ", level + 1,
                     " below coordinate ", node.e.c);
    }
    if (!own)
        bus_.setMuted(false);
    open_.push_back({i, entered});
}

void
Engine::closeNode()
{
    const std::size_t level = open_.size() - 1;
    if (open_.back().entered)
        undoPreLookups(level + 1);
    atCoordinateExit(level);
    open_.pop_back();
}

void
Engine::executeUnit(const TopWalk& tw, std::size_t u)
{
    bool placeholder = false;
    if (tw.depth > 0) {
        // Move the open prefix to this unit's owner: keep the shared
        // ancestors, close the rest, open the new nodes.
        const std::size_t owner_level = tw.ownerLevel[u];
        chain_.resize(owner_level + 1);
        std::size_t idx = tw.owner[u];
        for (std::size_t l = owner_level + 1; l-- > 0;) {
            chain_[l] = idx;
            idx = tw.levels[l].nodes[idx].parent;
        }
        std::size_t keep = 0;
        while (keep < open_.size() && keep <= owner_level &&
               open_[keep].node == chain_[keep])
            ++keep;
        while (open_.size() > keep)
            closeNode();
        for (std::size_t l = keep; l <= owner_level; ++l)
            openNode(tw, l, chain_[l], u);
        placeholder = tw.placeholder(u);
    }
    if (!placeholder) {
        const std::size_t nd = tw.drivers;
        const TopWalk::Entry& e = tw.entries[u];
        unitPos_.assign(nd, 0);
        unitPresent_.assign(nd, false);
        for (std::size_t d = 0; d < nd; ++d) {
            unitPos_[d] = tw.pos[u * nd + d];
            unitPresent_[d] = tw.present[u * nd + d] != 0;
        }
        atCoordinate(tw.depth, e.c, e.rangeEnd, unitPos_, unitPresent_,
                     e.pe);
    }
    // The last unit of a node owns the summary of the walk below it
    // (emitted by the serial walk after its merge loop) and the state
    // unwind, deepest node first.
    while (!open_.empty()) {
        const std::size_t level = open_.size() - 1;
        const TopWalk::Node& node = tw.levels[level].nodes[open_.back().node];
        if (u + 1 != node.firstUnit + node.units)
            break;
        if (node.walked)
            emitWalkSummary(level + 1, node.below, node.e.pe);
        closeNode();
    }
    pollCancel(tw.depth);
}

void
Engine::finishShard()
{
    while (!open_.empty())
        closeNode();
    bus_.flush();
}

void
Engine::captureInto(trace::TraceLog& log)
{
    bus_.capture(log);
    // The bus restarted its event count: re-arm the cancel poll so the
    // first walk boundary of this log checks.
    nextCancelPoll_ = 0;
}

void
Engine::emitWalkSummary(std::size_t loop, const TopWalk::Summary& sum,
                        std::uint64_t pe)
{
    const auto& drivers = driversAt_[loop];
    TEAAL_ASSERT(drivers.size() == sum.scans.size(),
                 "walk summary driver count mismatch at loop ", loop);
    bus_.coIterate(sum.steps, sum.matches, drivers.size(), pe);
    for (std::size_t d = 0; d < drivers.size(); ++d) {
        bus_.coordScan(drivers[d].input,
                       static_cast<std::size_t>(drivers[d].action->level),
                       sum.scans[d]);
    }
    bus_.walkEnd();
}

void
Engine::emitTopSummary(const TopWalk& tw)
{
    emitWalkSummary(0, tw.top, 0);
}

bool
Engine::atCoordinate(std::size_t loop, ft::Coord c, ft::Coord range_end,
                     const std::vector<std::size_t>& driver_pos,
                     const std::vector<bool>& driver_present,
                     std::uint64_t pe)
{
    const bool ok = atCoordinateEnter(loop, c, range_end, driver_pos,
                                      driver_present, pe);
    if (ok)
        runLoop(loop + 1, pe);
    atCoordinateExit(loop);
    return ok;
}

bool
Engine::atCoordinateEnter(std::size_t loop, ft::Coord c,
                          ft::Coord range_end,
                          const std::vector<std::size_t>& driver_pos,
                          const std::vector<bool>& driver_present,
                          std::uint64_t pe)
{
    const ir::LoopRank& lr = plan_.loops[loop];
    bus_.loopEnter(loop, c);

    // ------------------------------------------------- undo records
    Scratch& scratch = scratch_[loop];
    auto& view_undo = scratch.viewUndo;
    auto& state_undo = scratch.stateUndo;
    view_undo.clear();
    state_undo.clear();

    auto save_state = [&](int input) {
        TensorState& st = states_[static_cast<std::size_t>(input)];
        state_undo.push_back(
            {input, st.validDepth, st.leaf, st.leafValid, st.absent});
    };
    auto save_view = [&](int input, int level) {
        TensorState& st = states_[static_cast<std::size_t>(input)];
        view_undo.push_back(
            {input, level, st.view[static_cast<std::size_t>(level)],
             st.pending[static_cast<std::size_t>(level)]});
    };
    // --------------------------------------------------- bind vars
    auto& saved_vars = scratch.savedVars;
    auto& saved_slots = scratch.savedSlots;
    saved_vars.clear();
    saved_slots.clear();
    auto bind_var = [&](int slot, ft::Coord value) {
        saved_slots.push_back(slot);
        saved_vars.push_back(varValues_[static_cast<std::size_t>(slot)]);
        varValues_[static_cast<std::size_t>(slot)] = value;
        const int base = varBase_[static_cast<std::size_t>(slot)];
        if (base >= 0) {
            saved_slots.push_back(base);
            saved_vars.push_back(
                varValues_[static_cast<std::size_t>(base)]);
            varValues_[static_cast<std::size_t>(base)] = value;
        }
    };
    if (!lr.unpackStrides.empty()) {
        for (std::size_t j = 0; j < loopVarSlots_[loop].size(); ++j) {
            const ft::Coord v =
                (c / lr.unpackStrides[j]) % lr.unpackShapes[j];
            bind_var(loopVarSlots_[loop][j], v);
        }
    } else {
        for (int slot : loopVarSlots_[loop])
            bind_var(slot, c);
    }
    // ------------------------------------------- descend the drivers
    const auto& drivers = driversAt_[loop];
    for (std::size_t d = 0; d < drivers.size(); ++d) {
        const int input = drivers[d].input;
        TensorState& st = states_[static_cast<std::size_t>(input)];
        save_state(input);
        if (!driver_present.empty() && !driver_present[d]) {
            st.absent = true;
            st.leafValid = false;
            continue;
        }
        const int level = drivers[d].action->level;
        if (level + 1 < static_cast<int>(st.view.size()))
            save_view(input, level + 1);
        readAndDescend(input, level, driver_pos[d], c, pe);
    }

    // -------------------------------------------------- apply slices
    for (const ActionRef& ar : slicesAt_[loop]) {
        TensorState& st = states_[static_cast<std::size_t>(ar.input)];
        const int level = ar.action->level;
        const ft::Coord lo = c;
        const ft::Coord hi =
            range_end == kNoRange
                ? std::numeric_limits<ft::Coord>::max()
                : range_end;
        save_view(ar.input, level);
        st.pending[static_cast<std::size_t>(level)] = {lo, hi};
        if (st.validDepth > level) {
            st.view[static_cast<std::size_t>(level)] =
                st.view[static_cast<std::size_t>(level)].range(lo, hi);
        }
    }

    // ------------------------------------------------------ lookups
    bool skip = false;
    for (std::size_t li = 0; li < lookupsAt_[loop].size(); ++li) {
        const ActionRef& ar = lookupsAt_[loop][li];
        const int input = ar.input;
        TensorState& st = states_[static_cast<std::size_t>(input)];
        if (st.absent)
            continue;
        const int level = ar.action->level;
        TEAAL_ASSERT(st.validDepth > level,
                     "lookup into an undescended level of ",
                     plan_.inputs[static_cast<std::size_t>(input)].name);
        const ft::Coord target =
            evalExpr(*ar.action, lookupSlots_[loop][li]);
        const ft::FiberView view =
            st.view[static_cast<std::size_t>(level)];
        bus_.coordScan(input, static_cast<std::size_t>(level), 1);
        const auto found = view.find(target);
        if (!found) {
            if (plan_.unionCombine) {
                save_state(input);
                st.absent = true;
                st.leafValid = false;
                continue;
            }
            skip = true;
            break;
        }
        save_state(input);
        if (level + 1 < static_cast<int>(st.view.size()))
            save_view(input, level + 1);
        readAndDescend(input, level, *found, target, pe);
    }

    if (!skip) {
        // ------------------------------------------- output descend
        for (std::size_t lvl : outLevelsAt_[loop]) {
            const ft::Coord oc = varValues_[static_cast<std::size_t>(
                outVarSlots_[lvl])];
            descendOutput(lvl, oc, pe);
        }
    }
    return !skip;
}

void
Engine::atCoordinateExit(std::size_t loop)
{
    Scratch& scratch = scratch_[loop];
    for (std::size_t i = scratch.savedSlots.size(); i-- > 0;) {
        varValues_[static_cast<std::size_t>(scratch.savedSlots[i])] =
            scratch.savedVars[i];
    }
    for (auto it = scratch.viewUndo.rbegin();
         it != scratch.viewUndo.rend(); ++it) {
        TensorState& st = states_[static_cast<std::size_t>(it->input)];
        st.view[static_cast<std::size_t>(it->level)] = it->view;
        st.pending[static_cast<std::size_t>(it->level)] = it->pending;
    }
    for (auto it = scratch.stateUndo.rbegin();
         it != scratch.stateUndo.rend(); ++it) {
        TensorState& st = states_[static_cast<std::size_t>(it->input)];
        st.validDepth = it->validDepth;
        st.leaf = it->leaf;
        st.leafValid = it->leafValid;
        st.absent = it->absent;
    }
}

void
Engine::readAndDescend(int input, int level, std::size_t pos,
                       ft::Coord reported_c, std::uint64_t pe)
{
    const TensorState& st = states_[static_cast<std::size_t>(input)];
    const std::string& name =
        plan_.inputs[static_cast<std::size_t>(input)].name;
    bus_.tensorAccess(
        input, name, static_cast<std::size_t>(level), reported_c,
        st.packed->payloadKey(static_cast<std::size_t>(level), pos),
        st.packed, pos, pe);
    descend(input, level, pos);
}

void
Engine::descend(int input, int level, std::size_t pos)
{
    TensorState& st = states_[static_cast<std::size_t>(input)];
    const std::size_t nr = st.view.size();
    if (static_cast<std::size_t>(level) + 1 == nr) {
        st.leaf = st.packed->leafValue(pos);
        st.leafValid = true;
        st.validDepth = level + 1;
        return;
    }
    ft::FiberView view =
        st.packed->childView(static_cast<std::size_t>(level), pos);
    const auto& pending = st.pending[static_cast<std::size_t>(level) + 1];
    if (pending.first != kNoRange)
        view = view.range(pending.first, pending.second);
    st.view[static_cast<std::size_t>(level) + 1] = view;
    st.validDepth = level + 2;
    st.leafValid = false;
}

void
Engine::descendOutput(std::size_t level, ft::Coord c, std::uint64_t pe)
{
    (void)pe;
    TEAAL_ASSERT(level < outCoord_.size(), "output level out of range");
    // Binding only: the path materializes at the first leaf write, so
    // skipped points never create empty output fibers.
    if (outCoord_[level] != c || outMaterialized_[level] != c)
        outPathValid_ = false;
    outCoord_[level] = c;
}

void
Engine::materializeOutputPath(std::uint64_t pe)
{
    std::uint64_t hash = 14695981039346656037ULL;
    const std::size_t depth = out_.numRanks();
    // Resume below the deepest interior prefix whose coordinates are
    // unchanged since the last materialization: repeated writes under
    // the same output row skip the per-level searches entirely.
    std::size_t level = 0;
    while (level + 1 < depth && outMaterialized_[level] == outCoord_[level]
           && outFiberAt_[level + 1] != nullptr) {
        hash = outHashAt_[level];
        ++level;
    }
    ft::Fiber* fiber = outFiberAt_[level];
    for (; level + 1 < depth; ++level) {
        const ft::Coord c = outCoord_[level];
        hash = (hash ^ static_cast<std::uint64_t>(c)) * kHashPrime;
        bool inserted = false;
        const std::size_t pos = fiber->getOrInsertPos(c, inserted);
        ft::Payload& p = fiber->payloadAt(pos);
        if (inserted) {
            bus_.outputWrite(plan_.output.name, level, c, hash, true,
                             false, pe);
        }
        if (!p.isFiber() || p.fiber() == nullptr) {
            auto child = std::make_shared<ft::Fiber>(
                out_.rank(level + 1).shape);
            child->reserve(kOutputFiberReserve);
            p.setFiber(std::move(child));
        }
        outMaterialized_[level] = c;
        outHashAt_[level] = hash;
        fiber = p.fiber().get();
        outFiberAt_[level + 1] = fiber;
        // Deeper memo entries described the previous prefix.
        for (std::size_t l = level + 1; l + 1 < depth; ++l)
            outFiberAt_[l + 1] = nullptr;
    }
    const ft::Coord c = outCoord_[depth - 1];
    hash = (hash ^ static_cast<std::uint64_t>(c)) * kHashPrime;
    bool inserted = false;
    leafPos_ = fiber->getOrInsertPos(c, inserted);
    leafFresh_ = inserted;
    leafFiber_ = fiber;
    leafCoord_ = c;
    leafHash_ = hash;
    outMaterialized_[depth - 1] = c;
    outPathValid_ = true;
}

void
Engine::leafCompute(std::uint64_t pe)
{
    ++stats_.leafVisits;
    const einsum::OpKind kind = plan_.expr.kind;

    double value = 0.0;
    std::size_t muls = 0;
    std::size_t adds = 0;

    switch (kind) {
      case einsum::OpKind::Multiply: {
        value = sr_.multIdentity;
        bool first = true;
        for (const TensorState& st : states_) {
            TEAAL_ASSERT(st.leafValid && !st.absent,
                         "operand not at leaf in product");
            value = first ? st.leaf : sr_.multiply(value, st.leaf);
            if (!first)
                ++muls;
            first = false;
        }
        break;
      }
      case einsum::OpKind::Take: {
        const auto arg = static_cast<std::size_t>(plan_.expr.takeArg);
        TEAAL_ASSERT(states_[arg].leafValid, "take operand not at leaf");
        value = states_[arg].leaf;
        break;
      }
      case einsum::OpKind::Assign: {
        TEAAL_ASSERT(states_[0].leafValid, "operand not at leaf");
        value = states_[0].leaf;
        break;
      }
      case einsum::OpKind::Add: {
        bool negative = false;
        for (int s : plan_.expr.signs)
            negative |= s < 0;
        bool first = true;
        for (std::size_t i = 0; i < states_.size(); ++i) {
            const TensorState& st = states_[i];
            if (st.absent || !st.leafValid)
                continue;
            const double term =
                negative ? plan_.expr.signs[i] * st.leaf : st.leaf;
            if (first) {
                value = term;
                first = false;
            } else {
                value = negative ? value + term : sr_.add(value, term);
                ++adds;
            }
        }
        if (first)
            return; // nothing present
        break;
      }
    }

    // Reduce into the output leaf (materializing the path lazily so
    // skipped points never created empty fibers).
    if (!outPathValid_)
        materializeOutputPath(pe);
    TEAAL_ASSERT(leafFiber_ != nullptr, "output leaf not bound");
    ft::Payload& leaf = leafFiber_->payloadAt(leafPos_);
    // The first write of any kind consumes the leaf's freshness; it
    // rides on the write record as the first-write bit.
    const bool first = leafFresh_;
    leafFresh_ = false;
    if (kind == einsum::OpKind::Take || first) {
        leaf.setValue(value); // take: idempotent copy
    } else {
        leaf.setValue(sr_.add(leaf.value(), value));
        ++adds;
    }

    ++stats_.outputWrites;
    stats_.computeMuls += muls;
    stats_.computeAdds += adds;
    if (muls > 0)
        bus_.compute('m', pe, muls);
    if (adds > 0)
        bus_.compute('a', pe, adds);
    bus_.outputWrite(plan_.output.name, out_.numRanks() - 1, leafCoord_,
                     leafHash_, first, true, pe);
}

} // namespace teaal::exec
