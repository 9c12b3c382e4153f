/**
 * @file
 * The simulator generator, split into the two stages of the
 * compile-once / run-many pipeline (paper §4.2-§4.3):
 *
 *   analyzeEinsum    spec-only: resolve the loop order, partitioning
 *                    groups, probe ranks, spacetime, and the output's
 *                    declared storage order; surface specification
 *                    inconsistencies before any data exists.
 *   instantiatePlan  bind a recipe to packed rank stores: prepare
 *                    (partition/flatten/swizzle) each input on packed
 *                    buffers, derive rank shapes and dense extents,
 *                    and select co-iteration strategies from
 *                    occupancy hints.
 *
 * instantiatePlan runs the recipe traversal (instantiateWith) on the
 * trace tier's packed stores; the analytic tier runs the same
 * traversal on tensor statistics (ir/instantiate.hpp). buildPlan
 * composes the two stages for white-box tests; the pipeline
 * (compiler::CompiledModel) caches recipes at compile time and
 * instantiated plans per workload.
 */
#include <algorithm>
#include <cctype>
#include <functional>
#include <set>
#include <sstream>

#include "ir/instantiate.hpp"
#include "ir/plan.hpp"

#include "storage/packed.hpp"
#include "storage/transform.hpp"
#include "util/diagnostic.hpp"
#include "util/error.hpp"
#include "util/string_utils.hpp"

namespace teaal::ir
{

namespace
{

using einsum::IndexExpr;
using einsum::TensorRef;
using mapping::baseOfDerived;
using mapping::PartitionDirective;
using mapping::RankPartitioning;

std::vector<RecipeGroup>
analyzeGroups(const mapping::EinsumMapping& em, const std::string& text)
{
    std::vector<RecipeGroup> out;
    for (const RankPartitioning& g : em.partitioning) {
        RecipeGroup info;
        info.sourceRanks = g.sourceRanks;
        info.base = g.baseRank();
        info.results = g.resultRanks();
        for (const PartitionDirective& d : g.directives) {
            if (d.kind == PartitionDirective::Kind::Flatten) {
                info.hasFlatten = true;
            } else {
                info.splits.push_back(d);
                if (d.kind == PartitionDirective::Kind::UniformOccupancy) {
                    info.occupancy = true;
                    if (!info.leader.empty() && info.leader != d.leader)
                        specError("einsum '", text, "': partitioning of '",
                                  info.base, "': conflicting leaders '",
                                  info.leader, "' and '", d.leader, "'");
                    info.leader = d.leader;
                }
            }
        }
        out.push_back(std::move(info));
    }
    return out;
}

/** Declared-rank position of @p rank_id in @p decl (SpecError if absent). */
std::size_t
declPosition(const std::vector<std::string>& decl,
             const std::string& rank_id, const std::string& tensor)
{
    for (std::size_t i = 0; i < decl.size(); ++i) {
        if (decl[i] == rank_id)
            return i;
    }
    specError("tensor '", tensor, "' has no declared rank '", rank_id,
              "'");
}

/** Find a loop index by rank name; -1 if absent. */
int
loopIndexOf(const std::vector<std::string>& loop_order,
            const std::string& rank)
{
    for (std::size_t i = 0; i < loop_order.size(); ++i) {
        if (loop_order[i] == rank)
            return static_cast<int>(i);
    }
    return -1;
}

/**
 * Occupancy skew above which a 2-driver intersection plans the
 * galloping strategy: the sparse driver leads and binary-search leaps
 * skip runs of the dense driver, so the walk stops paying for the
 * dense fiber's length.
 */
constexpr double kGallopSkewThreshold = 32.0;

/**
 * Target rank order that makes @p components adjacent, in order, at
 * the position of their first occurrence; other ranks keep their
 * relative order. Needed before flattening.
 */
std::vector<std::string>
adjacentOrder(const std::vector<std::string>& ids,
              const std::vector<std::string>& components)
{
    std::size_t first = ids.size();
    for (std::size_t i = 0; i < ids.size(); ++i) {
        if (std::find(components.begin(), components.end(), ids[i]) !=
            components.end()) {
            first = std::min(first, i);
        }
    }
    std::vector<std::string> target;
    for (std::size_t i = 0; i < ids.size(); ++i) {
        if (i == first) {
            for (const std::string& c : components)
                target.push_back(c);
        }
        if (std::find(components.begin(), components.end(), ids[i]) ==
            components.end()) {
            target.push_back(ids[i]);
        }
    }
    return target;
}

std::vector<std::string>
rankIdsOf(const std::vector<ft::RankInfo>& ranks)
{
    std::vector<std::string> ids;
    ids.reserve(ranks.size());
    for (const ft::RankInfo& ri : ranks)
        ids.push_back(ri.id);
    return ids;
}

/**
 * What a partitioning group does to a tensor with ranks @p ranks:
 * transforms it (flatten/split applied in place), dynamically follows
 * it (occupancy non-leader: Slice actions, no transform), or leaves it
 * alone: the single source of truth for group applicability.
 */
enum class GroupEffect
{
    None,
    Transform,
    Follow,
};

GroupEffect
groupEffect(const RecipeGroup& g, const std::vector<ft::RankInfo>& ranks,
            const std::string& tensor_name)
{
    const auto has_rank = [&ranks](const std::string& r) {
        return std::any_of(ranks.begin(), ranks.end(),
                           [&r](const ft::RankInfo& ri) {
                               return ri.id == r;
                           });
    };
    if (g.hasFlatten) {
        // All constituents present: the tensor is swizzled-adjacent,
        // flattened, and split. Partial constituents use lookups at
        // the flattened rank instead (no transform).
        return std::all_of(g.sourceRanks.begin(), g.sourceRanks.end(),
                           has_rank)
                   ? GroupEffect::Transform
                   : GroupEffect::None;
    }
    if (!has_rank(g.base))
        return GroupEffect::None;
    if (!g.occupancy || g.leader == tensor_name)
        return GroupEffect::Transform;
    return GroupEffect::Follow;
}

/**
 * Apply the split directives of @p info to @p t (rank @p info.base),
 * producing ranks named info.results top-down.
 */
void
applySplits(PlanInput& t, const RecipeGroup& info)
{
    const std::size_t k = info.splits.size();
    for (std::size_t i = 0; i < k; ++i) {
        const std::string upper = info.results[i];
        const std::string lower =
            i + 1 == k ? info.results[k] : info.base;
        const PartitionDirective& d = info.splits[i];
        if (d.kind == PartitionDirective::Kind::UniformShape)
            t.splitByShape(info.base, d.tile, upper, lower);
        else
            t.splitByOccupancy(info.base, d.chunk, upper, lower);
    }
}

} // namespace

const char*
coiterStrategyName(CoiterStrategy s)
{
    switch (s) {
      case CoiterStrategy::TwoFinger:
        return "2finger";
      case CoiterStrategy::Gallop:
        return "gallop";
      case CoiterStrategy::DenseDrive:
        return "dense";
    }
    return "?";
}

const char*
packedWalkName(PackedWalk w)
{
    switch (w) {
      case PackedWalk::None:
        return "";
      case PackedWalk::Coords:
        return "coords";
      case PackedWalk::DenseImplicit:
        return "implicit";
      case PackedWalk::BitmapProbe:
        return "bitmap";
    }
    return "?";
}

std::vector<std::string>
TensorPlan::rankIds() const
{
    return rankIdsOf(ranks);
}

int
TensorPlan::rankLevel(const std::string& id) const
{
    for (std::size_t i = 0; i < ranks.size(); ++i) {
        if (ranks[i].id == id)
            return static_cast<int>(i);
    }
    return -1;
}

std::string
EinsumPlan::toString() const
{
    std::ostringstream oss;
    oss << "plan for: " << expr.toString() << "\n";
    oss << "  loops:";
    for (const LoopRank& l : loops) {
        oss << " " << l.name;
        if (l.isSpace)
            oss << "(space)";
        if (l.isUpperPartition)
            oss << "(range)";
        if (l.coiter != CoiterStrategy::TwoFinger)
            oss << "(" << coiterStrategyName(l.coiter) << ")";
        // Coordinate-array walks are the default for packed drivers.
        if (l.packedWalk != PackedWalk::None &&
            l.packedWalk != PackedWalk::Coords)
            oss << "(" << packedWalkName(l.packedWalk) << ")";
    }
    oss << "\n";
    for (const TensorPlan& tp : inputs) {
        oss << "  " << tp.name << " [" << join(tp.rankIds(), ", ") << "]";
        if (tp.swizzled)
            oss << (tp.swizzleOnline ? " online-swizzle" : " swizzled");
        oss << ":";
        for (const LevelAction& a : tp.actions) {
            const char* mode = a.mode == LevelAction::Mode::CoIterate
                                   ? "co"
                                   : (a.mode == LevelAction::Mode::Slice
                                          ? "slice"
                                          : "lookup");
            oss << " L" << a.loopIndex << ":" << mode << "@" << a.level;
        }
        oss << "\n";
    }
    oss << "  output " << output.name << " produces ["
        << join(output.productionOrder, ", ") << "] stored ["
        << join(output.declaredOrder, ", ") << "]"
        << (output.needsReorder ? " (reorder)" : "") << "\n";
    return oss.str();
}

EinsumRecipe
analyzeEinsum(const einsum::Expression& expr,
              const einsum::EinsumSpec& spec,
              const mapping::MappingSpec& map)
{
    EinsumRecipe recipe;
    recipe.expr = expr;
    recipe.unionCombine = expr.kind == einsum::OpKind::Add;

    // Whole-tensor copy (P1 = P0) bypasses the loop nest entirely.
    if (expr.kind == einsum::OpKind::Assign && expr.output.indices.empty()) {
        recipe.wholeTensorCopy = true;
        return recipe;
    }

    const mapping::EinsumMapping& em = map.einsum(expr.output.name);
    recipe.groups = analyzeGroups(em, expr.text);

    // ------------------------------------------------------ loop order
    recipe.loopOrder = em.loopOrder;
    if (recipe.loopOrder.empty()) {
        // Default: iteration variables in Einsum order, expanding
        // partition groups at their first constituent.
        std::vector<const RecipeGroup*> emitted;
        for (const std::string& var : expr.iterationVars()) {
            const std::string rank = einsum::rankOfVar(var);
            const RecipeGroup* owner = nullptr;
            for (const RecipeGroup& g : recipe.groups) {
                const auto& src = g.sourceRanks;
                if (std::find(src.begin(), src.end(), rank) != src.end() ||
                    g.base == rank) {
                    owner = &g;
                    break;
                }
            }
            if (owner == nullptr) {
                recipe.loopOrder.push_back(rank);
            } else if (std::find(emitted.begin(), emitted.end(), owner) ==
                       emitted.end()) {
                for (const std::string& r : owner->results)
                    recipe.loopOrder.push_back(r);
                emitted.push_back(owner);
            }
        }
    }

    // -------------------------------------------- probe ranks (take)
    // Take ranks private to the non-copied operand become probes.
    if (expr.kind == einsum::OpKind::Take) {
        const TensorRef& other = expr.inputs[1 - expr.takeArg];
        const TensorRef& copied = expr.inputs[expr.takeArg];
        const auto copied_vars = copied.varNames();
        const auto out_vars = expr.outputVars();
        for (const std::string& v : other.varNames()) {
            const bool in_copied =
                std::find(copied_vars.begin(), copied_vars.end(), v) !=
                copied_vars.end();
            const bool in_out =
                std::find(out_vars.begin(), out_vars.end(), v) !=
                out_vars.end();
            if (!in_copied && !in_out)
                recipe.probeVars.push_back(v);
        }
    }

    // ------------------------------------------------------ spacetime
    for (const mapping::SpaceTimeEntry& e : em.space) {
        if (loopIndexOf(recipe.loopOrder, e.rank) < 0)
            specError("einsum '", expr.text, "': space rank '", e.rank,
                      "' is not in the loop order");
        recipe.space.push_back(e);
    }

    // ------------------------------------------ output storage order
    const auto odecl_it = spec.declaration.find(expr.output.name);
    if (odecl_it == spec.declaration.end())
        diagError("einsum", expr.output.name, "einsum '", expr.text,
                  "': undeclared output '", expr.output.name, "'");
    recipe.outputDeclaredOrder = map.hasRankOrder(expr.output.name)
                                     ? map.rankOrder(expr.output.name)
                                     : odecl_it->second;

    return recipe;
}

EinsumPlan
instantiateWith(const EinsumRecipe& recipe, const einsum::EinsumSpec& spec,
                const std::vector<std::string>& intermediates,
                PlanTensors& tensors)
{
    const einsum::Expression& expr = recipe.expr;

    EinsumPlan plan;
    plan.expr = expr;
    plan.unionCombine = recipe.unionCombine;

    if (recipe.wholeTensorCopy) {
        plan.wholeTensorCopy = true;
        TensorPlan tp;
        tp.name = expr.inputs[0].name;
        tp.exprInput = 0;
        tensors.open(tp.name, expr)->finish(tp);
        plan.inputs.push_back(std::move(tp));
        plan.output.name = expr.output.name;
        return plan;
    }

    const std::vector<RecipeGroup>& groups = recipe.groups;
    const std::vector<std::string>& loop_order = recipe.loopOrder;

    // ---------------------------------------------------- rank shapes
    // Shape of each base rank, taken from every live declared tensor
    // (a rank's shape may only be discoverable from a tensor used by
    // a *different* Einsum of the cascade, e.g. Toeplitz S from F).
    std::map<std::string, ft::Coord> rank_shape;
    for (const auto& [name, decl] : spec.declaration) {
        const std::vector<ft::RankInfo>* ranks = tensors.ranksOf(name);
        if (ranks == nullptr)
            continue;
        for (const ft::RankInfo& ri : *ranks) {
            if (std::find(decl.begin(), decl.end(), ri.id) != decl.end())
                rank_shape[ri.id] =
                    std::max(rank_shape[ri.id], ri.shape);
        }
    }

    // Shape of each iteration variable's rank. The visiting set guards
    // against mutually-underconstrained affine shapes (T[q,s]=I[q+s]
    // with neither Q nor S known elsewhere).
    std::set<std::string> shape_visiting;
    std::function<ft::Coord(const std::string&)> var_shape =
        [&](const std::string& var) -> ft::Coord {
        if (!shape_visiting.insert(var).second)
            specError("einsum '", expr.text, "': the shapes of '", var,
                      "' and its affine partners are underconstrained");
        struct Eraser
        {
            std::set<std::string>& set;
            const std::string& var;
            ~Eraser() { set.erase(var); }
        } eraser{shape_visiting, var};
        std::string rank = einsum::rankOfVar(var);
        auto it = rank_shape.find(rank);
        if (it != rank_shape.end())
            return it->second;
        // Derived ranks (K0) inherit the nearest declared ancestor's
        // shape: digits come off one at a time, since a declared rank
        // may itself end in one (the FFT's N1).
        while (!rank.empty() &&
               std::isdigit(static_cast<unsigned char>(rank.back()))) {
            rank.pop_back();
            it = rank_shape.find(rank);
            if (it != rank_shape.end())
                return it->second;
        }
        // Affine derivation (e.g. conv Q): find an input slot whose
        // expression mentions var together with others.
        for (const TensorRef& in : expr.inputs) {
            const auto decl_it = spec.declaration.find(in.name);
            if (decl_it == spec.declaration.end())
                continue;
            for (std::size_t slot = 0; slot < in.indices.size(); ++slot) {
                const IndexExpr& ie = in.indices[slot];
                const auto found =
                    std::find(ie.vars.begin(), ie.vars.end(), var);
                if (found == ie.vars.end() || ie.vars.size() < 2)
                    continue;
                const auto sit =
                    rank_shape.find(decl_it->second[slot]);
                if (sit == rank_shape.end())
                    continue;
                ft::Coord shape = sit->second;
                for (const std::string& other : ie.vars) {
                    if (other != var)
                        shape -= var_shape(other) - 1;
                }
                return std::max<ft::Coord>(shape, 0);
            }
        }
        specError("einsum '", expr.text, "': cannot derive the shape of '",
                  var, "'");
    };

    // -------------------------------------------- loop rank metadata
    for (const std::string& name : loop_order) {
        LoopRank lr;
        lr.name = name;

        // Owning partition group, if any.
        const RecipeGroup* owner = nullptr;
        std::size_t pos_in_results = 0;
        for (const RecipeGroup& g : groups) {
            const auto it =
                std::find(g.results.begin(), g.results.end(), name);
            if (it != g.results.end()) {
                owner = &g;
                pos_in_results =
                    static_cast<std::size_t>(it - g.results.begin());
                break;
            }
        }

        auto bind_rank_vars = [&](const std::string& rank) {
            // A rank binds its base variable; flattened ranks bind one
            // variable per constituent with unpack strides. The rank
            // may have been produced by a *different* group's flatten
            // (SIGMA: occupancy on MK0, flattened by its own group).
            const RecipeGroup* g = nullptr;
            for (const RecipeGroup& cand : groups) {
                if (cand.hasFlatten && cand.base == rank)
                    g = &cand;
            }
            if (g != nullptr) {
                ft::Coord stride = 1;
                std::vector<ft::Coord> strides, shapes;
                std::vector<std::string> vars;
                const auto& src = g->sourceRanks;
                for (auto it = src.rbegin(); it != src.rend(); ++it) {
                    const std::string comp_base = baseOfDerived(*it);
                    const ft::Coord shape =
                        var_shape(einsum::varOfRank(comp_base));
                    strides.push_back(stride);
                    shapes.push_back(shape);
                    vars.push_back(einsum::varOfRank(comp_base));
                    stride *= shape;
                }
                std::reverse(strides.begin(), strides.end());
                std::reverse(shapes.begin(), shapes.end());
                std::reverse(vars.begin(), vars.end());
                lr.bindsVars = vars;
                lr.unpackStrides = strides;
                lr.unpackShapes = shapes;
            } else {
                lr.bindsVars = {einsum::varOfRank(rank)};
            }
        };

        if (owner == nullptr) {
            // Plain base rank.
            bind_rank_vars(name);
            lr.spaceExtent = static_cast<std::size_t>(
                std::max<ft::Coord>(var_shape(lr.bindsVars[0]), 1));
        } else if (pos_in_results + 1 == owner->results.size()) {
            // Group leaf: binds the base variables.
            bind_rank_vars(owner->base);
            if (!owner->splits.empty()) {
                const PartitionDirective& last = owner->splits.back();
                lr.spaceExtent =
                    last.kind == PartitionDirective::Kind::UniformShape
                        ? static_cast<std::size_t>(last.tile)
                        : last.chunk;
            } else {
                lr.spaceExtent = 1u << 20;
            }
        } else {
            // Upper partition rank: binds a coordinate range.
            lr.isUpperPartition = true;
            const PartitionDirective& d = owner->splits[pos_in_results];
            if (d.kind == PartitionDirective::Kind::UniformShape)
                lr.rangeTile = d.tile;
            // Extent = positions this rank can take inside its parent
            // tile: size(parent split) / size(this split). The topmost
            // rank's partition count is data-dependent (large cap).
            auto size_of = [](const PartitionDirective& dd) {
                return dd.kind == PartitionDirective::Kind::UniformShape
                           ? static_cast<std::size_t>(dd.tile)
                           : dd.chunk;
            };
            if (pos_in_results == 0) {
                lr.spaceExtent = 1u << 20;
            } else {
                const std::size_t above =
                    size_of(owner->splits[pos_in_results - 1]);
                const std::size_t mine = size_of(d);
                lr.spaceExtent =
                    mine > 0 ? std::max<std::size_t>(above / mine, 1)
                             : 1;
            }
        }

        // Probe-only ranks (take).
        for (const std::string& v : lr.bindsVars) {
            if (std::find(recipe.probeVars.begin(),
                          recipe.probeVars.end(),
                          v) != recipe.probeVars.end())
                lr.probeOnly = true;
        }

        plan.loops.push_back(std::move(lr));
    }

    // Variable binding points.
    for (std::size_t i = 0; i < plan.loops.size(); ++i) {
        for (const std::string& v : plan.loops[i].bindsVars) {
            plan.varBoundAt[v] = static_cast<int>(i);
            // Derived leaf ranks also bind their base variable (the
            // coordinates are absolute), e.g. K0 binds both k0 and k.
            const std::string base_var = einsum::varOfRank(
                baseOfDerived(einsum::rankOfVar(v)));
            if (base_var != v && !plan.varBoundAt.count(base_var))
                plan.varBoundAt[base_var] = static_cast<int>(i);
        }
    }
    // Leaf split ranks named e.g. K0 bind variable "k0"; expression
    // slots use "k". Register the base var for every group leaf.
    for (std::size_t i = 0; i < plan.loops.size(); ++i) {
        const LoopRank& lr = plan.loops[i];
        if (lr.isUpperPartition)
            continue;
        for (const std::string& v : lr.bindsVars) {
            const std::string base =
                einsum::varOfRank(baseOfDerived(einsum::rankOfVar(v)));
            if (!plan.varBoundAt.count(base))
                plan.varBoundAt[base] = static_cast<int>(i);
        }
    }

    // Spacetime flags (validated at analysis time).
    for (const mapping::SpaceTimeEntry& e : recipe.space) {
        const int idx = loopIndexOf(loop_order, e.rank);
        TEAAL_ASSERT(idx >= 0, "space rank '", e.rank,
                     "' vanished from the loop order");
        plan.loops[static_cast<std::size_t>(idx)].isSpace = true;
        plan.loops[static_cast<std::size_t>(idx)].coordSpace =
            e.coordSpace;
    }

    // ------------------------------------------------ input tensors
    /// An action to assign to one tensor level, keyed by rank id first
    /// (levels shift after the concordance swizzle).
    struct PendingAction
    {
        std::string rankId;
        LevelAction::Mode mode;
        int loopIndex;
        IndexExpr expr;
    };

    for (std::size_t slot = 0; slot < expr.inputs.size(); ++slot) {
        const TensorRef& ref = expr.inputs[slot];
        const std::unique_ptr<PlanInput> in = tensors.open(ref.name, expr);
        const auto decl_it = spec.declaration.find(ref.name);
        if (decl_it == spec.declaration.end())
            specError("einsum '", expr.text, "': undeclared tensor '",
                      ref.name, "'");
        const std::vector<std::string>& decl = decl_it->second;

        TensorPlan tp;
        tp.name = ref.name;
        tp.exprInput = static_cast<int>(slot);

        // Assign an action to every level of @p ranks_in (the
        // post-transform rank order), given the dynamic-follower groups
        // of this tensor.
        auto compute_pending =
            [&](const std::vector<ft::RankInfo>& ranks_in,
                const std::vector<const RecipeGroup*>& follower_of)
            -> std::vector<PendingAction> {
            std::vector<PendingAction> pending;
            for (const ft::RankInfo& ri : ranks_in) {
                const std::string& rid = ri.id;
                const int direct = loopIndexOf(loop_order, rid);
                if (direct >= 0) {
                    pending.push_back({rid, LevelAction::Mode::CoIterate,
                                       direct, {}});
                    continue;
                }
                // Dynamic follower base rank?
                const RecipeGroup* follow = nullptr;
                for (const RecipeGroup* g : follower_of) {
                    if (g->base == rid)
                        follow = g;
                }
                if (follow != nullptr) {
                    for (std::size_t i = 0;
                         i + 1 < follow->results.size(); ++i) {
                        const int idx =
                            loopIndexOf(loop_order, follow->results[i]);
                        if (idx < 0)
                            specError("einsum '", expr.text, "': rank '",
                                      follow->results[i],
                                      "' missing from the loop order");
                        pending.push_back(
                            {rid, LevelAction::Mode::Slice, idx, {}});
                    }
                    const int leaf =
                        loopIndexOf(loop_order, follow->results.back());
                    if (leaf < 0)
                        specError("einsum '", expr.text, "': rank '",
                                  follow->results.back(),
                                  "' missing from the loop order");
                    pending.push_back(
                        {rid, LevelAction::Mode::CoIterate, leaf, {}});
                    continue;
                }
                // Lookup: resolve the expression slot via the declared
                // rank — exact id first (real rank names may end in
                // digits, e.g. the FFT's N1), then the digit-stripped
                // base of partition-derived names.
                std::size_t dpos;
                if (std::find(decl.begin(), decl.end(), rid) !=
                    decl.end()) {
                    dpos = declPosition(decl, rid, ref.name);
                } else {
                    dpos =
                        declPosition(decl, baseOfDerived(rid), ref.name);
                }
                IndexExpr ie = ref.indices.empty()
                                   ? IndexExpr{}
                                   : ref.indices[dpos];
                int trigger = 0;
                for (const std::string& v : ie.vars) {
                    const auto bit = plan.varBoundAt.find(v);
                    if (bit == plan.varBoundAt.end())
                        specError("einsum '", expr.text,
                                  "': variable '", v, "' used by ",
                                  ref.name,
                                  " is never bound by the loop order");
                    trigger = std::max(trigger, bit->second);
                }
                pending.push_back({rid, LevelAction::Mode::Lookup,
                                   trigger, std::move(ie)});
            }
            // Lookups cannot fire before their tree parents are
            // descended, so clamp them to the running maximum in
            // level order. CoIterate loop indices come from the loop
            // order and are never clamped: the concordance swizzle
            // reorders the tree instead (e.g. MTTKRP's B[j,r]
            // traversed [R, J]).
            int running = -1;
            for (PendingAction& pa : pending) {
                if (pa.mode == LevelAction::Mode::Slice)
                    continue;
                if (pa.mode == LevelAction::Mode::Lookup)
                    pa.loopIndex = std::max(pa.loopIndex, running);
                running = std::max(running, pa.loopIndex);
            }
            return pending;
        };

        // Concordant order: non-slice actions sorted by (loopIndex,
        // original level) — the rank order the walked tree must have
        // (§3.2.2). Stable sort keeps ties in tree order.
        auto required_of =
            [](const std::vector<PendingAction>& pending) {
                std::vector<const PendingAction*> nav;
                for (const PendingAction& pa : pending) {
                    if (pa.mode != LevelAction::Mode::Slice)
                        nav.push_back(&pa);
                }
                std::stable_sort(nav.begin(), nav.end(),
                                 [](const PendingAction* a,
                                    const PendingAction* b) {
                                     return a->loopIndex < b->loopIndex;
                                 });
                std::vector<std::string> required;
                for (const PendingAction* pa : nav)
                    required.push_back(pa->rankId);
                return required;
            };

        // Dynamic-follower groups for this tensor.
        std::vector<const RecipeGroup*> follower_of;

        // Apply partitioning groups in order.
        for (const RecipeGroup& g : groups) {
            switch (groupEffect(g, in->ranks(), ref.name)) {
              case GroupEffect::Transform:
                if (g.hasFlatten) {
                    const auto& src_ranks = g.sourceRanks;
                    const auto ids = rankIdsOf(in->ranks());
                    const auto target = adjacentOrder(ids, src_ranks);
                    if (target != ids)
                        in->swizzle(target);
                    // Flatten pairwise left-to-right.
                    std::string upper = src_ranks[0];
                    for (std::size_t i = 1; i < src_ranks.size(); ++i) {
                        in->flatten(upper, src_ranks[i]);
                        upper += src_ranks[i];
                    }
                    TEAAL_ASSERT(upper == g.base, "flatten naming");
                }
                applySplits(*in, g);
                break;
              case GroupEffect::Follow:
                follower_of.push_back(&g);
                break;
              case GroupEffect::None:
                // Flatten groups with only some constituents use
                // lookups at the flattened rank (handled below).
                break;
            }
        }

        const std::vector<PendingAction> pending =
            compute_pending(in->ranks(), follower_of);
        const std::vector<std::string> required = required_of(pending);
        const std::vector<std::string> old_ids = rankIdsOf(in->ranks());
        if (required != old_ids) {
            // Estimate merger "ways" before destroying the old order:
            // occupancy of the shallowest rank moving deeper.
            std::size_t ways = 2;
            const std::vector<double> occupancy = in->hints();
            for (std::size_t lvl = 0; lvl < old_ids.size(); ++lvl) {
                const auto npos =
                    std::find(required.begin(), required.end(),
                              old_ids[lvl]);
                if (static_cast<std::size_t>(npos - required.begin()) >
                    lvl) {
                    ways = std::max<std::size_t>(
                        2, static_cast<std::size_t>(occupancy[lvl]) + 1);
                    break;
                }
            }
            tp.swizzled = true;
            tp.swizzleOnline =
                std::find(intermediates.begin(), intermediates.end(),
                          ref.name) != intermediates.end();
            tp.swizzleElements = in->elements();
            tp.swizzleWays = ways;
            in->swizzle(required);
        }

        // Strategy selection and the shard work weights read these.
        tp.occupancy = in->hints();
        in->finish(tp);

        // Materialize final actions with post-swizzle levels.
        for (const PendingAction& pa : pending) {
            LevelAction a;
            a.mode = pa.mode;
            a.loopIndex = pa.loopIndex;
            a.expr = pa.expr;
            const int lvl = tp.rankLevel(pa.rankId);
            TEAAL_ASSERT(lvl >= 0, "rank '", pa.rankId,
                         "' lost during preparation of ", ref.name);
            a.level = lvl;
            tp.actions.push_back(std::move(a));
        }
        std::sort(tp.actions.begin(), tp.actions.end(),
                  [](const LevelAction& a, const LevelAction& b) {
                      if (a.loopIndex != b.loopIndex)
                          return a.loopIndex < b.loopIndex;
                      if (a.level != b.level)
                          return a.level < b.level;
                      // Slice before CoIterate at the same level.
                      return static_cast<int>(a.mode) >
                             static_cast<int>(b.mode);
                  });

        plan.inputs.push_back(std::move(tp));
    }

    // Dense extents and co-iteration strategies: ranks binding
    // variables with no co-iterating driver iterate the variable's
    // shape range (DenseDrive); intersections of two drivers with
    // strongly skewed occupancy hints plan the galloping walk.
    for (std::size_t i = 0; i < plan.loops.size(); ++i) {
        LoopRank& lr = plan.loops[i];
        std::vector<double> occupancies;
        for (std::size_t t = 0; t < plan.inputs.size(); ++t) {
            for (const LevelAction& a : plan.inputs[t].actions) {
                if (a.loopIndex == static_cast<int>(i) &&
                    a.mode == LevelAction::Mode::CoIterate) {
                    const auto lvl = static_cast<std::size_t>(a.level);
                    const std::vector<double>& hints =
                        plan.inputs[t].occupancy;
                    occupancies.push_back(
                        lvl < hints.size() ? hints[lvl] : 0.0);
                }
            }
        }
        if (occupancies.empty()) {
            if (lr.isUpperPartition)
                specError("einsum '", expr.text, "': partition rank '",
                          lr.name, "' has no driving tensor");
            TEAAL_ASSERT(!lr.bindsVars.empty(), "rank ", lr.name,
                         " binds nothing and drives nothing");
            lr.denseExtent = var_shape(lr.bindsVars[0]);
            lr.coiter = CoiterStrategy::DenseDrive;
            continue;
        }
        const double densest =
            *std::max_element(occupancies.begin(), occupancies.end());
        const double sparsest =
            *std::min_element(occupancies.begin(), occupancies.end());
        lr.driverSkew = sparsest > 0 ? densest / sparsest
                                     : (densest > 0 ? densest : 1.0);
        // Galloping only pays off for intersections (union must visit
        // every element of every driver anyway). Upper partition
        // ranks stay on two-finger: their range ends come from the
        // first driver's next coordinate, and gallop's leader-based
        // range end is not equivalent when the leader differs.
        if (!plan.unionCombine && occupancies.size() == 2 &&
            !lr.isUpperPartition &&
            lr.driverSkew >= kGallopSkewThreshold) {
            lr.coiter = CoiterStrategy::Gallop;
        }
    }

    // Packed-walk variants: for every loop rank with a packed driver,
    // record how its packed buffers are accessed, from the driver
    // level's declared format — gallop/two-finger over the raw
    // coordinate array (C), implicit-coordinate probes (U), bitmap
    // probes (B). Purely a host-side access note: `coiter` and the
    // charged counts are unchanged.
    for (std::size_t i = 0; i < plan.loops.size(); ++i) {
        LoopRank& lr = plan.loops[i];
        for (const TensorPlan& tp : plan.inputs) {
            if (tp.packed == nullptr)
                continue;
            for (const LevelAction& a : tp.actions) {
                if (a.loopIndex != static_cast<int>(i) ||
                    a.mode != LevelAction::Mode::CoIterate)
                    continue;
                PackedWalk w = PackedWalk::Coords;
                switch (tp.packed->levelType(
                    static_cast<std::size_t>(a.level))) {
                  case fmt::RankFormat::Type::U:
                    w = PackedWalk::DenseImplicit;
                    break;
                  case fmt::RankFormat::Type::B:
                    w = PackedWalk::BitmapProbe;
                    break;
                  case fmt::RankFormat::Type::C:
                    w = PackedWalk::Coords;
                    break;
                }
                if (static_cast<int>(w) >
                    static_cast<int>(lr.packedWalk))
                    lr.packedWalk = w;
            }
        }
    }

    // ------------------------------------------------------- output
    OutputPlan& out = plan.output;
    out.name = expr.output.name;
    const auto odecl_it = spec.declaration.find(out.name);
    TEAAL_ASSERT(odecl_it != spec.declaration.end(),
                 "undeclared output '", out.name, "'");
    const std::vector<std::string>& odecl = odecl_it->second;

    struct OutLevel
    {
        std::string rank;
        std::string var;
        int boundAt;
        int tieBreak;
    };
    std::vector<OutLevel> levels;
    for (std::size_t slot = 0; slot < expr.output.indices.size(); ++slot) {
        const std::string var = expr.output.indices[slot].vars[0];
        const auto bit = plan.varBoundAt.find(var);
        if (bit == plan.varBoundAt.end())
            specError("einsum '", expr.text, "': output variable '", var,
                      "' is never bound");
        const LoopRank& lr =
            plan.loops[static_cast<std::size_t>(bit->second)];
        int tie = 0;
        for (std::size_t i = 0; i < lr.bindsVars.size(); ++i) {
            if (lr.bindsVars[i] == var ||
                einsum::varOfRank(baseOfDerived(
                    einsum::rankOfVar(lr.bindsVars[i]))) == var)
                tie = static_cast<int>(i);
        }
        levels.push_back(
            {odecl[slot], var, bit->second, tie});
    }
    std::stable_sort(levels.begin(), levels.end(),
                     [](const OutLevel& a, const OutLevel& b) {
                         if (a.boundAt != b.boundAt)
                             return a.boundAt < b.boundAt;
                         return a.tieBreak < b.tieBreak;
                     });
    for (const OutLevel& l : levels) {
        out.productionOrder.push_back(l.rank);
        out.vars.push_back(l.var);
        out.boundAtLoop.push_back(l.boundAt);
        out.shapes.push_back(var_shape(l.var));
    }
    out.declaredOrder = recipe.outputDeclaredOrder;
    out.needsReorder = out.productionOrder != out.declaredOrder;
    return plan;
}

namespace
{

/**
 * One trace-tier input being prepared: a packed rank store, borrowed
 * until its first transform and owned from then on, so an input that
 * needs no preparation binds the caller's store with no copy. Every
 * transform runs on packed buffers (storage/transform.hpp).
 */
class PackedInput : public PlanInput
{
  public:
    explicit PackedInput(std::shared_ptr<const storage::PackedTensor> src)
        : src_(std::move(src))
    {
    }

    const std::vector<ft::RankInfo>&
    ranks() override
    {
        return get().ranks();
    }

    void
    swizzle(const std::vector<std::string>& order) override
    {
        work_ = storage::swizzle(get(), order);
        owned_ = true;
    }

    void
    flatten(const std::string& upper, const std::string& lower) override
    {
        work_ = storage::flattenRanks(take(), upper, lower);
    }

    void
    splitByShape(const std::string& rank, ft::Coord tile,
                 const std::string& upper,
                 const std::string& lower) override
    {
        work_ = storage::splitRankByShape(take(), rank, tile, upper, lower);
    }

    void
    splitByOccupancy(const std::string& rank, std::size_t chunk,
                     const std::string& upper,
                     const std::string& lower) override
    {
        work_ = storage::splitRankByOccupancy(take(), rank, chunk, upper,
                                              lower);
    }

    std::size_t elements() override { return get().nnz(); }

    std::vector<double> hints() override { return get().occupancyHints(); }

    void
    finish(TensorPlan& tp) override
    {
        tp.ranks = get().ranks();
        tp.packed = owned_ ? std::make_shared<const storage::PackedTensor>(
                                 std::move(work_))
                           : src_;
    }

  private:
    const storage::PackedTensor&
    get() const
    {
        return owned_ ? work_ : *src_;
    }

    /** The store to transform next: the owned one moves (its untouched
     *  levels carry over), a borrowed one is copied. */
    storage::PackedTensor
    take()
    {
        if (owned_)
            return std::move(work_);
        owned_ = true;
        return *src_;
    }

    std::shared_ptr<const storage::PackedTensor> src_;
    storage::PackedTensor work_;
    bool owned_ = false;
};

/** The trace tier's tensors: packed rank stores by name. */
class PackedTensors : public PlanTensors
{
  public:
    explicit PackedTensors(const PackedRefMap& tensors) : tensors_(tensors)
    {
    }

    const std::vector<ft::RankInfo>*
    ranksOf(const std::string& name) const override
    {
        const auto it = tensors_.find(name);
        return it != tensors_.end() ? &it->second->ranks() : nullptr;
    }

    std::unique_ptr<PlanInput>
    open(const std::string& name, const einsum::Expression& expr) override
    {
        const auto it = tensors_.find(name);
        if (it == tensors_.end())
            specError("einsum '", expr.text, "': tensor '", name,
                      "' has no data");
        return std::make_unique<PackedInput>(it->second);
    }

  private:
    const PackedRefMap& tensors_;
};

} // namespace

EinsumPlan
instantiatePlan(const EinsumRecipe& recipe, const einsum::EinsumSpec& spec,
                const PackedRefMap& tensors,
                const std::vector<std::string>& intermediates)
{
    PackedTensors source(tensors);
    EinsumPlan plan = instantiateWith(recipe, spec, intermediates, source);
    plan.shard = analyzeSharding(plan);
    return plan;
}

namespace
{

bool
inOutput(const std::vector<std::string>& out_vars, const std::string& v)
{
    return std::find(out_vars.begin(), out_vars.end(), v) !=
           out_vars.end();
}

/**
 * The variables loop @p idx of @p plan binds or — via the other loops
 * of its partition group (M1 restricts m, bound at M0) — restricts,
 * as base variables.
 */
std::vector<std::string>
loopGroupVars(const EinsumPlan& plan, std::size_t idx)
{
    const std::string base = baseOfDerived(plan.loops[idx].name);
    std::vector<std::string> vars;
    for (const LoopRank& lr : plan.loops) {
        if (baseOfDerived(lr.name) != base)
            continue;
        for (const std::string& v : lr.bindsVars) {
            const std::string bv = einsum::varOfRank(
                baseOfDerived(einsum::rankOfVar(v)));
            if (std::find(vars.begin(), vars.end(), bv) == vars.end())
                vars.push_back(bv);
        }
    }
    return vars;
}

/**
 * Per-input work-weighting factors for splitting at loop @p loop:
 * expected leaves below one *child* of that input's driver fiber,
 * i.e. the product of the input's occupancy hints strictly below the
 * child level (a leaf-level driver scores 1 per element). Inputs
 * without a driver at @p loop get 0 and contribute nothing.
 */
std::vector<double>
driverWeightsAt(const EinsumPlan& plan, std::size_t loop)
{
    std::vector<double> w(plan.inputs.size(), 0.0);
    for (std::size_t t = 0; t < plan.inputs.size(); ++t) {
        const TensorPlan& tp = plan.inputs[t];
        int level = -1;
        for (const LevelAction& a : tp.actions) {
            if (a.loopIndex == static_cast<int>(loop) &&
                a.mode == LevelAction::Mode::CoIterate)
                level = a.level;
        }
        if (level < 0)
            continue;
        double factor = 1.0;
        for (std::size_t l = static_cast<std::size_t>(level) + 2;
             l < tp.occupancy.size(); ++l)
            factor *= std::max(tp.occupancy[l], 1.0);
        w[t] = factor;
    }
    return w;
}

} // namespace

ShardPlan
analyzeSharding(const EinsumPlan& plan)
{
    ShardPlan sp;
    if (plan.wholeTensorCopy) {
        sp.reason = "whole-tensor copy bypasses the loop nest";
        return sp;
    }
    if (plan.loops.empty()) {
        sp.reason = "no loop ranks";
        return sp;
    }

    // What splitting at each loop needs.
    const std::vector<std::string> out_vars = plan.expr.outputVars();
    const bool take = plan.expr.kind == einsum::OpKind::Take;
    sp.loops.resize(plan.loops.size());
    for (std::size_t l = 0; l < plan.loops.size(); ++l) {
        ShardPlan::LoopFacts& f = sp.loops[l];
        f.driverWeight = driverWeightsAt(plan, l);
        // A loop whose partition group binds no variable counts as
        // contracting: nothing shows its coordinates separate output
        // points. (SIGMA's K1 is one: its leaf rank K0 is flattened
        // into MK0, and it does restrict k.)
        const std::vector<std::string> group = loopGroupVars(plan, l);
        f.restrictsContraction = out_vars.empty() || group.empty();
        for (const std::string& v : group)
            f.restrictsContraction |= !inOutput(out_vars, v);
        f.restrictsProbe = take && f.restrictsContraction;
        const std::vector<std::string>& binds = plan.loops[l].bindsVars;
        f.keysOutput =
            !binds.empty() &&
            inOutput(out_vars, einsum::varOfRank(baseOfDerived(
                                   einsum::rankOfVar(binds.front()))));
    }
    // Every split includes loop 0, so a take whose outermost loop
    // restricts the probe variable runs serially.
    if (sp.loops[0].restrictsProbe) {
        std::string probe;
        for (const std::string& v : loopGroupVars(plan, 0)) {
            if (!inOutput(out_vars, v))
                probe = v;
        }
        const std::string& top = plan.loops[0].name;
        sp.reason =
            probe.empty()
                ? "rank '" + top + "' of a take binds no index variable"
                : "rank '" + top + "' restricts variable '" + probe +
                      "' of a take";
        sp.reason += " (a take's probe variable is never sharded)";
        return sp;
    }
    sp.shardable = true;
    return sp;
}

EinsumPlan
buildPlan(const einsum::Expression& expr, const einsum::EinsumSpec& spec,
          const mapping::MappingSpec& map,
          const std::map<std::string, ft::Tensor>& tensors,
          const std::vector<std::string>& intermediates)
{
    PackedRefMap packed;
    for (const auto& [name, tensor] : tensors) {
        packed.emplace(name, std::make_shared<const storage::PackedTensor>(
                                 storage::PackedTensor::fromTensor(tensor)));
    }
    return instantiatePlan(analyzeEinsum(expr, spec, map), spec, packed,
                           intermediates);
}

} // namespace teaal::ir
