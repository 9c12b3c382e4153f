/**
 * @file
 * The imperative-style IR the simulator generator produces (paper
 * §4.3, Figure 6): one executable loop-nest plan per Einsum.
 *
 * A plan records, per loop rank, how each tensor participates:
 *
 *   CoIterate  the tensor owns a fiber at this rank and is walked by
 *              the rank's co-iterator (intersection for products,
 *              union for sums),
 *   Slice      a dynamic occupancy-partitioning follower restricts its
 *              fiber to the leader's current chunk range (§3.2.1),
 *   Lookup     the tensor is indexed by an already-bound expression: a
 *              component of a flattened rank, an affine expression
 *              (conv), or a constant (FFT).
 *
 * Upper partition ranks bind coordinate ranges; leaf ranks bind the
 * Einsum's index variables (unpacking flattened tuples). The plan also
 * records the inferred rank swizzles needed for concordant traversal
 * (§3.2.2) and whether each was online (charged) or offline.
 */
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "einsum/parser.hpp"
#include "fibertree/tensor.hpp"
#include "mapping/mapping.hpp"

namespace teaal::storage
{
class PackedTensor;
} // namespace teaal::storage

namespace teaal::ir
{

/**
 * How a loop rank's co-iterated fibers are walked. Chosen per loop at
 * plan time from driver occupancy hints; the execution engine
 * dispatches on the enum (no virtual call per element).
 *
 *   TwoFinger   the classic sorted merge over all drivers (with a
 *               runtime leader-follower escape for skewed fibers),
 *   Gallop      leader-follower with binary-search leaps through the
 *               denser driver — wins when one driver is much sparser,
 *   DenseDrive  iterate the coordinate space [0, extent) and probe
 *               the drivers (also the path for driverless ranks).
 */
enum class CoiterStrategy
{
    TwoFinger,
    Gallop,
    DenseDrive,
};

/**
 * How a loop rank's packed drivers are accessed when the plan binds
 * packed inputs (storage/packed.hpp) — recorded at instantiation from
 * the drivers' declared rank formats, for introspection (toString,
 * tests, tools). The actual dispatch is *structural*: each
 * ft::FiberView picks its find/walk path from the packed auxiliaries
 * it carries, so this field describes what instantiation selected
 * rather than steering execution. It is the host-side access variant,
 * orthogonal to `coiter` (which fixes the modeled hardware walk and
 * its charged counts): packed variants accelerate the walk without
 * changing a single emitted event. A loop with mixed-format packed
 * drivers records the strongest variant (BitmapProbe > DenseImplicit
 * > Coords).
 *
 *   None           no packed driver at this rank,
 *   Coords         gallop / two-finger over the raw coordinate array
 *                  (C-format ranks),
 *   DenseImplicit  O(1) implicit-coordinate probes on contiguous
 *                  fibers (U-format ranks),
 *   BitmapProbe    O(1) presence-bit + rank-directory probes (B-format
 *                  ranks, SIGMA's bitmap intersection).
 */
enum class PackedWalk
{
    None,
    Coords,
    DenseImplicit,
    BitmapProbe,
};

/** How a tensor level is advanced at some loop rank. */
struct LevelAction
{
    enum class Mode { CoIterate, Slice, Lookup };

    Mode mode = Mode::CoIterate;

    /// Which loop rank triggers this action.
    int loopIndex = 0;

    /// Which prepared-tensor level it advances (Slice re-restricts the
    /// same level that a later CoIterate consumes).
    int level = 0;

    /// For Lookup: the index expression to evaluate.
    einsum::IndexExpr expr;
};

/** One input tensor, prepared (partitioned/swizzled) for this Einsum. */
struct TensorPlan
{
    std::string name;

    /// Slot in Expression::inputs.
    int exprInput = -1;

    /// Ranks of the prepared input, in its concordant order.
    std::vector<ft::RankInfo> ranks;

    /// The prepared packed rank store the engine walks (storage/
    /// packed.hpp; null in the analytic tier's plans). A concordant
    /// input that needs no partitioning is the caller's store itself,
    /// shared with no copy; any other is the plan's own store,
    /// prepared on packed buffers (storage/transform.hpp).
    std::shared_ptr<const storage::PackedTensor> packed;

    /// Actions in execution order (sorted by loopIndex, then level).
    std::vector<LevelAction> actions;

    /// Per-level occupancy hints of the prepared input (elements per
    /// fiber, storage::PackedTensor::occupancyHints), measured once at
    /// instantiation.
    std::vector<double> occupancy;

    /// Swizzle inferred to reach concordant order. Online swizzles
    /// (on intermediates) are charged to the merger model.
    bool swizzled = false;
    bool swizzleOnline = false;
    std::size_t swizzleElements = 0;
    std::size_t swizzleWays = 1;

    /** Rank ids top-to-bottom. */
    std::vector<std::string> rankIds() const;

    /** Level of rank @p id, or -1 if the input lacks it. */
    int rankLevel(const std::string& id) const;
};

/** One rank of the loop nest. */
struct LoopRank
{
    std::string name;

    /// Index variables bound when a coordinate here is fixed (empty
    /// for upper partition ranks, multiple for flattened ranks).
    std::vector<std::string> bindsVars;

    /// For flattened ranks: strides to unpack the packed coordinate,
    /// parallel to bindsVars (value_i = (c / stride_i) % shape_i).
    std::vector<ft::Coord> unpackStrides;
    std::vector<ft::Coord> unpackShapes;

    /// Upper partition ranks narrow a coordinate range instead of
    /// binding variables.
    bool isUpperPartition = false;

    /// Static tile extent for shape-partition upper ranks (range end =
    /// coord + rangeTile); 0 means take the range from the driver.
    ft::Coord rangeTile = 0;

    /// Spacetime: spatial ranks contribute to the PE index.
    bool isSpace = false;
    bool coordSpace = false;

    /// Mixed-radix extent used when folding positions into a PE id.
    std::size_t spaceExtent = 1;

    /// Extent for dense (shape-range) iteration when nothing
    /// co-iterates here; 0 if a driver exists.
    ft::Coord denseExtent = 0;

    /// Take Einsums probe ranks private to the non-copied operand
    /// instead of fully iterating them (a bitmap check in hardware).
    bool probeOnly = false;

    /// Co-iteration strategy, selected at plan time from the drivers'
    /// occupancy hints (DenseDrive for driverless ranks).
    CoiterStrategy coiter = CoiterStrategy::TwoFinger;

    /// Packed-driver access variant (None unless a packed input
    /// co-iterates here); see PackedWalk.
    PackedWalk packedWalk = PackedWalk::None;

    /// Occupancy skew between the densest and sparsest driver at this
    /// rank (1 when uniform or fewer than two drivers); diagnostic for
    /// the strategy choice.
    double driverSkew = 1.0;
};

/** Output production plan. */
struct OutputPlan
{
    std::string name;

    /// Rank ids in production order (projection of the loop order).
    std::vector<std::string> productionOrder;

    /// Shape of each production rank.
    std::vector<ft::Coord> shapes;

    /// Index variable of each production rank.
    std::vector<std::string> vars;

    /// Loop index at which each production level's variable binds.
    std::vector<int> boundAtLoop;

    /// Declared storage order (mapping rank-order or declaration).
    std::vector<std::string> declaredOrder;

    /// True if production order differs from declared order: the
    /// result is swizzled after production (online, charged).
    bool needsReorder = false;
};

/**
 * How (and whether) one Einsum's execution can be sharded across a
 * worker pool (the parallel path of `exec::Executor`) — see the
 * long-form rationale on `analyzeSharding` below.
 */
struct ShardPlan
{
    /**
     * How shard partial outputs relate at the *starting* depth, which
     * is what the spec-level analysis can predict. Each run then picks
     * its own split loop and merge from the walk it enumerates (see
     * exec::Executor and exec::SplitPoint):
     *  - Disjoint: the prefix binds only output variables, so shards
     *    write disjoint output subtrees; merged with
     *    `Fiber::absorbDisjoint` (leaf collisions are hard errors —
     *    the debug check of this mode).
     *  - Reduce: the prefix restricts a contraction variable (or the
     *    output is a scalar), so contiguous slices of the units may
     *    write the same output points. A run whose walk branches there
     *    splits output-keyed at a loop that binds an output variable
     *    first (LoopFacts::keysOutput), whose slices own disjoint
     *    output points again; a walk with no such loop runs live:
     *    the serial engine runs it after enumeration.
     *  - Inner: the outermost rank itself is unshardable (lookup
     *    actions, binds no variable), so the split starts one loop
     *    down (`depth == 1`); partials relate per the Disjoint/Reduce
     *    rules.
     */
    enum class Mode { Disjoint, Reduce, Inner };

    bool shardable = false;

    Mode mode = Mode::Disjoint;

    /// Starting split depth: the loop whose coordinates are the units
    /// of work when the walk yields enough of them (0 for
    /// Disjoint/Reduce, 1 for Inner). A run may split deeper.
    std::size_t depth = 0;

    /// The starting split loop rank (loop `depth`'s rank id).
    std::string rank;

    /// The (outermost) space rank, when the mapping declares one.
    /// Informational since PR 6: host-side sharding no longer
    /// requires declared spatial parallelism.
    std::string spaceRank;

    /// Why the plan is not shardable (empty when it is).
    std::string reason;

    /** What the executor needs to split a walk at one loop. */
    struct LoopFacts
    {
        /// Work-weighting factors, one per input slot: expected leaves
        /// below one child of that input's driver fiber at this loop,
        /// from occupancy hints. The engine scores each unit as 1 +
        /// sum over present drivers of child-occupancy x factor, and
        /// the executor places slice boundaries at weighted quantiles
        /// instead of equal counts.
        std::vector<double> driverWeight;

        /// The loop binds or range-restricts a contraction variable
        /// (any variable, for a scalar output): two of its coordinates
        /// under one prefix coordinate may write the same output
        /// point.
        bool restrictsContraction = false;

        /// A take Einsum's loop restricting the probe variable: no
        /// split reaches it (a take's probe variable is never
        /// sharded).
        bool restrictsProbe = false;

        /// The loop binds an output variable first (its leading
        /// variable: a plain or group-leaf rank's variable, a
        /// flattened rank's outermost constituent). Each coordinate
        /// then fixes one output coordinate — the key an output-keyed
        /// split slices this loop's units by, so that units writing
        /// the same output point share a slice.
        bool keysOutput = false;
    };

    /// Per loop index (plan overload, shardable plans only).
    std::vector<LoopFacts> loops;
};

/** A fully lowered Einsum: the unit the executor interprets. */
struct EinsumPlan
{
    einsum::Expression expr;

    std::vector<LoopRank> loops;
    std::vector<TensorPlan> inputs;
    OutputPlan output;

    /// Loop index of each variable's binding (for lookups).
    std::map<std::string, int> varBoundAt;

    /// True when shared ranks co-iterate by union (Add) rather than
    /// intersection (Multiply/Take/Assign).
    bool unionCombine = false;

    /// Whole-tensor copy (P1 = P0) bypasses the loop nest.
    bool wholeTensorCopy = false;

    /// Authoritative shardability, filled once by instantiatePlan so
    /// run-many never re-derives it (default: not shardable, which is
    /// the safe answer for hand-assembled plans).
    ShardPlan shard;

    std::string toString() const;
};

/** Short human-readable strategy name ("2finger", "gallop", "dense"). */
const char* coiterStrategyName(CoiterStrategy s);

/** Short packed-walk name ("", "coords", "implicit", "bitmap"). */
const char* packedWalkName(PackedWalk w);

/**
 * One partitioning group of a recipe: a value-owning copy of the
 * mapping's RankPartitioning analysis, so recipes stay valid without
 * referencing the MappingSpec they came from.
 */
struct RecipeGroup
{
    /// The group key's ranks (several for a flatten like `(K, M)`).
    std::vector<std::string> sourceRanks;

    /// Rank the split directives apply to (post-flatten).
    std::string base;

    /// Derived rank names, top-down (K -> {K1, K0}).
    std::vector<std::string> results;

    /// Split directives in application order (flattens excluded).
    std::vector<mapping::PartitionDirective> splits;

    bool hasFlatten = false;

    /// At least one occupancy split; `leader` names its leader tensor.
    bool occupancy = false;
    std::string leader;
};

/**
 * The spec-only lowering of one Einsum (paper §4.2): everything the
 * simulator generator can derive from the specification alone, before
 * any workload data exists. `compiler::compile` produces one recipe
 * per Einsum; `instantiatePlan` binds a recipe to real tensors.
 */
struct EinsumRecipe
{
    einsum::Expression expr;

    bool unionCombine = false;
    bool wholeTensorCopy = false;

    std::vector<RecipeGroup> groups;

    /// Resolved loop order (declared, or derived from Einsum order
    /// with partition groups expanded).
    std::vector<std::string> loopOrder;

    /// Take-Einsum probe variables (private to the non-copied operand).
    std::vector<std::string> probeVars;

    /// Spacetime entries, validated against the loop order.
    std::vector<mapping::SpaceTimeEntry> space;

    /// Declared storage order of the output (mapping rank-order when
    /// present, else the declaration).
    std::vector<std::string> outputDeclaredOrder;
};

/**
 * Decide shardability (the parallel path of `exec::Executor`).
 *
 * Sharding splits the walk at one loop into contiguous runs of that
 * loop's coordinates (the units of work): each shard executes the
 * loop nest below its units against the shared (immutable,
 * fiber-shared) inputs, producing a private partial output and a
 * private trace capture that a finalize step merges in canonical
 * shard order. Every loop nest that actually walks its inputs shards;
 * the analysis fixes whether it can and where the split *starts*:
 *
 *   - The split starts at the outermost loop (`depth` 0). When every
 *     variable that rank binds or restricts (its own `bindsVars`,
 *     plus those of the leaf rank of the same partition group, e.g.
 *     M1 restricting m via M0) appears in the output, shards write
 *     disjoint output subtrees: Mode::Disjoint.
 *   - When the prefix restricts a contraction variable (SIGMA's K1)
 *     or the output is a scalar, shards may write the same output
 *     points: Mode::Reduce.
 *   - When the top rank carries Lookup actions or binds no index
 *     variable, the split starts at the loop below it: Mode::Inner
 *     (`depth` 1).
 *
 * The starting depth is not the split a run uses. The executor
 * enumerates the walk there and, while it yields fewer units than a
 * pool needs, one loop deeper, using the per-loop facts recorded in
 * `ShardPlan::loops`. Whether partials overlap is then read off the
 * enumerated walk (exec::TopWalk::collides), not the prefix's
 * variables alone; a walk that collides (or would, one loop below a
 * split of few units) moves to the first loop below the collision
 * that keys an output coordinate (`LoopFacts::keysOutput`) and splits
 * output-keyed there.
 *
 * Plans that still run serially (`shardable == false`, `reason` says
 * why): whole-tensor copies, empty loop nests, single-loop nests
 * whose only rank is unshardable, and take-Einsums whose starting
 * prefix restricts the probe variable (a take's probe variable is
 * never sharded).
 *
 * The recipe overload is what `compile` can precompute before any
 * workload exists (it cannot see lookup actions, so it reports
 * depth-0 modes only); the plan overload is authoritative
 * (instantiation adds lookup actions, occupancy hints, and the
 * per-loop facts) and its result is stored in EinsumPlan::shard by
 * instantiatePlan, so the run path never re-derives it.
 */
ShardPlan analyzeSharding(const EinsumRecipe& recipe);
ShardPlan analyzeSharding(const EinsumPlan& plan);

/**
 * Live packed tensors by name. Borrowed entries use a non-owning
 * shared_ptr (empty control block); owned entries keep the packed
 * buffers alive for as long as any cached plan binds them.
 */
using PackedRefMap =
    std::map<std::string, std::shared_ptr<const storage::PackedTensor>>;

/**
 * Stage 1 — analyze: derive the spec-only recipe for @p expr.
 * Surfaces loop-order / partitioning / spacetime inconsistencies as
 * SpecError without needing any tensor data, so `compile` can reject
 * bad specifications before the first run.
 */
EinsumRecipe analyzeEinsum(const einsum::Expression& expr,
                           const einsum::EinsumSpec& spec,
                           const mapping::MappingSpec& map);

/**
 * Stage 2 — instantiate: bind @p recipe to packed rank stores,
 * producing the executable plan (prepared inputs, dense extents,
 * co-iteration strategies from occupancy hints). The traversal is the
 * one the analytic tier runs on tensor statistics (ir/instantiate.hpp).
 * No pointer fiber is built: an input needing no preparation binds as
 * given, and every other input is swizzled, flattened and partitioned
 * on packed buffers into a store the plan owns.
 *
 * @param tensors  Live tensors by name (workload inputs in their
 *                 mapping rank-order plus intermediates built by
 *                 earlier Einsums). The plan shares the stores it
 *                 binds as-is.
 * @param intermediates Names of tensors produced by earlier Einsums
 *                 (their swizzles are online and charged).
 */
EinsumPlan instantiatePlan(const EinsumRecipe& recipe,
                           const einsum::EinsumSpec& spec,
                           const PackedRefMap& tensors,
                           const std::vector<std::string>& intermediates);

/**
 * Build the plan for @p expr: analyzeEinsum + instantiatePlan in one
 * call, over packed copies of @p tensors (default, all-compressed
 * formats) that the plan owns. Kept for white-box tests; pipeline
 * callers go through `compiler::CompiledModel`, which caches the two
 * stages separately.
 *
 * @param spec     The cascade (for declarations).
 * @param map      The mapping specification.
 * @param tensors  Live tensors by name (inputs and intermediates built
 *                 by earlier Einsums), stored in their declared
 *                 rank-order.
 * @param intermediates Names of tensors produced by earlier Einsums
 *                 (their swizzles are online and charged).
 */
EinsumPlan buildPlan(const einsum::Expression& expr,
                     const einsum::EinsumSpec& spec,
                     const mapping::MappingSpec& map,
                     const std::map<std::string, ft::Tensor>& tensors,
                     const std::vector<std::string>& intermediates);

} // namespace teaal::ir
