/**
 * @file
 * The loop-nest execution engine: the recursion, variable-table, and
 * output-materialization core of the interpreter (paper §4.3),
 * extracted from the old monolithic executor.
 *
 * The engine walks one EinsumPlan over real fibertrees. Each loop
 * rank's fibers are co-iterated by the strategy the planner selected
 * (exec/coiter_strategy.hpp), and trace events stream to the observer
 * through the batched trace bus (trace/batch.hpp) instead of one
 * virtual call per coordinate.
 *
 * `exec::Executor` (executor.hpp) is the public façade; use it unless
 * you are extending the execution layer itself.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "exec/coiter_strategy.hpp"
#include "fibertree/coiter.hpp"
#include "ir/plan.hpp"
#include "trace/batch.hpp"
#include "trace/observer.hpp"
#include "util/cancel.hpp"

namespace teaal::util
{
class ThreadPool;
} // namespace teaal::util

namespace teaal::storage
{
class PackedTensor;
} // namespace teaal::storage

namespace teaal::trace
{
class SpillContext;
} // namespace teaal::trace

namespace teaal::exec
{

/**
 * The performance model's hooks into execution (model::EinsumModel::
 * hooks()). Every trace bus of the run hands the datapath records,
 * and the LoopEnters and TensorAccesses the classifier calls
 * order-free, to a model accumulator where they are produced, through
 * typed trace::DatapathSink calls that build no Event; only the
 * order-dependent records reach the observer. The serial engine's bus,
 * and the coordinator's on the sharded path (the top-walk summary),
 * call @ref coordinatorSink; each slice's capture bus calls its
 * slice's sink, so the model's datapath work runs inside the shards
 * and only the stateful records are captured and replayed serially.
 * Results are the same at every thread count: every datapath quantity
 * is an exact (dyadic-rational) sum, and the event/batch diagnostics
 * count the whole logical stream. Unset hooks route nothing: datapath
 * records are only counted, and the run shards all the same.
 */
struct ModelHooks
{
    /// Record classification (borrowed; typically the model's
    /// model::ModelTables::classifier).
    const trace::RecordClassifier* classifier = nullptr;

    /// Create the per-shard datapath sinks, [0, shards). Called once
    /// on the coordinating thread before workers start; sink s is
    /// then fed only by the thread executing shard s.
    std::function<std::vector<trace::DatapathSink*>(std::size_t shards)>
        makeShardSinks;

    /// Sink for datapath records the coordinator emits itself.
    trace::DatapathSink* coordinatorSink = nullptr;
};

/**
 * Per-execution knobs that vary a run without touching the plan (so
 * compiled plans can be shared across runs and ablations).
 */
struct ExecOptions
{
    /**
     * Override the planned co-iteration strategy of specific loop
     * ranks, keyed by rank name (the intersection-ablation knob).
     * A rank name missing from the plan raises teaal::DiagnosticError
     * (section "exec") naming the unknown rank; an override that does
     * not apply to a loop's driver shape (e.g. Gallop on a 3-driver
     * union) falls back to the two-finger walk, like a plan-time
     * choice would.
     */
    std::map<std::string, ir::CoiterStrategy> coiterOverrides;

    /**
     * Worker threads for sharded execution (exec::Executor): 1 runs
     * the classic serial path, 0 means one per hardware thread, and
     * N >= 2 splits the walk at the loop the executor picks for the
     * run (see exec::SplitPoint) across N threads of @ref pool when
     * the plan is shardable (ir::analyzeSharding) — counters,
     * delivered trace batches and the output tensor are
     * byte-identical at every thread count.
     */
    unsigned threads = 1;

    /**
     * Worker pool to draw shard workers from (borrowed; must outlive
     * the run). A sharded run (threads other than 1, on a shardable
     * plan) requires it; a 1-thread run never touches it.
     */
    util::ThreadPool* pool = nullptr;

    /**
     * Record routing to the model tiers (see ModelHooks); the
     * pipeline sets them on every run. Unset — the default for
     * non-pipeline callers — datapath records are only counted, and
     * every storage-tier record reaches the observer.
     */
    ModelHooks modelHooks;

    /**
     * Cooperative cancellation: token + deadline + start point,
     * value-copied into every worker engine of a sharded run. When
     * armed, the engine polls at walk-batch granularity (amortized
     * against the trace-batch flush) and unwinds with
     * util::CancelledError; disarmed (the default) costs one branch
     * per walk end. Polling emits no trace events, so a run that is
     * never cancelled is byte-identical to one with no token.
     */
    util::CancelCheck cancel;

    /**
     * Out-of-core trace capture for sharded runs (borrowed; must
     * outlive the run). When set, each segment's capture log drains
     * to its own file under the context's directory whenever it
     * crosses the segment-size threshold, and the coordinator replays
     * the frames back in order — bounding peak resident trace at
     * O(threads x segmentBytes) instead of O(total trace), with
     * results, counters, and delivered streams byte-identical to the
     * resident path. Null (the default) keeps everything resident.
     */
    trace::SpillContext* spill = nullptr;
};

/**
 * The recorded walk of a plan split at loop `depth`: one entry per
 * schedulable *unit* of work, carrying everything `atCoordinate` needs
 * to process it on any engine clone (driver positions/presence, the
 * bound coordinate range, the PE id with its serial walk ordinal
 * already folded in), plus the prefix above it and the walk summaries
 * the serial walk would emit after each merge loop.
 *
 * Units are loop-`depth` coordinates, flattened across the prefix:
 * loops 0..depth-1, one node list per level. Depth 0 is the empty
 * prefix (a unit is one outermost coordinate). Ownership of a prefix
 * node's events is positional: the engine executing the node's first
 * unit opens it unmuted (its enter events and the next loop's
 * pre-lookups), and the engine executing its last unit emits the
 * summary of the walk below it and closes it. A node whose walk below
 * produced nothing (lookup miss, pre-lookup miss, empty walk) still
 * owns one placeholder ("barren") unit so its events are scheduled.
 * The merged stream is therefore byte-identical to a serial run's no
 * matter where slice boundaries fall, and no matter which engine runs
 * a unit, as long as each engine's units ascend and the captures
 * replay in unit order.
 *
 * Each unit also carries its key — the split loop's leading-variable
 * coordinate — which an output-keyed split slices by.
 */
struct TopWalk
{
    struct Entry
    {
        ft::Coord c = 0;
        ft::Coord rangeEnd = 0;
        std::uint64_t pe = 0;
    };

    /// One loop's end-of-merge trace summary (coIterate + per-driver
    /// coordScans).
    struct Summary
    {
        std::size_t steps = 0;
        std::size_t matches = 0;
        std::vector<std::size_t> scans;
    };

    static constexpr std::size_t kRoot = static_cast<std::size_t>(-1);

    /// One prefix coordinate: a match of loop l < depth.
    struct Node
    {
        Entry e;
        /// Node index at level l-1 (kRoot at level 0).
        std::size_t parent = kRoot;
        std::size_t firstUnit = 0;
        std::size_t units = 0;
        /// The serial run entered it (post-lookup hit) ...
        bool entered = false;
        /// ... and walked loop l+1 (its pre-lookups hit).
        bool walked = false;
        /// No unit below: it owns one placeholder unit.
        bool barren = false;
        /// Loop l+1's walk, when walked.
        Summary below;
    };

    /// One prefix level: its nodes and their loop's driver cursors
    /// (nodes x drivers, row-major).
    struct Level
    {
        std::vector<Node> nodes;
        std::vector<std::size_t> pos;
        std::vector<char> present;
    };

    /// The split loop.
    std::size_t depth = 0;
    std::vector<Level> levels;

    std::vector<Entry> entries;

    /// Per-entry driver cursors/presence, entries.size() x drivers
    /// (row-major; empty for driverless dense drives).
    std::vector<std::size_t> pos;
    std::vector<char> present;

    /// Driver count of the split loop.
    std::size_t drivers = 0;

    /// Estimated work per entry: 1 + the present drivers' child-fiber
    /// occupancy scaled by the loop's driver weights
    /// (ir::ShardPlan::LoopFacts). Slice boundaries split on this.
    std::vector<double> weight;

    /// Per entry (depth >= 1): the owning node, as level and index.
    /// Real units belong to a level depth-1 node; a barren node's
    /// placeholder belongs to that node, at any level.
    std::vector<std::size_t> ownerLevel;
    std::vector<std::size_t> owner;

    /// Per entry: the value the split loop binds its leading variable
    /// to (the coordinate itself, or a flattened rank's outermost
    /// constituent). Non-decreasing across one parent node's units
    /// (a node of the prefix level just above the split loop). 0 for
    /// placeholders.
    std::vector<ft::Coord> key;

    /// Loop 0's pre-lookups missed: the serial run executes nothing
    /// and emits no loop-0 summary.
    bool topSkipped = false;

    /// Loop 0's walk summary.
    Summary top;

    /// Some loop in 0..depth that restricts a contraction variable
    /// branches (two or more coordinates under one prefix node): unit
    /// partials may write the same output point, so the walk splits
    /// output-keyed or runs live. Otherwise every unit owns a disjoint
    /// set of output points.
    bool collides = false;

    /** Unit @p u is a barren node's placeholder (it has no key). */
    bool
    placeholder(std::size_t u) const
    {
        return depth > 0 && levels[ownerLevel[u]].nodes[owner[u]].barren;
    }
};

/** Operator redefinition for Einsum evaluation. */
struct Semiring
{
    using BinOp = double (*)(double, double);

    BinOp multiply;
    BinOp add;
    double multIdentity;
    double addIdentity;

    /** Ordinary (x, +) arithmetic. */
    static Semiring arithmetic();

    /** SSSP: x = addition, + = minimum. */
    static Semiring minPlus();

    /** BFS-style: x = select-right, + = logical or. */
    static Semiring orSelect();

    /** Identity comparison (same operators and identities). */
    bool
    operator==(const Semiring& o) const
    {
        return multiply == o.multiply && add == o.add &&
               multIdentity == o.multIdentity &&
               addIdentity == o.addIdentity;
    }
};

/** Functional statistics of one execution. */
struct ExecutionStats
{
    std::size_t computeMuls = 0;
    std::size_t computeAdds = 0;
    std::size_t leafVisits = 0;
    std::size_t outputWrites = 0;

    bool
    operator==(const ExecutionStats& o) const
    {
        return computeMuls == o.computeMuls &&
               computeAdds == o.computeAdds &&
               leafVisits == o.leafVisits &&
               outputWrites == o.outputWrites;
    }

    /** Accumulate (per-shard stats sum to the serial run's). */
    ExecutionStats&
    operator+=(const ExecutionStats& o)
    {
        computeMuls += o.computeMuls;
        computeAdds += o.computeAdds;
        leafVisits += o.leafVisits;
        outputWrites += o.outputWrites;
        return *this;
    }
};

/** Interprets one EinsumPlan (the core behind exec::Executor). */
class Engine
{
  public:
    /**
     * @param plan Built by ir::buildPlan; must outlive the engine.
     * @param obs  Trace sink; must outlive the engine.
     */
    Engine(const ir::EinsumPlan& plan, trace::Observer& obs, Semiring sr,
           const ExecOptions& opts = {});

    /**
     * Capture-mode engine: trace events are recorded into @p log
     * (with walk boundaries) instead of being delivered — the
     * per-shard configuration of parallel execution. @p log must
     * outlive the engine.
     */
    Engine(const ir::EinsumPlan& plan, trace::TraceLog& log, Semiring sr,
           const ExecOptions& opts = {});

    /**
     * Run the loop nest. Returns the output tensor in its declared
     * storage rank order (reordered from production order when the
     * mapping requires it, with the swizzle reported to the observer).
     * All buffered trace batches are flushed before returning.
     */
    ft::Tensor run();

    const ExecutionStats& stats() const { return stats_; }

    /** The trace bus (for batching diagnostics: event/batch counts). */
    const trace::BatchBus& bus() const { return bus_; }

    // ----------------------------------------------- sharded execution
    // The pieces exec::Executor composes for the parallel path. Only
    // meaningful on plans ir::analyzeSharding accepts; the serial
    // run() is self-contained and does not use them.

    /**
     * Initialize per-run state (fresh output tensor, tensor cursors,
     * scratch). run() does this implicitly; the parallel path calls it
     * before enumerateTop()/beginShard(). When @p announce_swizzles is
     * false the per-input swizzle events are suppressed (the
     * coordinator emits them once via emitSwizzleAnnouncements so the
     * merged stream carries them exactly once, up front, like a serial
     * run).
     */
    void beginRun(bool announce_swizzles);

    /**
     * Record the walk split at loop @p depth into @p tw (see TopWalk):
     * every prefix node and unit, re-derived with the bus muted
     * exactly as a serial walk would reach it. Emits nothing and
     * leaves the engine's state as it found it. Requires beginRun().
     */
    void enumerateTop(TopWalk& tw, std::size_t depth);

    /**
     * Apply loop 0's pre-lookups, the root of every split prefix.
     * Their events lead the serial stream, so exactly one engine of a
     * run applies them with @p emit set (the coordinator, after
     * enumeration); shard engines re-apply them muted for the state.
     * Returns true when a lookup missed (TopWalk::topSkipped).
     */
    bool enterTop(bool emit);

    /** Initialize this engine as a shard body: fresh run state (no
     *  swizzle announcements) and the muted loop-0 pre-lookups. */
    void beginShard();

    /**
     * Execute unit @p u of a recorded walk. The units one engine
     * executes (a slice's) must ascend; the partial output accumulates
     * in this engine, retrieved once via takeOutput().
     * The unit's prefix nodes are opened on demand, unmuted exactly
     * where @p u is a node's first unit, and the walk summary of
     * every node whose last unit @p u is is emitted here.
     */
    void executeUnit(const TopWalk& tw, std::size_t u);

    /** The tail of a shard body: close the prefix nodes left open by
     *  a slice ending mid-node (state restore only: their events are
     *  owned positionally) and flush the bus. */
    void finishShard();

    /**
     * Capture-mode engines: seal the current log (stamp its logical
     * length) and record from here on into @p log, which then stands
     * alone like a fresh shard's (see trace::BatchBus::capture). The
     * engine keeps its open prefix nodes and partial output, so its
     * units may span several logs; after the call the sealed log is
     * no longer touched and may be freed.
     */
    void captureInto(trace::TraceLog& log);

    /**
     * Route datapath-class records on this engine's trace bus to
     * @p sink per @p cls (see trace::BatchBus::setFilter). Set from
     * the model hooks on every engine of a run — a slice's capture
     * engine gets its shard sink, the delivery engine the coordinator
     * sink — before any event is produced; null routes nothing.
     */
    void
    setTraceFilter(const trace::RecordClassifier* cls,
                   trace::DatapathSink* sink)
    {
        bus_.setFilter(cls, sink);
    }

    /** Emit the per-input swizzle announcements a serial run makes. */
    void emitSwizzleAnnouncements();

    /** Emit loop 0's end-of-merge events (coIterate, per-driver
     *  coordScans, walkEnd), exactly as the serial walk would. */
    void emitTopSummary(const TopWalk& tw);

    /**
     * Apply the declared-order reorder to the merged production-order
     * output (announcing the online swizzle) and flush the bus: the
     * tail of a serial run(), applied once to the merged result.
     */
    ft::Tensor finishOutput(ft::Tensor produced);

    /**
     * finishOutput() for an output the slices already reordered:
     * announce the online swizzle a serial run charges — @p nnz
     * elements, merge ways from @p counts, the production-order
     * output's element counts by depth — and flush the bus.
     */
    ft::Tensor finishReordered(ft::Tensor reordered, std::size_t nnz,
                               const std::vector<std::size_t>& counts);

    /** Re-emit a shard's captured trace through this engine's bus. */
    void replayTrace(const trace::TraceLog& log);

    /** Move a shard body's partial output out, once it finished. */
    ft::Tensor takeOutput() { return std::move(out_); }

  private:
    struct TensorState
    {
        /// The input's packed rank store: views are slices of its
        /// buffers and descend goes through its segment arrays.
        const storage::PackedTensor* packed = nullptr;
        /// view[l] is the fiber window at prepared level l; valid for
        /// l < validDepth.
        std::vector<ft::FiberView> view;
        /// Pending range restrictions set by Slice actions before the
        /// level's view exists ({-1,-1} = none).
        std::vector<std::pair<ft::Coord, ft::Coord>> pending;
        int validDepth = 1;
        double leaf = 0.0;
        bool leafValid = false;
        bool absent = false;
    };

    struct ActionRef
    {
        int input;
        const ir::LevelAction* action;
    };

    struct ViewUndo
    {
        int input;
        int level;
        ft::FiberView view;
        std::pair<ft::Coord, ft::Coord> pending;
    };

    struct StateUndo
    {
        int input;
        int validDepth;
        double leaf;
        bool leafValid;
        bool absent;
    };

    /** Undo record of one loop-entry (pre-)lookup application. */
    struct PreUndo
    {
        int input;
        int validDepth;
        double leaf;
        bool leafValid;
        bool absent;
        ft::FiberView childView;
        bool hadChild;
        int childLevel;
    };

    /** Per-loop-level scratch buffers (recursion depth is unique per
     *  loop, so reuse avoids hot-path allocation). */
    struct Scratch
    {
        std::vector<ft::FiberView> views;
        std::vector<std::size_t> pos;
        std::vector<std::size_t> scans;
        std::vector<bool> present;
        std::vector<ViewUndo> viewUndo;
        std::vector<StateUndo> stateUndo;
        std::vector<ft::Coord> savedVars;
        std::vector<int> savedSlots;
        std::vector<PreUndo> preUndo;
    };

    /** Shared constructor body (action indexing, variable interning,
     *  override validation). */
    void buildIndexes(const ExecOptions& opts);

    void runLoop(std::size_t loop, std::uint64_t pe);
    void walk(std::size_t loop, std::uint64_t pe);
    void denseDrive(std::size_t loop, std::uint64_t pe);

    /**
     * The strategy-dispatched merge loop of walk(), with the
     * per-coordinate action abstracted: @p sink is invoked as
     * sink(c, range_end, ordinal) with scratch_[loop].pos/present
     * describing the drivers at the match, returning false to stop.
     * Emits no trace events; per-driver scans land in
     * scratch_[loop].scans. Serial walks and top-walk enumeration
     * share this body so they cannot diverge.
     */
    template <typename Sink>
    WalkCounts walkCore(std::size_t loop, Sink&& sink);

    /** Driverless counterpart of walkCore (dense coordinate drive). */
    template <typename Sink>
    WalkCounts denseCore(std::size_t loop, Sink&& sink);

    /** PE id for coordinate @p c at walk position @p ordinal. */
    std::uint64_t nextPe(const ir::LoopRank& lr, ft::Coord c,
                         std::size_t ordinal, std::uint64_t pe) const;

    /** Range end for upper-partition ranks (kNoRangeEnd otherwise). */
    ft::Coord rangeEnd(const ir::LoopRank& lr, ft::Coord c,
                       const std::vector<ft::FiberView>& views,
                       const std::vector<std::size_t>& pos,
                       const std::vector<bool>& present) const;

    /**
     * Per-coordinate body shared by every walk strategy. @p driver_pos
     * holds each driver's current position (empty for dense drive).
     * Returns false if the point was skipped (lookup miss).
     * Equivalent to atCoordinateEnter + runLoop(loop+1) + Exit.
     */
    bool atCoordinate(std::size_t loop, ft::Coord c, ft::Coord range_end,
                      const std::vector<std::size_t>& driver_pos,
                      const std::vector<bool>& driver_present,
                      std::uint64_t pe);

    /**
     * The enter half of atCoordinate: bind variables, descend the
     * drivers, apply slices and per-coordinate lookups, descend the
     * output path. Undo state persists in scratch_[loop] until the
     * matching atCoordinateExit — a split walk holds a prefix
     * coordinate open across many units this way. Returns false on a
     * lookup miss (Exit must still be called).
     */
    bool atCoordinateEnter(std::size_t loop, ft::Coord c,
                           ft::Coord range_end,
                           const std::vector<std::size_t>& driver_pos,
                           const std::vector<bool>& driver_present,
                           std::uint64_t pe);

    /** Restore variables, views, and tensor state saved by the
     *  matching atCoordinateEnter (emits no events). */
    void atCoordinateExit(std::size_t loop);

    /**
     * Apply the loop-entry lookups of @p loop, recording undo state in
     * scratch_[loop].preUndo. Returns true when a lookup missed and
     * the loop must be skipped. undoPreLookups reverses it.
     */
    bool applyPreLookups(std::size_t loop, std::uint64_t pe);
    void undoPreLookups(std::size_t loop);

    /**
     * Body of enumerateTop: walk loop @p loop below prefix node
     * @p parent (at level loop-1), recording loop-`tw.depth` matches
     * as units and shallower ones as prefix nodes entered (muted) and
     * recursed into. Returns the loop's walk summary.
     */
    TopWalk::Summary enumerateLoop(TopWalk& tw, std::size_t loop,
                                   std::size_t parent, std::uint64_t pe);

    /**
     * Open prefix node @p i of level @p level for unit @p u:
     * atCoordinateEnter plus the next loop's pre-lookups, muted unless
     * @p u is the node's first unit.
     */
    void openNode(const TopWalk& tw, std::size_t level, std::size_t i,
                  std::size_t u);

    /** Undo the state of the deepest open node (no events). */
    void closeNode();

    /** Emit a recorded walk's end-of-merge events for @p loop. */
    void emitWalkSummary(std::size_t loop, const TopWalk::Summary& sum,
                         std::uint64_t pe);

    /** Estimated work of the current walkCore match at @p loop: 1 +
     *  present drivers' child occupancy x the loop's driver weights
     *  (ir::ShardPlan::LoopFacts). */
    double entryWeight(std::size_t loop) const;

    /**
     * Amortized cancellation poll, called at walk boundaries. The
     * fast path is two loads and a compare; the real check
     * (cancelCheckpoint) runs roughly once per trace batch worth of
     * events and throws util::CancelledError naming the loop rank
     * reached.
     */
    void
    pollCancel(std::size_t loop)
    {
        if (!cancelArmed_ || bus_.eventCount() < nextCancelPoll_)
            return;
        cancelCheckpoint(loop);
    }

    /** Slow path of pollCancel: re-arm the event threshold, then
     *  check token and deadline. */
    void cancelCheckpoint(std::size_t loop);

    void leafCompute(std::uint64_t pe);

    /**
     * Payload read: reports the tensor access of element @p pos of
     * @p input's level @p level (at @p reported_c) to the trace bus and
     * descends. Callers record their undo state first.
     */
    void readAndDescend(int input, int level, std::size_t pos,
                        ft::Coord reported_c, std::uint64_t pe);

    /** Descend below element @p pos: the child view via the segment
     *  arrays (interior) or the flat value array (leaf). */
    void descend(int input, int level, std::size_t pos);
    void descendOutput(std::size_t level, ft::Coord c, std::uint64_t pe);

    ft::Coord evalExpr(const ir::LevelAction& a,
                       const std::vector<int>& slots) const;

    const ir::EinsumPlan& plan_;
    trace::BatchBus bus_;
    Semiring sr_;
    ExecutionStats stats_;

    /// Effective co-iteration strategy per loop: the plan's choice
    /// with any ExecOptions overrides applied at construction.
    std::vector<ir::CoiterStrategy> coiter_;

    // Per-loop action indices (built once). Pre-lookups fire on loop
    // entry (constant/earlier-bound indices whose parent level is
    // already descended); post-lookups fire per coordinate.
    std::vector<std::vector<ActionRef>> driversAt_;
    std::vector<std::vector<ActionRef>> slicesAt_;
    std::vector<std::vector<ActionRef>> lookupsAt_;
    std::vector<std::vector<ActionRef>> preLookupsAt_;
    std::vector<std::vector<std::vector<int>>> preLookupSlots_;
    std::vector<std::vector<std::size_t>> outLevelsAt_;

    // Variable table.
    std::vector<std::string> varNames_;
    std::vector<int> varBase_; // slot of the base variable (or -1)
    std::vector<ft::Coord> varValues_;
    std::vector<std::vector<int>> loopVarSlots_;   // per loop
    /// Pre-resolved variable slots per lookup action, parallel to
    /// lookupsAt_[loop].
    std::vector<std::vector<std::vector<int>>> lookupSlots_;
    std::vector<int> outVarSlots_;                 // per output level

    // Execution state.
    std::vector<TensorState> states_;
    std::vector<Scratch> scratch_;

    // Output production state. Coordinates are only *bound* by
    // descendOutput; the path materializes lazily at the first leaf
    // write so skipped points never create empty fibers (fibertrees
    // omit empty payloads).
    ft::Tensor out_;
    std::vector<ft::Coord> outCoord_;
    std::vector<ft::Coord> outMaterialized_;
    /// Fiber of the materialized path at each level (outFiberAt_[0] =
    /// root) and the running path hash *after* folding each level's
    /// coordinate — lets materializeOutputPath resume below the
    /// deepest unchanged prefix instead of re-searching from the root
    /// on every leaf write (Fiber objects are heap-stable, so the
    /// cached pointers survive sibling inserts).
    std::vector<ft::Fiber*> outFiberAt_;
    std::vector<std::uint64_t> outHashAt_;
    bool outPathValid_ = false;

    ft::Fiber* leafFiber_ = nullptr;
    std::size_t leafPos_ = 0;
    bool leafFresh_ = false;
    ft::Coord leafCoord_ = 0;
    std::uint64_t leafHash_ = 0;
    bool scalarOutput_ = false;

    // Cancellation (see ExecOptions::cancel). nextCancelPoll_ starts
    // at 0 so the first poll always runs the full check — a
    // pre-cancelled token stops a run before any unit executes.
    util::CancelCheck cancel_;
    bool cancelArmed_ = false;
    std::size_t nextCancelPoll_ = 0;

    // Sharded-execution state (see the public shard API).
    /// Prefix nodes held open by executeUnit, one per level from 0.
    struct OpenNode
    {
        std::size_t node;
        bool entered; // the next loop's pre-lookups were applied
    };
    std::vector<OpenNode> open_;
    std::vector<std::size_t> chain_;   // executeUnit owner-chain scratch
    std::vector<std::size_t> unitPos_; // driver scratch
    std::vector<bool> unitPresent_;
    std::size_t enumerated_ = 0; // enumerateTop cancel-poll counter

    /** Materialize the bound output path; sets leafFiber_/leafPos_. */
    void materializeOutputPath(std::uint64_t pe);
};

} // namespace teaal::exec
