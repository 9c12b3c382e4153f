/**
 * @file
 * The public face of the loop-nest interpreter: executes an EinsumPlan
 * on real fibertrees, producing the output tensor and streaming trace
 * events (paper §4.3).
 *
 * `Executor` is a thin façade over the modular execution layer:
 *
 *   exec/engine.hpp          the recursion / variable-table /
 *                            output-materialization core,
 *   exec/coiter_strategy.hpp per-loop co-iteration strategies
 *                            (two-finger, gallop, dense-drive),
 *   trace/batch.hpp          the batched trace bus feeding observers.
 *
 * With `ExecOptions::threads >= 2` and a shardable plan
 * (ir::analyzeSharding — nearly every mapping qualifies; see
 * ir::ShardPlan for the rare refusals), the executor splits the walk
 * at one loop across the threads of `ExecOptions::pool`. A serial,
 * muted enumeration of the walk down to that loop, before the run
 * emits anything, fixes every unit's coordinates, driver cursors, PE
 * ids and output key (exec::TopWalk). The split starts at
 * the plan's depth and moves one loop deeper while the walk yields
 * fewer than a constant number of units, so a tiled mapping whose top
 * tiles hold the whole input still feeds the pool; it never moves past
 * a loop that would make a collision-free walk collide, nor to a
 * take's probe loop. Engine clones execute slices of the units against
 * the shared inputs with capture-mode trace buses, owning the events
 * of the prefix nodes above their units positionally; the coordinator
 * replays captures in unit order (reproducing the serial engine's
 * event sequence *and* batch boundaries byte-for-byte) and merges the
 * partial outputs, which always own disjoint output points:
 *
 *   - a collision-free walk (no loop restricting a contraction
 *     variable branches) is cut into contiguous unit slices that merge
 *     with Fiber::absorbDisjoint, whose leaf-collision error is the
 *     check;
 *   - a walk that collides, or that has fewer units than a pool's
 *     slice count and would collide one loop deeper, is split
 *     output-keyed ("keyed") when a loop at or below the split (below
 *     the loop that makes it collide) binds an output variable first:
 *     the walk is enumerated at that loop, and each unit's key is the
 *     output coordinate it binds. A slice is a range of keys — every
 *     unit writing one output point has the point's key, so slices
 *     own disjoint output points — and its units run in ascending unit
 *     order across every parent node (a node of the prefix level just
 *     above the split loop). Each output point therefore accumulates
 *     in exactly the serial order, and the partials merge with
 *     Fiber::absorbDisjoint. A barren node's placeholder unit has no
 *     key and runs in slice 0;
 *   - a walk of one unit, a keyed walk of one key, and a colliding
 *     walk with no output coordinate to key on (a scalar output, or an
 *     output variable that is no loop's leading variable) are run by
 *     the serial engine after enumeration, with no worker, capture,
 *     spill or replay.
 *
 * One scheduler runs every split. Each slice is one engine that
 * persists across the slice's units; its capture is cut into
 * segments, its maximal runs of consecutive units (one segment for a
 * contiguous slice, about one per parent node for a keyed one).
 * Workers claim segments in unit order within a window of the replay
 * cursor, a slice's segments one at a time; the coordinator replays
 * them in unit order, spilled or resident alike, captures claimable
 * segments itself while the one at its cursor runs, and merges a
 * slice's partial output once its last segment is replayed. When the
 * output needs its declared-order reorder, each slice reorders its own
 * partial, so the coordinator only merges and charges the swizzle.
 *
 * Executor::split() reports the point a run used.
 *
 * Slice boundaries are placed at work-weighted quantiles of the
 * enumerated units, or of a keyed walk's keys (per-rank occupancy
 * estimates). The split, the slice count and the boundaries depend
 * only on the plan, the data and constants — never on the thread
 * count — and every output point accumulates in the serial order, so
 * counters, traces and tensor values are identical for every N.
 *
 * Datapath records are never trace Events. ExecOptions::modelHooks
 * (set by the pipeline on every run) make every trace bus *split the
 * model*: datapath records go to a model accumulator as they are
 * produced — inside the workers, per shard, on the sharded path — and
 * only the order-dependent records reach the observer, replayed in
 * serial order by the coordinator. Only the storage tier of the model
 * runs serially, and the assembled counters stay byte-identical
 * (trace/batch.hpp RecordClassifier, model/accumulator.hpp). Without
 * hooks datapath records are only counted, the observer gets every
 * storage-tier record, and the run shards the same way.
 *
 * The (x, +) operators are semiring-parameterized so vertex-centric
 * graph algorithms can redefine them (paper Figure 12: SSSP uses
 * addition and minimum).
 */
#pragma once

#include "exec/engine.hpp"

namespace teaal::exec
{

/**
 * Where one run split an Einsum's walk: the loop whose coordinates
 * were the units of work and how the slices merged. Diagnostic only:
 * it is in no record or stream, which stay identical at every thread
 * count.
 */
struct SplitPoint
{
    enum class Merge
    {
        Serial,   ///< not sharded (one thread, or an unshardable
                  ///< plan)
        Live,     ///< one unit or key (or none), or a colliding walk
                  ///< with no output coordinate to key on: enumerated,
                  ///< then run by the serial engine
        Disjoint, ///< collision-free contiguous slices, absorbDisjoint
        Keyed,    ///< output-keyed slices (ranges of one output
                  ///< coordinate) replayed per parent-node segment,
                  ///< absorbDisjoint
    };

    Merge merge = Merge::Serial;
    /// The split loop's rank and index (empty / 0 when serial).
    std::string rank;
    std::size_t depth = 0;
    /// Units the walk yielded at that loop.
    std::size_t units = 0;
    /// Slices the units were cut into (1 when live, 0 when serial).
    std::size_t slices = 0;
    /// Capture segments the coordinator replayed: a slice's maximal
    /// runs of consecutive units (one per contiguous slice).
    std::size_t segments = 0;
};

/** "serial", "live", "disjoint" or "keyed". */
const char* mergeName(SplitPoint::Merge m);

/** Interprets one EinsumPlan. */
class Executor
{
  public:
    /**
     * @param plan Built by ir::buildPlan; must outlive the executor.
     * @param obs  Trace sink; must outlive the executor.
     * @param opts Per-run knobs (co-iteration overrides, worker
     *             threads) applied without mutating the shared plan.
     */
    Executor(const ir::EinsumPlan& plan, trace::Observer& obs,
             Semiring sr = Semiring::arithmetic(),
             const ExecOptions& opts = {});

    /**
     * Run the loop nest. Returns the output tensor in its declared
     * storage rank order (reordered from production order when the
     * mapping requires it, with the swizzle reported to the observer).
     */
    ft::Tensor run();

    const ExecutionStats& stats() const { return stats_; }

    /** Where the last run() split the walk. */
    const SplitPoint& split() const { return split_; }

    /** Trace-bus diagnostics (events coalesced, batches delivered).
     *  Counts replayed shard events too, so totals match the serial
     *  path at any thread count. */
    const trace::BatchBus& bus() const { return engine_.bus(); }

  private:
    ft::Tensor runSharded(unsigned threads);

    /** Enumerate the walk at the split the run uses (see the file
     *  comment) into @p tw; true when the split is output-keyed. */
    bool enumerateSplit(TopWalk& tw);

    const ir::EinsumPlan& plan_;
    Semiring sr_;
    ExecOptions opts_;
    Engine engine_;
    ExecutionStats stats_;
    SplitPoint split_;
};

} // namespace teaal::exec
