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
 * With `ExecOptions::threads >= 2`, model hooks set, and a shardable
 * plan (ir::analyzeSharding — nearly every mapping qualifies; see
 * ir::ShardPlan for the rare refusals), the executor splits the walk
 * at one loop across a worker pool. A serial, muted enumeration of
 * the walk down to that loop fixes every unit's coordinates, driver
 * cursors, and PE ids (exec::TopWalk). The split starts at the plan's
 * depth and moves one loop deeper while the walk yields fewer than a
 * constant number of units, so a tiled mapping whose top tiles hold
 * the whole input still feeds the pool; it never moves past a loop
 * that would make a collision-free walk collide, nor to a take's
 * probe loop. Engine clones execute contiguous unit slices against the
 * shared inputs with capture-mode trace buses, owning the events of
 * the prefix nodes above their units positionally; the coordinator
 * replays captures in slice order (reproducing the serial engine's
 * event sequence *and* batch boundaries byte-for-byte) and merges the
 * partial outputs:
 *
 *   - a collision-free walk (no loop restricting a contraction
 *     variable branches) merges with Fiber::absorbDisjoint, whose
 *     leaf-collision error is the check. The coordinator runs the
 *     slices it claims live on the delivery bus, and when the output
 *     needs its declared-order reorder, each slice reorders its own
 *     partial, so the coordinator only merges and charges the swizzle;
 *   - a colliding walk merges with Fiber::absorbReduce (semiring add on
 *     leaf collisions), with the captured streams fixed up to the
 *     serial engine's reduce records;
 *   - a walk of one unit runs live on the coordinator, with no worker,
 *     capture, spill or replay.
 *
 * Executor::split() reports the point a run used.
 *
 * Slice boundaries are placed at work-weighted quantiles of the
 * enumerated units (per-rank occupancy estimates), and idle workers
 * steal the unexecuted upper half of the largest in-flight slice
 * rather than going to sleep. The split, the initial slice count and
 * the boundaries depend only on the plan, the data and constants —
 * never on the thread count — so counters and traces are identical
 * for every N, and tensor values are too up to floating-point
 * summation grouping in reduce mode (exactly identical when the
 * semiring add is associative; reduce slices are never split by
 * steals, keeping the grouping deterministic). Only walks that already
 * collide at the plan's starting depth regroup sums.
 *
 * ExecOptions::modelHooks (set by the pipeline on every run) make
 * every trace bus *split the model*: order-independent datapath
 * records go to a model accumulator as they are produced — inside the
 * workers, per shard, on the sharded path — and only the
 * order-dependent records reach the observer, replayed in serial
 * order by the coordinator. Only the storage tier of the model runs
 * serially, and the assembled counters stay byte-identical
 * (trace/batch.hpp RecordClassifier, model/accumulator.hpp). Without
 * hooks the observer gets every record, and the run is serial.
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
        Serial,   ///< not sharded (one thread, no model hooks, or an
                  ///< unshardable plan)
        Live,     ///< one unit (or none): run live on the coordinator
        Disjoint, ///< collision-free slices, absorbDisjoint
        Reduce,   ///< colliding slices, absorbReduce plus the fixup
    };

    Merge merge = Merge::Serial;
    /// The split loop's rank and index (empty / 0 when serial).
    std::string rank;
    std::size_t depth = 0;
    /// Units the walk yielded at that loop.
    std::size_t units = 0;
};

/** "serial", "live", "disjoint" or "reduce". */
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
     *  comment) into @p tw. */
    void enumerateSplit(TopWalk& tw);

    const ir::EinsumPlan& plan_;
    Semiring sr_;
    ExecOptions opts_;
    Engine engine_;
    ExecutionStats stats_;
    SplitPoint split_;
};

} // namespace teaal::exec
