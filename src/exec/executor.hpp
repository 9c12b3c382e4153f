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
 * ir::ShardPlan for the three modes and the rare refusals), the
 * executor shards a loop rank's coordinate range across a worker
 * pool: a serial enumeration of the sharded walk fixes every unit's
 * coordinates, driver cursors, and PE ids; engine clones execute
 * contiguous unit slices against the shared inputs with capture-mode
 * trace buses; the coordinator replays captures in slice order
 * (reproducing the serial engine's event sequence *and* batch
 * boundaries byte-for-byte) and merges the partial outputs —
 * Fiber::absorbDisjoint when slice outputs cannot overlap,
 * Fiber::absorbReduce (semiring add on leaf collisions, with the
 * captured streams fixed up to the serial engine's reduce records)
 * when the sharded rank restricts contraction variables. Plans whose
 * top rank cannot shard (lookup-bound, scalar-binding, or too coarse)
 * shard the first viable inner rank instead, with positional
 * ownership of the enclosing outer-loop events.
 *
 * Slice boundaries are placed at work-weighted quantiles of the
 * enumerated units (per-rank occupancy estimates), and idle workers
 * steal the unexecuted upper half of the largest in-flight slice
 * rather than going to sleep. The initial slice count and boundaries
 * depend only on the plan and data — never on the thread count — so
 * counters and traces are identical for every N, and tensor values
 * are too up to floating-point summation grouping in reduce mode
 * (exactly identical when the semiring add is associative; reduce
 * slices are never split by steals, keeping the grouping
 * deterministic).
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

    /** Trace-bus diagnostics (events coalesced, batches delivered).
     *  Counts replayed shard events too, so totals match the serial
     *  path at any thread count. */
    const trace::BatchBus& bus() const { return engine_.bus(); }

  private:
    ft::Tensor runSharded(unsigned threads);

    const ir::EinsumPlan& plan_;
    Semiring sr_;
    ExecOptions opts_;
    Engine engine_;
    ExecutionStats stats_;
};

} // namespace teaal::exec
