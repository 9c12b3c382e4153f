/**
 * @file
 * The per-Einsum performance model: consumes the executor's trace
 * events and produces per-component action counts and per-tensor DRAM
 * traffic (paper §4.3 "trace consumption").
 *
 * The model is split into two tiers along the order-dependence
 * boundary (see model/tables.hpp):
 *
 *   model/accumulator.hpp    ShardAccumulator — order-independent
 *                            datapath counters (compute, sequencer,
 *                            intersection, coordinate scans, streamed
 *                            accesses, per-PE loads). Mergeable;
 *                            a trace::DatapathSink the trace bus's
 *                            filter calls as records are produced,
 *                            one per shard inside the workers on
 *                            sharded runs.
 *   model/storage_replay.hpp StorageReplay — order-dependent storage
 *                            simulation (buffets, shared LRU caches,
 *                            DRAM fills/drains, partial outputs).
 *                            Fed only in serial event order.
 *
 * EinsumModel composes both over one shared ModelTables and hands the
 * executor the hooks that feed them (hooks()): every trace bus of the
 * run routes datapath records to an accumulator as it produces them —
 * the coordinator's own, or one per shard inside the workers — and
 * delivers only the stateful remainder, in serial order, to the
 * storage tier (storageSink()). finalize() merges the shard
 * accumulators in shard-index order and assembles an EinsumRecord
 * byte-identical at every thread count (all model sums are dyadic
 * rationals — integers, halves, bits/8 — so accumulation order cannot
 * perturb them; only the storage tier's state genuinely needs the
 * serial order).
 *
 * Storage bindings route tensor accesses through buffet/cache
 * simulators; misses and drains charge the DRAM. Unbound tensors
 * stream: every logical access pays DRAM traffic (no on-chip reuse).
 * Datapath events (compute, co-iteration, merges) accumulate on the
 * bound functional components with per-PE counters so load imbalance
 * is captured.
 */
#pragma once

#include <deque>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "arch/arch.hpp"
#include "binding/binding.hpp"
#include "exec/executor.hpp"
#include "format/format.hpp"
#include "ir/plan.hpp"
#include "model/accumulator.hpp"
#include "model/record.hpp"
#include "model/storage_replay.hpp"
#include "model/tables.hpp"
#include "trace/observer.hpp"

namespace teaal::model
{

/**
 * The performance model of one Einsum.
 *
 * Construct, run the Executor with storageSink() as its observer and
 * hooks() as exec::ExecOptions::modelHooks, then call finalize() to
 * harvest the EinsumRecord.
 */
class EinsumModel
{
  public:
    /**
     * @param plan      The lowered Einsum (must outlive the model).
     * @param topo      The architecture topology bound to this Einsum.
     * @param eb        Its binding.
     * @param formats   Format specification (concrete representations).
     * @param on_chip   Tensors that stay on chip (intermediates of a
     *                  fused block): their DRAM charges are skipped.
     */
    EinsumModel(const ir::EinsumPlan& plan, const arch::Topology& topo,
                const binding::EinsumBinding& eb,
                const fmt::FormatSpec& formats,
                const std::set<std::string>& on_chip);

    // The tiers and the hooks hold this model's address.
    EinsumModel(const EinsumModel&) = delete;
    EinsumModel& operator=(const EinsumModel&) = delete;

    /** The storage tier: the executor's observer, fed the
     *  order-dependent records in serial order. */
    trace::Observer& storageSink() { return replay_; }

    /**
     * The execution hooks that feed the datapath tier: the record
     * classifier, this model's own accumulator for records the
     * serial engine or the coordinator emits, and per-shard
     * accumulators for the workers. The hooks borrow this model.
     */
    exec::ModelHooks hooks();

    /**
     * Merge the shard accumulators (in shard-index order, after the
     * coordinator's own) and produce the record. The trace-bus
     * diagnostics (traceEvents, traceBatches) are the caller's to
     * fill in from the executor's bus.
     */
    EinsumRecord finalize(const exec::ExecutionStats& stats);

  private:
    ModelTables tables_;
    ShardAccumulator accum_;
    StorageReplay replay_;
    std::deque<ShardAccumulator> shardAccums_;
};

} // namespace teaal::model
