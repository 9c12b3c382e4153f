/**
 * @file
 * The order-independent tier of the performance model: compute ops,
 * sequencer steps, intersection tallies, per-PE datapath loads,
 * coordinate scans, and streamed (unit-less or eager-absorbed) tensor
 * accesses. Consuming these records is pure accumulation — every
 * quantity is an exact sum of dyadic rationals (integers, halves,
 * bits/8), so addition order cannot perturb the totals — which is
 * what lets shard workers consume them *inside* the shard, off the
 * capture-mode trace bus, instead of serializing through the
 * coordinator's in-order replay.
 *
 * One accumulator runs per shard (plus one for the records the serial
 * engine or the coordinator emits itself); EinsumModel::finalize
 * merges them in shard-index order — deterministic by construction —
 * and folds the result into the EinsumRecord next to the
 * StorageReplay tier's counters.
 */
#pragma once

#include <cstddef>
#include <vector>

#include "model/tables.hpp"
#include "trace/batch.hpp"

namespace teaal::model
{

/** Order-independent datapath counters for one shard (or one serial
 *  run). A trace::DatapathSink, so a filtering BatchBus calls it
 *  directly from the record's producer. */
class ShardAccumulator final : public trace::DatapathSink
{
  public:
    explicit ShardAccumulator(const ModelTables& t);

    void coIterate(std::size_t steps, std::size_t matches,
                   std::size_t drivers, std::uint64_t pe) override;
    void coordScan(int input, std::size_t level,
                   std::size_t count) override;
    void compute(char op, std::uint64_t pe, std::size_t count) override;
    /** The order-free TensorAccess cases: no covering unit (streamed)
     *  or absorbed by an eager fill above (cache port charge only). */
    void tensorAccess(int input, std::size_t level) override;

    /** Fold @p o into this accumulator (exact element-wise sums). */
    void merge(const ShardAccumulator& o);

    /** Apply the accumulated counters to @p record (component counts,
     *  per-PE loads, streamed read traffic, DRAM read bytes). */
    void mergeInto(EinsumRecord& record) const;

  private:
    const ModelTables& t_;

    Slot seqSteps_;
    PeLoadVector seqPerPe_;

    Slot isectSteps_;
    Slot isectMatches_;
    Slot isectCycles_;
    PeLoadVector isectPerPe_;

    Slot mulOps_;
    PeLoadVector mulPerPe_;
    Slot addOps_;
    PeLoadVector addPerPe_;

    /// Per storage unit: datapath access bytes (coordinate streams
    /// and absorbed cache-port charges).
    std::vector<Slot> unitAccess_;

    /// Per input slot: streamed DRAM read bytes (rows pre-exist in
    /// the skeleton, so a plain double suffices).
    std::vector<double> inputRead_;
    /// DRAM component "read_bytes" share of the streamed reads.
    Slot dramRead_;
};

} // namespace teaal::model
