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
#include "trace/observer.hpp"

namespace teaal::model
{

/** Order-independent datapath counters for one shard (or one serial
 *  run). Also a trace::Observer so a filtering BatchBus can feed it
 *  coalesced datapath batches directly. */
class ShardAccumulator : public trace::Observer
{
  public:
    explicit ShardAccumulator(const ModelTables& t);

    /** Consume a batch of datapath-class records (the bus filter's
     *  side channel). Stateful-class records are ignored — they
     *  belong to the replay tier. */
    void onEventBatch(const trace::EventBatch& batch) override;

    /** Per-record entry. */
    void
    consume(const trace::Event& e)
    {
        using trace::Event;
        switch (e.kind) {
          case Event::Kind::CoIterate:
            coIterate(e.a, e.b, e.c, e.pe);
            break;
          case Event::Kind::CoordScan:
            coordScan(e.input, e.level, e.a);
            break;
          case Event::Kind::Compute:
            compute(e.op, e.pe, e.a);
            break;
          case Event::Kind::TensorAccess:
            tensorAccess(e.input, e.level);
            break;
          case Event::Kind::LoopEnter:
            break; // order-free LoopEnter drains nothing
          default:
            break; // stateful kinds: not ours
        }
    }

    void coIterate(std::size_t steps, std::size_t matches,
                   std::size_t drivers, std::uint64_t pe);
    void coordScan(int input, std::size_t level, std::size_t count);
    void compute(char op, std::uint64_t pe, std::size_t count);
    /** The order-free TensorAccess cases: no covering unit (streamed)
     *  or absorbed by an eager fill above (cache port charge only). */
    void tensorAccess(int input, std::size_t level);

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
