/**
 * @file
 * The order-dependent tier of the performance model: buffet
 * occupancy, shared LRU cache contention, DRAM fill/drain traffic,
 * and partial-output accounting. Whether an access hits, when a
 * partial result is evicted and re-fetched, and which cache lines
 * survive all depend on the *serial order* of the trace — so this
 * tier is the executor's observer: it consumes the records the trace
 * bus delivers, which are only the order-dependent ones, in serial
 * order (live on the serial path, through the coordinator's in-order
 * capture replay on the sharded one). Everything order-free lives in
 * the ShardAccumulator tier instead (model/accumulator.hpp), which
 * the bus's filter feeds as records are produced. Leaf output writes
 * carry the run's first-write bit (trace::Event::flagA), so partial
 * outputs are charged without a table of every leaf written.
 */
#pragma once

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "model/buffer_sim.hpp"
#include "model/tables.hpp"
#include "trace/batch.hpp"

namespace teaal::storage
{
class PackedTensor;
} // namespace teaal::storage

namespace teaal::model
{

/** Order-dependent storage simulation for one Einsum. */
class StorageReplay : public trace::Observer
{
  public:
    explicit StorageReplay(const ModelTables& t);

    /** Consume a delivered batch of stateful-class records, in
     *  order. */
    void onEventBatch(const trace::EventBatch& batch) override;

    /** Per-record entry. Every Event is a storage-tier record; the
     *  datapath records go to the accumulator tier. */
    void
    consume(const trace::Event& e)
    {
        using trace::Event;
        switch (e.kind) {
          case Event::Kind::LoopEnter:
            loopEnter(e.loop);
            break;
          case Event::Kind::TensorAccess:
            tensorAccess(e.input, e.level, e.ptr, e.packed, e.a);
            break;
          case Event::Kind::OutputWrite:
            outputWrite(e.key, e.flagA, e.flagB);
            break;
          case Event::Kind::Swizzle:
            swizzle(e.a, e.b, e.flagA);
            break;
          case Event::Kind::TensorCopy:
            tensorCopy(*e.name, *e.name2, e.a);
            break;
        }
    }

    /** Entering @p loop drains every buffet bound to evict on it. */
    void loopEnter(std::size_t loop);

    /** A unit-routed, non-absorbed payload read: buffet/cache access
     *  with fills charged to DRAM. @p packed (the input's
     *  storage::PackedTensor) and @p pos size eager subtree fills. */
    void tensorAccess(int input, std::size_t level, const void* key,
                      const void* packed, std::size_t pos);

    /** Output leaf write: buffet partial accounting or streaming
     *  read-modify-write, decided by the first-write bit @p first
     *  (Event::flagA) with no per-leaf table. Non-leaf writes are
     *  ignored. */
    void outputWrite(std::uint64_t path_key, bool first, bool at_leaf);

    void swizzle(std::size_t elements, std::size_t ways, bool online);

    void tensorCopy(const std::string& from, const std::string& to,
                    std::size_t elements);

    /** Drain every remaining buffet and apply all accumulated
     *  counters and traffic to @p record. */
    void finalizeInto(EinsumRecord& record);

  private:
    struct UnitState
    {
        Buffet buffet;
        /// Shared per component: all tensors bound to one cache
        /// contend for its capacity. Null for buffets.
        LruCache* cache = nullptr;
        Slot access;
        Slot fill;
        Slot drain;
    };

    void chargeDram(const std::string& tensor, double bytes, bool write,
                    bool partial = false);
    void chargeDramTo(TensorTraffic* tt, double bytes, bool write,
                      bool partial = false);

    double subtreeBytes(const ModelTables::UnitInfo& unit,
                        const storage::PackedTensor* packed,
                        std::size_t level, std::size_t pos,
                        const void* key);

    const ModelTables& t_;

    std::vector<UnitState> units_;
    std::map<std::string, std::unique_ptr<LruCache>> componentCaches_;

    /// Traffic accumulated by this tier (rows for the plan's tensors
    /// are pre-resolved; tensorCopy may add arbitrary names).
    std::map<std::string, TensorTraffic> traffic_;
    std::vector<TensorTraffic*> inputTrafficOrNull_; // per input slot
    std::vector<TensorTraffic*> unitTrafficOrNull_;  // per unit
    TensorTraffic* outTrafficOrNull_ = nullptr;

    Slot dramRead_;
    Slot dramWrite_;

    // Merger / sequencer swizzle charges.
    Slot mergeElems_;
    Slot mergeSwizzles_;
    Slot seqSwizzleElems_;

    // Subtree footprint memoization (bytes incl. any transaction
    // granularity penalty for interleaved layouts).
    std::unordered_map<const void*, double> subtreeBytesCache_;
};

} // namespace teaal::model
