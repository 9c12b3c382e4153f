/**
 * @file
 * Batched trace bus (paper §4.3 "trace generation", restructured).
 *
 * The execution engine does not call its observer once per logical
 * event (every coordinate of every fiber walk). The bus records events
 * as compact PODs in an `EventBatch` and delivers whole batches through
 * a single virtual call (`Observer::onEventBatch`), flushed at
 * fiber-walk boundaries; an observer switches over each record's kind.
 *
 * Datapath records — co-iteration tallies, coordinate scans and compute
 * ops — are never Events: the bus counts each one and, with a
 * DatapathSink set (every pipeline run), calls the sink's typed method
 * where the record is produced. With the sink comes a
 * RecordClassifier, which routes the order-free LoopEnters and
 * TensorAccesses the same way (an order-free LoopEnter, one no buffet
 * drains on, is only counted). Only storage-tier records are built as
 * Events and delivered (or captured, on a shard's bus, for the
 * coordinator's in-order replay). Either way the bus's event and batch
 * accounting is that of the whole logical stream.
 */
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "fibertree/types.hpp"
#include "trace/observer.hpp"

namespace teaal::trace
{

/**
 * One recorded event: a 64-byte POD, one cache line. Strings are
 * borrowed (the plan outlives the run, so tensor-name pointers stay
 * valid until the flush).
 *
 * The last two words are shared between kinds: each kind writes and
 * reads only the member named for it. Sharded runs move every stateful
 * record through capture, fixup, replay, and (out of core) spill, so
 * the record size is what those serial passes copy.
 */
struct alignas(64) Event
{
    /** The storage-tier records. The datapath records are never
     *  Events; their fields are documented on DatapathSink. */
    enum class Kind : std::uint8_t
    {
        /// A new coordinate `coord` was entered at loop `loop`.
        LoopEnter,
        /// A payload of input `input` read (descend at `level`,
        /// coordinate `coord`); `ptr` is a stable identity usable for
        /// reuse modeling.
        TensorAccess,
        /// The output was written at `level`: a scalar (leaf) write
        /// when `flagB`, else a fiber insert; `key` hashes the
        /// coordinate path.
        OutputWrite,
        /// A rank swizzle of `name` (`a` elements, `b` ways). Online
        /// swizzles (`flagA`, on intermediates) are charged to the
        /// merger/sort hardware; offline ones are free preprocessing
        /// (§3.2.2).
        Swizzle,
        /// Whole-tensor copy of `a` elements from `name` to `name2`
        /// (e.g. P1 = P0).
        TensorCopy,
    };

    Kind kind = Kind::LoopEnter;
    /// OutputWrite: inserted — an interior write created the node; a
    /// leaf write is the first write of that leaf in the run (the
    /// storage tier charges first writes without any per-leaf
    /// lookup). Swizzle: online.
    bool flagA = false;
    bool flagB = false;      // OutputWrite: at_leaf
    std::int32_t input = -1; // TensorAccess input slot
    std::uint32_t loop = 0;  // LoopEnter loop index
    std::uint32_t level = 0;
    ft::Coord coord = 0;
    std::size_t a = 0; // elements / packed position
    std::uint64_t pe = 0;
    const std::string* name = nullptr; // tensor name
    union
    {
        std::size_t b = 0; // Swizzle: ways
        std::uint64_t key; // OutputWrite: path key
        const void* ptr;   // TensorAccess: identity key
    };
    union
    {
        /// TensorAccess: the input's source storage::PackedTensor
        /// (opaque here — trace stays below the storage layer), with
        /// the element position in `a`.
        const void* packed = nullptr;
        const std::string* name2; // TensorCopy destination
    };
};

static_assert(sizeof(Event) == 64, "a trace record is one cache line");

/** An ordered run of events, delivered through one virtual call. */
struct EventBatch
{
    std::vector<Event> events;

    std::size_t size() const { return events.size(); }
    bool empty() const { return events.empty(); }
};

/**
 * Typed receiver of the datapath records (the model split's
 * accumulator tier). These records are never Events: a BatchBus with a
 * sink set calls it from the producer, on the emitting thread, so a
 * datapath record costs one virtual call and no copy. Each method
 * takes the fields that tier consumes.
 */
class DatapathSink
{
  public:
    virtual ~DatapathSink() = default;

    /** A co-iteration walk ended: @p steps element advances over all
     *  drivers, @p matches coordinates produced, @p drivers
     *  co-iterated fibers (>= 2 needs an intersection/union unit;
     *  0 = dense), on PE @p pe. */
    virtual void coIterate(std::size_t steps, std::size_t matches,
                           std::size_t drivers, std::uint64_t pe) = 0;

    /** @p count coordinates of driver @p input were scanned at
     *  @p level. */
    virtual void coordScan(int input, std::size_t level,
                           std::size_t count) = 0;

    /** @p count compute operations of kind @p op ('m' or 'a') on PE
     *  @p pe. */
    virtual void compute(char op, std::uint64_t pe, std::size_t count) = 0;

    /** An order-free payload read of input @p input at @p level:
     *  streamed past every unit, or absorbed by an eager fill above
     *  (a stateful read is an Event::Kind::TensorAccess). */
    virtual void tensorAccess(int input, std::size_t level) = 0;
};

/**
 * Cheap per-record order classification (the model split): a record is
 * either *datapath* — its consumption is a pure, order-independent
 * accumulation (compute ops, sequencer steps, intersection tallies,
 * coordinate scans, streamed accesses) — or *stateful* — consuming it
 * mutates simulator state whose outcome depends on the serial event
 * order (buffet/cache accesses, output writes, evict-loop entries).
 *
 * The performance model builds one per Einsum from its storage
 * routing tables. Compute ops, co-iteration tallies and coordinate
 * scans are always datapath; a filtering BatchBus asks the classifier
 * about LoopEnters and TensorAccesses, handing the order-free ones to
 * the DatapathSink (per shard on a capture bus) instead of delivering
 * or logging them. Classification is static per (kind, loop) /
 * (kind, input, level), so the hot path pays one or two vector reads
 * per record.
 */
struct RecordClassifier
{
    /// Per loop index: LoopEnter drains a buffet bound to this loop
    /// (order-dependent). Loops beyond the vector are order-free.
    std::vector<char> statefulLoopEnter;

    /// Per input, per level: TensorAccess routes to live buffet/cache
    /// state. Slots beyond the tables conservatively stay stateful.
    std::vector<std::vector<char>> statefulAccess;

    bool
    loopStateful(std::size_t loop) const
    {
        return loop < statefulLoopEnter.size() &&
               statefulLoopEnter[loop] != 0;
    }

    bool
    accessStateful(int input, std::size_t level) const
    {
        if (input < 0)
            return false; // the model ignores input-less accesses
        const auto i = static_cast<std::size_t>(input);
        if (i >= statefulAccess.size() ||
            level >= statefulAccess[i].size())
            return true;
        return statefulAccess[i][level] != 0;
    }
};

/**
 * Recycles capture chunks between shards: a replayed-and-cleared
 * shard's chunk memory backs the next shard's capture, so the
 * first-touch page faults of a multi-megabyte event stream are paid
 * once per run, not once per shard. Thread-safe (workers capture
 * while the coordinator frees); the lock is taken once per chunk,
 * i.e. once per ~1000 events.
 */
class ChunkPool
{
  public:
    std::vector<Event>
    acquire()
    {
        {
            std::lock_guard<std::mutex> lk(mutex_);
            if (!free_.empty()) {
                std::vector<Event> c = std::move(free_.back());
                free_.pop_back();
                c.clear();
                return c;
            }
        }
        return {};
    }

    void
    release(std::vector<Event>&& chunk)
    {
        std::lock_guard<std::mutex> lk(mutex_);
        free_.push_back(std::move(chunk));
    }

  private:
    std::mutex mutex_;
    std::vector<std::vector<Event>> free_;
};

struct TraceLog;

/**
 * Out-of-core hook: a capture-mode BatchBus consults this at every
 * walk boundary (the only points where the log is a self-contained
 * prefix of the stream). An implementation that drains the log to
 * disk (trace/spill.hpp) returns true, after which the bus restarts
 * its logged/logical counters at zero — so the residual capture is
 * itself a valid stand-alone frame with the same invariants as a
 * fresh log, and frames concatenated in write order reproduce the
 * original stream exactly.
 */
class SpillSink
{
  public:
    virtual ~SpillSink() = default;

    /** Called with the log positioned exactly at a walk boundary
     *  (walkEnds.back() == eventCount()). Return true iff the log's
     *  chunks/walkEnds/logicalWalkEnds were drained (pool and this
     *  pointer must be preserved). */
    virtual bool onWalkBoundary(TraceLog& log) = 0;
};

/**
 * A captured event stream: the records a shard's bus kept, in
 * emission order, plus the positions at which walkEnd() fired. A
 * capture-mode BatchBus fills one; `BatchBus::replay` later re-emits
 * it through a delivery-mode bus, reproducing the original flush
 * points — so a trace produced by parallel shards and replayed in
 * canonical shard order delivers batches byte-identical to a serial
 * run's (same records, same batch boundaries).
 *
 * A capture keeps only the Events (on a filtering bus, only the
 * stateful ones); the *logical* stream — everything the shard emitted,
 * datapath records included — is tracked alongside in logical indices,
 * so a replay keeps the delivery bus's event/batch accounting
 * identical to the serial bus.
 *
 * Events are stored in fixed-capacity chunks so capture never
 * reallocates (a multi-million-event shard would otherwise re-copy
 * its whole history on every vector growth); replay bulk-copies whole
 * runs between walk boundaries.
 */
struct TraceLog
{
    /// Events per chunk, sized to 64 KB — under the common malloc
    /// mmap threshold (128 KB), so freed chunks are recycled from the
    /// allocator arena instead of being returned to the OS and
    /// page-faulted back in on the next shard's capture.
    static constexpr std::size_t kChunkEvents = 1024;

    std::vector<std::vector<Event>> chunks;

    /// Logged event counts at which walkEnd() fired (non-decreasing).
    std::vector<std::size_t> walkEnds;

    /// Per walkEnds entry: the logical event count at that boundary.
    std::vector<std::size_t> logicalWalkEnds;
    /// Total logical events the capture produced.
    std::size_t logicalEvents = 0;

    /// Optional chunk recycler shared between captures.
    ChunkPool* pool = nullptr;

    /// Optional out-of-core drain, consulted at walk boundaries
    /// (borrowed; survives clear() like `pool` does).
    SpillSink* spill = nullptr;

    std::size_t
    eventCount() const
    {
        std::size_t n = 0;
        for (const auto& c : chunks)
            n += c.size();
        return n;
    }

    /** Drop everything, returning chunk memory to the pool if set. */
    void
    clear()
    {
        if (pool != nullptr) {
            for (std::vector<Event>& c : chunks)
                pool->release(std::move(c));
        }
        chunks.clear();
        walkEnds.clear();
        logicalWalkEnds.clear();
        logicalEvents = 0;
    }
};

/**
 * The engine-side producer: append events, flush batches.
 *
 * Flush policy: the engine calls walkEnd() when a fiber walk finishes,
 * which flushes once the pending batch has reached the threshold —
 * batches stay aligned to walk boundaries without flushing a tiny
 * batch per innermost row. flush() forces delivery (end of run).
 *
 * A bus is either in *delivery* mode (constructed on an Observer:
 * batches go out through onEventBatch) or in *capture* mode
 * (constructed on a TraceLog: events and walk boundaries are recorded,
 * nothing is delivered). Capture mode is how parallel shard engines
 * defer their trace until the coordinator replays it in order.
 */
class BatchBus
{
  public:
    static constexpr std::size_t kFlushThreshold = 1024;

    explicit BatchBus(Observer& obs, std::size_t threshold = kFlushThreshold)
        : obs_(&obs), threshold_(threshold)
    {
        batch_.events.reserve(threshold + threshold / 2);
    }

    /** Capture mode: record into @p log instead of delivering. */
    explicit BatchBus(TraceLog& log) : log_(&log), threshold_(0) {}

    /**
     * Capture mode: flush() the current log, then record into @p log
     * from here on, restarting every counter the log's bookkeeping is
     * relative to (as a spill frame cut does), so each log is a valid
     * stand-alone capture.
     */
    void
    capture(TraceLog& log)
    {
        flush();
        log_ = &log;
        logChunk_ = nullptr;
        logged_ = 0;
        events_ = 0;
        pendingLogical_ = 0;
    }

    /** Flushes any pending batch; a throwing observer is swallowed
     *  here (the run that produced the events has already failed —
     *  its exception is the one in flight). */
    ~BatchBus()
    {
        try {
            flush();
        } catch (...) {
        }
    }

    BatchBus(const BatchBus&) = delete;
    BatchBus& operator=(const BatchBus&) = delete;

    /**
     * Hand the datapath records to @p datapath_sink, and the LoopEnters
     * and TensorAccesses that @p cls calls order-free with them: the
     * producer calls the sink and builds no Event, and an order-free
     * LoopEnter is counted and dropped (the model consumes nothing from
     * it). On a capture bus the log then holds only the stateful
     * records; on a delivery bus only stateful records reach the
     * observer. Either way event/batch accounting stays that of the
     * whole logical stream. The sink is called in emission order, on
     * the emitting thread. Both pointers are borrowed; a null sink (or
     * classifier) turns routing off: datapath records are then only
     * counted, and every LoopEnter and TensorAccess is an Event.
     */
    void
    setFilter(const RecordClassifier* cls, DatapathSink* datapath_sink)
    {
        cls_ = datapath_sink == nullptr ? nullptr : cls;
        sink_ = cls_ == nullptr ? nullptr : datapath_sink;
    }

    /**
     * Suppress the bus entirely while set: muted records are neither
     * counted, logged, delivered, nor routed to the datapath sink.
     * A split walk uses this when an engine re-derives a prefix
     * coordinate's loop state that another shard owns the events for,
     * and while it enumerates the walk — the state transitions must
     * happen, their trace must not.
     */
    void setMuted(bool muted) { muted_ = muted; }

    // ------------------------------------------------ event producers
    void
    loopEnter(std::size_t loop, ft::Coord c)
    {
        if (cls_ != nullptr && !cls_->loopStateful(loop)) {
            route(); // drains nothing: only counted
            return;
        }
        Event& e = push(Event::Kind::LoopEnter);
        e.loop = static_cast<std::uint32_t>(loop);
        e.coord = c;
    }

    void
    coIterate(std::size_t steps, std::size_t matches, std::size_t drivers,
              std::uint64_t pe)
    {
        if (route() && sink_ != nullptr)
            sink_->coIterate(steps, matches, drivers, pe);
    }

    void
    coordScan(int input, std::size_t level, std::size_t count)
    {
        if (route() && sink_ != nullptr)
            sink_->coordScan(input, level, count);
    }

    /** TensorAccess: @p packed/@p pos identify the element in its
     *  input's storage::PackedTensor; @p key is its identity. */
    void
    tensorAccess(int input, const std::string& tensor,
                       std::size_t level, ft::Coord c, const void* key,
                       const void* packed, std::size_t pos,
                       std::uint64_t pe)
    {
        if (routedAccess(input, level))
            return;
        Event& e = push(Event::Kind::TensorAccess);
        e.input = input;
        e.name = &tensor;
        e.level = static_cast<std::uint32_t>(level);
        e.coord = c;
        e.ptr = key;
        e.packed = packed;
        e.a = pos;
        e.pe = pe;
    }

    /** @p inserted is Event::flagA (on a leaf write: the first write
     *  of the leaf). */
    void
    outputWrite(const std::string& tensor, std::size_t level, ft::Coord c,
                std::uint64_t path_key, bool inserted, bool at_leaf,
                std::uint64_t pe)
    {
        Event& e = push(Event::Kind::OutputWrite);
        e.name = &tensor;
        e.level = static_cast<std::uint32_t>(level);
        e.coord = c;
        e.key = path_key;
        e.flagA = inserted;
        e.flagB = at_leaf;
        e.pe = pe;
    }

    void
    compute(char op, std::uint64_t pe, std::size_t count)
    {
        if (route() && sink_ != nullptr)
            sink_->compute(op, pe, count);
    }

    void
    swizzle(const std::string& tensor, std::size_t elements,
            std::size_t ways, bool online)
    {
        Event& e = push(Event::Kind::Swizzle);
        e.name = &tensor;
        e.a = elements;
        e.b = ways;
        e.flagA = online;
    }

    void
    tensorCopy(const std::string& from, const std::string& to,
               std::size_t elements)
    {
        Event& e = push(Event::Kind::TensorCopy);
        e.name = &from;
        e.name2 = &to;
        e.a = elements;
    }

    // ------------------------------------------------------- flushing
    /** A fiber walk ended: flush if the pending batch is big enough
     *  (capture mode records the boundary instead). The threshold
     *  check counts *logical* pending records — those that became no
     *  Event included — so flush points (and therefore batch counts)
     *  land where they do on every bus, filtering or not. */
    void
    walkEnd()
    {
        if (muted_)
            return;
        if (log_ != nullptr) {
            log_->walkEnds.push_back(logged_);
            log_->logicalWalkEnds.push_back(events_);
            if (log_->spill != nullptr &&
                log_->spill->onWalkBoundary(*log_)) {
                // The sink wrote the log out as one frame. Restart
                // every counter the log's bookkeeping is relative to,
                // so the residual capture (and the next frame cut
                // from it) is internally consistent on its own.
                logChunk_ = nullptr;
                logged_ = 0;
                events_ = 0;
                pendingLogical_ = 0;
            }
            return;
        }
        if (pendingLogical_ >= threshold_)
            flush();
    }

    /** Force-deliver everything buffered (end of run; no-op when
     *  capturing — the log keeps everything). */
    void flush();

    /**
     * Re-emit a captured stream through this (delivery-mode) bus: the
     * logged records are pushed in order, and the logical stream —
     * including the records the capture bus built no Event for — is
     * accounted at every recorded walk boundary, so flush points,
     * eventCount() and batchCount() land exactly where an engine
     * delivering the same stream directly would put them.
     */
    void replay(const TraceLog& log);

    /** Logical records so far: Events delivered or pending, plus the
     *  records that became no Event (datapath records, order-free
     *  LoopEnters). A replay counts its capture's logical stream, so
     *  this matches the serial bus. */
    std::size_t eventCount() const { return events_; }

    /** Batches of the logical stream so far: a flush whose records
     *  all became no Event still counts, so this matches the serial
     *  bus. */
    std::size_t batchCount() const { return batches_; }

  private:
    /** Account one logical record that becomes no Event (a datapath
     *  record, or an order-free LoopEnter). False while muted: the
     *  record does not exist. */
    bool
    route()
    {
        if (muted_)
            return false;
        ++events_;
        ++pendingLogical_;
        return true;
    }

    /** Route an order-free TensorAccess to the sink; false when the
     *  access is stateful (or the bus does not filter) and needs an
     *  Event. */
    bool
    routedAccess(int input, std::size_t level)
    {
        if (sink_ == nullptr || cls_->accessStateful(input, level))
            return false;
        if (route())
            sink_->tensorAccess(input, level);
        return true;
    }

    Event&
    push(Event::Kind kind)
    {
        if (muted_) {
            mutedScratch_ = Event{};
            mutedScratch_.kind = kind;
            return mutedScratch_;
        }
        ++events_;
        ++pendingLogical_;
        if (log_ != nullptr) {
            if (logChunk_ == nullptr ||
                logChunk_->size() == TraceLog::kChunkEvents) {
                if (log_->pool != nullptr)
                    log_->chunks.push_back(log_->pool->acquire());
                else
                    log_->chunks.emplace_back();
                logChunk_ = &log_->chunks.back();
                logChunk_->reserve(TraceLog::kChunkEvents);
            }
            ++logged_;
            logChunk_->emplace_back();
            Event& e = logChunk_->back();
            e.kind = kind;
            return e;
        }
        batch_.events.emplace_back();
        Event& e = batch_.events.back();
        e.kind = kind;
        return e;
    }

    Observer* obs_ = nullptr;
    TraceLog* log_ = nullptr;
    std::vector<Event>* logChunk_ = nullptr;
    std::size_t logged_ = 0;
    std::size_t threshold_;
    EventBatch batch_;
    std::size_t events_ = 0;
    std::size_t batches_ = 0;

    /// Logical records since the last flush; the serial-equivalent
    /// flush criterion.
    std::size_t pendingLogical_ = 0;

    // Record filtering (see setFilter); sink_ is set exactly when
    // cls_ is.
    const RecordClassifier* cls_ = nullptr;
    DatapathSink* sink_ = nullptr;

    // Muting (see setMuted): producers write into the scratch event.
    bool muted_ = false;
    Event mutedScratch_;
};

} // namespace teaal::trace
