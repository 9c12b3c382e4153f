#include "exec/executor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "fibertree/transform.hpp"
#include "trace/spill.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/flat_hash.hpp"
#include "util/thread_pool.hpp"

namespace teaal::exec
{

namespace
{

/**
 * Initial slice-count cap. The plan's recorded walk is split into
 * min(units, kMaxShards) contiguous slices at work-weighted
 * boundaries. 64 slices keep dynamic scheduling balanced on any
 * realistic worker count while per-slice engine setup stays
 * negligible.
 */
constexpr std::size_t kMaxShards = 64;

/**
 * Initial slice count of a colliding walk. Its slices are never split
 * by steals (their partition is the summation grouping), and each
 * one's partial output costs the coordinator a semiring-add merge, so
 * it takes half as many slices as a disjoint walk.
 */
constexpr std::size_t kReduceShards = 32;

/**
 * Fewest units a split should yield: while the walk has fewer, it is
 * enumerated again one loop deeper (Executor::enumerateSplit). A
 * constant, so the split — and with it a reduce merge's summation
 * grouping — never depends on the thread count.
 */
constexpr std::size_t kMinUnits = 16;

/**
 * Hard cap on total slices including work-stealing splits. A split
 * halves a straggler, so a handful suffice; the cap only bounds the
 * bookkeeping (and the model's per-slice sink pool).
 */
constexpr std::size_t kSliceCap = 2 * kMaxShards;

/**
 * Split [0, n) into @p shards contiguous slices at the weighted
 * quantiles of tw.weight (each slice non-empty). Falls back to equal
 * unit counts when no weights were recorded.
 */
std::vector<std::size_t>
weightedBounds(const TopWalk& tw, std::size_t shards)
{
    const std::size_t n = tw.entries.size();
    std::vector<std::size_t> bounds(shards + 1, 0);
    bounds[shards] = n;
    if (shards <= 1)
        return bounds;
    double total = 0.0;
    if (tw.weight.size() == n) {
        for (const double w : tw.weight)
            total += w;
    }
    if (!(total > 0.0)) {
        for (std::size_t s = 0; s < shards; ++s)
            bounds[s] = s * n / shards;
        return bounds;
    }
    std::size_t s = 1;
    double acc = 0.0;
    for (std::size_t i = 0; i < n && s < shards; ++i) {
        acc += tw.weight[i];
        while (s < shards &&
               acc >= total * static_cast<double>(s) /
                          static_cast<double>(shards)) {
            std::size_t cut = std::min(i + 1, n - (shards - s));
            cut = std::max(cut, bounds[s - 1] + 1);
            bounds[s] = cut;
            ++s;
        }
    }
    for (; s < shards; ++s)
        bounds[s] = std::max(bounds[s - 1] + 1, n - (shards - s));
    return bounds;
}

/** Cross-slice state the in-order replay fixup threads through every
 *  capture (and that the coordinator's live engine shares via
 *  Engine::setInsertFilter). */
struct FixupState
{
    /// Interior output nodes already announced (shared with the live
    /// engine's insert filter).
    OutputNodes nodes;
    /// Reduce mode: leaf path keys some earlier slice already wrote.
    util::FlatSet64 reducedLeaves;
};

/**
 * Restore the serial event stream from one slice's capture, in slice
 * replay order. Two rewrites happen in a single pass:
 *
 * 1. Interior-insert dedup (all modes): output paths materialize
 *    lazily *per slice*, so an output node shared between slices
 *    announces its creation once per slice — the serial engine
 *    announces it exactly once, where the first slice's copy lands.
 *    Duplicates are dropped.
 *
 * 2. Reduce-add restoration (reduction sharding): each slice engine
 *    held a *private* partial output, so a leaf another slice already
 *    wrote looks fresh to it — its capture carries the first-write
 *    bit (flagA=1) and the expression-add count in `a`
 *    (Engine::setReduceCapture). The serial engine instead reduced
 *    into the existing leaf: one extra semiring add, folded into the
 *    leaf's compute('a') record (or a compute('a', pe, 1) emitted
 *    before the write, when the expression itself had no adds), and
 *    its write was no first write. Compute records are datapath
 *    records, which the capture filter already sent to the slice's
 *    accumulator with the shard-local count, so each restored add is
 *    handed to @p datapath_sink as a compute('a', pe, 1) call instead,
 *    and the logical stream accounting (logicalWalkEnds,
 *    logicalEvents) absorbs the record the serial run emitted in the
 *    no-adds case, so replayed flush points stay serial-identical.
 *    Marked writes are normalized to the serial form: a=0, and the
 *    bit stays set exactly on the run's first write of the leaf.
 *    (Disjoint slices own disjoint leaves, so there a slice's first
 *    write is the run's and the bit needs no fixup.)
 *
 * Chunks are rewritten in place: a write cursor trails the read
 * cursor, so drops cost nothing and a kept record costs at most one
 * copy. Walk boundaries are re-indexed onto the surviving records (a
 * drop shifts both the logged and the logical index down; a restored
 * record shifts the logical index up). No boundary can fall between a
 * leaf's compute and its output write — both are emitted inside one
 * leafCompute with no walkEnd between — so a restored record shifts
 * exactly the boundaries after its write.
 *
 * NOTE: the chunk/walkEnds traversal mirrors BatchBus::replay
 * (trace/batch.cpp) — change them together. The thread-equivalence
 * tests (tests/test_parallel.cpp) compare replayed streams including
 * batch boundaries against the serial path and catch any divergence.
 *
 * Returns the number of reduce adds restored (the serial run counted
 * them in ExecutionStats::computeAdds; slice engines could not).
 */
std::size_t
fixupReplayLog(trace::TraceLog& log, FixupState& fs, bool reduce,
               trace::DatapathSink& datapath_sink)
{
    using trace::Event;
    std::ptrdiff_t dlog = 0;     // logged-index shift (drops)
    std::ptrdiff_t dlogical = 0; // logical-index shift
    std::size_t we = 0;
    std::size_t base = 0; // global *input* index of the chunk start
    std::size_t restored = 0;

    const auto shift = [](std::size_t& idx, std::ptrdiff_t d) {
        idx = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(idx) +
                                       d);
    };
    const auto shift_walk_end = [&](std::size_t i) {
        shift(log.walkEnds[i], dlog);
        shift(log.logicalWalkEnds[i], dlogical);
    };

    for (std::vector<Event>& chunk : log.chunks) {
        const std::size_t in_size = chunk.size();
        std::size_t w = 0; // write cursor; slots [w, i] are free
        for (std::size_t i = 0; i < in_size; ++i) {
            while (we < log.walkEnds.size() &&
                   log.walkEnds[we] == base + i) {
                shift_walk_end(we);
                ++we;
            }
            Event& e = chunk[i];
            if (e.kind == Event::Kind::OutputWrite && e.flagA) {
                if (!e.flagB) {
                    if (!fs.nodes.admit(e.key, e.level)) {
                        --dlog;
                        --dlogical;
                        continue;
                    }
                } else if (reduce) {
                    if (!fs.reducedLeaves.insert(e.key)) {
                        // An earlier slice wrote this leaf: the serial
                        // engine reduced — restore the missing add.
                        datapath_sink.compute('a', e.pe, 1);
                        ++restored;
                        if (e.a == 0)
                            ++dlogical; // serial had one more record
                        e.flagA = false;
                    }
                    e.a = 0;
                }
            }
            if (w != i)
                chunk[w] = e;
            ++w;
        }
        chunk.resize(w);
        base += in_size;
    }
    for (; we < log.walkEnds.size(); ++we)
        shift_walk_end(we);
    shift(log.logicalEvents, dlogical);
    return restored;
}

} // namespace

const char*
mergeName(SplitPoint::Merge m)
{
    switch (m) {
      case SplitPoint::Merge::Serial: return "serial";
      case SplitPoint::Merge::Live: return "live";
      case SplitPoint::Merge::Disjoint: return "disjoint";
      case SplitPoint::Merge::Reduce: return "reduce";
    }
    return "?";
}

Executor::Executor(const ir::EinsumPlan& plan, trace::Observer& obs,
                   Semiring sr, const ExecOptions& opts)
    : plan_(plan), sr_(sr), opts_(opts), engine_(plan, obs, sr, opts)
{
}

ft::Tensor
Executor::run()
{
    const ModelHooks& hooks = opts_.modelHooks;
    if (hooks.enabled())
        engine_.setTraceFilter(hooks.classifier, hooks.coordinatorSink);
    unsigned threads = opts_.threads;
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    split_ = SplitPoint{};
    if (threads > 1 && plan_.shard.shardable && hooks.enabled())
        return runSharded(threads);
    ft::Tensor out = engine_.run();
    stats_ = engine_.stats();
    return out;
}

void
Executor::enumerateSplit(TopWalk& tw)
{
    const ir::ShardPlan& sp = plan_.shard;
    engine_.enumerateTop(tw, sp.depth);
    // Deepen while the walk is too coarse to feed a pool. Stop before
    // a take's probe loop, and before a loop that would make a
    // collision-free walk collide: its disjoint merge adds nothing up,
    // and a reduce merge there would regroup sums the serial run
    // groups differently.
    for (std::size_t d = sp.depth + 1;
         tw.entries.size() < kMinUnits && d < sp.loops.size() &&
         !sp.loops[d].restrictsProbe;
         ++d) {
        TopWalk deeper;
        engine_.enumerateTop(deeper, d);
        if (deeper.collides && !tw.collides)
            break;
        tw = std::move(deeper);
    }
}

ft::Tensor
Executor::runSharded(unsigned threads)
{
    // Serial enumeration of the split walk fixes every unit's
    // coordinates, driver cursors, and PE ids up front (the loop-0
    // walk summary is replayed after the slices, where the serial
    // merge loop would emit it). Datapath records are consumed by
    // per-slice accumulators inside the workers (see ModelHooks);
    // only order-dependent records are captured and replayed.
    const ModelHooks& hooks = opts_.modelHooks;

    engine_.beginRun(/*announce_swizzles=*/false);
    engine_.emitSwizzleAnnouncements();
    TopWalk tw;
    enumerateSplit(tw);
    // Loop 0's pre-lookups lead the serial stream: emitted here,
    // exactly once, and kept applied for the coordinator's live units.
    const bool top_skipped = engine_.enterTop(/*emit=*/true);
    TEAAL_ASSERT(top_skipped == tw.topSkipped,
                 "loop-0 pre-lookups diverged from enumeration");

    const std::size_t n = tw.entries.size();
    // Partials of a collision-free walk own disjoint output points:
    // they merge without adding anything up, and the coordinator runs
    // the slices it claims live on the delivery bus.
    const bool reduce_mode = tw.collides;
    split_.rank = plan_.loops[tw.depth].name;
    split_.depth = tw.depth;
    split_.units = n;
    split_.merge = n <= 1 ? SplitPoint::Merge::Live
                          : (reduce_mode ? SplitPoint::Merge::Reduce
                                         : SplitPoint::Merge::Disjoint);

    if (n <= 1) {
        // Nothing to spread: run it live, with no worker, capture,
        // spill or replay.
        if (n == 1)
            engine_.executeUnit(tw, 0);
        engine_.closeUnits();
        if (!tw.topSkipped)
            engine_.emitTopSummary(tw);
        stats_ = engine_.stats();
        return engine_.finishOutput(engine_.takeOutput());
    }

    // Each slice of a disjoint walk reorders its own partial output
    // into the declared order, so the coordinator only merges.
    const bool reorder_in_slices = !reduce_mode &&
                                   !plan_.output.productionOrder.empty() &&
                                   plan_.output.needsReorder;
    const auto reorder = [&](ft::Tensor&& t) {
        return reorder_in_slices
                   ? ft::swizzle(t, plan_.output.declaredOrder)
                   : std::move(t);
    };

    const std::size_t init_shards =
        std::min(n, reduce_mode ? kReduceShards : kMaxShards);
    const std::vector<std::size_t> bounds =
        weightedBounds(tw, init_shards);
    const std::size_t sink_cap = std::min(n, kSliceCap);

    const std::vector<trace::DatapathSink*> shard_sinks =
        hooks.makeShardSinks(sink_cap);

    /**
     * One contiguous, exclusively-owned unit range [lo, hi). The unit
     * cursor advances under the global mutex so an idle thread can
     * steal the unexecuted upper half of any in-flight slice (the
     * victim simply observes its hi shrink at its next claim). Slices
     * stay sorted by lo and are replayed in that order — which is
     * serial unit order, so results, counters, and replayed streams
     * are byte-identical no matter where steals land.
     */
    struct Slice
    {
        std::size_t lo = 0;
        std::size_t hi = 0;
        std::size_t cursor = 0;
        std::size_t sink = 0;
        bool running = false;
        bool done = false;
        bool live = false; // coordinator executed it on the delivery bus
        trace::TraceLog log;
        /// Out-of-core capture (ExecOptions::spill): this slice's log
        /// partition. Created for every capture slice; touches disk
        /// only if the log actually crosses the segment threshold.
        std::unique_ptr<trace::SpillWriter> spillw;
        ft::Tensor out;
        std::size_t leaves = 0; // out's nnz, when reordered in the slice
        ExecutionStats stats;
    };

    trace::ChunkPool chunk_pool; // outlives the slices below
    const auto arm_spill = [this](Slice& sl) {
        if (opts_.spill == nullptr)
            return;
        sl.spillw = opts_.spill->makeWriter();
        sl.log.spill = sl.spillw.get();
    };
    std::vector<std::unique_ptr<Slice>> slices;
    slices.reserve(sink_cap);
    for (std::size_t s = 0; s < init_shards; ++s) {
        auto sl = std::make_unique<Slice>();
        sl->lo = bounds[s];
        sl->hi = bounds[s + 1];
        sl->cursor = bounds[s];
        sl->sink = s;
        sl->log.pool = &chunk_pool;
        arm_spill(*sl);
        slices.push_back(std::move(sl));
    }

    std::mutex mutex;
    std::condition_variable cv;
    std::size_t replay_idx = 0;   // next slice the coordinator finalizes
    std::size_t sink_next = init_shards;
    unsigned joined = 0; // workers that entered drain()
    bool abort = false;
    std::exception_ptr first_error;

    // Workers only claim within a window ahead of the replay cursor,
    // bounding how much captured (not yet replayed) trace can pile up.
    const std::size_t window =
        std::max<std::size_t>(8, 4 * static_cast<std::size_t>(threads));

    auto record_error = [&]() {
        {
            std::lock_guard<std::mutex> lk(mutex);
            if (first_error == nullptr)
                first_error = std::current_exception();
            abort = true;
        }
        cv.notify_all();
    };

    // Claim work under the lock: the first unclaimed slice in the
    // window, else steal — split the largest unexecuted remainder of
    // an in-flight slice and claim its upper half.
    auto claim_work = [&]() -> Slice* {
        const std::size_t limit =
            std::min(slices.size(), replay_idx + window);
        for (std::size_t i = replay_idx; i < limit; ++i) {
            Slice* s = slices[i].get();
            if (!s->running && !s->done) {
                s->running = true;
                return s;
            }
        }
        // Reduce-merge partials fold per slice, so the partition IS
        // the fp summation grouping: it must stay a pure function of
        // plan and data. Never split reduce slices — idle workers
        // fall back to waiting for unclaimed whole slices.
        if (reduce_mode)
            return nullptr;
        if (slices.size() >= kSliceCap || sink_next >= sink_cap)
            return nullptr;
        std::size_t best = limit;
        std::size_t best_rem = 1; // a split needs >= 2 remaining units
        for (std::size_t i = replay_idx; i < limit; ++i) {
            Slice* s = slices[i].get();
            if (s->done)
                continue;
            const std::size_t rem = s->hi - s->cursor;
            if (rem > best_rem) {
                best_rem = rem;
                best = i;
            }
        }
        if (best == limit)
            return nullptr;
        Slice* victim = slices[best].get();
        const std::size_t mid =
            victim->cursor + (victim->hi - victim->cursor + 1) / 2;
        auto stolen = std::make_unique<Slice>();
        stolen->lo = mid;
        stolen->hi = victim->hi;
        stolen->cursor = mid;
        stolen->sink = sink_next++;
        stolen->running = true;
        stolen->log.pool = &chunk_pool;
        arm_spill(*stolen);
        victim->hi = mid;
        Slice* p = stolen.get();
        slices.insert(slices.begin() +
                          static_cast<std::ptrdiff_t>(best) + 1,
                      std::move(stolen));
        return p;
    };

    // Execute one claimed slice on a fresh capture engine, advancing
    // the shared cursor unit by unit so thieves can shrink hi.
    auto work_slice = [&](Slice* s) {
        try {
            TEAAL_FAILPOINT("exec.executor.slice");
            Engine eng(plan_, s->log, sr_, opts_);
            eng.setTraceFilter(hooks.classifier, shard_sinks[s->sink]);
            if (reduce_mode)
                eng.setReduceCapture(true);
            eng.beginShard();
            for (;;) {
                std::size_t u;
                {
                    std::lock_guard<std::mutex> lk(mutex);
                    if (abort || s->cursor >= s->hi)
                        break;
                    u = s->cursor++;
                }
                eng.executeUnit(tw, u);
            }
            eng.finishShard();
            s->out = reorder(eng.takeOutput());
            if (reorder_in_slices)
                s->leaves = s->out.nnz();
            s->stats = eng.stats();
        } catch (...) {
            record_error();
        }
        {
            std::lock_guard<std::mutex> lk(mutex);
            s->done = true;
        }
        cv.notify_all();
    };

    auto drain = [&](unsigned) {
        {
            std::lock_guard<std::mutex> lk(mutex);
            ++joined;
        }
        for (;;) {
            Slice* s = nullptr;
            {
                std::unique_lock<std::mutex> lk(mutex);
                if (abort || replay_idx >= slices.size())
                    return;
                s = claim_work();
                if (s == nullptr) {
                    cv.wait_for(lk, std::chrono::milliseconds(1));
                    continue;
                }
            }
            work_slice(s);
        }
    };

    const unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(threads - 1, n));
    util::ThreadPool::Ticket ticket;
    std::vector<std::thread> adhoc;
    if (opts_.pool != nullptr) {
        ticket = opts_.pool->launch(workers, drain);
    } else {
        adhoc.reserve(workers);
        for (unsigned w = 0; w < workers; ++w)
            adhoc.emplace_back(drain, w);
    }

    FixupState fixup_state;
    engine_.setInsertFilter(&fixup_state.nodes);
    ft::AbsorbContext actx;
    actx.einsum = plan_.output.name;
    actx.rankIds = plan_.output.productionOrder.empty()
                       ? std::vector<std::string>{"_S"}
                       : (reorder_in_slices ? plan_.output.declaredOrder
                                            : plan_.output.productionOrder);
    ft::Tensor merged;
    bool first_merge = true;
    ExecutionStats agg;
    std::size_t fixup_adds = 0;
    std::size_t leaves = 0;
    auto absorb = [&](ft::Tensor&& part) {
        if (first_merge) {
            merged = std::move(part);
            first_merge = false;
            return;
        }
        if (part.root() == nullptr)
            return;
        TEAAL_ASSERT(merged.root() != nullptr,
                     "shard output missing a root fiber");
        if (reduce_mode) {
            merged.root()->absorbReduce(std::move(*part.root()),
                                        sr_.add, &actx);
        } else {
            merged.root()->absorbDisjoint(std::move(*part.root()),
                                          &actx);
        }
    };

    // The coordinator walks slices strictly in begin order:
    // live-executing (disjoint walks) or capture-executing every slice
    // no worker got to first, and replaying worker captures otherwise
    // (after the in-order fixup pass).
    try {
        for (;;) {
            Slice* s = nullptr;
            bool execute_here = false;
            {
                std::unique_lock<std::mutex> lk(mutex);
                if (abort || replay_idx >= slices.size())
                    break;
                s = slices[replay_idx].get();
                if (!s->running && !s->done) {
                    s->running = true;
                    // Live execution skips capture, spill and replay.
                    // Until the whole pool has joined, the coordinator
                    // captures like a worker instead: a pool slow to
                    // wake (or busy with other runs) then leaves the
                    // run on the capture path, not mostly live, and the
                    // first slice is always captured.
                    s->live = !reduce_mode && joined == workers;
                    execute_here = true;
                } else if (!s->done) {
                    cv.wait(lk, [&] { return s->done || abort; });
                    if (abort)
                        break;
                }
            }
            if (execute_here && s->live) {
                for (;;) {
                    std::size_t u;
                    {
                        std::lock_guard<std::mutex> lk(mutex);
                        if (abort || s->cursor >= s->hi)
                            break;
                        u = s->cursor++;
                    }
                    engine_.executeUnit(tw, u);
                }
                {
                    std::lock_guard<std::mutex> lk(mutex);
                    s->done = true;
                }
                cv.notify_all();
            } else if (execute_here) {
                work_slice(s);
            }
            if (!s->live) {
                {
                    std::unique_lock<std::mutex> lk(mutex);
                    if (!s->done)
                        cv.wait(lk,
                                [&] { return s->done || abort; });
                    if (abort)
                        break;
                }
                trace::DatapathSink& fixup_sink = *hooks.coordinatorSink;
                if (s->spillw != nullptr && s->spillw->frames() > 0) {
                    // Spilled slice: stream the on-disk frames back
                    // first (they are a prefix of the slice's stream,
                    // in write order), then fall through to the
                    // residual in-memory tail — which the capture
                    // bus's counter reset left frame-relative, i.e. a
                    // valid stand-alone log.
                    s->spillw->seal();
                    trace::SpillReader reader(s->spillw->path());
                    trace::TraceLog frame;
                    while (reader.next(frame)) {
                        fixup_adds += fixupReplayLog(
                            frame, fixup_state, reduce_mode,
                            fixup_sink);
                        engine_.replayTrace(frame);
                    }
                    s->spillw->discard();
                }
                fixup_adds += fixupReplayLog(
                    s->log, fixup_state, reduce_mode, fixup_sink);
                engine_.replayTrace(s->log);
                s->log.clear();
                agg += s->stats;
                leaves += s->leaves;
                absorb(std::move(s->out));
                s->out = ft::Tensor();
            }
            {
                std::lock_guard<std::mutex> lk(mutex);
                ++replay_idx;
            }
            cv.notify_all();
        }
    } catch (...) {
        record_error();
    }

    // Always drain the workers before unwinding: they reference this
    // frame's state (tw, slices, mutex).
    {
        std::lock_guard<std::mutex> lk(mutex);
        replay_idx = slices.size();
    }
    cv.notify_all();
    if (opts_.pool != nullptr) {
        // wait() rethrows anything a drain job threw outside
        // work_slice's own catch (e.g. an allocation failure in
        // claim_work); fold it into the run's first error rather than
        // letting it preempt an earlier, more specific one.
        try {
            ticket.wait();
        } catch (...) {
            std::lock_guard<std::mutex> lk(mutex);
            if (first_error == nullptr)
                first_error = std::current_exception();
        }
    } else {
        for (std::thread& t : adhoc)
            t.join();
    }
    engine_.setInsertFilter(nullptr);
    if (first_error != nullptr)
        std::rethrow_exception(first_error);

    // The coordinator's live slices accumulated into the delivery
    // engine's own output partial and stats; the reduce adds restored
    // during replay were counted by the serial run but invisible to
    // the slice engines.
    engine_.closeUnits();
    agg += engine_.stats();
    ft::Tensor own = reorder(engine_.takeOutput());
    if (reorder_in_slices)
        leaves += own.nnz();
    absorb(std::move(own));
    agg.computeAdds += fixup_adds;

    if (!tw.topSkipped)
        engine_.emitTopSummary(tw);
    stats_ = agg;
    if (!reorder_in_slices)
        return engine_.finishOutput(std::move(merged));
    // Every interior node of the production-order output was announced
    // exactly once, so the announcements per level are its element
    // counts by depth; the leaves are disjoint across slices.
    std::vector<std::size_t> counts(plan_.output.productionOrder.size(), 0);
    const std::vector<std::size_t>& nodes = fixup_state.nodes.perLevel;
    for (std::size_t l = 0; l + 1 < counts.size() && l < nodes.size(); ++l)
        counts[l] = nodes[l];
    counts.back() = leaves;
    return engine_.finishReordered(std::move(merged), leaves, counts);
}

} // namespace teaal::exec
