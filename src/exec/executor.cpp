#include "exec/executor.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
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
 * Slice-count cap. The plan's recorded walk is split into
 * min(units, kMaxShards) contiguous slices at work-weighted
 * boundaries (an output-keyed walk into min(keys, kMaxShards) key
 * ranges). 64 slices keep dynamic scheduling balanced on any
 * realistic worker count while per-slice engine setup stays
 * negligible.
 */
constexpr std::size_t kMaxShards = 64;

/**
 * Fewest units a split should yield: while the walk has fewer, it is
 * enumerated again one loop deeper (Executor::enumerateSplit). A
 * constant, so the split never depends on the thread count.
 */
constexpr std::size_t kMinUnits = 16;

/**
 * Split [0, n) into @p shards contiguous ranges at the weighted
 * quantiles of @p weight (each range non-empty). Falls back to equal
 * counts when no weights were recorded.
 */
std::vector<std::size_t>
weightedBounds(const std::vector<double>& weight, std::size_t n,
               std::size_t shards)
{
    std::vector<std::size_t> bounds(shards + 1, 0);
    bounds[shards] = n;
    if (shards <= 1)
        return bounds;
    double total = 0.0;
    if (weight.size() == n) {
        for (const double w : weight)
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
        acc += weight[i];
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

/** The slice of every unit when [0, n) is cut into @p slices
 *  contiguous ranges by weightedBounds. */
std::vector<std::size_t>
contiguousSlices(const std::vector<double>& weight, std::size_t n,
                 std::size_t slices)
{
    const std::vector<std::size_t> bounds = weightedBounds(weight, n, slices);
    std::vector<std::size_t> slice_of(n);
    for (std::size_t s = 0; s < slices; ++s) {
        std::fill(slice_of.begin() + static_cast<std::ptrdiff_t>(bounds[s]),
                  slice_of.begin() +
                      static_cast<std::ptrdiff_t>(bounds[s + 1]),
                  s);
    }
    return slice_of;
}

/**
 * The slice of every unit of an output-keyed walk. The distinct keys
 * of its real units, ascending, are cut into min(keys, kMaxShards)
 * ranges at the quantiles of their summed unit weights, so all units
 * of one key share a slice. A barren node's placeholder has no key;
 * it goes to slice 0. Sets @p slices to the slice count (at least 1).
 */
std::vector<std::size_t>
keyedSlices(const TopWalk& tw, std::size_t& slices)
{
    const std::size_t n = tw.entries.size();
    std::vector<std::pair<ft::Coord, double>> units;
    units.reserve(n);
    for (std::size_t u = 0; u < n; ++u) {
        if (!tw.placeholder(u))
            units.emplace_back(tw.key[u], tw.weight[u]);
    }
    std::sort(units.begin(), units.end());
    std::vector<ft::Coord> keys;
    std::vector<double> weight;
    for (const auto& [key, w] : units) {
        if (keys.empty() || keys.back() != key) {
            keys.push_back(key);
            weight.push_back(0.0);
        }
        weight.back() += w;
    }
    slices = std::max<std::size_t>(1, std::min(keys.size(), kMaxShards));
    const std::vector<std::size_t> bounds =
        weightedBounds(weight, keys.size(), slices);
    // First key of slices 1.., ascending.
    std::vector<ft::Coord> cuts;
    for (std::size_t s = 1; s < slices; ++s)
        cuts.push_back(keys[bounds[s]]);
    std::vector<std::size_t> slice_of(n, 0);
    for (std::size_t u = 0; u < n; ++u) {
        if (!tw.placeholder(u)) {
            slice_of[u] = static_cast<std::size_t>(
                std::upper_bound(cuts.begin(), cuts.end(), tw.key[u]) -
                cuts.begin());
        }
    }
    return slice_of;
}

/**
 * The interior output nodes a sharded run's replay has announced. Each
 * node's insert reaches the stream once, where the serial engine
 * announced it, so the per-level tallies are the merged
 * production-order output's element counts by depth — what the
 * declared-order swizzle is charged from when the slices reorder their
 * own partial outputs.
 */
struct OutputNodes
{
    util::FlatSet64 keys;
    std::vector<std::size_t> perLevel;

    /** True iff @p key is new (then counted at @p level). */
    bool
    admit(std::uint64_t key, std::size_t level)
    {
        if (!keys.insert(key))
            return false;
        if (perLevel.size() <= level)
            perLevel.resize(level + 1, 0);
        ++perLevel[level];
        return true;
    }
};

/**
 * Restore the serial event stream from one slice's capture, in slice
 * replay order. Output paths materialize lazily *per slice*, so an
 * output node shared between slices announces its creation once per
 * slice — the serial engine announces it exactly once, where the first
 * slice's copy lands. Duplicates are dropped; @p nodes holds the
 * interior nodes already announced. Leaves need no fixup: slices own
 * disjoint leaves, so a slice's first write of a leaf is the run's.
 *
 * Chunks are rewritten in place: a write cursor trails the read
 * cursor, so drops cost nothing and a kept record costs at most one
 * copy. Walk boundaries are re-indexed onto the surviving records (a
 * drop shifts both the logged and the logical index down).
 *
 * NOTE: the chunk/walkEnds traversal mirrors BatchBus::replay
 * (trace/batch.cpp) — change them together. The thread-equivalence
 * tests (tests/test_parallel.cpp) compare replayed streams including
 * batch boundaries against the serial path and catch any divergence.
 */
void
fixupReplayLog(trace::TraceLog& log, OutputNodes& nodes)
{
    using trace::Event;
    std::size_t dropped = 0; // records dropped so far
    std::size_t we = 0;
    std::size_t base = 0; // global *input* index of the chunk start

    const auto shift_walk_end = [&](std::size_t i) {
        log.walkEnds[i] -= dropped;
        log.logicalWalkEnds[i] -= dropped;
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
            const Event& e = chunk[i];
            if (e.kind == Event::Kind::OutputWrite && e.flagA &&
                !e.flagB && !nodes.admit(e.key, e.level)) {
                ++dropped;
                continue;
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
    log.logicalEvents -= dropped;
}

/** One segment's captured trace: the in-memory log and, with
 *  ExecOptions::spill, the file it drains to. */
struct Capture
{
    trace::TraceLog log;
    /// Created for every capture; touches disk only if the log
    /// actually crosses the segment threshold.
    std::unique_ptr<trace::SpillWriter> spillw;
};

/**
 * One sharded run of an enumerated walk: the scheduler that runs
 * slices of the units on the pool — worker launch and drain, in-order
 * capture replay, the merge of the partial outputs, and the
 * coordinator's tail.
 */
class ShardRun
{
  public:
    ShardRun(const ir::EinsumPlan& plan, Engine& coord, Semiring sr,
             const ExecOptions& opts, const TopWalk& tw, unsigned threads,
             SplitPoint& split)
        : plan_(plan), coord_(coord), sr_(sr), opts_(opts),
          hooks_(opts.modelHooks), tw_(tw), threads_(threads),
          split_(split)
    {
    }

    /**
     * Unit u in slice @p slice_of [u] of @p slices: each slice is one
     * engine that runs its units in ascending order, and its capture
     * is replayed as segments, its maximal runs of consecutive units.
     * The slices own disjoint output points, so the partials merge
     * with absorbDisjoint.
     */
    ft::Tensor sliced(const std::vector<std::size_t>& slice_of,
                      std::size_t slices);

    const ExecutionStats& stats() const { return stats_; }

  private:
    ft::Tensor
    reorder(ft::Tensor&& t) const
    {
        return reorderInSlices_
                   ? ft::swizzle(t, plan_.output.declaredOrder)
                   : std::move(t);
    }

    /** A capture for one segment, drawing chunks from the run's
     *  pool. */
    std::unique_ptr<Capture> newCapture();

    /** Fixup and replay @p cap on the coordinator's bus: its spilled
     *  frames (a prefix of the stream, in write order), then the
     *  resident tail. */
    void replay(Capture& cap);

    /** Fold one partial output into the merged result. */
    void absorb(ft::Tensor&& part);

    /** Stop claims, wait for every worker, rethrow the first error. */
    void join();

    /** Record the in-flight exception and abort the run. */
    void recordError();

    /** The coordinator's tail: the loop-0 summary and the output's
     *  declared-order finish. */
    ft::Tensor finish();

    const ir::EinsumPlan& plan_;
    Engine& coord_;
    Semiring sr_;
    const ExecOptions& opts_;
    const ModelHooks& hooks_;
    const TopWalk& tw_;
    unsigned threads_;
    SplitPoint& split_;

    bool reorderInSlices_ = false;
    trace::ChunkPool chunkPool_;
    OutputNodes nodes_; // interior output nodes the replay announced
    ft::AbsorbContext actx_;
    ft::Tensor merged_;
    bool firstMerge_ = true;
    std::size_t leaves_ = 0; // merged nnz, when reordered in slices
    ExecutionStats stats_;

    std::mutex mutex_;
    std::condition_variable cv_;
    bool abort_ = false;
    std::exception_ptr firstError_;
    util::ThreadPool::Ticket ticket_;
};

std::unique_ptr<Capture>
ShardRun::newCapture()
{
    auto cap = std::make_unique<Capture>();
    cap->log.pool = &chunkPool_;
    if (opts_.spill != nullptr) {
        cap->spillw = opts_.spill->makeWriter();
        cap->log.spill = cap->spillw.get();
    }
    return cap;
}

void
ShardRun::replay(Capture& cap)
{
    if (cap.spillw != nullptr && cap.spillw->frames() > 0) {
        // The residual in-memory tail, which the capture bus's counter
        // reset left frame-relative, follows as a stand-alone log.
        cap.spillw->seal();
        trace::SpillReader reader(cap.spillw->path());
        trace::TraceLog frame;
        while (reader.next(frame)) {
            fixupReplayLog(frame, nodes_);
            coord_.replayTrace(frame);
        }
        cap.spillw->discard();
    }
    fixupReplayLog(cap.log, nodes_);
    coord_.replayTrace(cap.log);
    cap.log.clear();
}

void
ShardRun::absorb(ft::Tensor&& part)
{
    if (firstMerge_) {
        merged_ = std::move(part);
        firstMerge_ = false;
        return;
    }
    if (part.root() == nullptr)
        return;
    TEAAL_ASSERT(merged_.root() != nullptr,
                 "shard output missing a root fiber");
    merged_.root()->absorbDisjoint(std::move(*part.root()), &actx_);
}

void
ShardRun::recordError()
{
    {
        std::lock_guard<std::mutex> lk(mutex_);
        if (firstError_ == nullptr)
            firstError_ = std::current_exception();
        abort_ = true;
    }
    cv_.notify_all();
}

void
ShardRun::join()
{
    {
        std::lock_guard<std::mutex> lk(mutex_);
        abort_ = true;
    }
    cv_.notify_all();
    // wait() rethrows anything a drain job threw outside its own catch
    // (e.g. an allocation failure while claiming); fold it into the
    // run's first error rather than letting it preempt an earlier,
    // more specific one.
    try {
        ticket_.wait();
    } catch (...) {
        std::lock_guard<std::mutex> lk(mutex_);
        if (firstError_ == nullptr)
            firstError_ = std::current_exception();
    }
    if (firstError_ != nullptr)
        std::rethrow_exception(firstError_);
}

ft::Tensor
ShardRun::finish()
{
    // The coordinator's engine ran no unit.
    stats_ += coord_.stats();

    if (!tw_.topSkipped)
        coord_.emitTopSummary(tw_);
    if (!reorderInSlices_)
        return coord_.finishOutput(std::move(merged_));
    // Every interior node of the production-order output was announced
    // exactly once, so the announcements per level are its element
    // counts by depth; the leaves are disjoint across slices.
    std::vector<std::size_t> counts(plan_.output.productionOrder.size(), 0);
    const std::vector<std::size_t>& nodes = nodes_.perLevel;
    for (std::size_t l = 0; l + 1 < counts.size() && l < nodes.size(); ++l)
        counts[l] = nodes[l];
    counts.back() = leaves_;
    return coord_.finishReordered(std::move(merged_), leaves_, counts);
}

ft::Tensor
ShardRun::sliced(const std::vector<std::size_t>& slice_of,
                 std::size_t slices)
{
    // Slices reorder their own partial output into the declared order.
    reorderInSlices_ = !plan_.output.productionOrder.empty() &&
                       plan_.output.needsReorder;
    actx_.einsum = plan_.output.name;
    actx_.rankIds = reorderInSlices_ ? plan_.output.declaredOrder
                                     : plan_.output.productionOrder;
    split_.slices = slices;
    const std::vector<trace::DatapathSink*> shard_sinks =
        hooks_.makeShardSinks ? hooks_.makeShardSinks(slices)
                              : std::vector<trace::DatapathSink*>(slices);

    /** A maximal run of consecutive units in one slice, [lo, hi).
     *  Segments replay in index order, which is serial unit order. */
    struct Segment
    {
        std::size_t slice = 0;
        std::size_t lo = 0;
        std::size_t hi = 0;
        bool claimed = false;
        bool done = false;
        std::unique_ptr<Capture> cap;
    };
    /** One slice's engine persists across its segments, which run one
     *  at a time, in order, so each output point accumulates in the
     *  serial order. */
    struct Slice
    {
        /// What the engine records into between two segments: the
        /// coordinator frees a segment's capture once replayed, and an
        /// engine flushes into its log when destroyed. Declared before
        /// the engine, so it outlives it.
        trace::TraceLog idle;
        std::unique_ptr<Engine> eng;
        std::size_t last = 0; // index of its last segment
        bool busy = false;    // a thread is running one of its segments
        ft::Tensor out;
        std::size_t leaves = 0;
        ExecutionStats stats;
    };

    const std::size_t n = tw_.entries.size();
    std::vector<Segment> segs;
    for (std::size_t u = 0; u < n;) {
        std::size_t v = u + 1;
        while (v < n && slice_of[v] == slice_of[u])
            ++v;
        segs.push_back({slice_of[u], u, v, false, false, nullptr});
        u = v;
    }
    std::vector<Slice> sl(slices);
    for (std::size_t i = 0; i < segs.size(); ++i)
        sl[segs[i].slice].last = i;

    std::size_t replay_idx = 0; // next segment the coordinator replays
    // Workers claim segments within a window of four per thread ahead
    // of the replay cursor: each thread finds an idle slice's segment
    // while others run, and the captured, not yet replayed trace stays
    // within that many segments. (On the Table 1 stand-ins at 4
    // threads, windows of 16 to 224 segments ran equally fast.)
    const std::size_t window = 4 * static_cast<std::size_t>(threads_);

    // Under the lock: the first unclaimed segment in the window whose
    // slice is idle. A slice's earliest unclaimed segment is always
    // the first of its segments the scan meets, so its segments are
    // claimed in order.
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    auto claim = [&]() -> std::size_t {
        const std::size_t limit = std::min(segs.size(), replay_idx + window);
        for (std::size_t i = replay_idx; i < limit; ++i) {
            Segment& g = segs[i];
            if (!g.claimed && !sl[g.slice].busy) {
                g.claimed = true;
                sl[g.slice].busy = true;
                return i;
            }
        }
        return kNone;
    };

    auto run_segment = [&](std::size_t i) {
        Segment& g = segs[i];
        Slice& s = sl[g.slice];
        try {
            TEAAL_FAILPOINT("exec.executor.slice");
            g.cap = newCapture();
            if (s.eng == nullptr) {
                s.eng = std::make_unique<Engine>(plan_, g.cap->log, sr_,
                                                 opts_);
                s.eng->setTraceFilter(hooks_.classifier,
                                      shard_sinks[g.slice]);
                s.eng->beginShard();
            } else {
                s.eng->captureInto(g.cap->log);
            }
            for (std::size_t u = g.lo; u < g.hi; ++u)
                s.eng->executeUnit(tw_, u);
            if (i == s.last) {
                s.eng->finishShard();
                s.out = reorder(s.eng->takeOutput());
                if (reorderInSlices_)
                    s.leaves = s.out.nnz();
                s.stats = s.eng->stats();
                s.eng.reset();
            }
        } catch (...) {
            recordError();
        }
        if (s.eng != nullptr)
            s.eng->captureInto(s.idle);
        {
            std::lock_guard<std::mutex> lk(mutex_);
            g.done = true;
            s.busy = false;
        }
        cv_.notify_all();
    };

    const auto drain = [&](unsigned) {
        for (;;) {
            std::size_t i = kNone;
            {
                std::unique_lock<std::mutex> lk(mutex_);
                if (abort_ || replay_idx >= segs.size())
                    return;
                i = claim();
                if (i == kNone) {
                    cv_.wait(lk);
                    continue;
                }
            }
            run_segment(i);
        }
    };

    const auto workers = static_cast<unsigned>(
        std::min<std::size_t>(threads_ - 1, slices));
    ticket_ = opts_.pool->launch(workers, drain);

    // The coordinator replays segments strictly in order, and merges a
    // slice's partial once its last segment is replayed. While the
    // segment at the cursor is not done, it claims work like a worker
    // — that segment itself when no worker has (its slice is then
    // idle: the slice's earlier segments are replayed), else any
    // claimable one in the window — and sleeps until the next segment
    // completes when nothing is claimable.
    try {
        for (std::size_t i = 0; i < segs.size();) {
            std::size_t mine = kNone;
            {
                std::unique_lock<std::mutex> lk(mutex_);
                if (abort_)
                    break;
                if (!segs[i].done) {
                    const bool unclaimed = !segs[i].claimed;
                    mine = claim();
                    TEAAL_ASSERT(!unclaimed || mine == i,
                                 "slice busy past the replay cursor");
                    if (mine == kNone) {
                        cv_.wait(lk);
                        continue;
                    }
                }
            }
            if (mine != kNone) {
                run_segment(mine);
                continue;
            }
            // Done and no abort: the segment ran without error (a
            // failing one aborts before it is marked done).
            Segment& g = segs[i];
            ++split_.segments;
            replay(*g.cap);
            g.cap.reset();
            Slice& s = sl[g.slice];
            if (i == s.last) {
                stats_ += s.stats;
                leaves_ += s.leaves;
                absorb(std::move(s.out));
            }
            {
                std::lock_guard<std::mutex> lk(mutex_);
                replay_idx = ++i;
            }
            cv_.notify_all();
        }
    } catch (...) {
        recordError();
    }
    // Always drain the workers before unwinding: they reference this
    // frame's segments and slices.
    join();
    return finish();
}

} // namespace

const char*
mergeName(SplitPoint::Merge m)
{
    switch (m) {
      case SplitPoint::Merge::Serial: return "serial";
      case SplitPoint::Merge::Live: return "live";
      case SplitPoint::Merge::Disjoint: return "disjoint";
      case SplitPoint::Merge::Keyed: return "keyed";
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
    engine_.setTraceFilter(hooks.classifier, hooks.coordinatorSink);
    unsigned threads = opts_.threads;
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    split_ = SplitPoint{};
    if (threads > 1 && plan_.shard.shardable)
        return runSharded(threads);
    ft::Tensor out = engine_.run();
    stats_ = engine_.stats();
    return out;
}

bool
Executor::enumerateSplit(TopWalk& tw)
{
    const ir::ShardPlan& sp = plan_.shard;
    const auto splittable = [&sp](std::size_t d) {
        return d < sp.loops.size() && !sp.loops[d].restrictsProbe;
    };
    engine_.enumerateTop(tw, sp.depth);
    // Deepen while the walk is too coarse to feed a pool. Stop before
    // a take's probe loop, and before a loop that would make a
    // collision-free walk collide: its units would no longer own
    // disjoint output points.
    TopWalk below;
    bool have_below = false; // `below` is loop tw.depth+1's walk
    for (std::size_t d = sp.depth + 1;
         tw.entries.size() < kMinUnits && splittable(d); ++d) {
        engine_.enumerateTop(below, d);
        if (below.collides && !tw.collides) {
            have_below = true;
            break;
        }
        std::swap(tw, below);
    }
    // Key the split by output coordinate when the walk collides, or
    // when it has fewer units than a pool's slice count and collides
    // one loop deeper.
    if (!tw.collides) {
        // Only a loop that restricts a contraction can make a
        // collision-free walk collide.
        if (tw.entries.size() >= kMaxShards || !splittable(tw.depth + 1) ||
            !sp.loops[tw.depth + 1].restrictsContraction)
            return false;
        if (!have_below) {
            engine_.enumerateTop(below, tw.depth + 1);
            have_below = true;
        }
        if (!below.collides)
            return false;
    }
    // The keyed loop: the first at or below the split, and below the
    // loop that makes a collision-free walk collide, whose leading
    // variable is an output variable.
    std::size_t k = tw.collides ? tw.depth : tw.depth + 1;
    while (splittable(k) && !sp.loops[k].keysOutput)
        ++k;
    if (!splittable(k))
        return false;
    if (have_below && k == tw.depth + 1)
        std::swap(tw, below);
    else if (k != tw.depth)
        engine_.enumerateTop(tw, k);
    return true;
}

ft::Tensor
Executor::runSharded(unsigned threads)
{
    TEAAL_ASSERT(opts_.pool != nullptr,
                 "a sharded run draws its workers from ExecOptions::pool");
    // Serial enumeration of the split walk fixes every unit's
    // coordinates, driver cursors, and PE ids up front, before the run
    // emits anything (the loop-0 walk summary is emitted after the
    // slices, where the serial merge loop would emit it). Datapath
    // records are consumed by per-slice accumulators inside the
    // workers (see ModelHooks); only order-dependent records are
    // captured and replayed.
    engine_.beginRun(/*announce_swizzles=*/false);
    TopWalk tw;
    const bool keyed = enumerateSplit(tw);

    const std::size_t n = tw.entries.size();
    split_.rank = plan_.loops[tw.depth].name;
    split_.depth = tw.depth;
    split_.units = n;

    // Output-keyed slices are key ranges; a collision-free walk's are
    // contiguous unit ranges. Either way the partials own disjoint
    // output points. A colliding walk here has no output coordinate to
    // key on, so it takes no slices.
    std::size_t slices = 0;
    std::vector<std::size_t> slice_of;
    if (keyed) {
        split_.merge = SplitPoint::Merge::Keyed;
        slice_of = keyedSlices(tw, slices);
    } else if (!tw.collides) {
        split_.merge = SplitPoint::Merge::Disjoint;
        slices = std::min(n, kMaxShards);
        slice_of = contiguousSlices(tw.weight, n, slices);
    }
    if (slices <= 1) {
        // Nothing to spread (one unit or key, or a colliding walk with
        // no key): the serial engine runs it.
        split_.merge = SplitPoint::Merge::Live;
        split_.slices = 1;
        ft::Tensor out = engine_.run();
        stats_ = engine_.stats();
        return out;
    }

    // Swizzle announcements and loop 0's pre-lookups lead the serial
    // stream: emitted here, exactly once.
    engine_.emitSwizzleAnnouncements();
    const bool top_skipped = engine_.enterTop(/*emit=*/true);
    TEAAL_ASSERT(top_skipped == tw.topSkipped,
                 "loop-0 pre-lookups diverged from enumeration");
    ShardRun run(plan_, engine_, sr_, opts_, tw, threads, split_);
    ft::Tensor out = run.sliced(slice_of, slices);
    stats_ = run.stats();
    return out;
}

} // namespace teaal::exec
