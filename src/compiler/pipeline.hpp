/**
 * @file
 * The staged compile-once / run-many pipeline — the public entry point
 * of the library (paper §4: one declarative specification generates an
 * executable model; Sparseloop and SAM draw the same line between
 * "lower the spec" and "evaluate it on a workload"):
 *
 *   auto spec  = compiler::Specification::parse(yaml_text, params);
 *   auto model = compiler::compile(std::move(spec));
 *   compiler::Workload w;
 *   w.add("A", a).add("B", b);              // borrowed, never deep-copied
 *   auto r1 = model.run(w);                 // instantiates + executes
 *   auto r2 = model.run(w);                 // executes only (plans cached)
 *
 * compile() owns everything derivable from the specification alone:
 * per-Einsum ir::EinsumRecipes (loop order, partitioning, spacetime,
 * probe ranks, output storage order), the fused-block schedule, the
 * resolved per-Einsum architecture/binding/on-chip tables, and the
 * declared rank-order swizzle recipe. run() binds a Workload —
 * preparing tensors and selecting co-iteration strategies on first
 * contact, cached per workload fingerprint — and executes.
 *
 * RunOptions varies a run without recompiling: the semiring, extra
 * trace observers, per-loop co-iteration overrides (the intersection
 * ablation), and input validation.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "compiler/compiler.hpp"
#include "exec/engine.hpp"
#include "ir/plan.hpp"
#include "model/analytic/estimator.hpp"
#include "trace/observer.hpp"
#include "util/diagnostic.hpp"
#include "util/thread_pool.hpp"

namespace teaal::model
{
class EinsumModel;
} // namespace teaal::model

namespace teaal::compiler
{

/** Knobs for compile(). */
struct CompileOptions
{
    /// Per-workload plan caches kept alive (least-recently-used
    /// eviction beyond this).
    std::size_t workloadCacheCapacity = 4;
};

/**
 * The tensors one simulation runs on. Inputs are borrowed by const
 * reference and never deep-copied; the caller's tensors must stay
 * alive and unmodified for the duration of each run() call that uses
 * them (call touch() after mutating a tensor's contents in place:
 * cached plans hold packed copies that would be stale).
 *
 * Inputs may alternatively be bound as packed rank stores
 * (storage::PackedTensor). Plans walk packed stores only: a pointer
 * input is packed once per cached (workload, semiring) state, and a
 * packed input in its mapping rank-order that needs no partitioning
 * executes straight off the caller's buffers with no copy. Swizzles
 * and partitions run on packed buffers; no input is ever unpacked
 * into a pointer fibertree.
 */
class Workload
{
  public:
    Workload() : fingerprint_(nextStamp()) {}

    /** Borrow @p t (no copy). Returns *this for chaining. */
    Workload&
    add(const std::string& name, const ft::Tensor& t)
    {
        entries_[name] = Entry{&t, {}, nullptr, nullptr};
        fingerprint_ = nextStamp();
        return *this;
    }

    /** Take ownership of @p t (moved, not copied). */
    Workload&
    add(const std::string& name, ft::Tensor&& t)
    {
        entries_[name] = Entry{nullptr, std::move(t), nullptr, nullptr};
        fingerprint_ = nextStamp();
        return *this;
    }

    /**
     * Borrow a packed rank store. Sharper lifetime contract than a
     * borrowed ft::Tensor: cached plans reference the packed buffers
     * *directly* (pointer tensors share their fibers by shared_ptr,
     * packed borrows share nothing), so @p t must stay alive for as
     * long as any run or cached plan of a model uses this workload —
     * not just the current run() call. Pass ownership (the && or
     * shared_ptr overloads) when that is hard to guarantee.
     */
    Workload& add(const std::string& name,
                  const storage::PackedTensor& t);

    /** Take ownership of a packed rank store. */
    Workload& add(const std::string& name, storage::PackedTensor&& t);

    /** Share ownership of a packed rank store: cached plans keep the
     *  buffers alive however long they outlive the caller's copy. */
    Workload& add(const std::string& name,
                  std::shared_ptr<const storage::PackedTensor> t);

    bool has(const std::string& name) const
    {
        return entries_.count(name) != 0;
    }

    /** The pointer tensor bound to @p name (DiagnosticError if absent
     *  or bound packed). */
    const ft::Tensor& tensor(const std::string& name) const;

    /** The packed store bound to @p name, or null if @p name is
     *  absent or bound as a pointer tensor. Borrowed entries return a
     *  non-owning handle. */
    std::shared_ptr<const storage::PackedTensor>
    packed(const std::string& name) const;

    /** Rank ids of the entry (pointer or packed); DiagnosticError if
     *  absent. */
    std::vector<std::string> rankIdsOf(const std::string& name) const;

    std::vector<std::string> names() const;

    /**
     * Identity stamp for plan caching: globally unique, refreshed by
     * every add()/touch(), so a model never confuses two workloads or
     * reuses plans across a mutation.
     */
    std::uint64_t fingerprint() const { return fingerprint_; }

    /** Declare in-place mutation of a borrowed tensor's contents. */
    void touch() { fingerprint_ = nextStamp(); }

  private:
    struct Entry
    {
        const ft::Tensor* borrowed = nullptr;
        ft::Tensor owned;
        const storage::PackedTensor* packedBorrowed = nullptr;
        std::shared_ptr<const storage::PackedTensor> packedOwned;

        bool
        isPacked() const
        {
            return packedBorrowed != nullptr || packedOwned != nullptr;
        }
    };

    static std::uint64_t nextStamp();

    std::map<std::string, Entry> entries_;
    std::uint64_t fingerprint_;
};

/** Per-run knobs — everything that varies without recompiling. */
struct RunOptions
{
    /// Operator redefinition for graph algorithms (paper Figure 12).
    /// Cached state is keyed per (workload, semiring): intermediate
    /// values bound into cached plans depend on the operators, so a
    /// different semiring gets its own plan instantiation.
    exec::Semiring semiring = exec::Semiring::arithmetic();

    /// Extra trace sinks fed alongside the performance model's
    /// storage tier: each receives the same batches of
    /// order-dependent records (datapath records are never Events —
    /// the bus hands them to the model's accumulators), with the
    /// serial run's batch boundaries at every thread count.
    /// Batch-aware sinks consume them directly. Must outlive the
    /// run() call.
    std::vector<trace::Observer*> observers;

    /// Override the planned co-iteration strategy of specific loop
    /// ranks by name — the intersection-ablation knob. Applied at
    /// execution time; cached plans are not mutated.
    std::map<std::string, ir::CoiterStrategy> coiterOverrides;

    /// Validate workload tensors against the declaration (presence
    /// and rank sets) before executing, surfacing mismatches as
    /// DiagnosticError instead of a mid-run failure.
    bool validateInputs = true;

    /// Keep this workload's instantiated plans cached in the model
    /// for later runs. Disable for fire-and-forget workloads.
    bool cacheState = true;

    /// Worker threads per Einsum execution: 1 (default) is the
    /// classic serial path; 0 means one per hardware thread; N >= 2
    /// shards each shardable Einsum's walk across N workers drawn
    /// from the model's shared pool. Nearly every mapping shards: the
    /// executor splits the walk at the outermost loop, one loop
    /// deeper while that yields too few units, and reports the split
    /// in SimulationResult::splits. Counters, delivered trace batches
    /// and output values are byte-identical at every thread count: a
    /// walk that branches at a contraction-restricting loop (SIGMA's
    /// K1 tiles) splits by output coordinate, or runs on the serial
    /// engine when no loop keys one. The rare unshardable Einsum (e.g.
    /// a whole-tensor copy) runs serially, logged once per model.
    ///
    /// The performance model parallelizes with the walk: each worker
    /// runs the model's order-independent tier
    /// (model::ShardAccumulator) inside its shard, and only the
    /// order-dependent storage simulation (and any extra
    /// `observers`) replays serially on the coordinator.
    unsigned threads = 1;

    /// Worker pool for threads >= 2. Default (nullptr) uses the
    /// model's own lazily-created pool; a host serving many models
    /// (serve::Server) passes its one shared pool here so every
    /// model's sharded runs and the request queue draw from the same
    /// workers instead of spawning a pool per model. Must outlive the
    /// run() call.
    util::ThreadPool* pool = nullptr;

    /// Cooperative cancellation: when set (borrowed; must outlive the
    /// run), the engine polls the token at walk-batch granularity and
    /// the run unwinds with util::CancelledError — a DiagnosticError
    /// of section "cancelled" carrying the reason, the elapsed time,
    /// and the loop position reached. A cancelled run leaves no
    /// partial outputs and never poisons the plan cache: the next run
    /// on the same workload re-instantiates cleanly.
    const util::CancelToken* cancelToken = nullptr;

    /// Hard deadline for the run (steady clock). Unset (default)
    /// never expires; expiry cancels exactly like a token with reason
    /// CancelReason::Deadline. Checked alongside cancelToken by the
    /// same amortized poll.
    util::Deadline deadline;

    /// Out-of-core trace capture for sharded runs (threads >= 2):
    /// when non-empty, each capture segment's trace spills to its own
    /// append-only file in this directory whenever it crosses
    /// spillSegmentBytes, and the coordinator streams the frames back
    /// in unit order — peak resident trace becomes
    /// O(threads x spillSegmentBytes) instead of growing with the
    /// input, with results, counters, and delivered trace batches
    /// byte-identical to the resident path. The directory must exist
    /// and be writable; segment files are process-private scratch,
    /// deleted as soon as each segment is replayed. Empty (default)
    /// keeps the whole trace resident. Serial runs (threads == 1)
    /// deliver live and never capture, so the option is inert there.
    std::string spillDir;

    /// Target bytes of buffered trace per spilled segment frame
    /// (frames are cut at the first fiber-walk boundary past this
    /// size, never mid-walk).
    std::size_t spillSegmentBytes = 4u << 20;

    /// Keep the segment files after replay instead of deleting them
    /// (debugging artifact; files remain meaningful only to the
    /// writing process — events hold in-process pointers).
    bool spillKeep = false;
};

/**
 * Plan-cache counters since compile(), in stable struct form for the
 * serving daemon's `stats` endpoint and tests. A hit is a run()/
 * plans() call that found its (workload, semiring) state cached; an
 * eviction is an LRU drop past CompileOptions::workloadCacheCapacity
 * (the evicted state stays alive until in-flight runs on it finish).
 */
struct PlanCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t entries = 0; ///< currently cached states
};

/**
 * A specification lowered to an executable model: the reusable
 * artifact of the pipeline. Everything spec-derivable is resolved at
 * compile(); run() only binds data and executes — on a workload it
 * has seen before, nothing is re-derived, re-prepared, or re-planned.
 *
 * Thread safety: concurrent run() calls from multiple host threads
 * are supported. The plan-cache LRU is internally synchronized —
 * entries are held by shared_ptr so eviction never destroys state an
 * in-flight run is using, and runs on the *same* (workload, semiring)
 * serialize on a per-state mutex while runs on distinct workloads
 * proceed in parallel. plans() references follow the documented
 * eviction lifetime; clearCache() while runs are in flight is safe
 * (their state stays alive until they finish).
 *
 * run() is const: evaluation is logically read-only (the plan cache,
 * pool, and counters are internally synchronized implementation
 * state), so holders of a `const CompiledModel&` — e.g. the serving
 * daemon's registry, which shares models across request threads —
 * can evaluate without a cast.
 */
class CompiledModel
{
  public:
    /// Movable but not copyable: the resolved per-Einsum tables point
    /// into this object's own spec_ (map nodes are address-stable
    /// across moves, but a copy would alias the source's).
    CompiledModel(CompiledModel&&) = default;
    CompiledModel& operator=(CompiledModel&&) = default;
    CompiledModel(const CompiledModel&) = delete;
    CompiledModel& operator=(const CompiledModel&) = delete;

    const Specification& spec() const { return spec_; }

    /** Fused-block schedule (expression indices per block). */
    const std::vector<std::vector<std::size_t>>& blocks() const
    {
        return blocks_;
    }

    /** Spec-only per-Einsum lowering recipes, in cascade order. */
    const std::vector<ir::EinsumRecipe>& recipes() const
    {
        return recipes_;
    }

    /** Plan-cache hit/miss/eviction counters since compile(). */
    PlanCacheStats planCacheStats() const;

    /**
     * Execute the cascade on @p workload. The first run on a workload
     * instantiates and caches its plans (preparing tensors, selecting
     * co-iteration strategies); later runs execute the cached plans
     * directly. Results are deterministic: repeated runs on the same
     * workload produce identical records, perf, and traffic.
     */
    SimulationResult run(const Workload& workload,
                         const RunOptions& opts = {}) const;

    /**
     * Analytic fast path: predict what run() would measure — compute
     * ops, intersection work, per-level traffic, buffer occupancy —
     * from metadata alone (rank shapes, occupancy hints, format
     * footprints). No fibertree walk happens and no tensor data is
     * read; the same cached EinsumRecipes are bound to statistics by
     * the plan traversal run() uses (model/analytic/,
     * ir/instantiate.hpp). Orders of magnitude faster than run(), at
     * bounded relative error: the mapping autotuner ranks every
     * candidate with this and trace-simulates only the survivors.
     *
     * Results are cached per workload fingerprint (same LRU capacity
     * as the plan cache). Mappings whose constructs the closed forms
     * cannot express throw DiagnosticError (section "analytic");
     * callers degrade to run().
     */
    model::analytic::AnalyticEstimate
    estimate(const Workload& workload) const;

    /**
     * The fully instantiated per-Einsum plans for @p workload (under
     * the arithmetic semiring) — the documented accessor for
     * plan-level tooling (microbenches, white-box tests) that
     * previously called ir::buildPlan by hand. Instantiates on first
     * use; for cascades whose later Einsums consume intermediates
     * this requires executing the earlier Einsums once (results
     * discarded).
     *
     * The reference points into this model's per-workload cache: it
     * stays valid until the entry is evicted — i.e. until run()/
     * plans() touches more than CompileOptions::workloadCacheCapacity
     * other (workload, semiring) combinations — or clearCache() is
     * called.
     */
    const std::vector<ir::EinsumPlan>& plans(const Workload& workload);

    /**
     * A fresh performance model of Einsum @p einsum over @p plan (the
     * Einsum's entry of plans()), as run() builds one for every
     * Einsum it executes: the topology, binding, format and on-chip
     * tables resolved at compile time. Benches replay a recorded
     * storage-tier stream into its storageSink(). Include
     * model/model.hpp to use it.
     */
    model::EinsumModel einsumModel(std::size_t einsum,
                                   const ir::EinsumPlan& plan) const;

    /**
     * Algorithmic-minimum DRAM traffic: each input read once, the
     * final result written once (the Figure 9 normalization
     * baseline). @p result supplies the produced output tensor.
     */
    double algorithmicMinBytes(const Workload& workload,
                               const SimulationResult& result) const;

    /** Drop all cached per-workload state (plans, prepared tensors). */
    void
    clearCache() const
    {
        std::lock_guard<std::mutex> lk(*cacheMutex_);
        states_.clear();
    }

  private:
    friend CompiledModel compile(Specification spec,
                                 const CompileOptions& opts);

    CompiledModel() = default;

    /** Cached per-(workload, semiring) execution state. Keyed on the
     *  semiring too because cached plans bind intermediate *values*,
     *  which depend on the operators that produced them. */
    struct WorkloadState
    {
        std::uint64_t fingerprint = 0;
        exec::Semiring semiring = exec::Semiring::arithmetic();
        /// Every workload input as the packed store plans bind, in its
        /// mapping rank-order: a packed input in that order as given
        /// (shared, no copy), a pointer input packed once, and a
        /// discordant one swizzled once on packed buffers (offline,
        /// uncharged — paper §3.2.2). Intermediates are not kept here:
        /// each plan that binds one owns its packed copy.
        ir::PackedRefMap inputs;
        std::vector<ir::EinsumPlan> plans;
        bool prepared = false; // inputs materialized
        bool plansComplete = false;
        /// Serializes runs sharing this state: concurrent run() calls
        /// on the *same* (workload, semiring) take turns; calls on
        /// distinct workloads proceed in parallel.
        std::mutex runMutex;
    };

    std::shared_ptr<WorkloadState>
    stateFor(const Workload& w, const exec::Semiring& sr) const;
    /** Detach @p st from the LRU (no-op if already evicted) — used to
     *  discard a state whose instantiating run failed mid-way. */
    void dropState(const std::shared_ptr<WorkloadState>& st) const;
    void prepareInputs(WorkloadState& st, const Workload& w) const;
    /** Input @p name of @p w as a packed store in its mapping
     *  rank-order (WorkloadState::inputs). */
    std::shared_ptr<const storage::PackedTensor>
    preparedInput(const Workload& w, const std::string& name) const;
    void validateWorkload(const Workload& w) const;
    void validateOverrides(const RunOptions& opts) const;
    SimulationResult runOn(WorkloadState& st, const Workload& w,
                           const RunOptions& opts) const;
    util::ThreadPool* poolFor(unsigned threads) const;

    Specification spec_;
    CompileOptions opts_;

    std::vector<std::vector<std::size_t>> blocks_;
    std::vector<ir::EinsumRecipe> recipes_;

    /// Per-Einsum resolved tables (pointers into spec_, stable).
    std::vector<const binding::EinsumBinding*> bindings_;
    std::vector<const arch::Topology*> topologies_;
    std::vector<std::set<std::string>> onChip_;

    /// True when some Einsum consumes an earlier Einsum's output, so
    /// plans() must execute the cascade once to materialize them.
    bool plansNeedExecution_ = false;

    /// One-shot latch for the threads>1-but-serial info log (in a
    /// shared_ptr so the model stays movable).
    std::shared_ptr<std::atomic<bool>> serialFallbackLogged_ =
        std::make_shared<std::atomic<bool>>(false);

    /// LRU list of per-workload states (front = most recent), held by
    /// shared_ptr so an eviction racing an in-flight run on another
    /// host thread can never destroy state under it. cacheMutex_
    /// guards the list structure only; per-state work is serialized
    /// by WorkloadState::runMutex. (Concurrent run() calls are
    /// supported; see the class comment.) Mutable: the cache is
    /// internally-synchronized implementation state of the logically
    /// const run() surface.
    mutable std::list<std::shared_ptr<WorkloadState>> states_;
    std::unique_ptr<std::mutex> cacheMutex_ =
        std::make_unique<std::mutex>();

    /// Plan-cache counters (under cacheMutex_), in a shared_ptr so
    /// the model stays movable.
    struct CacheCounters
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
    };
    std::shared_ptr<CacheCounters> cacheCounters_ =
        std::make_shared<CacheCounters>();

    /// Analytic-estimate LRU (front = most recent), keyed on the
    /// workload fingerprint; sized like the plan cache. Under
    /// cacheMutex_.
    mutable std::list<
        std::pair<std::uint64_t, model::analytic::AnalyticEstimate>>
        estimates_;

    /// Shared worker pool for RunOptions::threads >= 2, created on
    /// first parallel run.
    mutable std::shared_ptr<util::ThreadPool> pool_;
    std::unique_ptr<std::mutex> poolMutex_ =
        std::make_unique<std::mutex>();
};

/**
 * Lower @p spec to an executable model. Validates the specification
 * and resolves every spec-derivable table; throws
 * teaal::DiagnosticError pinning problems to their section/key.
 */
CompiledModel compile(Specification spec, const CompileOptions& opts = {});

} // namespace teaal::compiler
