#include "compiler/pipeline.hpp"

#include <algorithm>
#include <atomic>

#include "energy/energy.hpp"
#include "exec/executor.hpp"
#include "format/format.hpp"
#include "model/model.hpp"
#include "model/perf.hpp"
#include "storage/packed.hpp"
#include "storage/transform.hpp"
#include "trace/fanout.hpp"
#include "trace/spill.hpp"
#include "util/failpoint.hpp"
#include "util/logging.hpp"
#include "util/string_utils.hpp"

namespace teaal::compiler
{

// ------------------------------------------------------------ Workload

std::uint64_t
Workload::nextStamp()
{
    static std::atomic<std::uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
}

Workload&
Workload::add(const std::string& name, const storage::PackedTensor& t)
{
    Entry e;
    e.packedBorrowed = &t;
    entries_[name] = std::move(e);
    fingerprint_ = nextStamp();
    return *this;
}

Workload&
Workload::add(const std::string& name, storage::PackedTensor&& t)
{
    Entry e;
    e.packedOwned =
        std::make_shared<const storage::PackedTensor>(std::move(t));
    entries_[name] = std::move(e);
    fingerprint_ = nextStamp();
    return *this;
}

Workload&
Workload::add(const std::string& name,
              std::shared_ptr<const storage::PackedTensor> t)
{
    Entry e;
    e.packedOwned = std::move(t);
    entries_[name] = std::move(e);
    fingerprint_ = nextStamp();
    return *this;
}

const ft::Tensor&
Workload::tensor(const std::string& name) const
{
    const auto it = entries_.find(name);
    if (it == entries_.end())
        diagError("workload", name, "missing input tensor '", name, "'");
    if (it->second.isPacked())
        diagError("workload", name, "input tensor '", name,
                  "' is bound as a packed rank store");
    return it->second.borrowed != nullptr ? *it->second.borrowed
                                          : it->second.owned;
}

std::shared_ptr<const storage::PackedTensor>
Workload::packed(const std::string& name) const
{
    const auto it = entries_.find(name);
    if (it == entries_.end() || !it->second.isPacked())
        return nullptr;
    if (it->second.packedOwned != nullptr)
        return it->second.packedOwned;
    // Borrowed: non-owning handle (empty control block) — the caller
    // keeps the packed tensor alive, like borrowed pointer tensors.
    return std::shared_ptr<const storage::PackedTensor>(
        std::shared_ptr<const storage::PackedTensor>(),
        it->second.packedBorrowed);
}

std::vector<std::string>
Workload::rankIdsOf(const std::string& name) const
{
    const auto it = entries_.find(name);
    if (it == entries_.end())
        diagError("workload", name, "missing input tensor '", name, "'");
    if (it->second.isPacked())
        return packed(name)->rankIds();
    return tensor(name).rankIds();
}

std::vector<std::string>
Workload::names() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& [name, entry] : entries_)
        out.push_back(name);
    return out;
}

// ------------------------------------------------------------- compile

CompiledModel
compile(Specification spec, const CompileOptions& opts)
{
    CompiledModel model;
    model.spec_ = std::move(spec);
    model.opts_ = opts;
    Specification& s = model.spec_;

    // A default single-DRAM topology lets purely functional runs work
    // without an architecture section.
    if (opts.addDefaultArchitecture &&
        s.architecture.topologyNames().empty()) {
        arch::Topology topo;
        topo.name = "default";
        topo.root.name = "System";
        arch::Component dram;
        dram.name = "MainMemory";
        dram.cls = arch::ComponentClass::DRAM;
        dram.attributes["bandwidth"] = "100";
        topo.root.local.push_back(dram);
        arch::Component alu;
        alu.name = "ALU";
        alu.cls = arch::ComponentClass::Compute;
        alu.attributes["type"] = "mul";
        topo.root.local.push_back(alu);
        s.architecture.add(std::move(topo));
    }

    const einsum::EinsumSpec& es = s.einsums;

    if (opts.validate) {
        try {
            es.validate();
        } catch (const SpecError& e) {
            rethrowAsDiagnostic("einsum", "", e);
        }
    }

    // Spec-only lowering: one recipe per Einsum (loop order,
    // partitioning, spacetime, probe ranks, output storage order).
    for (const einsum::Expression& expr : es.expressions) {
        try {
            model.recipes_.push_back(
                ir::analyzeEinsum(expr, es, s.mapping));
        } catch (const SpecError& e) {
            rethrowAsDiagnostic("mapping", expr.output.name, e);
        }
    }

    // Shard plan per Einsum: how run(threads=N) may split it.
    for (const ir::EinsumRecipe& recipe : model.recipes_)
        model.shardPlans_.push_back(ir::analyzeSharding(recipe));

    // Resolved per-Einsum binding and topology tables.
    for (const einsum::Expression& expr : es.expressions) {
        const binding::EinsumBinding& eb =
            s.bindings.einsum(expr.output.name);
        model.bindings_.push_back(&eb);
        try {
            model.topologies_.push_back(
                &s.architecture.topology(eb.topology));
        } catch (const SpecError& e) {
            rethrowAsDiagnostic("binding", expr.output.name, e);
        }
        // A storage binding naming a format configuration the format
        // section does not declare used to fall back to the default
        // all-compressed format silently (when the tensor had no
        // format entry at all) or fail mid-run; surface it here.
        for (const binding::ComponentBinding& cb : eb.components) {
            for (const binding::StorageBinding& sb : cb.storage) {
                if (sb.config.empty() ||
                    s.formats.hasConfig(sb.tensor, sb.config))
                    continue;
                diagError("format", sb.tensor, "einsum '",
                          expr.output.name, "': binding of tensor '",
                          sb.tensor, "' to component '", cb.component,
                          "' names format config '", sb.config,
                          "', which the format section does not "
                          "declare");
            }
        }
        // A binding naming a component its topology does not declare
        // used to slip through: storage bindings failed mid-run with
        // a bare SpecError, and op bindings silently created an empty
        // pseudo-component (default instance count, wrong class) in
        // the model. Pin both to the binding section at compile time.
        const arch::Topology& topo = *model.topologies_.back();
        for (const binding::ComponentBinding& cb : eb.components) {
            if (topo.findComponent(cb.component, nullptr) != nullptr)
                continue;
            diagError("binding", cb.component, "einsum '",
                      expr.output.name, "': binding names component '",
                      cb.component, "', which topology '",
                      (topo.name.empty() ? eb.topology : topo.name),
                      "' of the architecture section does not "
                      "declare");
        }
    }

    // Fused-block schedule: must be known before execution so fused
    // intermediates skip DRAM.
    model.blocks_ = model::inferBlocks(es, s.mapping, s.bindings);
    std::map<std::size_t, std::size_t> block_of;
    for (std::size_t b = 0; b < model.blocks_.size(); ++b) {
        for (std::size_t idx : model.blocks_[b])
            block_of[idx] = b;
    }
    std::set<std::string> fused_intermediates;
    for (std::size_t i = 0; i < es.expressions.size(); ++i) {
        const std::string& produced = es.expressions[i].output.name;
        for (int consumer : es.consumersOf(produced)) {
            if (block_of[i] ==
                block_of[static_cast<std::size_t>(consumer)]) {
                fused_intermediates.insert(produced);
            }
        }
    }

    // Per-Einsum on-chip sets: within a fused block, a tensor streamed
    // by an earlier Einsum is shared through the pipeline — later
    // Einsums re-use it on chip instead of re-reading DRAM (e.g.
    // Gamma's A).
    for (std::size_t i = 0; i < es.expressions.size(); ++i) {
        std::set<std::string> on_chip = fused_intermediates;
        for (std::size_t j : model.blocks_[block_of[i]]) {
            if (j >= i)
                break;
            for (const einsum::TensorRef& in : es.expressions[j].inputs)
                on_chip.insert(in.name);
        }
        model.onChip_.push_back(std::move(on_chip));
    }

    // Does any Einsum consume an earlier Einsum's output? Then plans()
    // must execute the cascade once to materialize intermediates.
    for (std::size_t i = 0; i < es.expressions.size(); ++i) {
        for (const einsum::TensorRef& in : es.expressions[i].inputs) {
            if (es.producerOf(in.name) >= 0 &&
                static_cast<std::size_t>(es.producerOf(in.name)) < i)
                model.plansNeedExecution_ = true;
        }
    }

    return model;
}

// ------------------------------------------------------ CompiledModel

std::shared_ptr<CompiledModel::WorkloadState>
CompiledModel::stateFor(const Workload& w, const exec::Semiring& sr) const
{
    std::lock_guard<std::mutex> lk(*cacheMutex_);
    for (auto it = states_.begin(); it != states_.end(); ++it) {
        if ((*it)->fingerprint == w.fingerprint() &&
            (*it)->semiring == sr) {
            states_.splice(states_.begin(), states_, it);
            ++cacheCounters_->hits;
            return states_.front();
        }
    }
    states_.emplace_front(std::make_shared<WorkloadState>());
    states_.front()->fingerprint = w.fingerprint();
    states_.front()->semiring = sr;
    ++cacheCounters_->misses;
    // Evicted entries only drop the cache's reference: a run still
    // holding the shared_ptr finishes safely on the detached state.
    while (states_.size() >
           std::max<std::size_t>(1, opts_.workloadCacheCapacity)) {
        states_.pop_back();
        ++cacheCounters_->evictions;
    }
    return states_.front();
}

void
CompiledModel::dropState(
    const std::shared_ptr<WorkloadState>& st) const
{
    std::lock_guard<std::mutex> lk(*cacheMutex_);
    for (auto it = states_.begin(); it != states_.end(); ++it) {
        if (*it == st) {
            states_.erase(it);
            ++cacheCounters_->evictions;
            return;
        }
    }
}

PlanCacheStats
CompiledModel::planCacheStats() const
{
    std::lock_guard<std::mutex> lk(*cacheMutex_);
    PlanCacheStats s;
    s.hits = cacheCounters_->hits;
    s.misses = cacheCounters_->misses;
    s.evictions = cacheCounters_->evictions;
    s.entries = states_.size();
    return s;
}

util::ThreadPool*
CompiledModel::poolFor(unsigned threads) const
{
    if (threads == 1)
        return nullptr;
    std::lock_guard<std::mutex> lk(*poolMutex_);
    if (pool_ == nullptr)
        pool_ = std::make_shared<util::ThreadPool>();
    return pool_.get();
}

std::vector<ShardingEntry>
CompiledModel::shardingEntries() const
{
    std::vector<ShardingEntry> out;
    out.reserve(shardPlans_.size());
    for (std::size_t i = 0; i < shardPlans_.size(); ++i) {
        const ir::ShardPlan& sp = shardPlans_[i];
        ShardingEntry e;
        e.einsum = recipes_[i].expr.output.name;
        e.shardable = sp.shardable;
        if (!sp.shardable) {
            e.mode = "serial";
            e.reason = sp.reason;
        } else {
            switch (sp.mode) {
            case ir::ShardPlan::Mode::Disjoint:
                e.mode = "disjoint";
                break;
            case ir::ShardPlan::Mode::Reduce: e.mode = "reduce"; break;
            case ir::ShardPlan::Mode::Inner: e.mode = "inner"; break;
            }
            e.rank = sp.rank;
            e.spaceRank = sp.spaceRank;
        }
        out.push_back(std::move(e));
    }
    return out;
}

std::string
CompiledModel::shardingReport() const
{
    std::string out;
    for (const ShardingEntry& e : shardingEntries()) {
        out += e.einsum;
        out += ": ";
        if (!e.shardable) {
            out += "serial (";
            out += e.reason;
            out += ")";
        } else {
            if (e.mode == "disjoint") {
                out += "disjoint sharding along rank '" + e.rank + "'";
            } else if (e.mode == "reduce") {
                out += "reduction sharding along rank '" + e.rank +
                       "' (a run splits output-keyed below it, or runs "
                       "live)";
            } else {
                out += "inner-rank sharding along rank '" + e.rank +
                       "' (outermost rank carries lookups or binds no "
                       "variable)";
            }
            if (!e.spaceRank.empty())
                out += ", space rank '" + e.spaceRank + "'";
        }
        out += "\n";
    }
    return out;
}

void
CompiledModel::validateOverrides(const RunOptions& opts) const
{
    for (const auto& [rank, strategy] : opts.coiterOverrides) {
        (void)strategy;
        bool known = false;
        for (const ir::EinsumRecipe& r : recipes_) {
            if (std::find(r.loopOrder.begin(), r.loopOrder.end(),
                          rank) != r.loopOrder.end())
                known = true;
        }
        if (!known) {
            diagError("exec", rank,
                      "co-iteration override names rank '", rank,
                      "', which is not a loop rank of any Einsum in "
                      "the cascade");
        }
    }
}

void
CompiledModel::validateWorkload(const Workload& w) const
{
    const einsum::EinsumSpec& es = spec_.einsums;
    for (const std::string& name : es.inputTensors()) {
        if (!w.has(name))
            diagError("workload", name, "missing input tensor '", name,
                      "'");
        const auto decl_it = es.declaration.find(name);
        if (decl_it == es.declaration.end())
            continue;
        std::set<std::string> declared(decl_it->second.begin(),
                                       decl_it->second.end());
        const auto ids = w.rankIdsOf(name);
        std::set<std::string> actual(ids.begin(), ids.end());
        if (declared != actual)
            diagError("workload", name, "tensor '", name,
                      "' has ranks {", join(ids, ", "),
                      "} but the declaration names {",
                      join(decl_it->second, ", "), "}");
    }
}

std::shared_ptr<const storage::PackedTensor>
CompiledModel::preparedInput(const Workload& w, const std::string& name) const
{
    std::shared_ptr<const storage::PackedTensor> pk = w.packed(name);
    if (pk == nullptr) {
        pk = std::make_shared<const storage::PackedTensor>(
            storage::PackedTensor::fromTensor(
                w.tensor(name), spec_.formats.getLenient(name)));
    }
    // Apply the declared rank-order offline (§3.2.2: input swizzles
    // are preprocessing and cost nothing).
    const auto& order = spec_.mapping.rankOrder(name);
    if (!order.empty() && pk->rankIds() != order) {
        pk = std::make_shared<const storage::PackedTensor>(
            storage::swizzle(*pk, order));
    }
    return pk;
}

void
CompiledModel::prepareInputs(WorkloadState& st, const Workload& w) const
{
    if (st.prepared)
        return;
    for (const std::string& name : spec_.einsums.inputTensors())
        st.inputs.insert_or_assign(name, preparedInput(w, name));
    st.prepared = true;
}

SimulationResult
CompiledModel::run(const Workload& workload,
                   const RunOptions& opts) const
{
    if (opts.validateInputs)
        validateWorkload(workload);
    validateOverrides(opts);
    if (opts.cacheState) {
        // Keep the shared_ptr for the whole run: a concurrent
        // eviction only detaches the state from the cache.
        const std::shared_ptr<WorkloadState> st =
            stateFor(workload, opts.semiring);
        std::lock_guard<std::mutex> lk(st->runMutex);
        try {
            return runOn(*st, workload, opts);
        } catch (...) {
            // A run that died before its plans were fully
            // instantiated (cancellation, deadline, injected fault)
            // must not leave a half-built state in the LRU — evict it
            // so the next run on this workload re-instantiates
            // cleanly instead of binding stale intermediates.
            if (!st->plansComplete)
                dropState(st);
            throw;
        }
    }
    WorkloadState ephemeral;
    ephemeral.fingerprint = workload.fingerprint();
    ephemeral.semiring = opts.semiring;
    return runOn(ephemeral, workload, opts);
}

SimulationResult
CompiledModel::runOn(WorkloadState& st, const Workload& w,
                     const RunOptions& opts) const
{
    const einsum::EinsumSpec& es = spec_.einsums;
    prepareInputs(st, w);

    // The stores plan instantiation binds: the prepared inputs plus
    // each intermediate, packed at the boundary of the Einsum that
    // produced it.
    ir::PackedRefMap tensors;
    if (!st.plansComplete)
        tensors = st.inputs;

    SimulationResult out;
    out.blocks = blocks_;

    exec::ExecOptions eo;
    eo.threads = opts.threads;
    eo.pool = opts.pool != nullptr ? opts.pool : poolFor(opts.threads);

    // One cancellation context for the whole cascade: every Einsum's
    // engines (and workers) share the token, deadline, and elapsed
    // base. A request already past its deadline (queued too long)
    // stops here, before any plan work.
    eo.cancel.token = opts.cancelToken;
    eo.cancel.deadline = opts.deadline;
    eo.cancel.start = std::chrono::steady_clock::now();
    if (eo.cancel.armed())
        eo.cancel.throwIfCancelled("before execution");

    // Out-of-core trace capture: one spill context for the whole
    // cascade (every capture segment's file lands in spillDir; the
    // aggregate counters become SimulationResult::spill).
    std::unique_ptr<trace::SpillContext> spill_ctx;
    if (!opts.spillDir.empty()) {
        spill_ctx = std::make_unique<trace::SpillContext>(
            opts.spillDir, opts.spillSegmentBytes, opts.spillKeep);
        eo.spill = spill_ctx.get();
    }

    std::vector<std::string> produced;
    for (std::size_t i = 0; i < es.expressions.size(); ++i) {
        const einsum::Expression& expr = es.expressions[i];

        // Per-Einsum override slice: only the ranks this Einsum loops
        // over (validateOverrides already rejected names unknown to
        // the whole cascade; the engine rejects plan-level strays).
        eo.coiterOverrides.clear();
        for (const auto& [rank, strategy] : opts.coiterOverrides) {
            if (std::find(recipes_[i].loopOrder.begin(),
                          recipes_[i].loopOrder.end(),
                          rank) != recipes_[i].loopOrder.end())
                eo.coiterOverrides.emplace(rank, strategy);
        }

        // Cascade boundary: catch a cancel/deadline that fired after
        // the previous Einsum's engines flushed (their polls are
        // amortized, so the tail of a walk may outlive the deadline
        // by one batch).
        if (eo.cancel.armed()) {
            eo.cancel.throwIfCancelled("einsum '" + expr.output.name +
                                       "'");
        }

        if (st.plans.size() <= i) {
            TEAAL_FAILPOINT("compiler.pipeline.instantiate");
            st.plans.push_back(
                ir::instantiatePlan(recipes_[i], es, tensors, produced));
            logDebug("einsum ", i, ": ", st.plans[i].toString());
        }
        const ir::EinsumPlan& plan = st.plans[i];

        // The model's hooks route every datapath record to an
        // accumulator as the bus produces it (inside the workers, on
        // sharded runs); only the order-dependent records reach the
        // storage tier, and extra observers get that same stream.
        model::EinsumModel einsum_model = einsumModel(i, plan);
        eo.modelHooks = einsum_model.hooks();
        trace::FanoutObserver fan;
        trace::Observer* sink = &einsum_model.storageSink();
        if (!opts.observers.empty()) {
            fan.add(sink);
            for (trace::Observer* o : opts.observers)
                fan.add(o);
            sink = &fan;
        }

        if (opts.threads != 1 && !plan.shard.shardable &&
            !serialFallbackLogged_->exchange(true)) {
            logInfo("threads=", opts.threads, " requested but Einsum '",
                    plan.output.name, "' is not shardable (",
                    plan.shard.reason,
                    "); executing it serially. shardingReport() lists "
                    "every Einsum's parallelization.");
        }

        exec::Executor executor(plan, *sink, opts.semiring, eo);
        ft::Tensor result = executor.run();
        out.splits.push_back(executor.split());

        model::EinsumRecord record =
            einsum_model.finalize(executor.stats());
        // Trace diagnostics come from the bus, the single source that
        // counts shard-consumed, replayed, and live records alike —
        // equal to the serial totals at every thread count.
        record.traceEvents = executor.bus().eventCount();
        record.traceBatches = executor.bus().batchCount();
        for (const auto& [tensor, tt] : record.traffic) {
            model::TensorTraffic& agg = out.traffic[tensor];
            agg.readBytes += tt.readBytes;
            agg.writeBytes += tt.writeBytes;
            agg.poBytes += tt.poBytes;
        }
        out.records.push_back(std::move(record));

        produced.push_back(expr.output.name);
        if (!st.plansComplete && i + 1 < es.expressions.size()) {
            // Later plans bind this intermediate: pack it once. A plan
            // keeps its own packed store, so cached plans never alias
            // the tensor returned to the caller.
            tensors.insert_or_assign(
                expr.output.name,
                std::make_shared<const storage::PackedTensor>(
                    storage::PackedTensor::fromTensor(
                        result,
                        spec_.formats.getLenient(expr.output.name))));
        }
        out.tensors.insert_or_assign(expr.output.name, std::move(result));
    }
    st.plansComplete = true;

    if (spill_ctx != nullptr)
        out.spill = spill_ctx->stats();
    out.perf = model::analyze(out.records, spec_.architecture, blocks_);
    for (const model::EinsumRecord& r : out.records) {
        out.energy += energy::energyOf(
            r, spec_.architecture.topology(r.topologyName));
    }
    return out;
}

model::EinsumModel
CompiledModel::einsumModel(std::size_t einsum,
                           const ir::EinsumPlan& plan) const
{
    return model::EinsumModel(plan, *topologies_.at(einsum),
                              *bindings_.at(einsum), spec_.formats,
                              onChip_.at(einsum));
}

const std::vector<ir::EinsumPlan>&
CompiledModel::plans(const Workload& workload)
{
    const std::shared_ptr<WorkloadState> st =
        stateFor(workload, exec::Semiring::arithmetic());
    std::lock_guard<std::mutex> lk(st->runMutex);
    if (!st->plansComplete) {
        if (plansNeedExecution_) {
            // Later Einsums bind intermediates: produce them once.
            RunOptions opts;
            (void)runOn(*st, workload, opts);
        } else {
            prepareInputs(*st, workload);
            const einsum::EinsumSpec& es = spec_.einsums;
            std::vector<std::string> produced;
            for (std::size_t i = st->plans.size();
                 i < es.expressions.size(); ++i) {
                st->plans.push_back(ir::instantiatePlan(
                    recipes_[i], es, st->inputs, produced));
            }
            st->plansComplete = true;
        }
    }
    return st->plans;
}

double
CompiledModel::algorithmicMinBytes(const Workload& workload,
                                   const SimulationResult& result) const
{
    // A prepared state for this workload already holds every input as
    // a packed store in its mapping rank-order; reuse it (const lookup
    // — no LRU reordering). Without one, each input is prepared here
    // on packed buffers, as a run would prepare it.
    std::shared_ptr<WorkloadState> st;
    {
        std::lock_guard<std::mutex> lk(*cacheMutex_);
        for (const std::shared_ptr<WorkloadState>& s : states_) {
            if (s->fingerprint == workload.fingerprint()) {
                st = s;
                break;
            }
        }
    }
    // Reading the state's inputs must hold its run mutex: a concurrent
    // first run() on the same workload may be populating them
    // (prepareInputs runs under runMutex).
    std::unique_lock<std::mutex> run_lk;
    bool use_state = false;
    if (st != nullptr) {
        run_lk = std::unique_lock<std::mutex>(st->runMutex);
        use_state = st->prepared;
    }
    double bits = 0;
    for (const std::string& name : spec_.einsums.inputTensors()) {
        if (!workload.has(name))
            continue;
        const std::shared_ptr<const storage::PackedTensor> pk =
            use_state ? st->inputs.at(name) : preparedInput(workload, name);
        bits += static_cast<double>(storage::packedTensorBits(
            spec_.formats.getLenient(name), *pk));
    }
    const auto rit = result.tensors.find(spec_.einsums.resultTensor());
    if (rit != result.tensors.end()) {
        bits += static_cast<double>(fmt::tensorBits(
            spec_.formats.getLenient(rit->first), rit->second));
    }
    return bits / 8.0;
}

} // namespace teaal::compiler
