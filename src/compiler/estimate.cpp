/**
 * @file
 * CompiledModel::estimate — the analytic fast path of the two-speed
 * pipeline. Binds the compile-time EinsumRecipes to tensor *metadata*
 * (rank shapes + occupancy hints) instead of tensor data and walks the
 * cascade symbolically; model::analyze consumes the resulting records
 * exactly as it would the trace simulator's.
 */
#include "compiler/pipeline.hpp"

#include <algorithm>

#include "model/tables.hpp"
#include "storage/packed.hpp"
#include "util/failpoint.hpp"

namespace teaal::compiler
{

namespace analytic = model::analytic;

model::analytic::AnalyticEstimate
CompiledModel::estimate(const Workload& workload) const
{
    TEAAL_FAILPOINT("model.analytic.estimate");
    validateWorkload(workload);

    const std::uint64_t fp = workload.fingerprint();
    {
        std::lock_guard<std::mutex> lk(*cacheMutex_);
        for (auto it = estimates_.begin(); it != estimates_.end();
             ++it) {
            if (it->first == fp) {
                estimates_.splice(estimates_.begin(), estimates_, it);
                analytic::AnalyticEstimate hit =
                    estimates_.front().second;
                hit.cacheHit = true;
                return hit;
            }
        }
    }

    const einsum::EinsumSpec& es = spec_.einsums;

    // Input statistics, with the mapping's declared rank-order applied
    // symbolically (the real pipeline swizzles offline and uncharged —
    // prepareInputs).
    std::map<std::string, analytic::SymbolicTensor> stats;
    for (const std::string& name : es.inputTensors()) {
        analytic::SymbolicTensor st;
        if (const auto pk = workload.packed(name)) {
            st = analytic::SymbolicTensor::fromHints(name, pk->ranks(),
                                                     pk->occupancyHints());
        } else {
            const ft::Tensor& t = workload.tensor(name);
            st = analytic::SymbolicTensor::fromHints(
                name, t.ranks(), t.occupancyHints());
        }
        const auto& order = spec_.mapping.rankOrder(name);
        if (!order.empty() && st.rankIds() != order)
            st = analytic::swizzle(st, order);
        stats.emplace(name, std::move(st));
    }

    analytic::AnalyticEstimate out;
    std::vector<std::string> produced;
    for (std::size_t i = 0; i < es.expressions.size(); ++i) {
        analytic::SymbolicPlan sp = analytic::symbolicInstantiate(
            recipes_[i], es, stats, produced);
        const model::ModelTables tables = model::ModelTables::build(
            sp.plan, *topologies_[i], *bindings_[i], spec_.formats,
            onChip_[i]);
        analytic::EinsumEstimate ee =
            analytic::estimateEinsum(sp, tables);

        for (const auto& [tensor, tt] : ee.record.traffic) {
            model::TensorTraffic& agg = out.traffic[tensor];
            agg.readBytes += tt.readBytes;
            agg.writeBytes += tt.writeBytes;
            agg.poBytes += tt.poBytes;
        }
        for (const auto& [cname, ca] : ee.record.components) {
            const auto mit = ca.counts.find("mul_ops");
            if (mit != ca.counts.end())
                out.mulOps += mit->second;
            const auto ait = ca.counts.find("add_ops");
            if (ait != ca.counts.end())
                out.addOps += ait->second;
        }
        out.records.push_back(std::move(ee.record));

        const std::string& oname = es.expressions[i].output.name;
        produced.push_back(oname);
        stats.insert_or_assign(oname, std::move(ee.produced));
    }

    out.perf = model::analyze(out.records, spec_.architecture, blocks_);

    {
        std::lock_guard<std::mutex> lk(*cacheMutex_);
        estimates_.emplace_front(fp, out);
        while (estimates_.size() >
               std::max<std::size_t>(opts_.workloadCacheCapacity, 1))
            estimates_.pop_back();
    }
    return out;
}

} // namespace teaal::compiler
