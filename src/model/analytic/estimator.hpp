/**
 * @file
 * The analytic model tier: closed-form estimates of everything the
 * trace simulator counts — compute ops, intersection work, per-level
 * traffic, buffer fills/drains — from metadata alone (rank shapes,
 * occupancy hints, format footprints, and the plan's co-iteration
 * strategies). No fibertree walk ever runs.
 *
 * Two stages mirror the trace pipeline:
 *
 *   symbolicInstantiate  binds a cached EinsumRecipe to SymbolicTensor
 *                        statistics through the same recipe traversal
 *                        ir::instantiatePlan runs (ir/instantiate.hpp)
 *                        and produces a skeleton ir::EinsumPlan (rank
 *                        metadata only, no fiber data) plus the
 *                        post-transform statistics of every input.
 *   estimateEinsum       the expected-value twin of one engine run:
 *                        walks the loop nest symbolically and fills a
 *                        model::EinsumRecord with the same counter
 *                        keys the accumulator and storage-replay tiers
 *                        would produce, so model::analyze() and the
 *                        energy model consume it unchanged.
 *
 * Constructs the closed forms cannot express throw DiagnosticError
 * (section "analytic"); callers degrade to the trace tier.
 */
#pragma once

#include <map>
#include <string>
#include <vector>

#include "ir/plan.hpp"
#include "model/analytic/stats.hpp"
#include "model/perf.hpp"
#include "model/tables.hpp"
#include "model/record.hpp"

namespace teaal::model::analytic
{

/** A skeleton plan plus the statistics it was instantiated against. */
struct SymbolicPlan
{
    ir::EinsumPlan plan;
    /// Post-transform statistics, parallel to plan.inputs.
    std::vector<SymbolicTensor> inputs;
};

/**
 * Bind @p recipe to tensor statistics instead of tensor data: the
 * traversal of ir::instantiatePlan (loop metadata, variable binding,
 * preparation transforms, action placement, strategy selection, output
 * plan) run on SymbolicTensors, with every data-dependent quantity
 * read from @p stats. @p intermediates names the tensors earlier
 * Einsums produced (their swizzles are online and charged). The
 * skeleton carries no shard plan.
 */
SymbolicPlan
symbolicInstantiate(const ir::EinsumRecipe& recipe,
                    const einsum::EinsumSpec& spec,
                    const std::map<std::string, SymbolicTensor>& stats,
                    const std::vector<std::string>& intermediates = {});

/** The analytic walk's result for one Einsum. */
struct EinsumEstimate
{
    model::EinsumRecord record;
    /// Statistics of the produced output (feeds later Einsums of the
    /// cascade as an input).
    SymbolicTensor produced;
    double leafIters = 0;
};

/**
 * Estimate one Einsum's record from a symbolic plan and its resolved
 * model tables (ModelTables::build accepts skeleton plans: it reads
 * rank metadata only).
 */
EinsumEstimate estimateEinsum(const SymbolicPlan& sp,
                              const ModelTables& tables);

/** Whole-cascade analytic prediction (the pipeline's estimate()). */
struct AnalyticEstimate
{
    std::vector<model::EinsumRecord> records;
    model::CascadePerf perf;
    /// Predicted DRAM traffic summed over the cascade.
    std::map<std::string, model::TensorTraffic> traffic;
    double mulOps = 0;
    double addOps = 0;
    /// Served from the pipeline's estimate cache (set by the caller).
    bool cacheHit = false;

    double seconds() const { return perf.totalSeconds; }

    double
    totalTrafficBytes() const
    {
        double total = 0;
        for (const auto& [name, tt] : traffic)
            total += tt.total();
        return total;
    }
};

} // namespace teaal::model::analytic
