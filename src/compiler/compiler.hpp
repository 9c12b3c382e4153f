/**
 * @file
 * The TeAAL specification and simulation-result types.
 *
 * The public entry point is the staged pipeline in
 * compiler/pipeline.hpp:
 *
 *   auto spec  = compiler::Specification::parse(yaml_text, params);
 *   auto model = compiler::compile(std::move(spec));
 *   compiler::Workload w;
 *   w.add("A", a).add("B", b);
 *   auto result = model.run(w);
 *   result.perf.totalSeconds; result.traffic["A"].readBytes; ...
 */
#pragma once

#include <map>
#include <string>
#include <vector>

#include "arch/arch.hpp"
#include "binding/binding.hpp"
#include "einsum/parser.hpp"
#include "energy/energy.hpp"
#include "exec/executor.hpp"
#include "format/format.hpp"
#include "mapping/mapping.hpp"
#include "model/perf.hpp"
#include "trace/spill.hpp"

namespace teaal::compiler
{

/** A complete TeAAL specification. */
struct Specification
{
    einsum::EinsumSpec einsums;
    mapping::MappingSpec mapping;
    fmt::FormatSpec formats;
    arch::ArchSpec architecture;
    binding::BindingSpec bindings;

    /**
     * Parse the five top-level sections from one YAML document.
     * Malformed input surfaces as teaal::DiagnosticError pinning the
     * offending section and key.
     * @param params Values for symbolic tile sizes (ExTensor's K1...).
     */
    static Specification parse(const std::string& yaml_text,
                               const mapping::ParamMap& params = {});
};

/** Everything a simulation produces. */
struct SimulationResult
{
    /// Every Einsum's output tensor by name, declared rank order.
    std::map<std::string, ft::Tensor> tensors;

    /// Per-Einsum action counts and traffic.
    std::vector<model::EinsumRecord> records;

    /// Fused-block structure used for the run.
    std::vector<std::vector<std::size_t>> blocks;

    /// Bottleneck timing.
    model::CascadePerf perf;

    /// Accelergy-style energy rollup.
    energy::EnergyBreakdown energy;

    /// DRAM traffic aggregated over the cascade, by tensor.
    std::map<std::string, model::TensorTraffic> traffic;

    /// Out-of-core trace spill totals (RunOptions::spillDir); all
    /// zero when spilling was off or nothing crossed the threshold.
    trace::SpillStats spill;

    /// Where each Einsum's walk was split, in cascade order: the loop,
    /// its unit count and the merge this run used (the sharded path
    /// picks them per run from the walk; serial runs report
    /// SplitPoint::Merge::Serial). Diagnostic: records and tensors are
    /// identical at every thread count, this is not.
    std::vector<exec::SplitPoint> splits;

    /** The final Einsum's output. */
    const ft::Tensor& result(const Specification& spec) const;

    /** Total DRAM bytes (reads + writes). */
    double totalTrafficBytes() const;
};

} // namespace teaal::compiler
