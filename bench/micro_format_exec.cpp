/**
 * @file
 * Bind microbenchmark: what a cold run of each Table 1 accelerator
 * pays to bind its workload, on the end-to-end benchmark's stand-ins
 * (scale 0.05, `wi` and `p2` with B drawn from A's seed, pointer
 * inputs, one thread). Binding prepares every input as the packed
 * rank store the plans walk (pack, rank-order swizzle, partition,
 * flatten), instantiates the plans, packs each intermediate at the
 * Einsum boundary, and frees all of it when the state goes.
 *
 *   bind_ms   best cold run (RunOptions::cacheState = false: every run
 *             prepares and frees its own state) minus best warm run
 *             (plan-cache hit), best of N each;
 *   state_mb  heap bytes a caching run leaves live in the plan cache
 *             (glibc heap in use after the run, result dropped, minus
 *             before it);
 *   inputs_mb resident bytes of the packed stores the cached plans
 *             bind (storage::PackedTensor::residentBytes).
 *
 * Emits the human table plus bench::jsonRow lines keyed by (accel,
 * dataset, phase=bind) with wall_ms = bind_ms for ci/perf_diff.py.
 */
#include <malloc.h>

#include <iostream>
#include <set>

#include "common.hpp"
#include "ir/plan.hpp"
#include "storage/packed.hpp"

namespace
{

using namespace teaal;

/** Heap bytes in use across all glibc arenas. */
double
heapInUse()
{
    return static_cast<double>(mallinfo2().uordblks);
}

} // namespace

int
main()
{
    using namespace teaal;

    std::cout << "# micro_format_exec: cold bind per Table 1 accelerator\n"
              << "# benchmark stand-ins (scale 0.05, B from A's seed), "
                 "pointer inputs, serial; best of 5\n\n";

    constexpr int kIters = 5;
    TextTable table("cold bind: cold run minus warm run");
    table.setHeader({"accel", "dataset", "cold ms", "warm ms", "bind ms",
                     "state MB", "inputs MB"});
    const std::vector<std::pair<std::string, compiler::Specification>>
        accels{{"gamma", accel::gamma({})},
               {"extensor", accel::extensor({})},
               {"outerspace", accel::outerSpace({})},
               {"sigma", accel::sigma({})}};
    for (const std::string key : {"wi", "p2"}) {
        const bench::SpmspmInput in = bench::benchmarkStandIn(key);
        compiler::Workload w;
        w.add("A", in.a).add("B", in.b);
        for (const auto& [name, spec] : accels) {
            auto model = compiler::compile(spec);

            compiler::RunOptions cold;
            cold.cacheState = false;
            const double cold_s = bench::bestSeconds(
                [&] { (void)model.run(w, cold); }, kIters);
            const double warm_s = bench::bestSeconds(
                [&] { (void)model.run(w); }, kIters);

            model.clearCache();
            const double before = heapInUse();
            (void)model.run(w);
            const double state_mb = (heapInUse() - before) / 1e6;
            double inputs_bytes = 0;
            std::set<const storage::PackedTensor*> seen;
            for (const ir::EinsumPlan& plan : model.plans(w)) {
                for (const ir::TensorPlan& tp : plan.inputs) {
                    if (tp.packed != nullptr &&
                        seen.insert(tp.packed.get()).second)
                        inputs_bytes += static_cast<double>(
                            tp.packed->residentBytes());
                }
            }

            const double bind_ms = (cold_s - warm_s) * 1e3;
            table.addRow({name, key, TextTable::num(cold_s * 1e3, 2),
                          TextTable::num(warm_s * 1e3, 2),
                          TextTable::num(bind_ms, 2),
                          TextTable::num(state_mb, 2),
                          TextTable::num(inputs_bytes / 1e6, 2)});
            bench::jsonRow(std::cout, "micro_format_exec",
                           {{"accel", name},
                            {"dataset", key},
                            {"phase", "bind"}},
                           {{"cold_ms", cold_s * 1e3},
                            {"warm_ms", warm_s * 1e3},
                            {"state_mb", state_mb},
                            {"inputs_mb", inputs_bytes / 1e6}},
                           1, bind_ms);
        }
    }
    std::cout << "\n" << table.render() << "\n";
    return 0;
}
