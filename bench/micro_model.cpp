/**
 * @file
 * Model microbench: model-inclusive wall time of CompiledModel::run
 * per thread count. Every trace bus routes the order-independent
 * datapath records to the model's accumulators as it produces them —
 * inside the shards at threads >= 2 — and only the order-dependent
 * storage records replay on the coordinator, so the speedup over
 * threads=1 includes the model's own work. Records are byte-identical
 * across thread counts (asserted per row — a violation aborts the
 * bench).
 *
 * Emits bench::jsonRow lines keyed by (accel, dataset, mode=accum)
 * with `wall_ms` for the CI perf differ.
 */
#include <cstdlib>
#include <iostream>

#include "common.hpp"

namespace
{

using namespace teaal;

bool
sameTraffic(const compiler::SimulationResult& a,
            const compiler::SimulationResult& b)
{
    for (const auto& [tensor, tt] : a.traffic) {
        const auto it = b.traffic.find(tensor);
        if (it == b.traffic.end() ||
            it->second.readBytes != tt.readBytes ||
            it->second.writeBytes != tt.writeBytes ||
            it->second.poBytes != tt.poBytes)
            return false;
    }
    return a.records.size() == b.records.size();
}

void
runOne(const std::string& accel_name, compiler::Specification spec,
       const std::string& dataset, const bench::SpmspmInput& in,
       TextTable& table)
{
    auto model = compiler::compile(std::move(spec));
    const compiler::Workload w = bench::workloadOf(in);

    // Reference for the per-row equivalence check.
    const compiler::SimulationResult ref = model.run(w);

    double t1_ms = 0;
    for (const unsigned threads : {1u, 2u, 4u}) {
        compiler::RunOptions opts;
        opts.threads = threads;
        const double wall_ms =
            bench::bestSeconds([&]() { (void)model.run(w, opts); }, 3) *
            1e3;
        if (threads == 1)
            t1_ms = wall_ms;

        const compiler::SimulationResult got = model.run(w, opts);
        if (!sameTraffic(ref, got)) {
            std::cerr << "MODEL EQUIVALENCE VIOLATION: " << accel_name
                      << "/" << dataset << " threads=" << threads
                      << "\n";
            std::exit(1);
        }

        bench::jsonRow(std::cout, "micro_model",
                       {{"accel", accel_name},
                        {"dataset", dataset},
                        {"mode", "accum"}},
                       {{"speedup_vs_t1", t1_ms / wall_ms}}, threads,
                       wall_ms);
        table.addRow({accel_name, dataset, std::to_string(threads),
                      TextTable::num(wall_ms, 2),
                      TextTable::num(t1_ms / wall_ms, 2) + "x"});
    }
    table.addSeparator();
}

} // namespace

int
main()
{
    const double scale = bench::matrixScale();
    bench::header("model: model-inclusive wall time per thread count",
                  scale);

    TextTable table("CompiledModel::run, model-inclusive (best of 3; "
                    "byte-identical records asserted per row)");
    table.setHeader({"accel", "dataset", "threads", "ms", "speedup"});

    for (const std::string& key :
         {std::string("p2"), std::string("wi")}) {
        const bench::SpmspmInput in = bench::loadSpmspm(key, scale);
        runOne("gamma", accel::gamma({}), key, in, table);
        runOne("extensor", accel::extensor({}), key, in, table);
    }

    table.print();
    return 0;
}
