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
 * A second table times the storage tier alone, per Table 1
 * accelerator: each Einsum's storage-tier stream is recorded from a
 * serial run, then replayed into a fresh model's StorageReplay and
 * finalized (model construction untimed). That replay is the serial
 * floor of a sharded run's coordinator.
 *
 * Emits bench::jsonRow lines keyed by (accel, dataset, mode=accum)
 * and (accel, dataset, tier=storage) with `wall_ms` for the CI perf
 * differ.
 */
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <limits>

#include "common.hpp"
#include "exec/executor.hpp"
#include "model/model.hpp"

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

/** Copies of the storage-tier batches one Einsum delivered. */
class StreamCopy : public trace::Observer
{
  public:
    std::vector<trace::EventBatch> batches;

    void
    onEventBatch(const trace::EventBatch& batch) override
    {
        batches.push_back(batch);
    }
};

/**
 * Best-of-@p reps time to replay every Einsum's recorded storage-tier
 * stream into a fresh model and finalize it. The streams borrow the
 * cached plans' inputs, which plans() keeps alive.
 */
double
storageReplayMs(compiler::CompiledModel& model, const compiler::Workload& w,
                int reps)
{
    const std::vector<ir::EinsumPlan>& plans = model.plans(w);
    std::vector<StreamCopy> streams(plans.size());
    std::vector<exec::ExecutionStats> stats;
    for (std::size_t i = 0; i < plans.size(); ++i) {
        model::EinsumModel em = model.einsumModel(i, plans[i]);
        exec::ExecOptions eo;
        eo.modelHooks = em.hooks();
        exec::Executor ex(plans[i], streams[i],
                          exec::Semiring::arithmetic(), eo);
        (void)ex.run();
        stats.push_back(ex.stats());
    }
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < reps; ++r) {
        double ms = 0;
        for (std::size_t i = 0; i < plans.size(); ++i) {
            model::EinsumModel em = model.einsumModel(i, plans[i]);
            trace::Observer& sink = em.storageSink();
            const auto t0 = std::chrono::steady_clock::now();
            for (const trace::EventBatch& b : streams[i].batches)
                sink.onEventBatch(b);
            (void)em.finalize(stats[i]);
            ms += std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
        }
        best = std::min(best, ms);
    }
    return best;
}

void
storageRow(const std::string& accel_name, compiler::Specification spec,
           const std::string& dataset, const bench::SpmspmInput& in,
           TextTable& table)
{
    auto model = compiler::compile(std::move(spec));
    const compiler::Workload w = bench::workloadOf(in);
    const double wall_ms = storageReplayMs(model, w, 5);
    bench::jsonRow(std::cout, "micro_model",
                   {{"accel", accel_name},
                    {"dataset", dataset},
                    {"tier", "storage"}},
                   {}, 1, wall_ms);
    table.addRow({accel_name, dataset, TextTable::num(wall_ms, 2)});
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

    TextTable storage("Storage tier alone: recorded storage-tier "
                      "stream replayed into a fresh model (best of 5)");
    storage.setHeader({"accel", "dataset", "ms"});

    for (const std::string& key :
         {std::string("p2"), std::string("wi")}) {
        const bench::SpmspmInput in = bench::loadSpmspm(key, scale);
        runOne("gamma", accel::gamma({}), key, in, table);
        runOne("extensor", accel::extensor({}), key, in, table);
        storageRow("gamma", accel::gamma({}), key, in, storage);
        storageRow("outerspace", accel::outerSpace({}), key, in, storage);
        storageRow("extensor", accel::extensor({}), key, in, storage);
        storageRow("sigma", accel::sigma({}), key, in, storage);
    }

    table.print();
    std::cout << "\n";
    storage.print();
    return 0;
}
