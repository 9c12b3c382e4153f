/**
 * @file
 * Parallel sharded execution microbench: wall time and speedup of
 * CompiledModel::run at 1/2/4/8 worker threads on all four Table 1
 * accelerators — Gamma (disjoint sharding), ExTensor (output-keyed
 * below its contraction tiles), OuterSpace (disjoint, linear-combine
 * cascade), and SIGMA (output-keyed slices of the
 * contraction-outermost Z nest) — plus the serial-overhead
 * check — threads=1 must stay within noise of the classic serial
 * path, because it *is* the classic serial path.
 *
 * Every row names the split each Einsum's walk used at that thread
 * count (SimulationResult::splits: merge@rank/units) and what the pool
 * did with it: the slice count and the capture segments the
 * coordinator replayed. A second table runs the end-to-end
 * benchmark's stand-ins the same way: scale 0.05, `wi` and `p2` with
 * B drawn from A's seed, inputs packed to store files and mapped,
 * traces spilled in 1 MiB segments.
 *
 * Run-to-run determinism is exercised too: every thread count must
 * produce identical traffic and records (the engine guarantees
 * byte-identical counters and trace batches at any N; see
 * exec/executor.hpp). A violation aborts the bench.
 *
 * Emits bench::jsonRow lines keyed by (accel, dataset, threads), plus
 * `input=mapped` on the stand-in rows, with `wall_ms` for the CI perf
 * differ; the last Einsum's split depth and unit count ride along as
 * metrics.
 */
#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "common.hpp"
#include "storage/store.hpp"

namespace
{

using namespace teaal;
namespace fs = std::filesystem;

/** "T=disjoint@M0/415 slices=64 segments=64 Z=..." for every Einsum
 *  of @p r: the split, then what the pool did with it (slices, and
 *  capture segments the coordinator replayed). */
std::string
splitsOf(const compiler::SimulationResult& r)
{
    std::string out;
    for (std::size_t i = 0; i < r.splits.size(); ++i) {
        const exec::SplitPoint& s = r.splits[i];
        if (!out.empty())
            out += " ";
        out += r.records[i].output + "=" + exec::mergeName(s.merge);
        if (s.merge != exec::SplitPoint::Merge::Serial) {
            out += "@" + s.rank + "/" + std::to_string(s.units) +
                   " slices=" + std::to_string(s.slices) +
                   " segments=" + std::to_string(s.segments);
        }
    }
    return out;
}

void
runOne(const std::string& accel_name, compiler::Specification spec,
       const std::string& dataset, const compiler::Workload& w,
       const std::vector<unsigned>& thread_counts,
       const compiler::RunOptions& base,
       std::vector<std::pair<std::string, std::string>> labels,
       TextTable& table)
{
    auto model = compiler::compile(std::move(spec));

    // Reference result (serial) for the determinism check.
    const compiler::SimulationResult ref = model.run(w);

    labels.insert(labels.begin(), {{"accel", accel_name},
                                   {"dataset", dataset}});
    double t1_ms = 0;
    for (const unsigned threads : thread_counts) {
        compiler::RunOptions opts = base;
        opts.threads = threads;
        const double secs =
            bench::bestSeconds([&]() { (void)model.run(w, opts); }, 3);
        const double wall_ms = secs * 1e3;
        if (threads == 1)
            t1_ms = wall_ms;
        const double speedup = t1_ms / wall_ms;

        // Determinism: counters and traffic identical at every N.
        const compiler::SimulationResult got = model.run(w, opts);
        for (const auto& [tensor, tt] : ref.traffic) {
            const auto it = got.traffic.find(tensor);
            if (it == got.traffic.end() ||
                it->second.readBytes != tt.readBytes ||
                it->second.writeBytes != tt.writeBytes ||
                it->second.poBytes != tt.poBytes) {
                std::cerr << "DETERMINISM VIOLATION: " << accel_name
                          << "/" << dataset << " threads=" << threads
                          << " tensor=" << tensor << "\n";
                std::exit(1);
            }
        }

        const exec::SplitPoint& last = got.splits.back();
        table.addRow({accel_name, dataset, std::to_string(threads),
                      TextTable::num(wall_ms, 2),
                      TextTable::num(speedup, 2) + "x", splitsOf(got)});
        bench::jsonRow(std::cout, "micro_parallel", labels,
                       {{"speedup_vs_serial", speedup},
                        {"split_depth", static_cast<double>(last.depth)},
                        {"split_units", static_cast<double>(last.units)}},
                       threads, wall_ms);
    }
    table.addSeparator();
}

void
runAll(const std::function<void(const std::string&,
                                compiler::Specification)>& one)
{
    one("gamma", accel::gamma({}));
    one("extensor", accel::extensor({}));
    one("outerspace", accel::outerSpace({}));
    one("sigma", accel::sigma({}));
}

} // namespace

int
main()
{
    const double scale = bench::matrixScale();
    bench::header("parallel sharded execution: run(threads=N) wall "
                  "time and speedup",
                  scale);

    TextTable table("CompiledModel::run by worker threads "
                    "(best of 3; determinism checked per row)");
    table.setHeader({"accel", "dataset", "threads", "wall ms", "speedup",
                     "split (merge@rank/units)"});
    for (const std::string& key : {std::string("p2"), std::string("wi")}) {
        const bench::SpmspmInput in = bench::loadSpmspm(key, scale);
        const compiler::Workload w = bench::workloadOf(in);
        runAll([&](const std::string& name, compiler::Specification spec) {
            runOne(name, std::move(spec), key, w, {1, 2, 4, 8}, {}, {},
                   table);
        });
    }
    table.print();

    // The end-to-end benchmark's warm 4-thread flow on its stand-ins:
    // mapped store files and 1 MiB spill segments.
    const fs::path dir = fs::temp_directory_path() / "teaal_micro_parallel";
    fs::remove_all(dir);
    fs::create_directories(dir / "spill");
    compiler::RunOptions mapped_opts;
    mapped_opts.spillDir = (dir / "spill").string();
    mapped_opts.spillSegmentBytes = 1u << 20;
    TextTable standins("benchmark stand-ins: scale 0.05, mapped stores, "
                       "1 MiB spill (best of 3)");
    standins.setHeader({"accel", "dataset", "threads", "wall ms",
                        "speedup", "split (merge@rank/units)"});
    for (const std::string& key : {std::string("wi"), std::string("p2")}) {
        const bench::SpmspmInput in = bench::benchmarkStandIn(key);
        compiler::Workload w;
        for (const auto& [name, t] :
             {std::pair<const char*, const ft::Tensor*>{"A", &in.a},
              {"B", &in.b}}) {
            const std::string path =
                (dir / (key + "_" + name + ".tpk")).string();
            storage::writeStore(path, storage::PackedTensor::fromTensor(*t));
            w.add(name, std::make_shared<const storage::PackedTensor>(
                            storage::mapStore(path)));
        }
        runAll([&](const std::string& name, compiler::Specification spec) {
            runOne(name, std::move(spec), key, w, {1, 2, 4}, mapped_opts,
                   {{"input", "mapped"}}, standins);
        });
    }
    standins.print();
    fs::remove_all(dir);

    std::cout << "\nnote: the split each run used depends only on the "
                 "plan and data (and a constant unit floor), so counters, "
                 "replayed traces and output values are byte-identical "
                 "at every thread count; speedup depends on host "
                 "cores (the order-dependent storage replay stays "
                 "single-threaded by design — it is the Amdahl floor).\n";
    return 0;
}
