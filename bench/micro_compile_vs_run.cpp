/**
 * @file
 * Compile-once / run-many microbenchmark: what does each pipeline
 * stage cost, and what does a repeated run() actually pay?
 *
 *   parse+compile   Specification::parse + compiler::compile
 *                   (spec-only: recipes, fused blocks, resolved
 *                   binding/topology tables)
 *   first run       plan instantiation (tensor preparation, strategy
 *                   selection) + execution
 *   steady run      execution only — cached plans, nothing re-derived
 *
 * The headline invariant: steady-state run() must cost measurably
 * less than compile + run (plan building is off the run path).
 * Emits bench::jsonRow lines for the CI perf artifact.
 */
#include <chrono>
#include <iostream>

#include "common.hpp"
#include "compiler/pipeline.hpp"

namespace
{

using Clock = std::chrono::steady_clock;

} // namespace

int
main()
{
    using namespace teaal;
    const double scale = bench::matrixScale();
    bench::header("micro_compile_vs_run: pipeline stage costs "
                  "(Gamma on the wiki-Vote stand-in)",
                  scale);

    const auto in = bench::loadSpmspm("wi", scale);
    const int iters = 5;

    // Stage 1: parse + compile (spec-only, no workload contact).
    const double compile_s = bench::bestSeconds(
        [&]() {
            auto model = compiler::compile(accel::gamma());
            (void)model;
        },
        iters);

    // Stage 2: first run on a fresh model — instantiation + execution.
    // A first run is one-shot per model, so each sample compiles a
    // fresh model *outside* the timed region.
    double first_run_s = 1e30;
    for (int i = 0; i < iters + 1; ++i) {
        auto fresh = compiler::compile(accel::gamma());
        const compiler::Workload w = bench::workloadOf(in);
        const auto t0 = Clock::now();
        (void)fresh.run(w);
        const auto t1 = Clock::now();
        if (i > 0) { // first sample is the warmup
            first_run_s = std::min(
                first_run_s,
                std::chrono::duration<double>(t1 - t0).count());
        }
    }

    // Stage 3: steady-state run on a warmed model — execution only.
    auto model = compiler::compile(accel::gamma());
    const compiler::Workload w = bench::workloadOf(in);
    (void)model.run(w); // warm the plan cache
    const double steady_run_s =
        bench::bestSeconds([&]() { (void)model.run(w); }, iters);

    const double instantiation_s = first_run_s - steady_run_s;

    TextTable table("pipeline stage costs (best of " +
                    std::to_string(iters) + ")");
    table.setHeader({"stage", "ms", "vs steady run"});
    auto row = [&](const std::string& name, double s) {
        table.addRow({name, TextTable::num(s * 1e3, 3),
                      TextTable::num(s / steady_run_s, 2) + "x"});
    };
    row("parse+compile", compile_s);
    row("first run (instantiate+execute)", first_run_s);
    row("steady run (execute only)", steady_run_s);
    table.addSeparator();
    row("plan instantiation (derived)", instantiation_s);
    table.print();

    bench::jsonRow(std::cout, "micro_compile_vs_run", {{"accel", "gamma"}},
                   {{"compile_ms", compile_s * 1e3},
                    {"first_run_ms", first_run_s * 1e3},
                    {"steady_run_ms", steady_run_s * 1e3},
                    {"instantiation_ms", instantiation_s * 1e3},
                    {"steady_vs_compile_plus_run",
                     steady_run_s / (compile_s + first_run_s)}},
                   /*threads=*/1, /*wall_ms=*/steady_run_s * 1e3);

    const bool ok = steady_run_s < compile_s + first_run_s;
    std::cout << "\ncompile-once invariant (steady run < compile + "
                 "run): "
              << (ok ? "HOLDS" : "VIOLATED") << "\n";
    return ok ? 0 : 1;
}
