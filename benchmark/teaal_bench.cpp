/**
 * @file
 * teaal-bench: runs one workload of the end-to-end benchmark per
 * process, so each workload's peak memory is its own.
 *
 *   teaal-bench --workload NAME --seed N [--seconds S] [--trace FILE]
 *               [--scratch DIR]
 *
 * Workloads: table1_cold_t1, table1_warm_t4, explore, serve_mixed (see
 * README.md). The seed drives every input; the timed phase lasts S
 * seconds (default 20). With --trace the run records a span around
 * each library call, makes the extra layer calls of layers.hpp after
 * the timed phase, prints the per-layer metrics and layer shares, and
 * writes the spans as Chrome trace-event JSON to FILE. Store files,
 * spill segments and served datasets live in a per-process directory
 * under DIR (default "."), removed on exit.
 *
 * The last line of standard output is one JSON object with every
 * metric; the exit code is 0 only when every correctness check held.
 */
#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "harness.hpp"

namespace
{

using namespace teaal::bench;

int
usage(const char* why)
{
    std::cerr << "teaal-bench: " << why
              << "\nusage: teaal-bench --workload "
                 "{table1_cold_t1|table1_warm_t4|explore|serve_mixed} "
                 "--seed N [--seconds S] [--trace FILE] [--scratch DIR]\n";
    return 2;
}

void
printLayerTimes(const Tracer& tracer)
{
    std::cout << "\n# span time by layer (ms): total, self\n";
    for (const auto& [layer, t] : tracer.timeByLayer())
        std::cout << "  " << std::left << std::setw(12) << layer << " "
                  << std::fixed << std::setprecision(1) << std::setw(10)
                  << t.first << " " << t.second << "\n"
                  << std::defaultfloat;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string workload, tracePath, scratchRoot = ".";
    std::uint64_t seed = 0;
    bool haveSeed = false;
    double seconds = 20;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const char* value = argv[++i];
        char* end = nullptr;
        if (arg == "--workload") {
            workload = value;
        } else if (arg == "--seed") {
            seed = std::strtoull(value, &end, 10);
            if (*value == '\0' || *end != '\0')
                return usage("--seed takes a whole number");
            haveSeed = true;
        } else if (arg == "--seconds") {
            seconds = std::strtod(value, &end);
            if (*value == '\0' || *end != '\0' || !(seconds > 0))
                return usage("--seconds takes a positive number");
        } else if (arg == "--trace") {
            tracePath = value;
        } else if (arg == "--scratch") {
            scratchRoot = value;
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    if (!haveSeed)
        return usage("--seed is required");
    if (workload != "table1_cold_t1" && workload != "table1_warm_t4" &&
        workload != "explore" && workload != "serve_mixed")
        return usage("unknown --workload");

    Tracer tracer(!tracePath.empty(), workload);
    Report report;
    try {
        const ScratchDir scratch(scratchRoot);
        const Context ctx{seed, seconds, tracer, report, scratch};
        std::cout << "# teaal-bench " << workload << " seed " << seed
                  << ", " << seconds << " s timed, tracing "
                  << (tracer.enabled() ? "on" : "off") << "\n";
        if (workload == "explore")
            runExplore(ctx);
        else if (workload == "serve_mixed")
            runServeMixed(ctx);
        else
            runTable1(ctx, workload == "table1_warm_t4");
    } catch (const std::exception& e) {
        report.failed();
        report.fail(std::string("aborted: ") + e.what());
    }
    if (tracer.enabled()) {
        printLayerTimes(tracer);
        // An upper bound on what tracing adds to the timed phase: every
        // span of the run, set-up and probe included, at measured cost.
        const double ns = Tracer::spanCostNs();
        std::cout << "  tracing: " << tracer.spanCount() << " spans at "
                  << ns << " ns each, at most "
                  << tracer.spanCount() * ns / (seconds * 1e7)
                  << "% of the timed phase\n";
        try {
            tracer.writeChrome(tracePath);
        } catch (const std::exception& e) {
            report.fail(e.what());
        }
    }
    report.print(workload, seed, seconds, tracer.enabled());
    return report.correct() ? 0 : 1;
}
