/**
 * @file
 * Shared infrastructure for the figure/table-reproduction benches.
 *
 * Every bench binary prints the same rows/series its paper figure
 * plots. "Reported" columns are approximate values digitized from the
 * paper's figures (flagged `approx`): absolute fidelity to them is
 * not the goal — the cross-workload, cross-accelerator *shape* is
 * (see EXPERIMENTS.md).
 *
 * Workload sizing: full Table 4 sizes make some benches take minutes,
 * so benches run the validation matrices at TEAAL_SCALE (default
 * 0.35) and graphs at TEAAL_GRAPH_SCALE (default 0.125). Every bench
 * prints the scale it used; set the env vars to 1.0 for full-size
 * runs.
 */
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "accelerators/accelerators.hpp"
#include "baselines/baselines.hpp"
#include "compiler/pipeline.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workloads/datasets.hpp"

namespace teaal::bench
{

/** One warmup call, then the best (minimum — noise-resistant) wall
 *  time of @p iters timed calls. Shared by the timing microbenches so
 *  their methodology cannot diverge. */
inline double
bestSeconds(const std::function<void()>& fn, int iters)
{
    using Clock = std::chrono::steady_clock;
    fn();
    double best = 1e30;
    for (int i = 0; i < iters; ++i) {
        const auto t0 = Clock::now();
        fn();
        const auto t1 = Clock::now();
        best = std::min(
            best, std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

/** Scale factor from an environment variable. */
inline double
envScale(const char* name, double fallback)
{
    const char* value = std::getenv(name);
    if (value == nullptr)
        return fallback;
    const double parsed = std::atof(value);
    return parsed > 0 ? parsed : fallback;
}

inline double
matrixScale()
{
    return envScale("TEAAL_SCALE", 0.35);
}

inline double
graphScale()
{
    return envScale("TEAAL_GRAPH_SCALE", 0.125);
}

/** The five validation matrices of Figures 9-11. */
inline const std::vector<std::string>&
validationKeys()
{
    static const std::vector<std::string> keys{"wi", "p2", "ca", "po",
                                               "em"};
    return keys;
}

/** A and B operands for SpMSpM on a Table 4 stand-in (A x A shape). */
struct SpmspmInput
{
    ft::Tensor a;
    ft::Tensor b;
    baselines::SpmspmWork work;
};

inline SpmspmInput
loadSpmspm(const std::string& key, double scale)
{
    const workloads::DatasetInfo& info = workloads::dataset(key);
    SpmspmInput in{
        workloads::synthesize(info, "A", 1000 + key[0], scale,
                              {"K", "M"}),
        workloads::synthesize(info, "B", 2000 + key[1], scale,
                              {"K", "N"}),
        {}};
    in.work = baselines::countSpmspmWork(in.a, in.b);
    return in;
}

/** The end-to-end benchmark's stand-in pair for @p key at scale 0.05:
 *  `wi` from the registry's power-law generator, `p2` banded with
 *  p2p-Gnutella31's shape and nonzeros; B is drawn from A's seed. */
inline SpmspmInput
benchmarkStandIn(const std::string& key)
{
    constexpr double kScale = 0.05;
    constexpr std::uint64_t kSeed = 7;
    const workloads::DatasetInfo& info = workloads::dataset(key);
    if (key == "wi")
        return {workloads::synthesize(info, "A", kSeed, kScale, {"K", "M"}),
                workloads::synthesize(info, "B", kSeed, kScale, {"K", "N"}),
                {}};
    const auto rows = static_cast<ft::Coord>(info.rows * kScale);
    const auto nnz = static_cast<std::size_t>(info.nnz * kScale);
    return {workloads::bandedMatrix("A", rows, rows, nnz, kSeed, {"K", "M"}),
            workloads::bandedMatrix("B", rows, rows, nnz, kSeed, {"K", "N"}),
            {}};
}

/** Workload borrowing one SpMSpM input pair (no tensor copies). */
inline compiler::Workload
workloadOf(const SpmspmInput& in)
{
    compiler::Workload w;
    w.add("A", in.a).add("B", in.b);
    return w;
}

/** RunOptions for single-shot bench runs: each workload is run
 *  exactly once, so caching its plans would only pin memory. */
inline compiler::RunOptions
singleShot()
{
    compiler::RunOptions opts;
    opts.cacheState = false;
    return opts;
}

/** Compile one accelerator spec and run it on one input. */
inline compiler::SimulationResult
runAccelerator(compiler::Specification spec, const SpmspmInput& in)
{
    auto model = compiler::compile(std::move(spec));
    const compiler::Workload w = workloadOf(in);
    return model.run(w, singleShot());
}

/**
 * Emit one machine-readable result row as a single-line JSON object:
 * string labels first, then numeric metrics. Every bench that wants
 * to be diffed/plotted by tooling prints these alongside its table.
 */
inline void
jsonRow(std::ostream& os, const std::string& bench,
        const std::vector<std::pair<std::string, std::string>>& labels,
        const std::vector<std::pair<std::string, double>>& metrics)
{
    os << "{\"bench\":\"" << bench << "\"";
    for (const auto& [key, value] : labels)
        os << ",\"" << key << "\":\"" << value << "\"";
    for (const auto& [key, value] : metrics)
        os << ",\"" << key << "\":" << value;
    os << "}\n";
}

/**
 * Timing-bench variant: appends the canonical `threads` and `wall_ms`
 * fields every timing row carries, so the CI perf differ
 * (ci/perf_diff.py) can key results per configuration and compare
 * wall time across runs uniformly.
 */
inline void
jsonRow(std::ostream& os, const std::string& bench,
        const std::vector<std::pair<std::string, std::string>>& labels,
        const std::vector<std::pair<std::string, double>>& metrics,
        unsigned threads, double wall_ms)
{
    std::vector<std::pair<std::string, double>> all = metrics;
    all.emplace_back("threads", static_cast<double>(threads));
    all.emplace_back("wall_ms", wall_ms);
    jsonRow(os, bench, labels, all);
}

/** Print the standard bench header. */
inline void
header(const std::string& what, double scale)
{
    std::cout << "# " << what << "\n"
              << "# workload scale factor: " << scale
              << "  (set TEAAL_SCALE/TEAAL_GRAPH_SCALE=1.0 for "
                 "full Table 4 sizes)\n"
              << "# 'reported' columns are approximate values "
                 "digitized from the paper's figures\n\n";
}

// ------------------------------------------------------------------
// Approximate reported values digitized from the paper's figures.
// Keyed by dataset; ordering follows validationKeys().
// ------------------------------------------------------------------

/** Fig. 9a: ExTensor traffic normalized to the algorithmic minimum. */
inline const std::map<std::string, double>&
reportedExtensorTraffic()
{
    static const std::map<std::string, double> v{
        {"wi", 2.2}, {"p2", 4.6}, {"ca", 2.4}, {"po", 2.2}, {"em", 2.9}};
    return v;
}

/** Fig. 9b: Gamma traffic normalized to the algorithmic minimum. */
inline const std::map<std::string, double>&
reportedGammaTraffic()
{
    static const std::map<std::string, double> v{
        {"wi", 1.1}, {"p2", 1.2}, {"ca", 1.1}, {"po", 1.0}, {"em", 1.2}};
    return v;
}

/** Fig. 9c: OuterSPACE traffic normalized to the algorithmic min. */
inline const std::map<std::string, double>&
reportedOuterSpaceTraffic()
{
    static const std::map<std::string, double> v{
        {"wi", 5.3}, {"p2", 6.2}, {"ca", 5.0}, {"po", 4.1}, {"em", 5.8}};
    return v;
}

/** Fig. 10a: ExTensor speedup over MKL. */
inline const std::map<std::string, double>&
reportedExtensorSpeedup()
{
    static const std::map<std::string, double> v{
        {"wi", 3.9}, {"p2", 5.2}, {"ca", 3.6}, {"po", 2.9}, {"em", 4.5}};
    return v;
}

/** Fig. 10b: Gamma speedup over MKL. */
inline const std::map<std::string, double>&
reportedGammaSpeedup()
{
    static const std::map<std::string, double> v{{"wi", 19.0},
                                                 {"p2", 38.0},
                                                 {"ca", 22.0},
                                                 {"po", 16.0},
                                                 {"em", 26.0}};
    return v;
}

/** Fig. 11: ExTensor energy in mJ. */
inline const std::map<std::string, double>&
reportedExtensorEnergyMj()
{
    static const std::map<std::string, double> v{
        {"wi", 12.0}, {"p2", 26.0}, {"ca", 21.0}, {"po", 28.0},
        {"em", 52.0}};
    return v;
}

} // namespace teaal::bench
