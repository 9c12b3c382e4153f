/**
 * @file
 * The traced run's layer probe: extra public calls, made outside the
 * end-to-end timing loop, that split one operation of a workload into
 * the library's layers.
 *
 *   workloads  synthesize the inputs again
 *   storage    PackedTensor::fromTensor, writeStore, mapStore
 *   tuner      spmspmSearchSpace (the einsum/ + yaml/ parse it drives)
 *   compiler   compile
 *   analytic   CompiledModel::estimate on a fresh Workload (cache miss)
 *   ir         bind: a cold run() minus the median warm run()
 *   exec       exec::Executor over plans(w) with a no-op observer, at
 *              one thread (more would add full trace capture/replay)
 *   model      serial warm run() minus the walk; analyze + energyOf
 *   trace      a spilled run minus a resident run, at 4 threads
 *   serve      evaluate / estimate / load_dataset / compile round trips
 *
 * The differences (bind, consume, spill) are outside estimates; spans
 * inside the library would replace them.
 */
#pragma once

#include <functional>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "serve/json.hpp"

namespace teaal::bench
{

/** One input pair of a workload: A [K, M], B [K, N]. */
struct ProbePair
{
    const ft::Tensor* a = nullptr;
    const ft::Tensor* b = nullptr;
    /// Regenerates this pair from the seed (timed as workloads.synth).
    std::function<void()> synth;
};

/** One (model, input pair) configuration a workload runs. */
struct ProbeCase
{
    std::string label;
    const compiler::Specification* spec = nullptr;
    compiler::CompiledModel* model = nullptr; ///< plans() is non-const
    std::size_t pair = 0;
};

/** How the workload's own operation runs. */
struct ProbeOptions
{
    unsigned threads = 1;
    bool packedInputs = false; ///< op binds mapped store files
    bool spill = false;        ///< op spills its trace (threads >= 2)
};

/** Per-case layer times, in ms unless named otherwise. */
struct CaseLayers
{
    double compileMs = 0;
    std::vector<double> estimateUs;
    double coldMs = 0;
    double warmMs = 0;     ///< warm run() with the op's options
    double residentMs = 0; ///< warm run() at the op's threads, no spill
    double serialMs = 0;   ///< warm run() at one thread, no spill
    double walkMs = 0;     ///< the serial walk alone
    double walkEvents = 0;
    double rollupUs = 0;
    double spillResidentMs = 0; ///< 4-thread pair for trace.spill
    double spillSpilledMs = 0;
    double spillFrames = 0;
    double spillBytes = 0;
    RunCounts counts;
};

struct LayerProbe
{
    std::vector<CaseLayers> cases;
    double searchSpaceMs = 0;
    double synthMs = 0; ///< means over pairs, A and B together
    double packMs = 0;
    double writeMs = 0;
    double mapMs = 0;
    /// Store files written for each pair (A, B), for the serve probe.
    std::vector<std::pair<std::string, std::string>> stores;

    double bindMs(std::size_t c) const
    {
        return cases[c].coldMs - cases[c].warmMs;
    }
    double consumeMs(std::size_t c) const
    {
        return cases[c].serialMs - cases[c].walkMs;
    }
    double spillMs(std::size_t c) const
    {
        return cases[c].spillSpilledMs - cases[c].spillResidentMs;
    }
};

LayerProbe probeLayers(const Context& ctx,
                       const std::vector<ProbePair>& pairs,
                       const std::vector<ProbeCase>& cases,
                       const ProbeOptions& opts);

/** Report every non-serve per-layer metric from @p probe. */
void reportLayers(const LayerProbe& probe, Report& report);

/** Serve-layer samples, from a probe or from serve_mixed's own load. */
struct ServeSamples
{
    std::vector<double> runMs;      ///< evaluate latency_ms
    std::vector<double> queueMs;    ///< evaluate elapsed_ms - latency_ms
    std::vector<double> wireMs;     ///< round trip - elapsed_ms
    std::vector<double> estimateMs; ///< estimate round trips
    std::vector<double> writeMs;    ///< load_dataset / compile round trips
    double shed = 0;
    double peakInFlight = 0;
    double evictions = 0;
};

/** Reads the `stats` op's shed, peak in-flight and eviction counts. */
void readServeStats(const serve::Json& stats, ServeSamples& s);

/** Protocol helpers shared by the serve probe and serve_mixed. */
serve::Json jsonObject(
    std::initializer_list<std::pair<const char*, serve::Json>> fields);
serve::Json jsonStr(const std::string& s);
/** Number field of @p r; NaN when absent. */
double numberField(const serve::Json& r, const char* key);
/** String field of @p r; empty when absent. */
std::string stringField(const serve::Json& r, const char* key);

/**
 * Closed-loop serve probe on one connection: compile @p accel, load
 * the store pair, then time @p evals warm evaluations and estimates.
 * Every evaluation must report @p wantMuls multiplies.
 */
ServeSamples probeServe(const Context& ctx, const std::string& accel,
                        const std::pair<std::string, std::string>& stores,
                        double wantMuls, int evals);

void reportServe(const ServeSamples& s, Report& report);

/**
 * Report the share of one operation each layer takes (@p parts in ms
 * per operation against the measured @p opMs), plus what is left.
 */
void reportShares(const std::vector<std::pair<std::string, double>>& parts,
                  double opMs, Report& report);

} // namespace teaal::bench
