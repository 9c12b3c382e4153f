/**
 * @file
 * table1_cold_t1 and table1_warm_t4: the four Table 1 accelerators at
 * their default (Table 5) configurations on two Table 4 stand-ins, the
 * eight configurations interleaved round by round.
 *
 *   cold_t1  the figure-reproduction flow: pointer inputs, a fresh
 *            Workload per run with cacheState=false, one thread. Bind,
 *            the serial walk and the model do all the work.
 *   warm_t4  the run-many flow: inputs packed to store files and
 *            mapped at set-up, four threads, traces spilled in 1 MiB
 *            segments, plan cache warm. Sharded capture and replay,
 *            the packed walk and spill I/O do the work; bind does none.
 *
 * Both compare every configuration's Z with baselines::gustavsonSpmspm
 * and print a digest of its simulated statistics. warm_t4 also checks
 * its digests against a serial pointer-input run of the same inputs,
 * which is the thread/packed/mapped/spill invariant.
 */
#include <iostream>

#include "baselines/baselines.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "storage/store.hpp"
#include "workloads/datasets.hpp"

namespace teaal::bench
{

namespace
{

/// Table 4 scale of both stand-ins: one round of the eight configs
/// takes about a second on one core.
constexpr double kScale = 0.05;
/// Set-ups per run: cold set-up takes milliseconds, warm set-up runs
/// every config once.
constexpr int kColdSetups = 15;
constexpr int kWarmSetups = 5;
constexpr std::size_t kSpillSegment = 1u << 20;

const std::vector<std::string> kAccels{"gamma", "extensor", "outerspace",
                                       "sigma"};
const std::vector<std::string> kDatasets{"wi", "p2"};

/**
 * One stand-in pair. B is drawn from A's seed, so Z = A^T A: power-law
 * row degrees are fixed and only their placement is random, which
 * keeps the work per seed steady. `wi` is the registry's power-law
 * stand-in; `p2` takes p2p-Gnutella31's shape and nonzeros with banded
 * structure, so the two pairs differ in skew as well as size.
 */
struct Pair
{
    ft::Tensor a;
    ft::Tensor b;
};

Pair
makePair(const std::string& key, std::uint64_t seed)
{
    const workloads::DatasetInfo& info = workloads::dataset(key);
    if (key == "wi")
        return {workloads::synthesize(info, "A", seed, kScale, {"K", "M"}),
                workloads::synthesize(info, "B", seed, kScale, {"K", "N"})};
    const auto rows = static_cast<ft::Coord>(info.rows * kScale);
    const auto nnz = static_cast<std::size_t>(info.nnz * kScale);
    return {workloads::bandedMatrix("A", rows, rows, nnz, seed, {"K", "M"}),
            workloads::bandedMatrix("B", rows, rows, nnz, seed, {"K", "N"})};
}

struct Config
{
    std::string label; ///< "<accel>/<dataset>"
    std::size_t accel = 0;
    std::size_t pair = 0;
};

struct Setup
{
    std::vector<Pair> pairs;
    std::vector<compiler::Specification> specs;
    std::vector<std::unique_ptr<compiler::CompiledModel>> models;
    /// warm_t4 only: one Workload of mapped store files per pair.
    std::vector<compiler::Workload> mapped;
};

std::uint64_t
pairSeed(std::uint64_t seed, std::size_t pair)
{
    return mixSeed(seed, 100 + pair);
}

} // namespace

void
runTable1(const Context& ctx, bool warm)
{
    Tracer& tr = ctx.tracer;
    Report& report = ctx.report;

    std::vector<Config> configs;
    for (std::size_t d = 0; d < kDatasets.size(); ++d) {
        for (std::size_t a = 0; a < kAccels.size(); ++a)
            configs.push_back({kAccels[a] + "/" + kDatasets[d], a, d});
    }

    const unsigned threads = warm ? cappedThreads(4) : 1;
    std::cout << "threads per run: " << threads << " (4 wanted, "
              << cappedThreads(1u << 30) << " cores)\n";
    const std::filesystem::path spillDir = ctx.scratch.sub("spill");

    compiler::RunOptions opts;
    opts.threads = threads;
    if (warm) {
        opts.spillDir = spillDir.string();
        opts.spillSegmentBytes = kSpillSegment;
    } else {
        opts.cacheState = false;
    }

    SpreadSetup<Setup> spread(warm ? kWarmSetups : kColdSetups, ctx.seconds,
                              [&] {
        Setup s;
        const std::filesystem::path storeDir = ctx.scratch.sub("stores");
        for (std::size_t d = 0; d < kDatasets.size(); ++d) {
            auto span = tr.span("synthesize", "workloads", kDatasets[d]);
            s.pairs.push_back(makePair(kDatasets[d], pairSeed(ctx.seed, d)));
        }
        for (const std::string& name : kAccels) {
            s.specs.push_back(accelSpec(name));
            auto span = tr.span("compile", "compiler", name);
            s.models.push_back(std::make_unique<compiler::CompiledModel>(
                compiler::compile(s.specs.back())));
        }
        if (!warm)
            return s;
        for (std::size_t d = 0; d < s.pairs.size(); ++d) {
            compiler::Workload w;
            for (const auto& [name, t] :
                 {std::pair<const char*, const ft::Tensor*>{"A", &s.pairs[d].a},
                  {"B", &s.pairs[d].b}}) {
                const std::string path =
                    (storeDir / (kDatasets[d] + "_" + name + ".tpk")).string();
                {
                    auto span = tr.span("pack+writeStore", "storage", path);
                    storage::writeStore(path,
                                        storage::PackedTensor::fromTensor(*t));
                }
                auto span = tr.span("mapStore", "storage", path);
                w.add(name, std::make_shared<const storage::PackedTensor>(
                                storage::mapStore(path)));
            }
            s.mapped.push_back(std::move(w));
        }
        // One warm-up per config fills the plan caches.
        for (const Config& c : configs) {
            auto span = tr.span("run.warmup", "compiler", c.label);
            (void)s.models[c.accel]->run(s.mapped[c.pair], opts);
        }
        return s;
    });

    // References, outside set-up and the timed phase. Every set-up
    // makes the same inputs and models, so the first serves them all.
    std::vector<ft::Tensor> refZ;
    std::vector<std::string> refDigest(configs.size());
    {
        const Setup& setup = spread.get();
        for (const Pair& p : setup.pairs)
            refZ.push_back(baselines::gustavsonSpmspm(p.a, p.b));
        for (std::size_t i = 0; warm && i < configs.size(); ++i) {
            const Config& c = configs[i];
            compiler::Workload w;
            w.add("A", setup.pairs[c.pair].a).add("B", setup.pairs[c.pair].b);
            compiler::RunOptions serial;
            serial.cacheState = false;
            refDigest[i] = simDigest(setup.models[c.accel]->run(w, serial));
        }
    }

    // Timed phase: whole rounds, each config once per round, the start
    // rotating so no config always runs first.
    OpTimes ops;
    std::vector<compiler::SimulationResult> first(configs.size());
    std::vector<bool> have(configs.size(), false);
    const Clock::time_point start = Clock::now();
    const auto phaseSeconds = [&] {
        return msSince(start) / 1e3 - spread.spentSeconds();
    };
    for (long round = 0; round == 0 || phaseSeconds() < ctx.seconds;
         ++round) {
        spread.between(phaseSeconds());
        const Setup& setup = spread.get();
        for (std::size_t k = 0; k < configs.size(); ++k) {
            const std::size_t i = (k + static_cast<std::size_t>(round)) %
                                  configs.size();
            const Config& c = configs[i];
            const compiler::CompiledModel& model = *setup.models[c.accel];
            compiler::Workload fresh;
            if (!warm)
                fresh.add("A", setup.pairs[c.pair].a)
                    .add("B", setup.pairs[c.pair].b);
            const compiler::Workload& w = warm ? setup.mapped[c.pair] : fresh;
            report.attempted();
            compiler::SimulationResult r;
            const Clock::time_point t0 = Clock::now();
            try {
                auto span = tr.span("run", "compiler", c.label, round);
                r = model.run(w, opts);
            } catch (const std::exception& e) {
                report.failed();
                report.fail(c.label + ": run threw: " + e.what());
                continue;
            }
            ops.add(c.label, msSince(t0));
            const std::string digest = simDigest(r);
            if (!have[i]) {
                if (!warm)
                    refDigest[i] = digest;
                first[i] = std::move(r);
                have[i] = true;
            }
            if (digest != refDigest[i]) {
                report.failed();
                report.fail(c.label + " round " + std::to_string(round) +
                            ": simulated statistics " + digest + " != " +
                            refDigest[i]);
            }
        }
    }
    ops.report(report);
    spread.report(report);
    const Setup& setup = spread.get();

    std::string all;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const Config& c = configs[i];
        if (!have[i])
            continue;
        const double tol = kAccels[c.accel] == "sigma" ? 1e-9 : 0;
        const std::string diff = compareTensors(
            first[i].result(setup.specs[c.accel]), refZ[c.pair], tol);
        if (!diff.empty())
            report.fail(c.label + ": Z differs from gustavsonSpmspm: " +
                        diff);
        std::cout << "  " << c.label << ": modeled "
                  << first[i].perf.totalSeconds * 1e6 << " us, digest "
                  << refDigest[i] << "\n";
        report.digest(c.label, refDigest[i]);
        all += refDigest[i];
    }
    report.digest("all", hashHex(all));

    if (!tr.enabled())
        return;

    // Layer probe on the same configs and inputs.
    std::vector<ProbePair> pairs;
    for (std::size_t d = 0; d < setup.pairs.size(); ++d)
        pairs.push_back({&setup.pairs[d].a, &setup.pairs[d].b, [&, d] {
                             (void)makePair(kDatasets[d],
                                            pairSeed(ctx.seed, d));
                         }});
    std::vector<ProbeCase> cases;
    for (const Config& c : configs)
        cases.push_back({c.label, &setup.specs[c.accel],
                         setup.models[c.accel].get(), c.pair});
    ProbeOptions po;
    po.threads = threads;
    po.packedInputs = warm;
    po.spill = warm;
    const LayerProbe probe = probeLayers(ctx, pairs, cases, po);
    reportLayers(probe, report);

    // Serve layer: gamma on the p2 pair, the smaller of the two.
    const std::size_t gammaP2 = kAccels.size();
    reportServe(probeServe(ctx, "gamma", probe.stores[1],
                           probe.cases[gammaP2].counts.muls, 10),
                report);

    // Shares of the timed phase, per operation. A 4-thread run does its
    // walk and model work inside the shard workers, which outside
    // timing cannot split; its shares stop at resident run vs spill.
    const double n = static_cast<double>(configs.size());
    double opMs = 0, bind = 0, walk = 0, consume = 0, resident = 0,
           spill = 0;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const CaseLayers& cl = probe.cases[i];
        opMs += median(ops.of(configs[i].label)) / n;
        bind += probe.bindMs(i) / n;
        walk += cl.walkMs / n;
        consume += probe.consumeMs(i) / n;
        resident += cl.residentMs / n;
        spill += (cl.warmMs - cl.residentMs) / n;
    }
    if (warm)
        reportShares({{"exec+trace+model", resident}, {"trace.spill", spill}},
                     opMs, report);
    else
        reportShares({{"ir.bind", bind},
                      {"exec.walk", walk},
                      {"model.consume", consume}},
                     opMs, report);
}

} // namespace teaal::bench
