/**
 * @file
 * explore: the design-space search flow. Each iteration binds a
 * power-law A, B pair (about 300 x 300, 1500 nonzeros each) as a new
 * Workload, builds the 36-candidate SpMSpM search space from its YAML
 * specs, and runs tune(topK = 1, threads = 1): 36 compiles, 36
 * analytic estimates and one cold trace simulation. Every estimate and
 * plan misses its cache, so the front-end layers (parse, compile,
 * analytic) do about half the work here and none in table1_*.
 *
 * Inputs come from a pool of seeded pairs made at set-up and cycled.
 * A failed estimate, a traced count other than one, or a pair whose
 * winner changes between iterations fails the run; the hash of the
 * winners of the pool is printed.
 */
#include <iostream>

#include "harness.hpp"
#include "layers.hpp"
#include "tuner/tuner.hpp"
#include "workloads/datasets.hpp"

namespace teaal::bench
{

namespace
{

constexpr std::size_t kPool = 32;
constexpr ft::Coord kDim = 300;
constexpr std::size_t kNnz = 1500;
constexpr int kSetupReps = 15;

struct Pair
{
    ft::Tensor a;
    ft::Tensor b;
};

Pair
makePair(std::uint64_t seed, std::size_t j)
{
    return {workloads::powerLawMatrix("A", kDim, kDim, kNnz,
                                      mixSeed(seed, 1000 + 2 * j), {"K", "M"}),
            workloads::powerLawMatrix("B", kDim, kDim, kNnz,
                                      mixSeed(seed, 1001 + 2 * j), {"K", "N"})};
}

struct Outcome
{
    tuner::TuneResult result;
    double ms = 0;
    double searchSpaceMs = 0;
};

/** One iteration: the search space, then the tuner, on pair @p p. */
Outcome
iterate(Tracer& tr, const Pair& p, long iteration)
{
    const Clock::time_point t0 = Clock::now();
    std::vector<tuner::Candidate> candidates;
    Outcome out;
    {
        auto span = tr.span("spmspmSearchSpace", "tuner", {}, iteration);
        candidates = tuner::spmspmSearchSpace();
    }
    out.searchSpaceMs = msSince(t0);
    compiler::Workload w;
    w.add("A", p.a).add("B", p.b);
    tuner::TunerOptions opts;
    opts.topK = 1;
    opts.threads = 1;
    {
        auto span = tr.span("tune", "tuner", {}, iteration);
        out.result = tuner::tune(candidates, w, opts);
    }
    out.ms = msSince(t0);
    return out;
}

} // namespace

void
runExplore(const Context& ctx)
{
    Tracer& tr = ctx.tracer;
    Report& report = ctx.report;
    std::cout << "threads per search: 1\n";

    SpreadSetup<std::vector<Pair>> spread(kSetupReps, ctx.seconds, [&] {
        std::vector<Pair> p;
        {
            auto span = tr.span("synthesize", "workloads");
            for (std::size_t j = 0; j < kPool; ++j)
                p.push_back(makePair(ctx.seed, j));
        }
        (void)iterate(tr, p[0], -1);
        return p;
    });

    OpTimes ops;
    std::vector<double> searchSpaceMs;
    std::vector<std::string> winner(kPool);
    std::size_t winner0 = 0;
    const Clock::time_point start = Clock::now();
    const auto phaseSeconds = [&] {
        return msSince(start) / 1e3 - spread.spentSeconds();
    };
    for (std::size_t i = 0; i < kPool || phaseSeconds() < ctx.seconds; ++i) {
        spread.between(phaseSeconds());
        const std::size_t j = i % kPool;
        report.attempted();
        Outcome o;
        try {
            o = iterate(tr, spread.get()[j], static_cast<long>(i));
        } catch (const std::exception& e) {
            report.failed();
            report.fail("iteration " + std::to_string(i) + " threw: " +
                        e.what());
            continue;
        }
        ops.add("iteration", o.ms);
        searchSpaceMs.push_back(o.searchSpaceMs);
        const tuner::TuneResult& r = o.result;
        const std::string label = r.best().label;
        std::string bad;
        if (r.estimateFailures != 0)
            bad = std::to_string(r.estimateFailures) + " estimates failed";
        else if (r.tracedCount != 1)
            bad = "traced " + std::to_string(r.tracedCount) + " candidates";
        else if (i < kPool)
            winner[j] = label;
        else if (winner[j] != label)
            bad = "winner " + label + " != earlier " + winner[j];
        if (i == 0)
            winner0 = r.bestIndex;
        if (!bad.empty()) {
            report.failed();
            report.fail("iteration " + std::to_string(i) + ": " + bad);
        }
    }
    ops.report(report);
    spread.report(report);
    const std::vector<Pair>& pool = spread.get();

    std::string joined;
    for (const std::string& w : winner)
        joined += w + ";";
    std::cout << "  winner on pair 0: " << winner[0] << "\n";
    report.digest("winners", hashHex(joined));

    if (!tr.enabled())
        return;

    // Layer probe: every candidate on pair 0, as one tune() sees them.
    std::vector<tuner::Candidate> candidates = tuner::spmspmSearchSpace();
    std::vector<std::unique_ptr<compiler::CompiledModel>> models;
    std::vector<ProbeCase> cases;
    for (const tuner::Candidate& c : candidates)
        models.push_back(std::make_unique<compiler::CompiledModel>(
            compiler::compile(c.spec)));
    for (std::size_t k = 0; k < candidates.size(); ++k)
        cases.push_back({candidates[k].label, &candidates[k].spec,
                         models[k].get(), 0});
    const std::vector<ProbePair> pairs{
        {&pool[0].a, &pool[0].b, [&] { (void)makePair(ctx.seed, 0); }}};
    LayerProbe probe = probeLayers(ctx, pairs, cases, ProbeOptions{});
    // The timed phase times the parse itself, in the heap state the
    // search runs in; the probe's heap holds 36 more models.
    probe.searchSpaceMs = median(searchSpaceMs);
    reportLayers(probe, report);

    compiler::Workload w;
    w.add("A", pool[0].a).add("B", pool[0].b);
    RunCounts gamma;
    gamma.add(compiler::compile(accelSpec("gamma")).run(w));
    reportServe(probeServe(ctx, "gamma", probe.stores[0], gamma.muls, 20),
                report);

    // One iteration compiles and estimates every candidate once.
    double compile = 0, estimate = 0;
    for (const CaseLayers& cl : probe.cases) {
        compile += cl.compileMs;
        estimate += median(cl.estimateUs) / 1e3;
    }
    reportShares({{"tuner.search_space", probe.searchSpaceMs},
                  {"compiler.compile", compile},
                  {"analytic.estimate", estimate},
                  {"ir.bind", probe.bindMs(winner0)},
                  {"exec.walk", probe.cases[winner0].walkMs},
                  {"model.consume", probe.consumeMs(winner0)}},
                 median(ops.of("iteration")), report);
}

} // namespace teaal::bench
