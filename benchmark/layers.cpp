#include "layers.hpp"

#include <cmath>
#include <memory>
#include <type_traits>

#include "energy/energy.hpp"
#include "exec/executor.hpp"
#include "model/perf.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "storage/store.hpp"
#include "trace/batch.hpp"
#include "tuner/search_space.hpp"

namespace teaal::bench
{

namespace
{

/// One probe measurement takes at most kReps samples and starts no new
/// sample once kBudgetMs is spent, so slow configs cost one sample and
/// cheap calls get a median of several.
constexpr int kReps = 5;
constexpr double kBudgetMs = 150;

/// Spill segment size, the same as table1_warm_t4's.
constexpr std::size_t kSpillSegment = 1u << 20;

/** Median time of @p fn. What it returns is destroyed after the clock
 *  stops, as the timed phases drop their results outside the timing. */
template <typename Fn>
double
sampleMs(Fn&& fn, int reps = kReps, double budgetMs = kBudgetMs)
{
    std::vector<double> ms;
    double spent = 0;
    while (ms.empty() ||
           (static_cast<int>(ms.size()) < reps && spent < budgetMs)) {
        const Clock::time_point t0 = Clock::now();
        if constexpr (std::is_void_v<std::invoke_result_t<Fn&>>) {
            fn();
            ms.push_back(msSince(t0));
        } else {
            const auto result = fn();
            ms.push_back(msSince(t0));
        }
        spent += ms.back();
    }
    return median(ms);
}

/** Batch-aware no-op observer: the walk is timed, not event dispatch. */
class NullSink : public trace::Observer
{
  public:
    void onEventBatch(const trace::EventBatch&) override {}
};

using PackedPtr = std::shared_ptr<const storage::PackedTensor>;

struct BoundPair
{
    PackedPtr a;
    PackedPtr b;
};

compiler::Workload
pointerWorkload(const ProbePair& p)
{
    compiler::Workload w;
    w.add("A", *p.a).add("B", *p.b);
    return w;
}

compiler::Workload
packedWorkload(const BoundPair& p)
{
    compiler::Workload w;
    w.add("A", p.a).add("B", p.b);
    return w;
}

double
mean(const std::vector<double>& v)
{
    double sum = 0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

} // namespace

LayerProbe
probeLayers(const Context& ctx, const std::vector<ProbePair>& pairs,
            const std::vector<ProbeCase>& cases, const ProbeOptions& opts)
{
    Tracer& tr = ctx.tracer;
    LayerProbe out;

    out.searchSpaceMs = sampleMs([&] {
        auto s = tr.span("spmspmSearchSpace", "tuner");
        return tuner::spmspmSearchSpace();
    });

    // Storage and synthesis, once per input pair.
    const std::filesystem::path dir = ctx.scratch.sub("probe");
    std::vector<BoundPair> mapped(pairs.size());
    std::vector<double> synth, pack, write, map;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        const ProbePair& p = pairs[i];
        const std::string tag = "pair" + std::to_string(i);
        synth.push_back(sampleMs([&] {
            auto s = tr.span("synthesize", "workloads", tag);
            p.synth();
        }));
        storage::PackedTensor pa, pb;
        pack.push_back(sampleMs([&] {
            auto s = tr.span("PackedTensor::fromTensor", "storage", tag);
            pa = storage::PackedTensor::fromTensor(*p.a);
            pb = storage::PackedTensor::fromTensor(*p.b);
        }));
        const std::string pathA = (dir / (tag + "_A.tpk")).string();
        const std::string pathB = (dir / (tag + "_B.tpk")).string();
        write.push_back(sampleMs([&] {
            auto s = tr.span("writeStore", "storage", tag);
            storage::writeStore(pathA, pa);
            storage::writeStore(pathB, pb);
        }));
        map.push_back(sampleMs([&] {
            auto s = tr.span("mapStore", "storage", tag);
            mapped[i].a = std::make_shared<const storage::PackedTensor>(
                storage::mapStore(pathA));
            mapped[i].b = std::make_shared<const storage::PackedTensor>(
                storage::mapStore(pathB));
        }));
        out.stores.emplace_back(pathA, pathB);
    }
    out.synthMs = mean(synth);
    out.packMs = mean(pack);
    out.writeMs = mean(write);
    out.mapMs = mean(map);

    const auto opWorkload = [&](std::size_t pair) {
        return opts.packedInputs ? packedWorkload(mapped[pair])
                                 : pointerWorkload(pairs[pair]);
    };
    const std::filesystem::path spillDir = ctx.scratch.sub("probe_spill");
    compiler::RunOptions opRun;
    opRun.threads = opts.threads;
    if (opts.spill) {
        opRun.spillDir = spillDir.string();
        opRun.spillSegmentBytes = kSpillSegment;
    }
    compiler::RunOptions resident = opRun;
    resident.spillDir.clear();
    const compiler::RunOptions serial;
    // The trace.spill pair runs at 4 threads; when the op is that pair,
    // its own runs serve.
    const bool opIsSpillPair = opts.spill && opts.threads == cappedThreads(4);
    compiler::RunOptions spillOff;
    spillOff.threads = cappedThreads(4);
    compiler::RunOptions spillOn = spillOff;
    spillOn.spillDir = spillDir.string();
    spillOn.spillSegmentBytes = kSpillSegment;

    for (const ProbeCase& c : cases) {
        CaseLayers cl;
        compiler::CompiledModel& model = *c.model;

        cl.compileMs = sampleMs([&] {
            compiler::Specification spec = *c.spec;
            auto s = tr.span("compile", "compiler", c.label);
            return compiler::compile(std::move(spec));
        });

        for (int i = 0; i < 5; ++i) {
            const compiler::Workload fresh = opWorkload(c.pair);
            const Clock::time_point t0 = Clock::now();
            {
                auto s = tr.span("estimate", "analytic", c.label);
                (void)model.estimate(fresh);
            }
            cl.estimateUs.push_back(msSince(t0) * 1e3);
        }

        compiler::RunOptions cold = opRun;
        cold.cacheState = false;
        cl.coldMs = sampleMs([&] {
            const compiler::Workload fresh = opWorkload(c.pair);
            auto s = tr.span("run.cold", "compiler", c.label);
            return model.run(fresh, cold);
        });

        // Warm runs share one Workload, so its plans stay cached.
        const compiler::Workload w = opWorkload(c.pair);
        compiler::SimulationResult warm;
        {
            auto s = tr.span("run.warmup", "compiler", c.label);
            warm = model.run(w, opRun);
        }
        cl.counts.add(warm);
        const auto timeRun = [&](const char* name,
                                 const compiler::RunOptions& ro,
                                 compiler::SimulationResult* keep) {
            return sampleMs([&] {
                auto s = tr.span(name, "compiler", c.label);
                compiler::SimulationResult r = model.run(w, ro);
                if (keep != nullptr)
                    *keep = r;
                return r;
            });
        };
        cl.warmMs = timeRun("run.warm", opRun, nullptr);
        cl.residentMs =
            opts.spill ? timeRun("run.resident", resident, nullptr) : cl.warmMs;
        cl.serialMs = opts.threads == 1 && !opts.spill
                          ? cl.warmMs
                          : timeRun("run.serial", serial, nullptr);

        // The walk alone, serial: at more threads the executor would
        // also capture and replay the whole trace (the trace layer).
        const std::vector<ir::EinsumPlan>& plans = model.plans(w);
        cl.walkMs = sampleMs([&] {
            auto s = tr.span("Executor::run", "exec", c.label);
            cl.walkEvents = 0;
            std::vector<ft::Tensor> outputs;
            for (const ir::EinsumPlan& plan : plans) {
                NullSink sink;
                exec::Executor ex(plan, sink);
                outputs.push_back(ex.run());
                cl.walkEvents += static_cast<double>(ex.bus().eventCount());
            }
            return outputs;
        });

        // The rollup alone, on the warm run's records; it must give the
        // modeled seconds and joules run() gave.
        const arch::ArchSpec& arch = model.spec().architecture;
        model::CascadePerf rolledPerf;
        energy::EnergyBreakdown rolledEnergy;
        cl.rollupUs = 1e3 * sampleMs(
                                [&] {
                                    auto s = tr.span("analyze+energyOf",
                                                     "model", c.label);
                                    rolledPerf = model::analyze(
                                        warm.records, arch, model.blocks());
                                    rolledEnergy = {};
                                    for (const model::EinsumRecord& r :
                                         warm.records)
                                        rolledEnergy += energy::energyOf(
                                            r, arch.topology(r.topologyName));
                                },
                                20, 20);
        if (rolledPerf.totalSeconds != warm.perf.totalSeconds ||
            rolledEnergy.totalJoules != warm.energy.totalJoules)
            ctx.report.fail(c.label + ": rolling up the run's records does "
                                      "not give run()'s seconds and joules");

        compiler::SimulationResult spilled = warm;
        if (opIsSpillPair) {
            cl.spillResidentMs = cl.residentMs;
            cl.spillSpilledMs = cl.warmMs;
        } else {
            cl.spillResidentMs = timeRun("run.resident", spillOff, nullptr);
            cl.spillSpilledMs = timeRun("run.spilled", spillOn, &spilled);
        }
        cl.spillFrames = static_cast<double>(spilled.spill.frames);
        cl.spillBytes = static_cast<double>(spilled.spill.bytes);
        if (simDigest(spilled) != simDigest(warm))
            ctx.report.fail(c.label + ": spilled run's statistics differ "
                                      "from the op's run");

        // Later cases should not walk a heap grown by this one's plans.
        model.clearCache();
        out.cases.push_back(std::move(cl));
    }
    return out;
}

void
reportLayers(const LayerProbe& p, Report& r)
{
    std::vector<double> compile, estimate, bind, walk, consume, rollup,
        spill;
    double events = 0, walkSeconds = 0, frames = 0, bytes = 0;
    RunCounts counts;
    for (std::size_t c = 0; c < p.cases.size(); ++c) {
        const CaseLayers& cl = p.cases[c];
        compile.push_back(cl.compileMs);
        estimate.insert(estimate.end(), cl.estimateUs.begin(),
                        cl.estimateUs.end());
        bind.push_back(p.bindMs(c));
        walk.push_back(cl.walkMs);
        consume.push_back(p.consumeMs(c));
        rollup.push_back(cl.rollupUs);
        spill.push_back(p.spillMs(c));
        events += cl.walkEvents;
        walkSeconds += cl.walkMs / 1e3;
        frames += cl.spillFrames;
        bytes += cl.spillBytes;
        counts += cl.counts;
    }
    r.metric("workloads.synth_ms", p.synthMs, "ms");
    r.metric("storage.pack_ms", p.packMs, "ms");
    r.metric("storage.write_ms", p.writeMs, "ms");
    r.metric("storage.map_ms", p.mapMs, "ms");
    r.metric("tuner.search_space_ms", p.searchSpaceMs, "ms");
    r.metric("compiler.compile_ms", mean(compile), "ms");
    r.metric("analytic.estimate_us_p50", median(estimate), "us");
    r.metric("ir.bind_ms", mean(bind), "ms");
    r.metric("exec.walk_ms", mean(walk), "ms");
    r.metric("exec.walk_events_per_s",
             walkSeconds > 0 ? events / walkSeconds : 0, "1/s");
    r.metric("model.consume_ms", mean(consume), "ms");
    r.metric("model.rollup_us", mean(rollup), "us");
    r.metric("trace.spill_ms", mean(spill), "ms");
    r.metric("trace.spill_frames", frames, "count");
    r.metric("trace.spill_mb", bytes / 1e6, "MB");
    r.metric("exec.muls", counts.muls, "count");
    r.metric("exec.leaf_visits", counts.leafVisits, "count");
    r.metric("exec.output_writes", counts.outputWrites, "count");
    r.metric("trace.events", counts.traceEvents, "count");
    r.metric("trace.batches", counts.traceBatches, "count");
    r.samples("probe_cases", p.cases.size());
}

// ------------------------------------------------------------- serve

serve::Json
jsonObject(std::initializer_list<std::pair<const char*, serve::Json>> fields)
{
    serve::Json j = serve::Json::makeObject();
    for (const auto& [k, v] : fields)
        j.set(k, v);
    return j;
}

serve::Json
jsonStr(const std::string& s)
{
    return serve::Json::makeString(s);
}

double
numberField(const serve::Json& r, const char* key)
{
    const serve::Json* v = r.find(key);
    return v != nullptr && v->isNumber() ? v->number() : std::nan("");
}

std::string
stringField(const serve::Json& r, const char* key)
{
    const serve::Json* v = r.find(key);
    return v != nullptr && v->isString() ? v->str() : std::string();
}

void
readServeStats(const serve::Json& stats, ServeSamples& s)
{
    if (const serve::Json* adm = stats.find("admission")) {
        s.shed = numberField(*adm, "shed");
        s.peakInFlight = numberField(*adm, "peak_in_flight");
    }
    if (const serve::Json* reg = stats.find("registry"))
        s.evictions = numberField(*reg, "evictions");
}

ServeSamples
probeServe(const Context& ctx, const std::string& accel,
           const std::pair<std::string, std::string>& stores,
           double wantMuls, int evals)
{
    Tracer& tr = ctx.tracer;
    ServeSamples out;
    serve::Server server;
    server.start();
    serve::Client client;
    client.connect(server.port());

    const auto call = [&](const serve::Json& req, const char* name,
                          double* rttMs) {
        const Clock::time_point t0 = Clock::now();
        serve::Json r;
        {
            auto s = tr.span(name, "serve", accel);
            r = client.request(req);
        }
        *rttMs = msSince(t0);
        if (!serve::responseErrorCode(r).empty())
            ctx.report.fail(std::string("serve probe ") + name + ": " +
                            r.dump());
        return r;
    };

    double rtt = 0;
    const serve::Json compiled = call(
        jsonObject({{"op", jsonStr("compile")}, {"accel", jsonStr(accel)}}),
        "compile", &rtt);
    out.writeMs.push_back(rtt);
    const auto load = [&](const std::string& path, const char* name) {
        const serve::Json r = call(jsonObject({{"op", jsonStr("load_dataset")},
                                               {"path", jsonStr(path)},
                                               {"name", jsonStr(name)}}),
                                   "load_dataset", &rtt);
        out.writeMs.push_back(rtt);
        return stringField(r, "dataset");
    };
    const std::string da = load(stores.first, "A");
    const std::string db = load(stores.second, "B");
    const std::string model = stringField(compiled, "model");

    const serve::Json bindings =
        jsonObject({{"A", jsonStr(da)}, {"B", jsonStr(db)}});
    const serve::Json evaluate = jsonObject({{"op", jsonStr("evaluate")},
                                             {"model", jsonStr(model)},
                                             {"bindings", bindings}});
    const serve::Json estimate = jsonObject({{"op", jsonStr("estimate")},
                                             {"model", jsonStr(model)},
                                             {"bindings", bindings}});

    (void)call(evaluate, "evaluate.cold", &rtt);
    for (int i = 0; i < evals; ++i) {
        const serve::Json r = call(evaluate, "evaluate", &rtt);
        const double lat = numberField(r, "latency_ms");
        const double elapsed = numberField(r, "elapsed_ms");
        out.runMs.push_back(lat);
        out.queueMs.push_back(elapsed - lat);
        out.wireMs.push_back(rtt - elapsed);
        if (numberField(r, "compute_muls") != wantMuls)
            ctx.report.fail("serve probe: evaluate reports " +
                            std::to_string(numberField(r, "compute_muls")) +
                            " muls, in-process run " +
                            std::to_string(wantMuls));
    }
    for (int i = 0; i < evals; ++i) {
        (void)call(estimate, "estimate", &rtt);
        out.estimateMs.push_back(rtt);
    }

    readServeStats(client.request(jsonObject({{"op", jsonStr("stats")}})),
                   out);
    client.close();
    server.stop();
    return out;
}

void
reportServe(const ServeSamples& s, Report& r)
{
    r.metric("serve.run_ms_p50", quantile(s.runMs, 0.5), "ms");
    r.metric("serve.run_ms_p99", quantile(s.runMs, 0.99), "ms");
    r.metric("serve.queue_ms_p50", quantile(s.queueMs, 0.5), "ms");
    r.metric("serve.queue_ms_p99", quantile(s.queueMs, 0.99), "ms");
    r.metric("serve.wire_ms_p50", quantile(s.wireMs, 0.5), "ms");
    r.metric("serve.estimate_ms_p50", quantile(s.estimateMs, 0.5), "ms");
    r.metric("serve.write_ms_p50", quantile(s.writeMs, 0.5), "ms");
    r.metric("serve.shed", s.shed, "count");
    r.metric("serve.peak_in_flight", s.peakInFlight, "count");
    r.metric("serve.registry_evictions", s.evictions, "count");
    r.samples("serve.evaluate", s.runMs.size());
}

void
reportShares(const std::vector<std::pair<std::string, double>>& parts,
             double opMs, Report& report)
{
    double rest = 1;
    for (const auto& [layer, ms] : parts) {
        report.share(layer, ms / opMs);
        rest -= ms / opMs;
    }
    report.share("unattributed", rest);
}

} // namespace teaal::bench
