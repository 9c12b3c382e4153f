/**
 * @file
 * serve_mixed: reads beside writes on the evaluation daemon. An
 * in-process serve::Server takes an open-loop, seeded Poisson load at
 * a fixed rate over four loopback connections (fewer on smaller
 * hosts). The schedule and the operation mix are drawn before the
 * timed phase:
 *
 *   60%  evaluate, warm: a hot model on a hot dataset pair
 *   25%  estimate on the same
 *    8%  load_dataset of a cold tensor, half Matrix Market, half store
 *    5%  evaluate, cold: a hot model on the newest loaded pair
 *    2%  compile from YAML
 *
 * The registry budget holds the hot set plus a few cold entries, so
 * cold loads and compiled models get evicted and the hot set never
 * does. Latency runs from each request's due time, so a stall also
 * delays the requests queued behind it. Every evaluation's multiplies
 * and traffic must equal an in-process run of the same model and
 * tensors.
 */
#include <atomic>
#include <cmath>
#include <cstring>
#include <iostream>
#include <mutex>
#include <thread>
#include <tuple>

#include "harness.hpp"
#include "layers.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "storage/store.hpp"
#include "util/random.hpp"
#include "workloads/datasets.hpp"
#include "workloads/mtx.hpp"

namespace teaal::bench
{

namespace
{

/// Offered load: about a third of what the mix saturates at on a 4-core
/// host, so a host running at half speed still has headroom (README.md).
constexpr double kRatePerSecond = 130;
constexpr unsigned kConnections = 4;
constexpr std::size_t kHotPairs = 4;
constexpr std::size_t kColdPairs = 6;
constexpr ft::Coord kDim = 160;
constexpr std::size_t kNnz = 600;
constexpr int kSetupReps = 25;
/// Registry room beyond the hot set, in largest-cold-entry units.
constexpr std::uint64_t kColdRoom = 16;
/// The registry's nominal charge for a compiled model.
constexpr std::uint64_t kModelBytes = 64 * 1024;

const std::vector<std::string> kModels{"gamma", "outerspace"};

const char* kYamlSpec = R"(einsum:
  declaration:
    A: [K, M]
    B: [K, N]
    Z: [M, N]
  expressions:
    - Z[m, n] = A[k, m] * B[k, n]
mapping:
  rank-order:
    A: [M, K]
    B: [K, N]
    Z: [M, N]
  loop-order:
    Z: [M, K, N]
)";

enum class Kind { WarmEval, Estimate, Load, ColdEval, Compile };

const char*
kindName(Kind k)
{
    switch (k) {
      case Kind::WarmEval: return "evaluate_warm";
      case Kind::Estimate: return "estimate";
      case Kind::Load: return "load_dataset";
      case Kind::ColdEval: return "evaluate_cold";
      case Kind::Compile: return "compile";
    }
    return "?";
}

/** One pre-drawn request. */
struct Planned
{
    double dueSeconds = 0;
    Kind kind = Kind::WarmEval;
    std::size_t model = 0;
    std::size_t hot = 0;    ///< hot pair (warm evaluate, estimate)
    std::size_t tensor = 0; ///< tensor index (load)
    bool store = false;     ///< load from the store file
};

/** Tensor t of the table: pair t / 2, A when even, B when odd; hot
 *  pairs first, then the cold pool. */
struct Setup
{
    std::vector<ft::Tensor> tensors;
    std::vector<std::string> mtxPath;
    std::vector<std::string> storePath;
    std::unique_ptr<serve::Server> server;
    std::vector<std::string> modelIds;
    std::vector<std::string> hotIds; ///< dataset id per hot tensor
};

serve::Json
evalRequest(const char* op, const std::string& model, const std::string& a,
            const std::string& b)
{
    return jsonObject(
        {{"op", jsonStr(op)},
         {"model", jsonStr(model)},
         {"bindings", jsonObject({{"A", jsonStr(a)}, {"B", jsonStr(b)}})}});
}

serve::Json
loadRequest(const std::string& path, std::size_t tensor)
{
    const bool isB = tensor % 2 == 1;
    serve::Json ranks = serve::Json::makeArray();
    ranks.push(jsonStr("K"));
    ranks.push(jsonStr(isB ? "N" : "M"));
    return jsonObject({{"op", jsonStr("load_dataset")},
                       {"path", jsonStr(path)},
                       {"name", jsonStr(isB ? "B" : "A")},
                       {"rank_ids", ranks}});
}

std::vector<Planned>
drawSchedule(std::uint64_t seed, double seconds)
{
    // Xoshiro256 rather than <random> distributions, whose output the
    // standard leaves to each library: a seed means the same schedule
    // everywhere.
    Xoshiro256 rng(mixSeed(seed, 7));
    const auto n = static_cast<std::size_t>(kRatePerSecond * seconds);
    std::vector<Planned> plan(n);
    double t = 0;
    std::size_t loads = 0;
    for (Planned& p : plan) {
        t += -std::log(1 - rng.uniform()) / kRatePerSecond;
        p.dueSeconds = t;
        const double x = rng.uniform();
        p.kind = x < 0.60   ? Kind::WarmEval
                 : x < 0.85 ? Kind::Estimate
                 : x < 0.93 ? Kind::Load
                 : x < 0.98 ? Kind::ColdEval
                            : Kind::Compile;
        p.model = rng.below(kModels.size());
        p.hot = rng.below(kHotPairs);
        if (p.kind == Kind::Load) {
            // A then B of each cold pair in turn; formats alternate by
            // pair.
            const std::size_t pair = (loads / 2) % kColdPairs;
            p.tensor = 2 * (kHotPairs + pair) + loads % 2;
            p.store = (loads / 2) % 2 == 1;
            ++loads;
        }
    }
    return plan;
}

/** What one request produced. */
struct Outcome
{
    bool ok = false;
    double dueToDoneMs = 0;
    double lagMs = 0;
    double rttMs = 0;
    serve::Json response;
    std::size_t a = 0, b = 0; ///< tensors an evaluation bound
};

/** A model's work on one tensor pair: what `evaluate` must report. */
struct Work
{
    double muls = 0;
    double traffic = 0;
};

} // namespace

void
runServeMixed(const Context& ctx)
{
    Tracer& tr = ctx.tracer;
    Report& report = ctx.report;
    const unsigned connections = cappedThreads(kConnections);
    std::cout << "client connections: " << connections << " (4 wanted, "
              << cappedThreads(1u << 30) << " cores); offered load "
              << kRatePerSecond << " req/s\n";

    // Set-ups run back to back before the phase here, not spread over
    // it: a server started mid-phase left the process 10-20 MB larger,
    // by a different amount each run (README.md, "End-to-end metrics").
    SpreadSetup<Setup> spread(kSetupReps, ctx.seconds, [&] {
        Setup s;
        const std::filesystem::path dir = ctx.scratch.sub("serve");
        {
            auto span = tr.span("synthesize", "workloads");
            for (std::size_t p = 0; p < kHotPairs + kColdPairs; ++p) {
                s.tensors.push_back(workloads::powerLawMatrix(
                    "A", kDim, kDim, kNnz, mixSeed(ctx.seed, 200 + 2 * p),
                    {"K", "M"}));
                s.tensors.push_back(workloads::powerLawMatrix(
                    "B", kDim, kDim, kNnz, mixSeed(ctx.seed, 201 + 2 * p),
                    {"K", "N"}));
            }
        }
        std::uint64_t hotBytes = kModels.size() * kModelBytes;
        std::uint64_t coldMax = kModelBytes + std::strlen(kYamlSpec);
        for (std::size_t t = 0; t < s.tensors.size(); ++t) {
            const std::string stem = (dir / ("t" + std::to_string(t))).string();
            s.storePath.push_back(stem + ".tpk");
            s.mtxPath.push_back(stem + ".mtx");
            const storage::PackedTensor packed = [&] {
                auto span = tr.span("PackedTensor::fromTensor", "storage");
                return storage::PackedTensor::fromTensor(s.tensors[t]);
            }();
            {
                auto span = tr.span("writeStore", "storage");
                storage::writeStore(s.storePath.back(), packed);
            }
            const std::uint64_t bytes = std::max<std::uint64_t>(
                packed.residentBytes(),
                std::filesystem::file_size(s.storePath.back()));
            if (t < 2 * kHotPairs) {
                hotBytes += bytes;
            } else {
                workloads::writeMatrixMarket(s.mtxPath.back(), s.tensors[t]);
                coldMax = std::max(coldMax, bytes);
            }
        }

        serve::ServerOptions so;
        so.memoryBudgetBytes = hotBytes + kColdRoom * coldMax;
        s.server = std::make_unique<serve::Server>(so);
        {
            auto span = tr.span("Server::start", "serve");
            s.server->start();
        }
        serve::Client control;
        control.connect(s.server->port());
        const auto call = [&](const serve::Json& req) {
            const serve::Json r = control.request(req);
            if (!serve::responseErrorCode(r).empty())
                throw std::runtime_error("set-up request failed: " + r.dump());
            return r;
        };
        for (const std::string& m : kModels)
            s.modelIds.push_back(stringField(
                call(jsonObject(
                    {{"op", jsonStr("compile")}, {"accel", jsonStr(m)}})),
                "model"));
        for (std::size_t t = 0; t < 2 * kHotPairs; ++t)
            s.hotIds.push_back(
                stringField(call(loadRequest(s.storePath[t], t)), "dataset"));
        for (const std::string& m : s.modelIds) {
            for (std::size_t h = 0; h < kHotPairs; ++h) {
                (void)call(evalRequest("evaluate", m, s.hotIds[2 * h],
                                       s.hotIds[2 * h + 1]));
                (void)call(evalRequest("estimate", m, s.hotIds[2 * h],
                                       s.hotIds[2 * h + 1]));
            }
        }
        return s;
    });
    for (int k = 1; k < kSetupReps; ++k)
        spread.renew();
    const Setup& setup = spread.get();

    const std::vector<Planned> plan = drawSchedule(ctx.seed, ctx.seconds);
    std::vector<Outcome> outcomes(plan.size());

    // Newest loaded tensor of each name, for cold evaluations. Starts
    // at hot pair 0.
    std::mutex newestMutex;
    std::pair<std::string, std::size_t> newest[2] = {
        {setup.hotIds[0], 0}, {setup.hotIds[1], 1}};

    std::atomic<std::size_t> next{0};
    const Clock::time_point start = Clock::now();
    const auto send = [&](serve::Client& c) {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= plan.size())
                return;
            const Planned& p = plan[i];
            Outcome& o = outcomes[i];
            const Clock::time_point due =
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(p.dueSeconds));
            std::this_thread::sleep_until(due);
            serve::Json req;
            const std::string& model = setup.modelIds[p.model];
            switch (p.kind) {
              case Kind::WarmEval:
              case Kind::Estimate:
                o.a = 2 * p.hot;
                o.b = 2 * p.hot + 1;
                req = evalRequest(p.kind == Kind::Estimate ? "estimate"
                                                           : "evaluate",
                                  model, setup.hotIds[o.a],
                                  setup.hotIds[o.b]);
                break;
              case Kind::ColdEval: {
                std::lock_guard<std::mutex> lk(newestMutex);
                o.a = newest[0].second;
                o.b = newest[1].second;
                req = evalRequest("evaluate", model, newest[0].first,
                                  newest[1].first);
                break;
              }
              case Kind::Load:
                req = loadRequest(p.store ? setup.storePath[p.tensor]
                                          : setup.mtxPath[p.tensor],
                                  p.tensor);
                break;
              case Kind::Compile:
                req = jsonObject(
                    {{"op", jsonStr("compile")}, {"spec", jsonStr(kYamlSpec)}});
                break;
            }
            const Clock::time_point sent = Clock::now();
            try {
                auto span = tr.span(kindName(p.kind), "serve", model,
                                    static_cast<long>(i));
                o.response = c.request(req);
            } catch (const std::exception& e) {
                o.response = jsonStr(e.what()); // the connection dropped
            }
            const Clock::time_point done = Clock::now();
            o.lagMs = msBetween(due, sent);
            o.rttMs = msBetween(sent, done);
            o.dueToDoneMs = msBetween(due, done);
            o.ok = o.response.isObject() &&
                   serve::responseErrorCode(o.response).empty();
            if (o.ok && p.kind == Kind::Load) {
                std::lock_guard<std::mutex> lk(newestMutex);
                newest[p.tensor % 2] = {stringField(o.response, "dataset"),
                                        p.tensor};
            }
        }
    };
    const auto client = [&] {
        try {
            serve::Client c;
            c.connect(setup.server->port());
            send(c);
        } catch (const std::exception& e) {
            report.fail(std::string("client thread: ") + e.what());
        }
    };
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < connections; ++t)
        threads.emplace_back(client);
    for (std::thread& t : threads)
        t.join();

    // Evaluations must match an in-process run of the same model and
    // tensors (computed once per combination, after the phase).
    std::vector<std::unique_ptr<compiler::CompiledModel>> local;
    for (const std::string& m : kModels)
        local.push_back(std::make_unique<compiler::CompiledModel>(
            compiler::compile(accelSpec(m))));
    std::map<std::tuple<std::size_t, std::size_t, std::size_t>, Work> refs;
    const auto reference = [&](std::size_t m, std::size_t a, std::size_t b) {
        const auto key = std::make_tuple(m, a, b);
        auto it = refs.find(key);
        if (it == refs.end()) {
            compiler::Workload w;
            w.add("A", setup.tensors[a]).add("B", setup.tensors[b]);
            const compiler::SimulationResult r = local[m]->run(w);
            RunCounts counts;
            counts.add(r);
            it = refs.emplace(key, Work{counts.muls, r.totalTrafficBytes()})
                     .first;
        }
        return it->second;
    };

    OpTimes ops;
    ServeSamples samples;
    std::vector<double> lag;
    std::size_t ok = 0;
    double dueToDoneSum = 0, lagSum = 0;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        const Planned& p = plan[i];
        const Outcome& o = outcomes[i];
        report.attempted();
        lag.push_back(o.lagMs);
        if (!o.ok) {
            report.failed();
            report.fail(std::string(kindName(p.kind)) + " request " +
                        std::to_string(i) + " failed: " + o.response.dump());
            continue;
        }
        if (p.kind == Kind::WarmEval || p.kind == Kind::ColdEval) {
            const Work want = reference(p.model, o.a, o.b);
            if (numberField(o.response, "compute_muls") != want.muls ||
                numberField(o.response, "traffic_bytes") != want.traffic) {
                report.failed();
                report.fail(std::string(kindName(p.kind)) + " request " +
                            std::to_string(i) + " reports " +
                            o.response.dump() + ", in-process run " +
                            std::to_string(want.muls) + " muls " +
                            std::to_string(want.traffic) + " bytes");
                continue;
            }
            const double run = numberField(o.response, "latency_ms");
            const double elapsed = numberField(o.response, "elapsed_ms");
            samples.runMs.push_back(run);
            samples.queueMs.push_back(elapsed - run);
            samples.wireMs.push_back(o.rttMs - elapsed);
        } else if (p.kind == Kind::Estimate) {
            samples.estimateMs.push_back(o.rttMs);
        } else {
            samples.writeMs.push_back(o.rttMs);
        }
        ops.add(kindName(p.kind), o.dueToDoneMs);
        dueToDoneSum += o.dueToDoneMs;
        lagSum += o.lagMs;
        ++ok;
    }
    ops.report(report);
    spread.report(report);

    serve::Client control;
    control.connect(setup.server->port());
    readServeStats(control.request(jsonObject({{"op", jsonStr("stats")}})),
                   samples);
    std::cout << "  generator lag p50 " << quantile(lag, 0.5) << " ms, p99 "
              << quantile(lag, 0.99) << " ms; registry evictions "
              << samples.evictions << ", shed " << samples.shed << "\n";
    std::string digest;
    for (const auto& [key, work] : refs)
        digest += std::to_string(work.muls) + "," +
                  std::to_string(work.traffic) + ";";
    report.digest("hot", hashHex(digest));

    if (!tr.enabled())
        return;

    reportServe(samples, report);

    // Layer probe: the hot models on the first two hot pairs, bound
    // packed like the daemon binds them.
    std::vector<compiler::Specification> specs;
    for (const std::string& m : kModels)
        specs.push_back(accelSpec(m));
    std::vector<ProbePair> pairs;
    for (std::size_t h = 0; h < 2; ++h)
        pairs.push_back({&setup.tensors[2 * h], &setup.tensors[2 * h + 1],
                         [&, h] {
                             (void)workloads::powerLawMatrix(
                                 "A", kDim, kDim, kNnz,
                                 mixSeed(ctx.seed, 200 + 2 * h), {"K", "M"});
                             (void)workloads::powerLawMatrix(
                                 "B", kDim, kDim, kNnz,
                                 mixSeed(ctx.seed, 201 + 2 * h), {"K", "N"});
                         }});
    std::vector<ProbeCase> cases;
    for (std::size_t m = 0; m < kModels.size(); ++m) {
        for (std::size_t h = 0; h < pairs.size(); ++h)
            cases.push_back({kModels[m] + "/hot" + std::to_string(h),
                             &specs[m], local[m].get(), h});
    }
    ProbeOptions po;
    po.packedInputs = true;
    reportLayers(probeLayers(ctx, pairs, cases, po), report);

    // Shares of one request's time from its due time.
    const double n = static_cast<double>(ok);
    const auto total = [&](const std::vector<double>& v) {
        double s = 0;
        for (double x : v)
            s += x;
        return s / n;
    };
    reportShares({{"client.send_lag", lagSum / n},
                  {"serve.queue", total(samples.queueMs)},
                  {"serve.run", total(samples.runMs)},
                  {"serve.wire", total(samples.wireMs)},
                  {"serve.estimate", total(samples.estimateMs)},
                  {"serve.write", total(samples.writeMs)}},
                 dueToDoneSum / n, report);
}

} // namespace teaal::bench
