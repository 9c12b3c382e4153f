/**
 * @file
 * Failpoint-driven fault injection (util/failpoint.hpp). The registry
 * and spec grammar are compiled in every configuration, so those
 * tests always run; tests that need the *sites* (the TEAAL_FAILPOINT
 * macros in the engine, executor, pipeline, mtx reader, and serving
 * daemon) skip unless the build was configured with
 * -DTEAAL_FAILPOINTS=ON — the dedicated CI job runs them.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "accelerators/accelerators.hpp"
#include "compiler/pipeline.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "storage/packed.hpp"
#include "storage/store.hpp"
#include "support.hpp"
#include "util/cancel.hpp"
#include "util/failpoint.hpp"
#include "workloads/datasets.hpp"
#include "workloads/mtx.hpp"

namespace teaal
{
namespace
{

namespace fp = util::failpoint;
using compiler::RunOptions;
using compiler::Workload;
using serve::Json;
using serve::parseJson;
using test::testScratchDir;

#ifdef TEAAL_FAILPOINTS_ENABLED
#define TEAAL_REQUIRE_SITES() ((void)0)
#else
#define TEAAL_REQUIRE_SITES()                                          \
    GTEST_SKIP()                                                       \
        << "failpoint sites not compiled (TEAAL_FAILPOINTS=OFF)"
#endif

class Failpoints : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        fp::clearAll();
    }
};

// -------------------------------------- registry + grammar (always)

TEST_F(Failpoints, SpecGrammarParsesActionsAndModifiers)
{
    fp::setFromSpec("a.point", "error(boom happened)");
    fp::setFromSpec("b.point", "delay(2.5)+skip(3)");
    fp::setFromSpec("c.point", "trig+skip(1)*4");
    const std::vector<std::string> names = fp::activeNames();
    EXPECT_EQ(names,
              (std::vector<std::string>{"a.point", "b.point",
                                        "c.point"}));

    fp::setFromSpec("b.point", "off"); // disarm via spec
    EXPECT_EQ(fp::activeNames().size(), 2u);
    fp::clear("a.point");
    fp::clearAll();
    EXPECT_TRUE(fp::activeNames().empty());
}

TEST_F(Failpoints, MalformedSpecsAreStructuredErrors)
{
    EXPECT_THROW(fp::setFromSpec("x", "explode"), DiagnosticError);
    EXPECT_THROW(fp::setFromSpec("x", "error(unclosed"),
                 DiagnosticError);
    EXPECT_THROW(fp::setFromSpec("x", "delay(soon)"), DiagnosticError);
    EXPECT_THROW(fp::setFromSpec("x", "trig+skip(n)"),
                 DiagnosticError);
    EXPECT_THROW(fp::setFromSpec("x", "trig*"), DiagnosticError);
    EXPECT_TRUE(fp::activeNames().empty());
}

TEST_F(Failpoints, EnvVarArmsMultiplePoints)
{
    ::setenv("TEAAL_FAILPOINTS_TEST",
             "one.point=trig;two.point=delay(1)+skip(2)", 1);
    EXPECT_EQ(fp::configureFromEnv("TEAAL_FAILPOINTS_TEST"), 2u);
    EXPECT_EQ(fp::activeNames().size(), 2u);

    ::setenv("TEAAL_FAILPOINTS_TEST", "bad point no equals", 1);
    EXPECT_THROW(fp::configureFromEnv("TEAAL_FAILPOINTS_TEST"),
                 DiagnosticError);
    ::unsetenv("TEAAL_FAILPOINTS_TEST");
    EXPECT_EQ(fp::configureFromEnv("TEAAL_FAILPOINTS_TEST"), 0u);
}

// ----------------------------------------------- mtx reader (sites)

class FailpointsMtx : public Failpoints
{
  protected:
    void
    SetUp() override
    {
        dir_ = testScratchDir("teaal_failpoint_mtx_");
        std::filesystem::create_directories(dir_);
        path_ = (dir_ / "a.mtx").string();
        workloads::writeMatrixMarket(
            path_, workloads::uniformMatrix("A", 16, 16, 40, 5,
                                            {"K", "M"}));
    }

    void
    TearDown() override
    {
        Failpoints::TearDown();
        std::filesystem::remove_all(dir_);
    }

    std::filesystem::path dir_;
    std::string path_;
};

TEST_F(FailpointsMtx, ErrorProgramInjectsIoFailure)
{
    TEAAL_REQUIRE_SITES();
    fp::setFromSpec("workloads.mtx.io_error",
                    "error(injected io failure)");
    try {
        workloads::readMatrixMarket(path_, "A", {"K", "M"});
        FAIL() << "expected injected DiagnosticError";
    } catch (const DiagnosticError& e) {
        EXPECT_EQ(e.diagnostic().section, "failpoint");
        EXPECT_NE(e.diagnostic().message.find("injected io failure"),
                  std::string::npos);
    }
    fp::clearAll();
    EXPECT_NO_THROW(workloads::readMatrixMarket(path_, "A", {"K", "M"}));
}

TEST_F(FailpointsMtx, SkipAndLimitModifiersGateFiring)
{
    TEAAL_REQUIRE_SITES();
    // Skip the first hit, fire once, then fall silent.
    fp::setFromSpec("workloads.mtx.io_error", "error(boom)+skip(1)*1");
    EXPECT_NO_THROW(workloads::readMatrixMarket(path_, "A", {"K", "M"}));
    EXPECT_THROW(workloads::readMatrixMarket(path_, "A", {"K", "M"}),
                 DiagnosticError);
    EXPECT_NO_THROW(workloads::readMatrixMarket(path_, "A", {"K", "M"}));
    EXPECT_EQ(fp::hitCount("workloads.mtx.io_error"), 3u);
}

// ------------------------------------- engine + pipeline (sites)

Workload
smallWorkload(ft::Tensor& a, ft::Tensor& b)
{
    a = workloads::uniformMatrix("A", 40, 32, 300, 61, {"K", "M"});
    b = workloads::uniformMatrix("B", 40, 36, 300, 62, {"K", "N"});
    Workload w;
    w.add("A", a).add("B", b);
    return w;
}

TEST_F(Failpoints, DelayProgramMakesDeadlineFireMidRun)
{
    TEAAL_REQUIRE_SITES();
    ft::Tensor a, b;
    const Workload w = smallWorkload(a, b);
    auto model = compiler::compile(accel::gamma());

    // Every co-iteration walk sleeps 5 ms, so a 1 ms deadline is
    // deterministically exceeded mid-run — no machine-speed
    // assumptions, exactly how the CI job drives this suite.
    fp::setFromSpec("exec.engine.walk", "delay(5)");
    RunOptions opts;
    opts.threads = 1;
    opts.deadline = util::Deadline::in(1.0);
    try {
        model.run(w, opts);
        FAIL() << "expected deadline CancelledError";
    } catch (const util::CancelledError& e) {
        EXPECT_EQ(e.reason(), util::CancelReason::Deadline);
        EXPECT_GT(e.elapsedMs(), 0.0);
        EXPECT_FALSE(e.position().empty());
    }
}

/** A slice failing on a worker surfaces as the run's diagnostic. Gamma
 *  fails on its first slice. ExTensor's K1 tiles under one N1 tile
 *  split output-keyed at M0, a segment per slice and K1 node, and fail
 *  once half of the segments ran: the coordinator has replayed and
 *  freed captures of slices whose engines sit idle until their next
 *  segment, and the unwind that destroys those engines must not touch
 *  a freed capture (the sanitizer jobs check). */
TEST_F(Failpoints, WorkerErrorsSurfaceAsDiagnosticsNotTerminate)
{
    TEAAL_REQUIRE_SITES();
    ft::Tensor a, b;
    const Workload w = smallWorkload(a, b);
    accel::ExTensorConfig keyed;
    keyed.pes = 4;
    keyed.tileK1 = 16;
    keyed.tileK0 = 4;
    keyed.tileM1 = 64;
    keyed.tileM0 = 4;
    keyed.tileN1 = 64;
    keyed.tileN0 = 4;
    keyed.llcBytes = 256 * 1024;
    for (const bool is_keyed : {false, true}) {
        SCOPED_TRACE(is_keyed ? "keyed" : "disjoint");
        auto model = compiler::compile(is_keyed ? accel::extensor(keyed)
                                                : accel::gamma());
        RunOptions opts;
        opts.threads = 4;
        std::string spec = "error(injected slice failure)";
        if (is_keyed) {
            const compiler::SimulationResult clean = model.run(w, opts);
            const exec::SplitPoint& split = clean.splits.back();
            ASSERT_EQ(split.merge, exec::SplitPoint::Merge::Keyed);
            ASSERT_GT(split.segments, 2 * split.slices);
            spec += "+skip(" + std::to_string(split.segments / 2) + ")";
        }
        fp::setFromSpec("exec.executor.slice", spec);
        try {
            model.run(w, opts);
            FAIL() << "expected injected worker DiagnosticError";
        } catch (const DiagnosticError& e) {
            EXPECT_NE(std::string(e.what()).find("injected slice failure"),
                      std::string::npos);
        }
        // The executor drained its workers before unwinding; the model
        // runs cleanly once the fault is lifted.
        fp::clearAll();
        EXPECT_NO_THROW(model.run(w, opts));
    }
}

TEST_F(Failpoints, PlanInstantiationFailureLeavesCacheClean)
{
    TEAAL_REQUIRE_SITES();
    ft::Tensor a, b;
    const Workload w = smallWorkload(a, b);
    auto model = compiler::compile(accel::gamma());

    fp::setFromSpec("compiler.pipeline.instantiate", "error(no plan)");
    RunOptions opts;
    EXPECT_THROW(model.run(w, opts), DiagnosticError);
    const compiler::PlanCacheStats dropped = model.planCacheStats();
    EXPECT_EQ(dropped.entries, 0u);
    EXPECT_GE(dropped.evictions, 1u);

    fp::clearAll();
    EXPECT_NO_THROW(model.run(w, opts));
    EXPECT_EQ(model.planCacheStats().entries, 1u);
}

// ------------------------------------------------ serving (sites)

class FailpointsServe : public Failpoints
{
  protected:
    void
    SetUp() override
    {
        dir_ = testScratchDir("teaal_failpoint_serve_");
        std::filesystem::create_directories(dir_);
        aPath_ = (dir_ / "a.mtx").string();
        bPath_ = (dir_ / "b.mtx").string();
        workloads::writeMatrixMarket(
            aPath_, workloads::uniformMatrix("A", 48, 40, 250, 7,
                                             {"K", "M"}));
        workloads::writeMatrixMarket(
            bPath_, workloads::uniformMatrix("B", 48, 44, 250, 8,
                                             {"K", "N"}));
    }

    void
    TearDown() override
    {
        Failpoints::TearDown();
        std::filesystem::remove_all(dir_);
    }

    static std::string
    loadLine(const std::string& path, const std::string& name,
             const std::string& col)
    {
        return R"({"op":"load_dataset","path":")" + path +
               R"(","name":")" + name + R"(","rank_ids":["K",")" +
               col + R"("]})";
    }

    std::filesystem::path dir_;
    std::string aPath_, bPath_;
};

TEST_F(FailpointsServe, AdmissionOverloadInjectionShedsOnce)
{
    TEAAL_REQUIRE_SITES();
    serve::Server server;
    const Json compiled = parseJson(
        server.handleLine(R"({"op":"compile","accel":"gamma"})"));
    const std::string model = compiled.find("model")->str();
    const std::string da = parseJson(server.handleLine(
                               loadLine(aPath_, "A", "M")))
                               .find("dataset")
                               ->str();
    const std::string db = parseJson(server.handleLine(
                               loadLine(bPath_, "B", "N")))
                               .find("dataset")
                               ->str();
    const std::string evaluate =
        R"({"op":"evaluate","model":")" + model +
        R"(","bindings":{"A":")" + da + R"(","B":")" + db + R"("}})";

    fp::setFromSpec("serve.admission.overload", "trig*1");
    const Json shed = parseJson(server.handleLine(evaluate));
    ASSERT_NE(shed.find("error"), nullptr) << shed.dump();
    EXPECT_EQ(shed.find("error")->find("code")->str(), "overloaded");
    // The injected shed consumed the program: the retry succeeds.
    const Json retried = parseJson(server.handleLine(evaluate));
    EXPECT_TRUE(retried.find("ok")->boolean()) << retried.dump();
}

TEST_F(FailpointsServe, InflightEvictionAnsweredAndRecoveredByRetry)
{
    TEAAL_REQUIRE_SITES();
    serve::Server server;
    server.start();
    serve::Client client;
    client.connect(server.port());

    const Json compiled = client.request(
        parseJson(R"({"op":"compile","accel":"gamma"})"));
    const std::string model = compiled.find("model")->str();
    const std::string da =
        client.request(parseJson(loadLine(aPath_, "A", "M")))
            .find("dataset")
            ->str();
    const std::string db =
        client.request(parseJson(loadLine(bPath_, "B", "N")))
            .find("dataset")
            ->str();
    Json evaluate = parseJson(
        R"({"op":"evaluate","model":")" + model +
        R"(","bindings":{"A":")" + da + R"(","B":")" + db + R"("}})");

    // The model lookup inside the next evaluate evicts the model
    // as-if under memory pressure — once.
    fp::setFromSpec("serve.registry.evict_inflight", "trig*1");

    serve::RetryPolicy policy;
    policy.maxAttempts = 3;
    policy.baseDelayMs = 1.0;
    policy.seed = 7;
    unsigned retried_evicted = 0;
    policy.onRetry = [&](const std::string& code, Json& request) {
        if (code != "evicted")
            return true;
        ++retried_evicted;
        // Recovery path: re-register the evicted model, then point
        // the retried request at the fresh id.
        const Json recompiled = client.request(
            parseJson(R"({"op":"compile","accel":"gamma"})"));
        request.set("model",
                    Json::makeString(recompiled.find("model")->str()));
        return true;
    };

    unsigned attempts = 0;
    const Json response =
        client.requestWithRetry(evaluate, policy, &attempts);
    EXPECT_TRUE(response.find("ok")->boolean()) << response.dump();
    EXPECT_EQ(attempts, 2u);
    EXPECT_EQ(retried_evicted, 1u);
    EXPECT_GE(server.registry().stats().evictions, 1u);

    client.close();
    server.stop();
}

// ------------------------------------- store + spill (sites, PR 10)

class FailpointsStore : public Failpoints
{
  protected:
    void
    SetUp() override
    {
        dir_ = testScratchDir("teaal_failpoint_store_");
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
        path_ = (dir_ / "a.teaal").string();
        storage::writeStore(
            path_, storage::PackedTensor::fromTensor(
                       workloads::uniformMatrix("A", 16, 16, 40, 5,
                                                {"K", "M"})));
    }

    void
    TearDown() override
    {
        Failpoints::TearDown();
        std::filesystem::remove_all(dir_);
    }

    std::filesystem::path dir_;
    std::string path_;
};

TEST_F(FailpointsStore, MapFailureIsStructuredAndRecoverable)
{
    TEAAL_REQUIRE_SITES();
    fp::setFromSpec("storage.store.map", "trig*1");
    try {
        (void)storage::mapStore(path_);
        FAIL() << "expected injected mmap DiagnosticError";
    } catch (const DiagnosticError& e) {
        EXPECT_EQ(e.diagnostic().section, "store");
        EXPECT_EQ(e.diagnostic().key, path_);
        EXPECT_NE(e.diagnostic().message.find("mmap failed"),
                  std::string::npos);
    }
    // The program is consumed; the same path maps cleanly after.
    const storage::PackedTensor t = storage::mapStore(path_);
    EXPECT_TRUE(t.mapped());
    EXPECT_EQ(t.nnz(), 40u);
}

TEST_F(FailpointsStore, CorruptionInjectionTripsTheChecksumPath)
{
    TEAAL_REQUIRE_SITES();
    // The file on disk is pristine; the failpoint forces the header
    // checksum comparison to report corruption, proving the
    // error path (and its cleanup of the mapping) without crafting
    // a byte-level corruption.
    fp::setFromSpec("storage.store.corrupt", "trig");
    try {
        (void)storage::mapStore(path_);
        FAIL() << "expected injected corruption DiagnosticError";
    } catch (const DiagnosticError& e) {
        EXPECT_EQ(e.diagnostic().section, "store");
        EXPECT_NE(e.diagnostic().message.find("checksum mismatch"),
                  std::string::npos);
    }
    fp::clearAll();
    EXPECT_NO_THROW((void)storage::mapStore(path_, true));
}

TEST_F(FailpointsStore, SpillWriteErrorCleansUpAndRerunsIdentical)
{
    TEAAL_REQUIRE_SITES();
    ft::Tensor a, b;
    const Workload w = smallWorkload(a, b);
    auto model = compiler::compile(accel::gamma());

    // Clean reference: resident sharded run.
    RunOptions opts;
    opts.threads = 4;
    const compiler::SimulationResult reference = model.run(w, opts);

    const std::string spill_dir = (dir_ / "spill").string();
    std::filesystem::create_directories(spill_dir);
    opts.spillDir = spill_dir;
    opts.spillSegmentBytes = 4096; // force frames

    fp::setFromSpec("trace.spill.write_error", "trig");
    try {
        model.run(w, opts);
        FAIL() << "expected injected spill-write DiagnosticError";
    } catch (const DiagnosticError& e) {
        EXPECT_EQ(e.diagnostic().section, "spill");
        EXPECT_NE(e.diagnostic().message.find("write failed"),
                  std::string::npos);
    }
    // Failed writers unlinked their segments on unwind.
    EXPECT_TRUE(std::filesystem::is_empty(spill_dir));

    // Lift the fault: the spilled rerun matches the clean reference.
    fp::clearAll();
    const compiler::SimulationResult rerun = model.run(w, opts);
    ASSERT_EQ(rerun.records.size(), reference.records.size());
    for (std::size_t i = 0; i < rerun.records.size(); ++i) {
        EXPECT_TRUE(rerun.records[i].execStats ==
                    reference.records[i].execStats);
        EXPECT_EQ(rerun.records[i].traceEvents,
                  reference.records[i].traceEvents);
    }
    for (const auto& [name, t] : reference.tensors) {
        const auto it = rerun.tensors.find(name);
        ASSERT_NE(it, rerun.tensors.end()) << name;
        EXPECT_TRUE(t.equals(it->second)) << name;
    }
    EXPECT_GT(rerun.spill.frames, 0u);
    EXPECT_TRUE(std::filesystem::is_empty(spill_dir));
}

} // namespace
} // namespace teaal
