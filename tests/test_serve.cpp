/**
 * @file
 * Tests of the serving subsystem (src/serve/): the mini-JSON codec,
 * the byte-accounted LRU registry, admission control (structural
 * shedding, no timing assumptions), protocol-boundary validation
 * (malformed JSON, unknown ids, out-of-range thread counts — all
 * answered with structured errors, never a dropped connection), and
 * the end-to-end loopback round trip including graceful stop().
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>

#include "serve/admission.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "storage/packed.hpp"
#include "storage/store.hpp"
#include "support.hpp"
#include "util/thread_pool.hpp"
#include "workloads/datasets.hpp"
#include "workloads/mtx.hpp"

namespace teaal
{
namespace
{

using serve::Json;
using serve::parseJson;
using test::testScratchDir;

// ------------------------------------------------------------- JSON

TEST(ServeJson, RoundTripsScalarsAndContainers)
{
    const Json v = parseJson(
        R"({"s":"hi","n":-2.5,"t":true,"f":false,"z":null,)"
        R"("a":[1,2,3],"o":{"k":"v"}})");
    EXPECT_EQ(v.find("s")->str(), "hi");
    EXPECT_DOUBLE_EQ(v.find("n")->number(), -2.5);
    EXPECT_TRUE(v.find("t")->boolean());
    EXPECT_FALSE(v.find("f")->boolean());
    EXPECT_TRUE(v.find("z")->isNull());
    EXPECT_EQ(v.find("a")->array().size(), 3u);
    EXPECT_EQ(v.find("o")->find("k")->str(), "v");
    // dump -> parse -> dump is a fixed point.
    const std::string once = v.dump();
    EXPECT_EQ(parseJson(once).dump(), once);
    EXPECT_EQ(once.find('\n'), std::string::npos);
}

TEST(ServeJson, EscapesAndUnicode)
{
    const Json v = parseJson(R"({"k":"a\"b\\c\n\tAé"})");
    EXPECT_EQ(v.find("k")->str(), "a\"b\\c\n\tA\xc3\xa9");
    // Control characters are re-escaped on dump.
    const std::string dumped = v.dump();
    EXPECT_NE(dumped.find("\\n"), std::string::npos);
    EXPECT_EQ(parseJson(dumped).find("k")->str(),
              v.find("k")->str());
}

TEST(ServeJson, IntegersDumpWithoutExponent)
{
    Json v = Json::makeObject();
    v.set("big", Json::makeNumber(123456789.0));
    EXPECT_NE(v.dump().find("123456789"), std::string::npos);
    EXPECT_EQ(v.dump().find("e+"), std::string::npos);
}

TEST(ServeJson, MalformedInputThrowsWithOffset)
{
    EXPECT_THROW(parseJson("{"), SpecError);
    EXPECT_THROW(parseJson("{\"a\":}"), SpecError);
    EXPECT_THROW(parseJson("[1,2,]"), SpecError);
    EXPECT_THROW(parseJson("tru"), SpecError);
    EXPECT_THROW(parseJson("{} trailing"), SpecError);
    EXPECT_THROW(parseJson("\"unterminated"), SpecError);
    try {
        parseJson("[1, x]");
        FAIL() << "expected SpecError";
    } catch (const SpecError& e) {
        EXPECT_NE(std::string(e.what()).find("offset"),
                  std::string::npos);
    }
}

TEST(ServeJson, TypeMismatchThrows)
{
    const Json v = parseJson(R"({"n":1})");
    EXPECT_THROW(v.find("n")->str(), SpecError);
    EXPECT_THROW(v.find("n")->array(), SpecError);
    EXPECT_EQ(v.find("missing"), nullptr);
}

// --------------------------------------------------------- Registry

std::shared_ptr<const storage::PackedTensor>
packedOfBytes(const std::string& name, std::size_t nnz)
{
    const ft::Tensor t = workloads::uniformMatrix(
        name, 64, 64, nnz, 42 + nnz, {"K", "M"});
    return std::make_shared<const storage::PackedTensor>(
        storage::PackedTensor::fromTensor(t));
}

TEST(ServeRegistry, EvictsColdEntriesPastBudget)
{
    auto d1 = packedOfBytes("A", 200);
    auto d2 = packedOfBytes("B", 200);
    auto d3 = packedOfBytes("C", 200);
    const std::uint64_t each = d1->residentBytes();

    // Budget fits two entries but not three.
    serve::Registry reg(2 * each + each / 2);
    const std::string i1 = reg.addDataset(d1);
    const std::string i2 = reg.addDataset(d2);
    EXPECT_NE(reg.dataset(i1), nullptr);
    EXPECT_NE(reg.dataset(i2), nullptr);

    // i1 was touched last, so inserting d3 evicts... i2? No: the LRU
    // order after the touches is [i2, i1] hot-to-cold reversed —
    // lookups above touched i1 *then* i2, so i1 is the cold one.
    std::vector<std::string> evicted;
    reg.setEvictionHook(
        [&](const std::string& id) { evicted.push_back(id); });
    const std::string i3 = reg.addDataset(d3);

    const serve::Registry::Stats stats = reg.stats();
    EXPECT_LE(stats.residentBytes, 2 * each + each / 2);
    EXPECT_EQ(stats.evictions, 1u);
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0], i1);
    EXPECT_EQ(reg.dataset(i1), nullptr);
    EXPECT_TRUE(reg.evicted(i1));
    EXPECT_FALSE(reg.evicted("d999"));
    EXPECT_NE(reg.dataset(i3), nullptr);
}

TEST(ServeRegistry, LookupRefreshesLruOrder)
{
    auto d = packedOfBytes("A", 100);
    const std::uint64_t each = d->residentBytes();
    serve::Registry reg(2 * each + each / 2);
    const std::string i1 = reg.addDataset(d);
    const std::string i2 = reg.addDataset(packedOfBytes("B", 100));
    ASSERT_NE(reg.dataset(i1), nullptr); // i1 becomes hot
    reg.addDataset(packedOfBytes("C", 100));
    EXPECT_NE(reg.dataset(i1), nullptr); // survived
    EXPECT_EQ(reg.dataset(i2), nullptr); // i2 was the cold one
}

TEST(ServeRegistry, OversizedEntryAdmittedAlone)
{
    auto big = packedOfBytes("A", 400);
    serve::Registry reg(big->residentBytes() / 2); // budget too small
    const std::string i1 = reg.addDataset(packedOfBytes("B", 50));
    const std::string i2 = reg.addDataset(big);
    // The oversized entry is resident; everything else was evicted.
    EXPECT_NE(reg.dataset(i2), nullptr);
    EXPECT_EQ(reg.dataset(i1), nullptr);
    EXPECT_TRUE(reg.evicted(i1));
}

TEST(ServeRegistry, SharedPtrKeepsEvictedEntryAliveForInFlightUse)
{
    auto d1 = packedOfBytes("A", 200);
    serve::Registry reg(d1->residentBytes());
    const std::string i1 = reg.addDataset(d1);
    auto held = reg.dataset(i1); // an in-flight request's reference
    reg.addDataset(packedOfBytes("B", 200)); // evicts i1
    EXPECT_EQ(reg.dataset(i1), nullptr);
    ASSERT_NE(held, nullptr); // but the state is still alive
    EXPECT_GT(held->nnz(), 0u);
}

// -------------------------------------------------------- Admission

TEST(ServeAdmission, ShedsAtMaxInFlightStructurally)
{
    util::ThreadPool pool(4);
    serve::Admission admission(pool, /*max_in_flight=*/2);

    // Park two jobs on a latch: in-flight count is now structurally
    // pinned at the cap, no timing involved.
    std::mutex m;
    std::condition_variable cv;
    bool release = false;
    std::atomic<int> started{0};
    const auto parked = [&] {
        started.fetch_add(1);
        std::unique_lock<std::mutex> lk(m);
        cv.wait(lk, [&] { return release; });
    };
    ASSERT_EQ(admission.submit(parked), serve::Admission::Reject::None);
    ASSERT_EQ(admission.submit(parked), serve::Admission::Reject::None);

    // The cap counts accepted-but-unfinished work, so the third
    // submit sheds regardless of whether the two jobs started.
    EXPECT_EQ(admission.submit([] {}),
              serve::Admission::Reject::Overloaded);
    EXPECT_EQ(admission.stats().shed, 1u);
    EXPECT_EQ(admission.stats().inFlight, 2u);

    {
        std::lock_guard<std::mutex> lk(m);
        release = true;
    }
    cv.notify_all();
    admission.drain();

    const serve::Admission::Stats stats = admission.stats();
    EXPECT_EQ(stats.accepted, 2u);
    EXPECT_EQ(stats.completed, 2u);
    EXPECT_EQ(stats.inFlight, 0u);
    EXPECT_EQ(stats.peakInFlight, 2u);

    // After close(), everything is shed as ShuttingDown.
    admission.close();
    EXPECT_EQ(admission.submit([] {}),
              serve::Admission::Reject::ShuttingDown);
    admission.reopen();
    EXPECT_EQ(admission.submit([] {}),
              serve::Admission::Reject::None);
    admission.drain();
}

// ------------------------------------------- protocol (socket-free)

/** Fixture with a non-listening server: handleLine() is the protocol
 *  core, identical to what sessions execute per received line. */
class ServeProtocol : public ::testing::Test
{
  protected:
    Json
    call(const std::string& line)
    {
        return parseJson(server_.handleLine(line));
    }

    static void
    expectError(const Json& r, const std::string& code,
                const std::string& key = "")
    {
        ASSERT_NE(r.find("ok"), nullptr) << r.dump();
        EXPECT_FALSE(r.find("ok")->boolean()) << r.dump();
        const Json* error = r.find("error");
        ASSERT_NE(error, nullptr);
        EXPECT_EQ(error->find("code")->str(), code) << r.dump();
        if (!key.empty())
            EXPECT_EQ(error->find("key")->str(), key) << r.dump();
        EXPECT_FALSE(error->find("message")->str().empty());
    }

    serve::Server server_;
};

TEST_F(ServeProtocol, MalformedJsonIsAStructuredError)
{
    expectError(call("{not json"), "bad_request", "json");
    expectError(call("[1,2"), "bad_request", "json");
}

TEST_F(ServeProtocol, NonObjectAndMissingOpAreRejected)
{
    expectError(call("[1,2,3]"), "bad_request");
    expectError(call("{}"), "bad_request", "op");
    expectError(call(R"({"op":7})"), "bad_request", "op");
    expectError(call(R"({"op":"frobnicate"})"), "bad_request", "op");
    // No op reports sharding: a run's split is in
    // SimulationResult::splits.
    expectError(call(R"({"op":"sharding_report","model":"m1"})"),
                "bad_request", "op");
}

TEST_F(ServeProtocol, RequestIdIsEchoedEvenOnErrors)
{
    const Json r = call(R"({"op":"nope","id":42})");
    ASSERT_NE(r.find("id"), nullptr);
    EXPECT_DOUBLE_EQ(r.find("id")->number(), 42.0);
}

TEST_F(ServeProtocol, CompileValidatesItsArguments)
{
    expectError(call(R"({"op":"compile"})"), "bad_request", "spec");
    expectError(call(R"({"op":"compile","accel":"warp_drive"})"),
                "bad_request", "accel");
    expectError(
        call(R"({"op":"compile","spec":"x","params":{"K1":"a"}})"),
        "bad_request", "params");
    // A malformed spec surfaces the compiler's own diagnostic.
    expectError(call(R"({"op":"compile","spec":"junk: [\n"})"),
                "bad_request");
}

TEST_F(ServeProtocol, LoadDatasetValidatesItsArguments)
{
    expectError(call(R"({"op":"load_dataset"})"), "bad_request",
                "path");
    expectError(
        call(R"({"op":"load_dataset","path":"/nonexistent.mtx"})"),
        "bad_request", "path");
    expectError(call(R"({"op":"load_dataset","path":"x",)"
                     R"("rank_ids":"K"})"),
                "bad_request", "rank_ids");
}

/** Protocol matrix for mmap-backed packed stores (PR 10): valid
 *  stores load with `mapped:true` charged by file size and evaluate
 *  end-to-end; damaged stores answer structured "store" errors. */
class ServeProtocolStore : public ServeProtocol
{
  protected:
    void
    SetUp() override
    {
        dir_ = testScratchDir("teaal_serve_store_");
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
        aPath_ = (dir_ / "a.teaal").string();
        bPath_ = (dir_ / "b.teaal").string();
        storage::writeStore(
            aPath_, storage::PackedTensor::fromTensor(
                        workloads::uniformMatrix("A", 48, 40, 250, 7,
                                                 {"K", "M"})));
        storage::writeStore(
            bPath_, storage::PackedTensor::fromTensor(
                        workloads::uniformMatrix("B", 48, 44, 250, 8,
                                                 {"K", "N"})));
    }

    void
    TearDown() override
    {
        std::filesystem::remove_all(dir_);
    }

    Json
    load(const std::string& path, const std::string& name)
    {
        return call(R"({"op":"load_dataset","path":")" + path +
                    R"(","name":")" + name + R"("})");
    }

    static void
    expectStoreError(const Json& r, const std::string& path)
    {
        expectError(r, "bad_request", path);
        EXPECT_EQ(r.find("error")->find("section")->str(), "store")
            << r.dump();
    }

    std::filesystem::path dir_;
    std::string aPath_, bPath_;
};

TEST_F(ServeProtocolStore, StoresLoadMappedAndEvaluate)
{
    const Json da = load(aPath_, "A");
    ASSERT_TRUE(da.find("ok")->boolean()) << da.dump();
    EXPECT_TRUE(da.find("mapped")->boolean()) << da.dump();
    EXPECT_DOUBLE_EQ(da.find("bytes")->number(),
                     static_cast<double>(
                         std::filesystem::file_size(aPath_)));
    const Json db = load(bPath_, "B");
    ASSERT_TRUE(db.find("ok")->boolean()) << db.dump();
    EXPECT_TRUE(db.find("mapped")->boolean());

    // Matrix Market loads still answer mapped:false.
    const std::string mtx = (dir_ / "a.mtx").string();
    workloads::writeMatrixMarket(
        mtx, workloads::uniformMatrix("A", 16, 16, 30, 9, {"K", "M"}));
    const Json dm = load(mtx, "A");
    ASSERT_TRUE(dm.find("ok")->boolean()) << dm.dump();
    EXPECT_FALSE(dm.find("mapped")->boolean());

    // The mapped datasets drive a full evaluation.
    const Json compiled = call(R"({"op":"compile","accel":"gamma"})");
    ASSERT_TRUE(compiled.find("ok")->boolean()) << compiled.dump();
    const Json r = call(
        R"({"op":"evaluate","model":")" +
        compiled.find("model")->str() + R"(","bindings":{"A":")" +
        da.find("dataset")->str() + R"(","B":")" +
        db.find("dataset")->str() + R"("}})");
    ASSERT_TRUE(r.find("ok")->boolean()) << r.dump();
    EXPECT_GT(r.find("compute_muls")->number(), 0.0);
}

TEST_F(ServeProtocolStore, DamagedStoresAnswerStructuredErrors)
{
    // Truncation: header promises more bytes than the file holds.
    const std::string trunc = (dir_ / "trunc.teaal").string();
    std::filesystem::copy_file(aPath_, trunc);
    std::filesystem::resize_file(
        trunc, std::filesystem::file_size(trunc) - 1);
    expectStoreError(load(trunc, "A"), trunc);

    // Bad magic after the sniff passes is impossible — a non-store
    // prefix routes to the Matrix Market parser — but a store whose
    // version this build does not read is a "store" error.
    const std::string vers = (dir_ / "vers.teaal").string();
    std::filesystem::copy_file(aPath_, vers);
    {
        std::fstream f(vers, std::ios::binary | std::ios::in |
                                 std::ios::out);
        f.seekp(8); // version field
        const char v = 9;
        f.write(&v, 1);
    }
    expectStoreError(load(vers, "A"), vers);

    // Name mismatch: the store holds "A", the request asks for "X".
    expectStoreError(load(aPath_, "X"), aPath_);

    // The registry took none of the failed loads.
    EXPECT_EQ(server_.registry().stats().datasets, 0u);
}

TEST_F(ServeProtocol, EvaluateValidatesItsArguments)
{
    expectError(call(R"({"op":"evaluate"})"), "bad_request", "model");
    expectError(call(R"({"op":"evaluate","model":"m1"})"),
                "bad_request", "bindings");
    expectError(
        call(R"({"op":"evaluate","model":"m9","bindings":{}})"),
        "unknown_id", "m9");

    const Json compiled = call(R"({"op":"compile","accel":"gamma"})");
    ASSERT_TRUE(compiled.find("ok")->boolean()) << compiled.dump();
    const std::string model = compiled.find("model")->str();
    const std::string prefix =
        R"({"op":"evaluate","model":")" + model + R"(",)";

    // Thread counts outside [1, maxEvalThreads] are protocol errors —
    // negative, zero, fractional, and huge alike.
    expectError(parseJson(server_.handleLine(
                    prefix + R"("bindings":{},"threads":-3})")),
                "bad_request", "threads");
    expectError(parseJson(server_.handleLine(
                    prefix + R"("bindings":{},"threads":0})")),
                "bad_request", "threads");
    expectError(parseJson(server_.handleLine(
                    prefix + R"("bindings":{},"threads":1.5})")),
                "bad_request", "threads");
    expectError(parseJson(server_.handleLine(
                    prefix + R"("bindings":{},"threads":4096})")),
                "bad_request", "threads");

    // Bindings must map tensor names to dataset-id strings, and the
    // ids must be registered.
    expectError(parseJson(server_.handleLine(
                    prefix + R"("bindings":{"A":7}})")),
                "bad_request", "A");
    expectError(parseJson(server_.handleLine(
                    prefix + R"("bindings":{"A":"d404"}})")),
                "unknown_id", "d404");
    // An id that was never registered is unknown, whatever it spells.
    expectError(parseJson(server_.handleLine(
                    prefix + R"("bindings":{"A":"evicted7"}})")),
                "unknown_id", "evicted7");
}

TEST_F(ServeProtocol, EstimateValidatesItsArguments)
{
    expectError(call(R"({"op":"estimate"})"), "bad_request", "model");
    expectError(call(R"({"op":"estimate","model":"m1"})"),
                "bad_request", "bindings");
    expectError(
        call(R"({"op":"estimate","model":"m9","bindings":7})"),
        "bad_request", "bindings");
    expectError(
        call(R"({"op":"estimate","model":"m9","bindings":{}})"),
        "unknown_id", "m9");

    const Json compiled = call(R"({"op":"compile","accel":"gamma"})");
    ASSERT_TRUE(compiled.find("ok")->boolean()) << compiled.dump();
    const std::string prefix = R"({"op":"estimate","model":")" +
                               compiled.find("model")->str() +
                               R"(",)";
    expectError(parseJson(server_.handleLine(
                    prefix + R"("bindings":{"A":7}})")),
                "bad_request", "A");
    expectError(parseJson(server_.handleLine(
                    prefix + R"("bindings":{"A":"d404"}})")),
                "unknown_id", "d404");
    // A resolvable but incomplete workload fails the model's own
    // validation, in the same structured shape.
    expectError(parseJson(
                    server_.handleLine(prefix + R"("bindings":{}})")),
                "bad_request");
}

TEST_F(ServeProtocol, DeadlineFieldIsValidated)
{
    // The field is validated before the model is even looked up, so a
    // bogus deadline on a bogus model still names the real problem.
    const std::string prefix =
        R"({"op":"evaluate","model":"m9","bindings":{},)";
    expectError(call(prefix + R"("deadline_ms":-5})"), "bad_request",
                "deadline_ms");
    expectError(call(prefix + R"("deadline_ms":0})"), "bad_request",
                "deadline_ms");
    expectError(call(prefix + R"("deadline_ms":"soon"})"),
                "bad_request", "deadline_ms");
}

TEST_F(ServeProtocol, CancelValidatesAndCountsMatches)
{
    expectError(call(R"({"op":"cancel"})"), "bad_request", "target");
    // A target with nothing in flight is an answer, not an error.
    const Json r = call(R"({"op":"cancel","target":"nobody"})");
    ASSERT_TRUE(r.find("ok")->boolean()) << r.dump();
    EXPECT_DOUBLE_EQ(r.find("cancelled")->number(), 0.0);
}

// ----------------------------------------------------- end to end

class ServeEndToEnd : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = testScratchDir("teaal_serve_test_");
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

    /** Registered big workload: the serial evaluate wall time is
     *  large enough to dominate cancel/deadline round trips. */
    struct BigWorkload
    {
        std::string model, da, db;
    };

    BigWorkload
    setUpBig(serve::Client& client)
    {
        const std::string cPath = (dir_ / "c.mtx").string();
        const std::string dPath = (dir_ / "d.mtx").string();
        workloads::writeMatrixMarket(
            cPath, workloads::uniformMatrix("A", 200, 200, 8000, 7,
                                            {"K", "M"}));
        workloads::writeMatrixMarket(
            dPath, workloads::uniformMatrix("B", 200, 200, 8000, 8,
                                            {"K", "N"}));
        BigWorkload w;
        const Json compiled = client.request(
            parseJson(R"({"op":"compile","accel":"gamma"})"));
        EXPECT_TRUE(compiled.find("ok")->boolean())
            << compiled.dump();
        w.model = compiled.find("model")->str();
        w.da = client.request(parseJson(loadLine(cPath, "A", "M")))
                   .find("dataset")
                   ->str();
        w.db = client.request(parseJson(loadLine(dPath, "B", "N")))
                   .find("dataset")
                   ->str();
        return w;
    }

    /** Evaluate request over a big workload; `extra` appends raw
     *  JSON fields, e.g. ",\"threads\":1,\"deadline_ms\":40". */
    static std::string
    evalLine(const BigWorkload& w, const std::string& extra)
    {
        return R"({"op":"evaluate","model":")" + w.model +
               R"(","bindings":{"A":")" + w.da + R"(","B":")" +
               w.db + R"("})" + extra + "}";
    }

    static void
    expectCancelled(const Json& r, const std::string& code,
                    const std::string& reason)
    {
        ASSERT_NE(r.find("ok"), nullptr) << r.dump();
        EXPECT_FALSE(r.find("ok")->boolean()) << r.dump();
        const Json* error = r.find("error");
        ASSERT_NE(error, nullptr) << r.dump();
        EXPECT_EQ(error->find("code")->str(), code) << r.dump();
        ASSERT_NE(r.find("reason"), nullptr) << r.dump();
        EXPECT_EQ(r.find("reason")->str(), reason) << r.dump();
        ASSERT_NE(r.find("elapsed_ms"), nullptr) << r.dump();
        EXPECT_GE(r.find("elapsed_ms")->number(), 0.0);
    }

    std::filesystem::path dir_;
    std::string aPath_, bPath_;
};

TEST_F(ServeEndToEnd, LoopbackRoundTripWithPlanCacheReuse)
{
    serve::Server server;
    server.start();
    ASSERT_GT(server.port(), 0);
    ASSERT_TRUE(server.running());

    serve::Client client;
    client.connect(server.port());

    const Json compiled = client.request(
        parseJson(R"({"op":"compile","accel":"gamma","id":"c1"})"));
    ASSERT_TRUE(compiled.find("ok")->boolean()) << compiled.dump();
    EXPECT_EQ(compiled.find("id")->str(), "c1");
    const std::string model = compiled.find("model")->str();

    const Json da =
        client.request(parseJson(loadLine(aPath_, "A", "M")));
    ASSERT_TRUE(da.find("ok")->boolean()) << da.dump();
    EXPECT_GT(da.find("bytes")->number(), 0.0);
    const Json db =
        client.request(parseJson(loadLine(bPath_, "B", "N")));
    ASSERT_TRUE(db.find("ok")->boolean()) << db.dump();

    const std::string evaluate =
        R"({"op":"evaluate","model":")" + model +
        R"(","bindings":{"A":")" + da.find("dataset")->str() +
        R"(","B":")" + db.find("dataset")->str() +
        R"("},"threads":1})";

    const Json first = parseJson(client.requestLine(evaluate));
    ASSERT_TRUE(first.find("ok")->boolean()) << first.dump();
    EXPECT_EQ(first.find("cache")->str(), "miss");
    EXPECT_GT(first.find("exec_seconds")->number(), 0.0);
    EXPECT_GT(first.find("traffic_bytes")->number(), 0.0);
    EXPECT_GT(first.find("compute_muls")->number(), 0.0);
    // Every evaluate response reports its server-side wall time.
    ASSERT_NE(first.find("elapsed_ms"), nullptr) << first.dump();
    EXPECT_GE(first.find("elapsed_ms")->number(), 0.0);

    const Json second = parseJson(client.requestLine(evaluate));
    ASSERT_TRUE(second.find("ok")->boolean()) << second.dump();
    EXPECT_EQ(second.find("cache")->str(), "hit");
    // Determinism: identical counters on the cached plan.
    EXPECT_DOUBLE_EQ(second.find("exec_seconds")->number(),
                     first.find("exec_seconds")->number());
    EXPECT_DOUBLE_EQ(second.find("traffic_bytes")->number(),
                     first.find("traffic_bytes")->number());

    const Json stats =
        client.request(parseJson(R"({"op":"stats"})"));
    ASSERT_TRUE(stats.find("ok")->boolean()) << stats.dump();
    EXPECT_EQ(stats.find("registry")->find("models")->number(), 1.0);
    EXPECT_EQ(stats.find("registry")->find("datasets")->number(),
              2.0);
    EXPECT_GT(stats.find("registry")->find("resident_bytes")->number(),
              0.0);
    const Json* plan = stats.find("plan_cache");
    ASSERT_NE(plan, nullptr);
    EXPECT_GE(plan->find("hits")->number(), 1.0);
    EXPECT_GE(plan->find("misses")->number(), 1.0);
    // `accepted` increments synchronously at submit; `completed`
    // lags the response by the pool wrapper's bookkeeping, so it is
    // not asserted here.
    EXPECT_GE(stats.find("admission")->find("accepted")->number(),
              2.0);

    client.close();
    server.stop();
    EXPECT_FALSE(server.running());
}

TEST_F(ServeEndToEnd, EstimateScreensMappingsWithoutATraceRun)
{
    serve::Server server;
    server.start();
    serve::Client client;
    client.connect(server.port());

    const Json compiled = client.request(
        parseJson(R"({"op":"compile","accel":"gamma"})"));
    ASSERT_TRUE(compiled.find("ok")->boolean()) << compiled.dump();
    const std::string model = compiled.find("model")->str();
    const std::string da =
        client.request(parseJson(loadLine(aPath_, "A", "M")))
            .find("dataset")
            ->str();
    const std::string db =
        client.request(parseJson(loadLine(bPath_, "B", "N")))
            .find("dataset")
            ->str();
    const std::string bindings = R"(","bindings":{"A":")" + da +
                                 R"(","B":")" + db + R"("}})";

    const Json est = parseJson(client.requestLine(
        R"({"op":"estimate","model":")" + model + bindings));
    ASSERT_TRUE(est.find("ok")->boolean()) << est.dump();
    EXPECT_EQ(est.find("cache")->str(), "miss");
    EXPECT_GT(est.find("exec_seconds_est")->number(), 0.0);
    EXPECT_GT(est.find("traffic_bytes_est")->number(), 0.0);
    EXPECT_GT(est.find("compute_muls_est")->number(), 0.0);
    EXPECT_GE(est.find("latency_ms")->number(), 0.0);

    // Re-estimating the same (model, bindings) serves the cached
    // prediction, identically.
    const Json again = parseJson(client.requestLine(
        R"({"op":"estimate","model":")" + model + bindings));
    ASSERT_TRUE(again.find("ok")->boolean()) << again.dump();
    EXPECT_EQ(again.find("cache")->str(), "hit");
    EXPECT_DOUBLE_EQ(again.find("exec_seconds_est")->number(),
                     est.find("exec_seconds_est")->number());

    // The prediction screens against the trace run's answer: same
    // workload, same model, no order-of-magnitude surprises.
    const Json eval = parseJson(client.requestLine(
        R"({"op":"evaluate","model":")" + model + bindings));
    ASSERT_TRUE(eval.find("ok")->boolean()) << eval.dump();
    const double traced = eval.find("exec_seconds")->number();
    const double predicted = est.find("exec_seconds_est")->number();
    EXPECT_GT(predicted, traced / 10.0);
    EXPECT_LT(predicted, traced * 10.0);

    client.close();
    server.stop();
}

TEST_F(ServeEndToEnd, EvictionUnderBudgetAnswersEvictedNotUnknown)
{
    // Size the budget from the actual datasets so exactly the cold
    // dataset is evicted: model (64 KiB estimate) + both datasets
    // exceed it, model + one dataset fits.
    const std::uint64_t bytesA =
        workloads::readMatrixMarketPacked(aPath_, "A", {"K", "M"})
            .residentBytes();
    const std::uint64_t bytesB =
        workloads::readMatrixMarketPacked(bPath_, "B", {"K", "N"})
            .residentBytes();
    serve::ServerOptions opts;
    opts.memoryBudgetBytes = 64 * 1024 + bytesA + bytesB -
                             std::min(bytesA, bytesB) / 2;
    serve::Server server(opts);

    const Json compiled = parseJson(
        server.handleLine(R"({"op":"compile","accel":"gamma"})"));
    const std::string model = compiled.find("model")->str();

    const Json da = parseJson(
        server.handleLine(loadLine(aPath_, "A", "M")));
    ASSERT_TRUE(da.find("ok")->boolean()) << da.dump();
    const std::string staleId = da.find("dataset")->str();
    // Touch the model so dataset A is the coldest entry: an estimate
    // on no bindings looks the model up, then fails its validation.
    server.handleLine(R"({"op":"estimate","model":")" + model +
                      R"(","bindings":{}})");
    const Json db = parseJson(
        server.handleLine(loadLine(bPath_, "B", "N")));
    ASSERT_TRUE(db.find("ok")->boolean()) << db.dump();

    // Loading B pushed resident bytes past the budget; eviction
    // brought them back under it.
    const serve::Registry::Stats stats = server.registry().stats();
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_LE(stats.residentBytes, stats.budgetBytes);

    const Json r = parseJson(server.handleLine(
        R"({"op":"evaluate","model":")" + model +
        R"(","bindings":{"A":")" + staleId + R"("}})"));
    ASSERT_NE(r.find("error"), nullptr) << r.dump();
    EXPECT_EQ(r.find("error")->find("code")->str(), "evicted");
    EXPECT_EQ(r.find("error")->find("key")->str(), staleId);
    EXPECT_NE(r.find("error")->find("message")->str().find(
                  "re-register"),
              std::string::npos);
}

TEST_F(ServeEndToEnd, StopDrainsAndThenShedsWithShuttingDown)
{
    serve::Server server;
    server.start();
    serve::Client client;
    client.connect(server.port());
    const Json compiled = client.request(
        parseJson(R"({"op":"compile","accel":"gamma"})"));
    ASSERT_TRUE(compiled.find("ok")->boolean());

    server.stop(); // drains; the connection is shut down after
    EXPECT_FALSE(server.running());
    // The drained server's protocol core keeps answering (the daemon
    // has exited by now, but no request is ever silently dropped):
    // new evaluations are shed with shutting_down.
    const Json r = parseJson(server.handleLine(
        R"({"op":"evaluate","model":")" +
        compiled.find("model")->str() + R"(","bindings":{}})"));
    ASSERT_NE(r.find("error"), nullptr) << r.dump();
    EXPECT_EQ(r.find("error")->find("code")->str(), "shutting_down");
    server.stop(); // idempotent
}

TEST_F(ServeEndToEnd, ConcurrentClientsGetConsistentAnswers)
{
    serve::Server server;
    server.start();

    serve::Client setup;
    setup.connect(server.port());
    const Json compiled = setup.request(
        parseJson(R"({"op":"compile","accel":"gamma"})"));
    const std::string model = compiled.find("model")->str();
    const std::string da = setup.request(parseJson(loadLine(
                                             aPath_, "A", "M")))
                               .find("dataset")
                               ->str();
    const std::string db = setup.request(parseJson(loadLine(
                                             bPath_, "B", "N")))
                               .find("dataset")
                               ->str();
    const std::string evaluate =
        R"({"op":"evaluate","model":")" + model +
        R"(","bindings":{"A":")" + da + R"(","B":")" + db +
        R"("},"threads":1})";
    const Json reference = parseJson(setup.requestLine(evaluate));
    ASSERT_TRUE(reference.find("ok")->boolean()) << reference.dump();
    const double expected = reference.find("exec_seconds")->number();

    constexpr int kClients = 4;
    constexpr int kRequests = 5;
    std::atomic<int> mismatches{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&] {
            serve::Client client;
            client.connect(server.port());
            for (int i = 0; i < kRequests; ++i) {
                const Json r =
                    parseJson(client.requestLine(evaluate));
                const Json* okField = r.find("ok");
                if (okField == nullptr || !okField->boolean() ||
                    r.find("exec_seconds")->number() != expected)
                    mismatches.fetch_add(1);
            }
        });
    }
    for (std::thread& t : clients)
        t.join();
    EXPECT_EQ(mismatches.load(), 0);
    server.stop();
}

TEST_F(ServeEndToEnd, DeadlineExceededIsStructuredPromptAndRecoverable)
{
    serve::Server server;
    server.start();
    serve::Client client;
    client.connect(server.port());
    const BigWorkload w = setUpBig(client);

    // Calibrate the budget from this machine's actual wall time so
    // the test carries no absolute timing assumptions: take the
    // faster of two full runs (the second rides the cached plan).
    const Json full1 =
        parseJson(client.requestLine(evalLine(w, R"(,"threads":1)")));
    ASSERT_TRUE(full1.find("ok")->boolean()) << full1.dump();
    const Json full2 =
        parseJson(client.requestLine(evalLine(w, R"(,"threads":1)")));
    ASSERT_TRUE(full2.find("ok")->boolean()) << full2.dump();
    const double wall =
        std::min(full1.find("elapsed_ms")->number(),
                 full2.find("elapsed_ms")->number());
    const double deadline =
        std::clamp(wall / 8.0, 5.0, 200.0);
    // The workload is sized so the serial run dwarfs the budget even
    // at the clamp floor; if this ever fires, grow the matrices.
    ASSERT_GT(wall, 4.0 * deadline) << "workload too small to test "
                                       "deadlines: wall="
                                    << wall << "ms";

    // A budget far below the wall time comes back as a structured
    // deadline_exceeded, promptly (within 2x the budget — the poll
    // granularity is far finer than the run), at every thread count.
    for (const char* threads : {"1", "4"}) {
        const Json r = parseJson(client.requestLine(evalLine(
            w, std::string(",\"threads\":") + threads +
                   ",\"deadline_ms\":" + std::to_string(deadline))));
        expectCancelled(r, "deadline_exceeded", "deadline");
        EXPECT_LE(r.find("elapsed_ms")->number(), 2.0 * deadline)
            << "threads=" << threads << ": " << r.dump();
    }

    // The daemon is immediately healthy: the next unbudgeted run
    // succeeds (the cancelled runs dropped their plan-cache state,
    // so this re-instantiates rather than riding a poisoned entry).
    const Json after =
        parseJson(client.requestLine(evalLine(w, R"(,"threads":1)")));
    ASSERT_TRUE(after.find("ok")->boolean()) << after.dump();
    EXPECT_DOUBLE_EQ(after.find("exec_seconds")->number(),
                     full1.find("exec_seconds")->number());

    client.close();
    server.stop();
}

TEST_F(ServeEndToEnd, CancelOpStopsARunningEvaluateById)
{
    serve::Server server;
    server.start();
    serve::Client client;
    client.connect(server.port());
    const BigWorkload w = setUpBig(client);

    // Launch a long evaluate under a known id on its own connection.
    std::atomic<bool> done{false};
    Json result;
    std::thread runner([&] {
        serve::Client c2;
        c2.connect(server.port());
        result = parseJson(c2.requestLine(
            evalLine(w, R"(,"threads":1,"id":"slow")")));
        done.store(true);
        c2.close();
    });

    // Spam `cancel` from a second connection until it reports a
    // match; the run takes hundreds of milliseconds, the loopback
    // round trip microseconds.
    double matched = 0.0;
    while (!done.load() && matched < 1.0) {
        const Json r = client.request(
            parseJson(R"({"op":"cancel","target":"slow"})"));
        ASSERT_TRUE(r.find("ok")->boolean()) << r.dump();
        matched = r.find("cancelled")->number();
    }
    runner.join();
    EXPECT_GE(matched, 1.0);
    expectCancelled(result, "cancelled", "user");

    // A finished request is out of the in-flight table.
    const Json gone = client.request(
        parseJson(R"({"op":"cancel","target":"slow"})"));
    EXPECT_DOUBLE_EQ(gone.find("cancelled")->number(), 0.0);

    // And the daemon still evaluates cleanly.
    const Json after =
        parseJson(client.requestLine(evalLine(w, R"(,"threads":1)")));
    EXPECT_TRUE(after.find("ok")->boolean()) << after.dump();

    client.close();
    server.stop();
}

TEST_F(ServeEndToEnd, StopCancelsInFlightRunsWithShutdownReason)
{
    serve::Server server;
    server.start();
    serve::Client client;
    client.connect(server.port());
    const BigWorkload w = setUpBig(client);

    Json result;
    std::thread runner([&] {
        serve::Client c2;
        c2.connect(server.port());
        result = parseJson(c2.requestLine(
            evalLine(w, R"(,"threads":1,"id":"doomed")")));
        c2.close();
    });

    // Wait until the evaluation is structurally in flight, then stop:
    // the drain must not wait out the full run — shutdown reaches it
    // through the same token path as a user cancel.
    for (;;) {
        const Json s =
            client.request(parseJson(R"({"op":"stats"})"));
        if (s.find("admission")->find("in_flight")->number() >= 1.0)
            break;
        std::this_thread::yield();
    }
    server.stop();
    runner.join();
    expectCancelled(result, "cancelled", "shutdown");
    client.close();
}

} // namespace
} // namespace teaal
