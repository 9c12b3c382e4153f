/**
 * @file
 * Disk-spilled trace replay (trace/spill.hpp, RunOptions::spillDir):
 * sharded runs that stream capture-log frames to disk segments must be
 * byte-identical — results, counters, traffic, delivered stream with
 * batch boundaries — to resident sharded runs and to the serial
 * baseline, across every Table 1 accelerator. Plus the lifecycle
 * rules: segments are process-private scratch deleted after replay
 * (spillKeep retains them), serial runs never touch the directory,
 * and SpillStats reports what was written. Also the first-write bit
 * that leaf output writes carry through every variant, spill
 * included, walks that run live and spill nothing (one unit, or a
 * scalar output with no coordinate to key a split on), and a walk
 * split output-keyed below a two-level prefix of pre-lookups and
 * barren nodes.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <utility>
#include <vector>

#include "accelerators/accelerators.hpp"
#include "compiler/pipeline.hpp"
#include "storage/packed.hpp"
#include "support.hpp"
#include "workloads/datasets.hpp"

namespace teaal
{
namespace
{

namespace fs = std::filesystem;
using compiler::RunOptions;
using compiler::SimulationResult;
using compiler::Workload;
using test::StreamRecorder;
using test::TempDir;

void
expectSameResults(const SimulationResult& x, const SimulationResult& y)
{
    ASSERT_EQ(x.records.size(), y.records.size());
    for (std::size_t i = 0; i < x.records.size(); ++i) {
        EXPECT_TRUE(x.records[i].execStats == y.records[i].execStats)
            << "einsum " << i;
        EXPECT_EQ(x.records[i].traceEvents, y.records[i].traceEvents)
            << "einsum " << i;
        EXPECT_EQ(x.records[i].traceBatches, y.records[i].traceBatches)
            << "einsum " << i;
        ASSERT_EQ(x.records[i].traffic.size(),
                  y.records[i].traffic.size());
        for (const auto& [tensor, tt] : x.records[i].traffic) {
            const auto it = y.records[i].traffic.find(tensor);
            ASSERT_NE(it, y.records[i].traffic.end()) << tensor;
            EXPECT_DOUBLE_EQ(tt.readBytes, it->second.readBytes)
                << tensor;
            EXPECT_DOUBLE_EQ(tt.writeBytes, it->second.writeBytes)
                << tensor;
            EXPECT_DOUBLE_EQ(tt.poBytes, it->second.poBytes) << tensor;
        }
    }
    EXPECT_DOUBLE_EQ(x.perf.totalSeconds, y.perf.totalSeconds);
    EXPECT_DOUBLE_EQ(x.energy.totalJoules, y.energy.totalJoules);
    ASSERT_EQ(x.tensors.size(), y.tensors.size());
    for (const auto& [name, t] : x.tensors) {
        const auto it = y.tensors.find(name);
        ASSERT_NE(it, y.tensors.end()) << name;
        EXPECT_TRUE(t.equals(it->second)) << name;
    }
}

/** A scalar output over the Table 1 inputs: the walk branches on
 *  contractions only, and no output coordinate exists to key on. */
const char* kScalarYaml = R"(
einsum:
  declaration:
    A: [K, M]
    B: [K, N]
    Z: []
  expressions:
    - Z[] = A[k, m] * B[k, n]
)";

compiler::Specification
specFor(const std::string& name)
{
    if (name == "scalar")
        return compiler::Specification::parse(kScalarYaml);
    if (name == "gamma") {
        accel::GammaConfig cfg;
        cfg.pes = 4;
        cfg.rowChunk = 4;
        cfg.kChunk = 8;
        cfg.fiberCacheBytes = 64 * 1024;
        return accel::gamma(cfg);
    }
    if (name == "extensor") {
        accel::ExTensorConfig cfg;
        cfg.pes = 4;
        cfg.tileK1 = 16;
        cfg.tileK0 = 4;
        cfg.tileM1 = 16;
        cfg.tileM0 = 4;
        cfg.tileN1 = 16;
        cfg.tileN0 = 4;
        cfg.llcBytes = 256 * 1024;
        return accel::extensor(cfg);
    }
    if (name == "outerspace") {
        accel::OuterSpaceConfig cfg;
        cfg.chunkOuter = 32;
        cfg.chunkInner = 8;
        cfg.mergeChunkOuter = 16;
        cfg.mergeChunkInner = 4;
        return accel::outerSpace(cfg);
    }
    accel::SigmaConfig cfg;
    cfg.kTile = 16;
    cfg.stationaryChunk = 64;
    return accel::sigma(cfg);
}

Workload
workloadFor(std::uint64_t seed)
{
    Workload w;
    w.add("A",
          workloads::uniformMatrix("A", 40, 32, 300, seed, {"K", "M"}))
        .add("B", workloads::uniformMatrix("B", 40, 36, 300, seed + 1,
                                           {"K", "N"}));
    return w;
}

class SpillAccelerators : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SpillAccelerators, SpilledShardedRunMatchesResidentAndSerial)
{
    auto model = compiler::compile(specFor(GetParam()));
    const Workload w = workloadFor(41);

    StreamRecorder serial_rec;
    RunOptions opts;
    opts.threads = 1;
    opts.observers = {&serial_rec};
    const SimulationResult serial = model.run(w, opts);

    StreamRecorder resident_rec;
    opts.threads = 4;
    opts.observers = {&resident_rec};
    const SimulationResult resident = model.run(w, opts);

    const TempDir tmp;
    StreamRecorder spilled_rec;
    opts.spillDir = tmp.str();
    // One-record frames cut a frame at every walk boundary of every
    // capture, even an output-keyed split's short per-node segments,
    // exercising every frame-boundary path (walkEnd cuts, counter
    // restarts, replay).
    opts.spillSegmentBytes = sizeof(trace::Event);
    opts.observers = {&spilled_rec};
    const SimulationResult spilled = model.run(w, opts);

    expectSameResults(serial, resident);
    expectSameResults(serial, spilled);
    EXPECT_EQ(serial_rec.log, resident_rec.log);
    EXPECT_EQ(serial_rec.log, spilled_rec.log);

    if (GetParam() == "scalar") {
        // A live run captures nothing, so nothing spills.
        for (const SimulationResult* r : {&resident, &spilled}) {
            ASSERT_EQ(r->splits.size(), 1u);
            EXPECT_EQ(r->splits[0].merge, exec::SplitPoint::Merge::Live);
        }
        EXPECT_EQ(spilled.spill.files, 0u);
        EXPECT_EQ(spilled.spill.frames, 0u);
        EXPECT_EQ(spilled.spill.bytes, 0u);
    } else {
        // Something actually spilled.
        EXPECT_GT(spilled.spill.files, 0u) << GetParam();
        EXPECT_GT(spilled.spill.frames, 0u) << GetParam();
        EXPECT_GT(spilled.spill.bytes, 0u) << GetParam();
    }
    // The scratch was cleaned up.
    EXPECT_EQ(tmp.fileCount(), 0u) << GetParam();

    // Resident runs report no spill activity.
    EXPECT_EQ(resident.spill.files, 0u);
    EXPECT_EQ(resident.spill.frames, 0u);
    EXPECT_EQ(resident.spill.bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Table1, SpillAccelerators,
                         ::testing::Values("gamma", "extensor",
                                           "outerspace", "sigma"),
                         [](const auto& info) { return info.param; });

/** A scalar output has no coordinate to key a split on: at 4 threads
 *  it runs live, with or without a spill directory. */
INSTANTIATE_TEST_SUITE_P(ScalarOutput, SpillAccelerators,
                         ::testing::Values("scalar"),
                         [](const auto& info) { return info.param; });

/**
 * Checks the first-write bit (Event::flagA) of every leaf output write
 * in the delivered storage-tier stream against the set of (tensor,
 * path key) pairs seen so far, and logs each leaf write's key and bit
 * so variants can be compared.
 */
class FirstWriteRecorder : public trace::Observer
{
  public:
    std::vector<std::string> log;
    std::size_t firstWrites = 0;
    std::size_t wrongBits = 0;

    void
    onEventBatch(const trace::EventBatch& batch) override
    {
        for (const trace::Event& e : batch.events) {
            if (e.kind != trace::Event::Kind::OutputWrite || !e.flagB)
                continue;
            const bool fresh = seen_.insert({*e.name, e.key}).second;
            wrongBits += fresh != e.flagA ? 1 : 0;
            firstWrites += e.flagA ? 1 : 0;
            log.push_back(*e.name + ":" + std::to_string(e.key) +
                          (e.flagA ? ":1" : ":0"));
        }
    }

  private:
    std::set<std::pair<std::string, std::uint64_t>> seen_;
};

class FirstWriteBit : public ::testing::TestWithParam<std::string>
{
};

/** A leaf write carries the first-write bit exactly when its path key
 *  is new in the serial stream, and 4-thread (disjoint, keyed and
 *  live), packed and spilled runs deliver the same bits. */
TEST_P(FirstWriteBit, MarksNewLeavesInEveryVariant)
{
    auto model = compiler::compile(specFor(GetParam()));
    const Workload w = workloadFor(46);
    Workload packed;
    for (const std::string& name : w.names()) {
        packed.add(name, storage::PackedTensor::fromTensor(
                             w.tensor(name),
                             model.spec().formats.getLenient(name)));
    }

    FirstWriteRecorder serial;
    RunOptions opts;
    opts.observers = {&serial};
    (void)model.run(w, opts);
    EXPECT_EQ(serial.wrongBits, 0u);
    EXPECT_GT(serial.firstWrites, 0u);
    // Some leaf is written again, so the bit is not trivially set.
    EXPECT_LT(serial.firstWrites, serial.log.size());

    const TempDir tmp;
    std::set<exec::SplitPoint::Merge> merges;
    struct Variant
    {
        const char* name;
        const Workload* w;
        unsigned threads;
        bool spill;
    };
    for (const Variant& v : {Variant{"threads4", &w, 4, false},
                             Variant{"packed", &packed, 1, false},
                             Variant{"packed_threads4", &packed, 4, false},
                             Variant{"spilled_threads4", &w, 4, true}}) {
        SCOPED_TRACE(v.name);
        FirstWriteRecorder rec;
        RunOptions o;
        o.threads = v.threads;
        o.observers = {&rec};
        if (v.spill) {
            o.spillDir = tmp.str();
            o.spillSegmentBytes = sizeof(trace::Event);
        }
        const SimulationResult r = model.run(*v.w, o);
        if (v.spill && GetParam() == "scalar") {
            // A live run captures nothing, so nothing spills.
            EXPECT_EQ(r.spill.files, 0u);
            EXPECT_EQ(r.spill.frames, 0u);
        } else if (v.spill) {
            EXPECT_GT(r.spill.frames, 0u);
        }
        EXPECT_EQ(rec.wrongBits, 0u);
        EXPECT_EQ(rec.log, serial.log);
        for (const exec::SplitPoint& sp : r.splits)
            merges.insert(sp.merge);
    }

    // The suite covers every merge of a sharded Einsum: slices own
    // disjoint leaves and keep their engine's bit, and a live run sets
    // it as the serial engine does.
    if (GetParam() == "gamma")
        EXPECT_TRUE(merges.count(exec::SplitPoint::Merge::Disjoint));
    if (GetParam() == "sigma")
        EXPECT_TRUE(merges.count(exec::SplitPoint::Merge::Keyed));
    if (GetParam() == "scalar")
        EXPECT_TRUE(merges.count(exec::SplitPoint::Merge::Live));
}

INSTANTIATE_TEST_SUITE_P(Table1, FirstWriteBit,
                         ::testing::Values("gamma", "extensor",
                                           "outerspace", "sigma"),
                         [](const auto& info) { return info.param; });

INSTANTIATE_TEST_SUITE_P(ScalarOutput, FirstWriteBit,
                         ::testing::Values("scalar"),
                         [](const auto& info) { return info.param; });

TEST(Spill, SerialRunsNeverTouchTheDirectory)
{
    auto model = compiler::compile(specFor("gamma"));
    const Workload w = workloadFor(42);
    const TempDir tmp;

    RunOptions opts;
    opts.threads = 1;
    opts.spillDir = tmp.str();
    opts.spillSegmentBytes = 4096;
    const SimulationResult r = model.run(w, opts);
    EXPECT_EQ(r.spill.files, 0u);
    EXPECT_EQ(r.spill.frames, 0u);
    EXPECT_EQ(tmp.fileCount(), 0u);
}

TEST(Spill, LargeSegmentsMeanNoFilesButIdenticalResults)
{
    // With the default 4 MiB segment nothing in this workload crosses
    // the threshold: every slice replays the ordinary resident way,
    // no file is ever created, and results still match.
    auto model = compiler::compile(specFor("gamma"));
    const Workload w = workloadFor(43);

    RunOptions opts;
    opts.threads = 4;
    const SimulationResult resident = model.run(w, opts);

    const TempDir tmp;
    opts.spillDir = tmp.str();
    const SimulationResult spilled = model.run(w, opts);

    expectSameResults(resident, spilled);
    EXPECT_EQ(spilled.spill.files, 0u);
    EXPECT_EQ(tmp.fileCount(), 0u);
}

TEST(Spill, KeepRetainsSegmentsForInspection)
{
    auto model = compiler::compile(specFor("gamma"));
    const Workload w = workloadFor(44);
    const TempDir tmp;

    RunOptions opts;
    opts.threads = 4;
    opts.spillDir = tmp.str();
    opts.spillSegmentBytes = 4096;
    opts.spillKeep = true;
    const SimulationResult r = model.run(w, opts);
    EXPECT_GT(r.spill.files, 0u);
    EXPECT_GT(tmp.fileCount(), 0u);

    // Retained segments are real files with the reported bytes.
    std::uint64_t on_disk = 0;
    for (const auto& e : fs::directory_iterator(tmp.str())) {
        EXPECT_NE(e.path().filename().string().find("teaal-spill-"),
                  std::string::npos);
        on_disk += static_cast<std::uint64_t>(fs::file_size(e.path()));
    }
    EXPECT_EQ(on_disk, r.spill.bytes);
}

TEST(Spill, RepeatedSpilledRunsAreDeterministic)
{
    auto model = compiler::compile(specFor("sigma"));
    const Workload w = workloadFor(45);
    const TempDir tmp;

    RunOptions opts;
    opts.threads = 4;
    opts.spillDir = tmp.str();
    opts.spillSegmentBytes = 4096;
    const SimulationResult first = model.run(w, opts);
    const SimulationResult second = model.run(w, opts);
    expectSameResults(first, second);
    EXPECT_EQ(first.spill.frames, second.spill.frames);
    EXPECT_EQ(first.spill.bytes, second.spill.bytes);
}

/** A walk that yields one unit runs live, on the serial engine: no
 *  worker, capture, spill or replay, and the serial run's stream and
 *  results. Z[] = A[k, m] * B[k, n] on inputs that share one k: K
 *  yields one unit, and M below it branches on a contraction, but a
 *  scalar output has no coordinate to key a deeper split on. */
TEST(Spill, OneUnitWalkRunsLiveWithoutSpilling)
{
    auto model = compiler::compile(specFor("scalar"));
    using Elems = std::vector<std::pair<std::vector<ft::Coord>, ft::Value>>;
    Elems a;
    Elems b;
    for (ft::Coord m = 0; m < 6; ++m) {
        a.push_back({{1, m}, static_cast<ft::Value>(1 + m)});
        a.push_back({{3, m}, 2});
    }
    for (ft::Coord n = 0; n < 5; ++n) {
        b.push_back({{3, n}, static_cast<ft::Value>(1 + n)});
        b.push_back({{5, n}, 3});
    }
    Workload w;
    w.add("A", ft::Tensor::fromCoo("A", {"K", "M"}, {8, 6}, a))
        .add("B", ft::Tensor::fromCoo("B", {"K", "N"}, {8, 5}, b));

    StreamRecorder serial_rec;
    RunOptions opts;
    opts.observers = {&serial_rec};
    const SimulationResult serial = model.run(w, opts);

    const TempDir tmp;
    StreamRecorder rec;
    opts.threads = 4;
    opts.spillDir = tmp.str();
    opts.spillSegmentBytes = sizeof(trace::Event);
    opts.observers = {&rec};
    const SimulationResult live = model.run(w, opts);

    expectSameResults(serial, live);
    EXPECT_EQ(rec.log, serial_rec.log);
    ASSERT_EQ(live.splits.size(), 1u);
    EXPECT_EQ(live.splits[0].merge, exec::SplitPoint::Merge::Live);
    EXPECT_EQ(live.splits[0].units, 1u);
    EXPECT_EQ(live.splits[0].rank, "K");
    EXPECT_EQ(live.splits[0].segments, 0u);
    EXPECT_EQ(live.spill.files, 0u);
    EXPECT_EQ(live.spill.frames, 0u);
    EXPECT_EQ(live.spill.bytes, 0u);
    EXPECT_EQ(tmp.fileCount(), 0u);
}

/**
 * A split prefix holding loop-0 pre-lookups and barren nodes. P's
 * constant plane is looked up on entry to M, so the split starts at K;
 * X's constant column misses for m = 2 (an M node the serial run
 * enters but never walks below), and for some (m, k) B[k] and C[m]
 * share no n (K nodes whose N walk is empty). K branches on the
 * contraction k, so the walk may deepen, and its dozen K units send the
 * split to N, depth 2, where it goes output-keyed on n. The barren
 * nodes' placeholder units have no key; they run in slice 0, between
 * the other slices' segments, and the stream must still be serial.
 * kScalarPrefixYaml sums the same products into a scalar: with no
 * output coordinate to key on, its walk, enumerated down to N, runs
 * live, on the serial engine, and spills nothing.
 */
const char* kPrefixYaml = R"(
einsum:
  declaration:
    P: [S, M, K]
    X: [M, W]
    B: [K, N]
    C: [M, N]
    Z: [M, N]
  expressions:
    - Z[m, n] = P[0, m, k] * X[m, 1] * B[k, n] * C[m, n]
mapping:
  loop-order:
    Z: [M, K, N]
)";

const char* kScalarPrefixYaml = R"(
einsum:
  declaration:
    P: [S, M, K]
    X: [M, W]
    B: [K, N]
    C: [M, N]
    Z: []
  expressions:
    - Z[] = P[0, m, k] * X[m, 1] * B[k, n] * C[m, n]
mapping:
  loop-order:
    Z: [M, K, N]
)";

/** The inputs of kPrefixYaml; @p plane is the P plane that holds the
 *  data (the expression looks up plane 0). */
Workload
prefixWorkload(ft::Coord plane)
{
    using Elems = std::vector<std::pair<std::vector<ft::Coord>, ft::Value>>;
    Elems p;
    Elems x;
    Elems c;
    for (ft::Coord m = 0; m < 6; ++m) {
        // Two k's per row; together they cover k = 0..4.
        p.push_back({{plane, m, m % 5}, static_cast<ft::Value>(1 + m)});
        p.push_back({{plane, m, (m + 2) % 5}, 2});
        x.push_back({{m, 0}, 5});
        if (m != 2)
            x.push_back({{m, 1}, static_cast<ft::Value>(2 + m % 3)});
        // Rows of C hold n = m and m + 2: disjoint from some rows of B.
        c.push_back({{m, m}, 3});
        c.push_back({{m, m + 2}, static_cast<ft::Value>(1 + m % 4)});
    }
    Elems b;
    for (ft::Coord k = 0; k < 5; ++k) {
        b.push_back({{k, k}, static_cast<ft::Value>(1 + k)});
        b.push_back({{k, k + 3}, 2});
    }
    Workload w;
    w.add("P", ft::Tensor::fromCoo("P", {"S", "M", "K"}, {2, 6, 5}, p))
        .add("X", ft::Tensor::fromCoo("X", {"M", "W"}, {6, 2}, x))
        .add("B", ft::Tensor::fromCoo("B", {"K", "N"}, {5, 8}, b))
        .add("C", ft::Tensor::fromCoo("C", {"M", "N"}, {6, 8}, c));
    return w;
}

TEST(Spill, PreLookupsAndBarrenNodesInADepthTwoPrefix)
{
    struct Case
    {
        const char* yaml;
        exec::SplitPoint::Merge merge;
    };
    for (const Case& c :
         {Case{kPrefixYaml, exec::SplitPoint::Merge::Keyed},
          Case{kScalarPrefixYaml, exec::SplitPoint::Merge::Live}}) {
        SCOPED_TRACE(exec::mergeName(c.merge));
        auto model =
            compiler::compile(compiler::Specification::parse(c.yaml));
        ASSERT_EQ(model.recipes().size(), 1u);

        for (const ft::Coord plane : {0, 1}) {
            // Plane 1 makes loop 0's pre-lookup miss: the run executes
            // nothing below it.
            SCOPED_TRACE(plane);
            const Workload w = prefixWorkload(plane);
            StreamRecorder serial_rec;
            RunOptions opts;
            opts.observers = {&serial_rec};
            const SimulationResult serial = model.run(w, opts);

            StreamRecorder resident_rec;
            opts.threads = 4;
            opts.observers = {&resident_rec};
            const SimulationResult resident = model.run(w, opts);

            const TempDir tmp;
            StreamRecorder spilled_rec;
            opts.spillDir = tmp.str();
            opts.spillSegmentBytes = 64;
            opts.observers = {&spilled_rec};
            const SimulationResult spilled = model.run(w, opts);

            expectSameResults(serial, resident);
            expectSameResults(serial, spilled);
            EXPECT_EQ(serial_rec.log, resident_rec.log);
            EXPECT_EQ(serial_rec.log, spilled_rec.log);
            EXPECT_EQ(tmp.fileCount(), 0u);
            ASSERT_EQ(resident.splits.size(), 1u);
            ASSERT_EQ(spilled.splits.size(), 1u);
            if (plane == 0) {
                EXPECT_GT(serial.records[0].execStats.leafVisits, 0u);
                const bool live = c.merge == exec::SplitPoint::Merge::Live;
                for (const exec::SplitPoint& split :
                     {resident.splits[0], spilled.splits[0]}) {
                    EXPECT_EQ(split.rank, "N");
                    EXPECT_EQ(split.depth, 2u);
                    EXPECT_EQ(split.merge, c.merge);
                    EXPECT_EQ(split.slices > 1u, !live);
                }
                if (live) {
                    // A live run captures nothing, so nothing spills.
                    EXPECT_EQ(spilled.spill.files, 0u);
                    EXPECT_EQ(spilled.spill.frames, 0u);
                } else {
                    EXPECT_GT(spilled.spill.frames, 0u);
                }
                for (const auto& [name, t] : serial.tensors) {
                    EXPECT_TRUE(t.equals(resident.tensors.at(name), 0.0));
                    EXPECT_TRUE(t.equals(spilled.tensors.at(name), 0.0));
                }
            } else {
                EXPECT_EQ(serial.records[0].execStats.leafVisits, 0u);
                EXPECT_EQ(resident.splits[0].units, 0u);
            }
        }
    }
}

} // namespace
} // namespace teaal
