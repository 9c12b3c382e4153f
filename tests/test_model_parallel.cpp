/**
 * @file
 * Model equivalence under sharding (the two-tier model split): the
 * EinsumRecord — every component counter row, per-PE load, per-tensor
 * traffic including partial-output bytes, and the trace-bus
 * diagnostics — must be byte-identical at threads 1/2/4 for all four
 * Table 1 accelerators, on both the pointer and the packed backend.
 *
 * threads=1 feeds both tiers off the serial bus's filter, in order;
 * threads>=2 feeds per-shard accumulators off each capture bus's
 * filter and the storage tier through the coordinator's in-order
 * replay. Both must agree bit-for-bit.
 */
#include <gtest/gtest.h>

#include "accelerators/accelerators.hpp"
#include "compiler/pipeline.hpp"
#include "model/record.hpp"
#include "storage/packed.hpp"
#include "workloads/datasets.hpp"

namespace teaal
{
namespace
{

using compiler::CompiledModel;
using compiler::RunOptions;
using compiler::SimulationResult;
using compiler::Workload;

accel::GammaConfig
smallGamma()
{
    accel::GammaConfig cfg;
    cfg.pes = 4;
    cfg.rowChunk = 4;
    cfg.kChunk = 8;
    cfg.fiberCacheBytes = 64 * 1024;
    return cfg;
}

accel::ExTensorConfig
smallExTensor()
{
    accel::ExTensorConfig cfg;
    cfg.pes = 4;
    cfg.tileK1 = 16;
    cfg.tileK0 = 4;
    cfg.tileM1 = 16;
    cfg.tileM0 = 4;
    cfg.tileN1 = 16;
    cfg.tileN0 = 4;
    cfg.llcBytes = 256 * 1024;
    return cfg;
}

accel::OuterSpaceConfig
smallOuterSpace()
{
    accel::OuterSpaceConfig cfg;
    cfg.chunkOuter = 32;
    cfg.chunkInner = 8;
    cfg.mergeChunkOuter = 16;
    cfg.mergeChunkInner = 4;
    return cfg;
}

accel::SigmaConfig
smallSigma()
{
    accel::SigmaConfig cfg;
    cfg.kTile = 16;
    cfg.stationaryChunk = 64;
    return cfg;
}

struct TestMatrices
{
    ft::Tensor a;
    ft::Tensor b;
};

TestMatrices
makeMatrices(std::uint64_t seed)
{
    return {workloads::uniformMatrix("A", 40, 32, 300, seed, {"K", "M"}),
            workloads::uniformMatrix("B", 40, 36, 300, seed + 1,
                                     {"K", "N"})};
}

/**
 * Byte-exact EinsumRecord comparison. EXPECT_EQ on doubles is an
 * exact (not ULP-tolerant) comparison on purpose: the split model's
 * guarantee is bit-identity, resting on every model sum being a
 * dyadic rational.
 */
void
expectIdenticalRecords(const SimulationResult& x,
                       const SimulationResult& y, const char* what)
{
    ASSERT_EQ(x.records.size(), y.records.size()) << what;
    for (std::size_t i = 0; i < x.records.size(); ++i) {
        const model::EinsumRecord& a = x.records[i];
        const model::EinsumRecord& b = y.records[i];
        SCOPED_TRACE(std::string(what) + ", einsum " +
                     std::to_string(i) + " (" + a.output + ")");

        EXPECT_TRUE(a.execStats == b.execStats);
        EXPECT_EQ(a.traceEvents, b.traceEvents);
        EXPECT_EQ(a.traceBatches, b.traceBatches);
        EXPECT_EQ(a.loopOrder, b.loopOrder);
        EXPECT_EQ(a.temporalPrefix, b.temporalPrefix);
        EXPECT_EQ(a.nonStorageComponents, b.nonStorageComponents);

        // Every component row: same set, same class/instances, same
        // counter rows (keys AND exact values), same per-PE loads.
        ASSERT_EQ(a.components.size(), b.components.size());
        for (const auto& [name, ca] : a.components) {
            const auto it = b.components.find(name);
            ASSERT_NE(it, b.components.end()) << name;
            const model::ComponentActions& cb = it->second;
            EXPECT_EQ(ca.cls, cb.cls) << name;
            EXPECT_EQ(ca.instances, cb.instances) << name;
            EXPECT_EQ(ca.counts, cb.counts) << name;
            EXPECT_TRUE(ca.perPe == cb.perPe)
                << name << ": per-PE loads differ";
        }

        // Every traffic row, including partial-output bytes.
        ASSERT_EQ(a.traffic.size(), b.traffic.size());
        for (const auto& [tensor, ta] : a.traffic) {
            const auto it = b.traffic.find(tensor);
            ASSERT_NE(it, b.traffic.end()) << tensor;
            EXPECT_EQ(ta.readBytes, it->second.readBytes) << tensor;
            EXPECT_EQ(ta.writeBytes, it->second.writeBytes) << tensor;
            EXPECT_EQ(ta.poBytes, it->second.poBytes) << tensor;
        }
    }
    EXPECT_EQ(x.perf.totalSeconds, y.perf.totalSeconds) << what;
    EXPECT_EQ(x.energy.totalJoules, y.energy.totalJoules) << what;
}

SimulationResult
runAt(CompiledModel& model, const Workload& w, unsigned threads)
{
    RunOptions opts;
    opts.threads = threads;
    return model.run(w, opts);
}

/** Pointer backend: records byte-identical at threads 1/2/4. */
void
expectModelEquivalence(compiler::Specification spec)
{
    const TestMatrices m = makeMatrices(23);
    auto model = compiler::compile(std::move(spec));
    Workload w;
    w.add("A", m.a).add("B", m.b);

    const SimulationResult t1 = runAt(model, w, 1);
    const SimulationResult t2 = runAt(model, w, 2);
    const SimulationResult t4 = runAt(model, w, 4);
    expectIdenticalRecords(t1, t2, "threads 1 vs 2");
    expectIdenticalRecords(t1, t4, "threads 1 vs 4");
}

/** Packed backend: same guarantee over packed rank stores. */
void
expectPackedModelEquivalence(compiler::Specification spec)
{
    const TestMatrices m = makeMatrices(29);
    auto model = compiler::compile(std::move(spec));

    const auto packedA = storage::PackedTensor::fromTensor(
        m.a, model.spec().formats.getLenient("A"));
    const auto packedB = storage::PackedTensor::fromTensor(
        m.b, model.spec().formats.getLenient("B"));
    Workload w;
    w.add("A", packedA).add("B", packedB);

    const SimulationResult t1 = runAt(model, w, 1);
    const SimulationResult t2 = runAt(model, w, 2);
    const SimulationResult t4 = runAt(model, w, 4);
    expectIdenticalRecords(t1, t2, "packed threads 1 vs 2");
    expectIdenticalRecords(t1, t4, "packed threads 1 vs 4");
}

// ---------------------------------------- Table 1, pointer backend

TEST(ModelParallel, GammaPointerThreads124)
{
    expectModelEquivalence(accel::gamma(smallGamma()));
}

TEST(ModelParallel, ExTensorPointerThreads124)
{
    expectModelEquivalence(accel::extensor(smallExTensor()));
}

TEST(ModelParallel, OuterSpacePointerThreads124)
{
    expectModelEquivalence(accel::outerSpace(smallOuterSpace()));
}

TEST(ModelParallel, SigmaPointerThreads124)
{
    // Contraction-outermost Z splits output-keyed below its chunk
    // loop, each slice owning a range of m: the split model's
    // counters stay bit-identical across slices that share K1 nodes.
    expectModelEquivalence(accel::sigma(smallSigma()));
}

// ----------------------------------------- Table 1, packed backend

TEST(ModelParallel, GammaPackedThreads124)
{
    expectPackedModelEquivalence(accel::gamma(smallGamma()));
}

TEST(ModelParallel, ExTensorPackedThreads124)
{
    expectPackedModelEquivalence(accel::extensor(smallExTensor()));
}

TEST(ModelParallel, OuterSpacePackedThreads124)
{
    expectPackedModelEquivalence(accel::outerSpace(smallOuterSpace()));
}

TEST(ModelParallel, SigmaPackedThreads124)
{
    expectPackedModelEquivalence(accel::sigma(smallSigma()));
}

// ------------------------------------------------ trace diagnostics

/**
 * Trace-bus diagnostics sum correctly across shards: the sharded
 * run's traceEvents/traceBatches — shard-consumed datapath records
 * plus coordinator-replayed storage records — equal the serial run's
 * totals, and are non-trivial.
 */
TEST(ModelParallel, TraceDiagnosticsSumAcrossShards)
{
    const TestMatrices m = makeMatrices(37);
    auto model = compiler::compile(accel::extensor(smallExTensor()));
    Workload w;
    w.add("A", m.a).add("B", m.b);

    const SimulationResult serial = runAt(model, w, 1);
    const SimulationResult sharded = runAt(model, w, 4);
    ASSERT_EQ(serial.records.size(), sharded.records.size());
    for (std::size_t i = 0; i < serial.records.size(); ++i) {
        EXPECT_GT(serial.records[i].traceEvents, 0u) << i;
        EXPECT_GT(serial.records[i].traceBatches, 0u) << i;
        EXPECT_EQ(serial.records[i].traceEvents,
                  sharded.records[i].traceEvents)
            << i;
        EXPECT_EQ(serial.records[i].traceBatches,
                  sharded.records[i].traceBatches)
            << i;
    }
    EXPECT_EQ(serial.perf.traceEvents, sharded.perf.traceEvents);
    EXPECT_EQ(serial.perf.traceBatches, sharded.perf.traceBatches);
}

// --------------------------------------------------- PeLoadVector

TEST(ModelParallel, PeLoadVectorSortedInsertAndMax)
{
    model::PeLoadVector v;
    v[7] = 3.0;
    v[2] = 5.0;
    v.add(7, 1.0);
    v[11] += 0.5;
    EXPECT_EQ(v.size(), 3u);
    EXPECT_EQ(v.maxLoad(), 5.0);

    // Iteration order is ascending by PE id, by construction.
    std::vector<std::uint64_t> ids;
    for (const auto& [pe, load] : v)
        ids.push_back(pe);
    EXPECT_EQ(ids, (std::vector<std::uint64_t>{2, 7, 11}));
}

TEST(ModelParallel, PeLoadVectorMergeIsElementWise)
{
    model::PeLoadVector a;
    a[0] = 1.0;
    a[3] = 2.0;
    model::PeLoadVector b;
    b[3] = 4.0;
    b[5] = 8.0;
    a.merge(b);
    EXPECT_EQ(a.size(), 3u);
    EXPECT_EQ(a[0], 1.0);
    EXPECT_EQ(a[3], 6.0);
    EXPECT_EQ(a[5], 8.0);
    EXPECT_EQ(a.maxLoad(), 8.0);
}

} // namespace
} // namespace teaal
