/**
 * @file
 * End-to-end tests: the four accelerator specifications compile to
 * models whose results match the Gustavson oracle and whose action
 * counts / traffic / timing behave as the designs should (paper
 * §5-§7 qualitative properties).
 */
#include <gtest/gtest.h>

#include "accelerators/accelerators.hpp"
#include "baselines/baselines.hpp"
#include "compiler/pipeline.hpp"
#include "fibertree/transform.hpp"
#include "workloads/datasets.hpp"

namespace teaal
{
namespace
{

using compiler::CompiledModel;
using compiler::SimulationResult;
using compiler::Workload;

/** Small scaled-down configs so tests stay fast. */
accel::OuterSpaceConfig
smallOuterSpace()
{
    accel::OuterSpaceConfig cfg;
    cfg.processingTiles = 4;
    cfg.pesPerTileMultiply = 4;
    cfg.pesPerTileMerge = 2;
    cfg.chunkOuter = 16;
    cfg.chunkInner = 4;
    cfg.mergeChunkOuter = 8;
    cfg.mergeChunkInner = 2;
    cfg.l0CacheBytes = 4096;
    return cfg;
}

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

accel::SigmaConfig
smallSigma()
{
    accel::SigmaConfig cfg;
    cfg.flexDpes = 2;
    cfg.pesPerDpe = 4;
    cfg.kTile = 8;
    cfg.stationaryChunk = 8;
    return cfg;
}

struct TestMatrices
{
    ft::Tensor a;
    ft::Tensor b;
    ft::Tensor ref;
};

TestMatrices
makeMatrices(std::uint64_t seed, ft::Coord k = 40, ft::Coord m = 32,
             ft::Coord n = 36, std::size_t nnz = 300)
{
    TestMatrices out{
        workloads::uniformMatrix("A", k, m, nnz, seed, {"K", "M"}),
        workloads::uniformMatrix("B", k, n, nnz, seed + 1, {"K", "N"}),
        ft::Tensor()};
    out.ref = baselines::gustavsonSpmspm(out.a, out.b);
    return out;
}

/** The operand workload (borrowed). */
Workload
workloadOf(const TestMatrices& mats)
{
    Workload w;
    w.add("A", mats.a).add("B", mats.b);
    return w;
}

TEST(Compiler, OuterSpaceEndToEnd)
{
    const CompiledModel model =
        compiler::compile(accel::outerSpace(smallOuterSpace()));
    auto mats = makeMatrices(1);
    const SimulationResult result = model.run(workloadOf(mats));

    // Functional correctness.
    EXPECT_TRUE(result.result(model.spec()).equals(mats.ref, 1e-9));

    // OuterSPACE's phases do not fuse (different topologies).
    ASSERT_EQ(result.blocks.size(), 2u);

    // T goes through DRAM: written by multiply, read by merge.
    const auto t = result.traffic.find("T");
    ASSERT_NE(t, result.traffic.end());
    EXPECT_GT(t->second.writeBytes, 0);
    EXPECT_GT(t->second.readBytes, 0);

    // A is streamed once: traffic close to its footprint.
    const double a_bytes = static_cast<double>(fmt::tensorBits(
                               model.spec().formats.get("A", "CSC"),
                               mats.a)) /
                           8.0;
    const auto& a_traffic = result.traffic.at("A");
    EXPECT_GT(a_traffic.readBytes, 0.5 * a_bytes);
    EXPECT_LT(a_traffic.readBytes, 2.0 * a_bytes);

    // The merge phase exercises the sort network.
    bool merge_seen = false;
    for (const auto& record : result.records) {
        const auto it = record.components.find("SortNet");
        if (it != record.components.end() &&
            it->second.count("merge_elems") > 0)
            merge_seen = true;
    }
    EXPECT_TRUE(merge_seen);

    EXPECT_GT(result.perf.totalSeconds, 0);
    EXPECT_GT(result.energy.totalJoules, 0);
}

TEST(Compiler, GammaEndToEnd)
{
    const CompiledModel model =
        compiler::compile(accel::gamma(smallGamma()));
    auto mats = makeMatrices(2);
    const SimulationResult result = model.run(workloadOf(mats));

    EXPECT_TRUE(result.result(model.spec()).equals(mats.ref, 1e-9));

    // Gamma's two Einsums fuse; T never reaches DRAM.
    ASSERT_EQ(result.blocks.size(), 1u);
    EXPECT_EQ(result.blocks[0], (std::vector<std::size_t>{0, 1}));
    const auto t = result.traffic.find("T");
    if (t != result.traffic.end()) {
        EXPECT_DOUBLE_EQ(t->second.readBytes, 0);
        EXPECT_DOUBLE_EQ(t->second.writeBytes, 0);
    }

    // A read once (shared through the fused pipeline).
    const double a_bytes = static_cast<double>(fmt::tensorBits(
                               model.spec().formats.get("A", "CSR"),
                               ft::swizzle(mats.a, {"M", "K"}))) /
                           8.0;
    EXPECT_LT(result.traffic.at("A").readBytes, 1.5 * a_bytes);

    // The 64-way merger does the T swizzle in one pass per element.
    bool merger_used = false;
    for (const auto& record : result.records) {
        const auto it = record.components.find("TopMerger");
        if (it != record.components.end() &&
            it->second.count("merge_elems") > 0)
            merger_used = true;
    }
    EXPECT_TRUE(merger_used);
}

TEST(Compiler, ExTensorEndToEnd)
{
    const CompiledModel model =
        compiler::compile(accel::extensor(smallExTensor()));
    auto mats = makeMatrices(3);
    const SimulationResult result = model.run(workloadOf(mats));

    EXPECT_TRUE(result.result(model.spec()).equals(mats.ref, 1e-9));

    // Single Einsum -> single block; skip-ahead intersections counted.
    ASSERT_EQ(result.blocks.size(), 1u);
    const auto& record = result.records[0];
    const auto isect = record.components.find("SkipAhead");
    ASSERT_NE(isect, record.components.end());
    EXPECT_GT(isect->second.count("steps"), 0);
    EXPECT_GE(isect->second.count("steps"),
              isect->second.count("matches"));

    // Partial outputs spill across K2 tiles (PO of Figure 9a).
    EXPECT_GE(result.traffic.at("Z").poBytes, 0);
    EXPECT_GT(result.traffic.at("Z").writeBytes, 0);
}

TEST(Compiler, SigmaEndToEnd)
{
    const CompiledModel model =
        compiler::compile(accel::sigma(smallSigma()));
    auto mats = makeMatrices(4, 32, 24, 20, 250);
    const SimulationResult result = model.run(workloadOf(mats));

    EXPECT_TRUE(result.result(model.spec()).equals(mats.ref, 1e-9));
    EXPECT_EQ(result.records.size(), 3u); // S, T, Z

    // The filter stages produce bitmap metadata: tiny traffic
    // relative to the multiply stage's B streaming.
    const double st_traffic = result.traffic.count("S")
                                  ? result.traffic.at("S").total()
                                  : 0;
    EXPECT_LT(st_traffic, result.traffic.at("B").total());
}

TEST(Compiler, EffectualComputeMatchesOracle)
{
    // The executor's multiply count must equal the Gustavson count
    // (ineffectual compute skipped -- the whole point of sparsity).
    auto mats = makeMatrices(5);
    const auto work = baselines::countSpmspmWork(mats.a, mats.b);
    const CompiledModel model =
        compiler::compile(accel::extensor(smallExTensor()));
    const SimulationResult result = model.run(workloadOf(mats));
    EXPECT_EQ(result.records[0].execStats.computeMuls, work.mults);
}

TEST(Compiler, AlgorithmicMinIsLowerBound)
{
    auto mats = makeMatrices(6);
    const Workload w = workloadOf(mats);
    for (auto spec : {accel::outerSpace(smallOuterSpace()),
                      accel::gamma(smallGamma()),
                      accel::extensor(smallExTensor())}) {
        const CompiledModel model = compiler::compile(std::move(spec));
        const SimulationResult result = model.run(w);
        const double min_bytes = model.algorithmicMinBytes(w, result);
        EXPECT_GT(min_bytes, 0);
        // Total traffic can never beat the compulsory traffic by more
        // than the coordinate-metadata differences; use 0.5x as a
        // sanity floor.
        EXPECT_GT(result.totalTrafficBytes(), 0.5 * min_bytes);
    }
}

TEST(Compiler, MissingInputThrows)
{
    const CompiledModel model =
        compiler::compile(accel::gamma(smallGamma()));
    auto mats = makeMatrices(7);
    Workload w;
    w.add("A", mats.a);
    EXPECT_THROW(model.run(w), SpecError);
}

TEST(Compiler, SpecificationParseRejectsGarbage)
{
    EXPECT_THROW(compiler::Specification::parse("nonsense: {"),
                 SpecError);
    EXPECT_THROW(compiler::Specification::parse("einsum:\n  x: 1\n"),
                 SpecError);
}

/// The same workload on all three SpMSpM accelerators produces the
/// same result tensor (cross-accelerator agreement).
TEST(Compiler, CrossAcceleratorAgreement)
{
    auto mats = makeMatrices(8);
    std::map<std::string, ft::Tensor> outs;
    const Workload w = workloadOf(mats);
    for (auto [key, spec] :
         {std::pair{"os", accel::outerSpace(smallOuterSpace())},
          std::pair{"gm", accel::gamma(smallGamma())},
          std::pair{"sg", accel::sigma(smallSigma())}}) {
        const CompiledModel model = compiler::compile(std::move(spec));
        outs.emplace(key, model.run(w).result(model.spec()).clone());
    }
    EXPECT_TRUE(outs.at("os").equals(outs.at("gm"), 1e-9));
    EXPECT_TRUE(outs.at("os").equals(outs.at("sg"), 1e-9));
    EXPECT_TRUE(outs.at("os").equals(mats.ref, 1e-9));
}

} // namespace
} // namespace teaal
