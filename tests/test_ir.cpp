/**
 * @file
 * White-box tests of the simulator generator (ir::buildPlan): loop
 * rank metadata, per-tensor actions, concordance-swizzle inference,
 * and error reporting — checked against the paper's own mappings.
 */
#include <gtest/gtest.h>

#include "exec/executor.hpp"
#include "fibertree/transform.hpp"
#include "ir/plan.hpp"
#include "util/random.hpp"
#include "workloads/datasets.hpp"
#include "yaml/yaml.hpp"

namespace teaal::ir
{
namespace
{

using einsum::EinsumSpec;
using mapping::MappingSpec;

std::map<std::string, ft::Tensor>
spmspmTensors(ft::Coord k = 32, ft::Coord m = 24, ft::Coord n = 28)
{
    std::map<std::string, ft::Tensor> t;
    t.emplace("A", workloads::uniformMatrix("A", k, m, 200, 1,
                                            {"K", "M"}));
    t.emplace("B", workloads::uniformMatrix("B", k, n, 200, 2,
                                            {"K", "N"}));
    return t;
}

const LevelAction*
actionFor(const TensorPlan& tp, LevelAction::Mode mode, int level)
{
    for (const LevelAction& a : tp.actions) {
        if (a.mode == mode && a.level == level)
            return &a;
    }
    return nullptr;
}

TEST(IrBuilder, PlainMatmulDefaultLoopOrder)
{
    const auto es = EinsumSpec::parse(yaml::parse(
        "declaration:\n  A: [K, M]\n  B: [K, N]\n  Z: [M, N]\n"
        "expressions:\n  - Z[m, n] = A[k, m] * B[k, n]\n"));
    const auto plan =
        buildPlan(es.expressions[0], es, {}, spmspmTensors(), {});
    // Default order: output vars then reduction vars -> [M, N, K].
    ASSERT_EQ(plan.loops.size(), 3u);
    EXPECT_EQ(plan.loops[0].name, "M");
    EXPECT_EQ(plan.loops[1].name, "N");
    EXPECT_EQ(plan.loops[2].name, "K");
    // A [K, M] must be swizzled to [M, K] for concordant traversal.
    const TensorPlan& a = plan.inputs[0];
    EXPECT_TRUE(a.swizzled);
    EXPECT_FALSE(a.swizzleOnline); // input, offline preprocessing
    EXPECT_EQ(a.rankIds(),
              (std::vector<std::string>{"M", "K"}));
    // Output produced directly in declared order.
    EXPECT_FALSE(plan.output.needsReorder);
}

TEST(IrBuilder, OuterSpaceMultiplyPhasePlan)
{
    const auto es = EinsumSpec::parse(yaml::parse(
        "declaration:\n  A: [K, M]\n  B: [K, N]\n  T: [K, M, N]\n"
        "  Z: [M, N]\n"
        "expressions:\n  - T[k, m, n] = A[k, m] * B[k, n]\n"
        "  - Z[m, n] = T[k, m, n]\n"));
    const auto ms = MappingSpec::parse(yaml::parse(
        "rank-order:\n  T: [M, K, N]\n"
        "partitioning:\n  T:\n    (K, M): [flatten()]\n"
        "    KM: [uniform_occupancy(A.16), uniform_occupancy(A.4)]\n"
        "loop-order:\n  T: [KM2, KM1, KM0, N]\n"
        "spacetime:\n  T:\n    space: [KM1, KM0]\n"
        "    time: [KM2, N]\n"));
    const auto plan = buildPlan(es.expressions[0], es, ms,
                                spmspmTensors(), {});

    // Loop metadata: KM2/KM1 are ranges, KM0 binds k and m by
    // unpacking the packed coordinate.
    EXPECT_TRUE(plan.loops[0].isUpperPartition);
    EXPECT_TRUE(plan.loops[1].isUpperPartition);
    EXPECT_TRUE(plan.loops[1].isSpace);
    EXPECT_EQ(plan.loops[1].spaceExtent, 4u); // 16/4 chunks
    const LoopRank& km0 = plan.loops[2];
    EXPECT_FALSE(km0.isUpperPartition);
    EXPECT_TRUE(km0.isSpace);
    EXPECT_EQ(km0.spaceExtent, 4u);
    EXPECT_EQ(km0.bindsVars, (std::vector<std::string>{"k", "m"}));
    ASSERT_EQ(km0.unpackStrides.size(), 2u);
    EXPECT_EQ(km0.unpackStrides[0], 24); // k stride = |M|
    EXPECT_EQ(km0.unpackStrides[1], 1);

    // A is the flattened+partitioned leader, fully co-iterated.
    const TensorPlan& a = plan.inputs[0];
    EXPECT_EQ(a.rankIds(),
              (std::vector<std::string>{"KM2", "KM1", "KM0"}));
    EXPECT_NE(actionFor(a, LevelAction::Mode::CoIterate, 0), nullptr);
    EXPECT_NE(actionFor(a, LevelAction::Mode::CoIterate, 2), nullptr);

    // B keeps [K, N]: K is looked up by the unpacked k at KM0.
    const TensorPlan& b = plan.inputs[1];
    EXPECT_EQ(b.rankIds(),
              (std::vector<std::string>{"K", "N"}));
    const LevelAction* lookup =
        actionFor(b, LevelAction::Mode::Lookup, 0);
    ASSERT_NE(lookup, nullptr);
    EXPECT_EQ(lookup->loopIndex, 2);
    EXPECT_EQ(lookup->expr.vars, (std::vector<std::string>{"k"}));

    // T produced [K, M, N] but stored [M, K, N]: reorder required.
    EXPECT_EQ(plan.output.productionOrder,
              (std::vector<std::string>{"K", "M", "N"}));
    EXPECT_TRUE(plan.output.needsReorder);
}

TEST(IrBuilder, GammaMergePhaseInfersOnlineSwizzle)
{
    const auto es = EinsumSpec::parse(yaml::parse(
        "declaration:\n  A: [K, M]\n  B: [K, N]\n  T: [K, M, N]\n"
        "  Z: [M, N]\n"
        "expressions:\n"
        "  - T[k, m, n] = take(A[k, m], B[k, n], 1)\n"
        "  - Z[m, n] = T[k, m, n] * A[k, m]\n"));
    const auto ms = MappingSpec::parse(yaml::parse(
        "rank-order:\n  A: [M, K]\n  T: [M, K, N]\n"
        "partitioning:\n"
        "  Z:\n    M: [uniform_occupancy(A.4)]\n"
        "    K: [uniform_occupancy(A.8)]\n"
        "loop-order:\n  Z: [M1, M0, K1, N, K0]\n"
        "spacetime:\n  Z:\n    space: [M0, K1]\n"
        "    time: [M1, N, K0]\n"));

    auto tensors = spmspmTensors();
    tensors.at("A") = ft::swizzle(tensors.at("A"), {"M", "K"});
    // Fake an intermediate T stored [M, K, N].
    tensors.emplace("T", ft::Tensor("T", {"M", "K", "N"}, {24, 32, 28}));
    const std::vector<ft::Coord> p{3, 5, 7};
    tensors.at("T").set(p, 1.0);

    const auto plan =
        buildPlan(es.expressions[1], es, ms, tensors, {"T"});

    // T must be swizzled [M,K,N] -> [M,N,K]: online (it is an
    // intermediate), charged to the merger — Gamma's merge step.
    const TensorPlan* t = nullptr;
    for (const TensorPlan& tp : plan.inputs) {
        if (tp.name == "T")
            t = &tp;
    }
    ASSERT_NE(t, nullptr);
    EXPECT_TRUE(t->swizzled);
    EXPECT_TRUE(t->swizzleOnline);
    EXPECT_EQ(t->rankIds(),
              (std::vector<std::string>{"M", "N", "K"}));
    // T follows A's occupancy boundaries: Slice at M1/K1.
    EXPECT_NE(actionFor(*t, LevelAction::Mode::Slice, 0), nullptr);
    EXPECT_NE(actionFor(*t, LevelAction::Mode::Slice, 2), nullptr);
}

TEST(IrBuilder, TakeProbeRanksMarked)
{
    const auto es = EinsumSpec::parse(yaml::parse(
        "declaration:\n  A: [K, M]\n  B: [K, N]\n  S: [K, M]\n"
        "expressions:\n  - S[k, m] = take(A[k, m], B[k, n], 0)\n"));
    const auto plan =
        buildPlan(es.expressions[0], es, {}, spmspmTensors(), {});
    // N is private to the non-copied operand: probe only.
    bool found = false;
    for (const LoopRank& lr : plan.loops) {
        if (lr.name == "N") {
            EXPECT_TRUE(lr.probeOnly);
            found = true;
        } else {
            EXPECT_FALSE(lr.probeOnly);
        }
    }
    EXPECT_TRUE(found);
}

TEST(IrBuilder, DenseDriveForConvolutionOutput)
{
    const auto es = EinsumSpec::parse(yaml::parse(
        "declaration:\n  I: [W]\n  F: [S]\n  O: [Q]\n"
        "expressions:\n  - O[q] = I[q+s] * F[s]\n"));
    std::map<std::string, ft::Tensor> tensors;
    tensors.emplace("I", ft::Tensor("I", {"W"}, {20}));
    tensors.emplace("F", ft::Tensor("F", {"S"}, {4}));
    const auto plan =
        buildPlan(es.expressions[0], es, {}, tensors, {});
    // Q has no driving tensor: dense range W - S + 1 = 17.
    ASSERT_EQ(plan.loops[0].name, "Q");
    EXPECT_EQ(plan.loops[0].denseExtent, 17);
    // I is accessed through an affine lookup triggered at S.
    const TensorPlan& i = plan.inputs[0];
    ASSERT_EQ(i.actions.size(), 1u);
    EXPECT_EQ(i.actions[0].mode, LevelAction::Mode::Lookup);
    EXPECT_EQ(i.actions[0].expr.vars,
              (std::vector<std::string>{"q", "s"}));
}

TEST(IrBuilder, ErrorsAreSpecErrors)
{
    const auto es = EinsumSpec::parse(yaml::parse(
        "declaration:\n  A: [K, M]\n  B: [K, N]\n  Z: [M, N]\n"
        "expressions:\n  - Z[m, n] = A[k, m] * B[k, n]\n"));
    auto tensors = spmspmTensors();

    // Space rank not in the loop order.
    {
        mapping::MappingSpec ms;
        mapping::EinsumMapping em;
        em.loopOrder = {"M", "N", "K"};
        em.space = {{"Q", false}};
        em.time = {{"M", false}, {"N", false}, {"K", false}};
        ms.setEinsum("Z", em);
        EXPECT_THROW(buildPlan(es.expressions[0], es, ms, tensors, {}),
                     SpecError);
    }
    // Partitioned rank missing from the loop order.
    {
        mapping::MappingSpec ms;
        mapping::EinsumMapping em;
        mapping::RankPartitioning rp;
        rp.sourceRanks = {"K"};
        rp.directives = {mapping::PartitionDirective::parse(
            "uniform_occupancy(A.8)", {})};
        em.partitioning.push_back(rp);
        em.loopOrder = {"M", "N", "K0"}; // K1 missing
        ms.setEinsum("Z", em);
        EXPECT_THROW(buildPlan(es.expressions[0], es, ms, tensors, {}),
                     SpecError);
    }
    // Tensor without data.
    {
        std::map<std::string, ft::Tensor> missing;
        missing.emplace("A", tensors.at("A").clone());
        EXPECT_THROW(
            buildPlan(es.expressions[0], es, {}, missing, {}),
            SpecError);
    }
}

TEST(IrBuilder, PlanToStringMentionsEverything)
{
    const auto es = EinsumSpec::parse(yaml::parse(
        "declaration:\n  A: [K, M]\n  B: [K, N]\n  Z: [M, N]\n"
        "expressions:\n  - Z[m, n] = A[k, m] * B[k, n]\n"));
    const auto plan =
        buildPlan(es.expressions[0], es, {}, spmspmTensors(), {});
    const std::string text = plan.toString();
    EXPECT_NE(text.find("Z[m,n]"), std::string::npos);
    EXPECT_NE(text.find("loops: M N K"), std::string::npos);
    EXPECT_NE(text.find("output Z"), std::string::npos);
}

TEST(IrBuilder, SigmaFlattenOfDerivedRank)
{
    // SIGMA flattens (M, K0) where K0 came from an earlier shape
    // split — the derived-rank chain of Figure 8c.
    const auto es = EinsumSpec::parse(yaml::parse(
        "declaration:\n  T: [K, M]\n  B: [K, N]\n  Z: [M, N]\n"
        "expressions:\n  - Z[m, n] = T[k, m] * B[k, n]\n"));
    const auto ms = MappingSpec::parse(yaml::parse(
        "partitioning:\n"
        "  Z:\n"
        "    K: [uniform_shape(8)]\n"
        "    (M, K0): [flatten()]\n"
        "    MK0: [uniform_occupancy(T.16)]\n"
        "loop-order:\n  Z: [K1, MK01, MK00, N]\n"
        "spacetime:\n  Z:\n    space: [MK00]\n"
        "    time: [K1, MK01, N.coord]\n"));
    std::map<std::string, ft::Tensor> tensors;
    tensors.emplace("T", workloads::uniformMatrix("T", 32, 24, 150, 3,
                                                  {"K", "M"}));
    tensors.emplace("B", workloads::uniformMatrix("B", 32, 28, 150, 4,
                                                  {"K", "N"}));
    const auto plan =
        buildPlan(es.expressions[0], es, ms, tensors, {});
    // The leader T materializes [K1, MK01, MK00].
    EXPECT_EQ(plan.inputs[0].rankIds(),
              (std::vector<std::string>{"K1", "MK01", "MK00"}));
    // MK00 binds m and k (the base variable of the derived K0).
    const LoopRank& mk00 = plan.loops[2];
    ASSERT_EQ(mk00.bindsVars.size(), 2u);
    EXPECT_EQ(mk00.bindsVars[0], "m");
    EXPECT_EQ(mk00.bindsVars[1], "k");
    EXPECT_TRUE(mk00.isSpace);
    // N time entry keeps its .coord tag.
    EXPECT_TRUE(plan.loops[3].coordSpace ||
                !plan.loops[3].isSpace); // tag recorded on entry
}

/// Mapped execution equals unmapped execution for random mappings of
/// the same Einsum: shape partitioning with random tile sizes.
class RandomShapeMapping : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomShapeMapping, TilingNeverChangesResults)
{
    Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) + 77);
    const auto es = EinsumSpec::parse(yaml::parse(
        "declaration:\n  A: [K, M]\n  B: [K, N]\n  Z: [M, N]\n"
        "expressions:\n  - Z[m, n] = A[k, m] * B[k, n]\n"));
    auto tensors = spmspmTensors(40, 30, 35);

    // Random tile sizes for K and M.
    const long tk = 2 + static_cast<long>(rng.below(12));
    const long tm = 2 + static_cast<long>(rng.below(12));
    mapping::MappingSpec ms;
    mapping::EinsumMapping em;
    {
        mapping::RankPartitioning k;
        k.sourceRanks = {"K"};
        k.directives = {mapping::PartitionDirective::parse(
            "uniform_shape(" + std::to_string(tk) + ")", {})};
        mapping::RankPartitioning m;
        m.sourceRanks = {"M"};
        m.directives = {mapping::PartitionDirective::parse(
            "uniform_shape(" + std::to_string(tm) + ")", {})};
        em.partitioning = {k, m};
        em.loopOrder = {"M1", "K1", "M0", "N", "K0"};
    }
    ms.setEinsum("Z", em);

    teaal::trace::Observer obs;
    const auto mapped_plan =
        buildPlan(es.expressions[0], es, ms, tensors, {});
    teaal::exec::Executor mapped(mapped_plan, obs);
    const ft::Tensor mz = mapped.run();

    const auto plain_plan =
        buildPlan(es.expressions[0], es, {}, tensors, {});
    teaal::exec::Executor plain(plain_plan, obs);
    const ft::Tensor pz = plain.run();

    EXPECT_TRUE(mz.equals(pz, 1e-9)) << "tiles " << tk << "x" << tm;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomShapeMapping,
                         ::testing::Range(0, 10));

} // namespace
} // namespace teaal::ir
