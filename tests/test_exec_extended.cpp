/**
 * @file
 * Extended executor coverage: the Eyeriss 4-D convolution Einsum
 * (two affine index expressions), dot products (scalar output),
 * the Cooley-Tukey FFT-step cascade (constant indices), the
 * factorized-MTTKRP equivalence (Table 2 rows executed, not just
 * parsed), co-iteration strategy equivalence (two-finger, gallop,
 * and dense-drive must agree functionally on any plan), and the
 * batched trace bus (>= 10x fewer virtual calls; a run without model
 * hooks shards with the serial run's stream).
 */
#include <gtest/gtest.h>

#include <map>

#include "exec/executor.hpp"
#include "ir/plan.hpp"
#include "support.hpp"
#include "trace/batch.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"
#include "yaml/yaml.hpp"

namespace teaal
{
namespace
{

using ft::Coord;
using ft::Tensor;

Tensor
runCascade(const std::string& einsum_yaml,
           std::map<std::string, Tensor> tensors)
{
    const auto spec =
        einsum::EinsumSpec::parse(yaml::parse(einsum_yaml));
    trace::Observer obs;
    std::vector<std::string> produced;
    Tensor result;
    for (const auto& e : spec.expressions) {
        const auto plan = ir::buildPlan(e, spec, {}, tensors, produced);
        exec::Executor ex(plan, obs);
        result = ex.run();
        tensors.insert_or_assign(e.output.name, result.clone());
        produced.push_back(e.output.name);
    }
    return result;
}

TEST(ExecExtended, EyerissConvMatchesBruteForce)
{
    // O[b,m,p,q] = I[b,c,p+r,q+s] * F[c,m,r,s] (Table 2, Eyeriss).
    const char* einsum =
        "declaration:\n"
        "  I: [B, C, H, W]\n"
        "  F: [C, M, R, S]\n"
        "  O: [B, M, P, Q]\n"
        "expressions:\n"
        "  - O[b, m, p, q] = I[b, c, p+r, q+s] * F[c, m, r, s]\n";
    const Coord B = 2, C = 3, H = 6, W = 7, M = 2, R = 2, S = 3;
    const Coord P = H - R + 1, Q = W - S + 1;

    Xoshiro256 rng(55);
    Tensor input("I", {"B", "C", "H", "W"}, {B, C, H, W});
    Tensor filter("F", {"C", "M", "R", "S"}, {C, M, R, S});
    for (Coord b = 0; b < B; ++b)
        for (Coord c = 0; c < C; ++c)
            for (Coord h = 0; h < H; ++h)
                for (Coord w = 0; w < W; ++w)
                    if (rng.uniform() < 0.5) {
                        const std::vector<Coord> p{b, c, h, w};
                        input.set(p, 1.0 + rng.uniform());
                    }
    for (Coord c = 0; c < C; ++c)
        for (Coord m = 0; m < M; ++m)
            for (Coord r = 0; r < R; ++r)
                for (Coord s = 0; s < S; ++s)
                    if (rng.uniform() < 0.8) {
                        const std::vector<Coord> p{c, m, r, s};
                        filter.set(p, 0.5 + rng.uniform());
                    }

    const Tensor o = runCascade(
        einsum, {{"I", input.clone()}, {"F", filter.clone()}});

    for (Coord b = 0; b < B; ++b) {
        for (Coord m = 0; m < M; ++m) {
            for (Coord p = 0; p < P; ++p) {
                for (Coord q = 0; q < Q; ++q) {
                    double ref = 0;
                    for (Coord c = 0; c < C; ++c)
                        for (Coord r = 0; r < R; ++r)
                            for (Coord s = 0; s < S; ++s) {
                                const std::vector<Coord> pi{b, c, p + r,
                                                            q + s};
                                const std::vector<Coord> pf{c, m, r, s};
                                ref += input.at(pi) * filter.at(pf);
                            }
                    const std::vector<Coord> po{b, m, p, q};
                    ASSERT_NEAR(o.at(po), ref, 1e-9)
                        << b << "," << m << "," << p << "," << q;
                }
            }
        }
    }
}

TEST(ExecExtended, DotProductScalarOutput)
{
    const char* einsum = "declaration:\n"
                         "  A: [K]\n"
                         "  B: [K]\n"
                         "  Z: []\n"
                         "expressions:\n"
                         "  - Z[] = A[k] * B[k]\n";
    Tensor a("A", {"K"}, {10});
    Tensor b("B", {"K"}, {10});
    double ref = 0;
    for (Coord k = 0; k < 10; k += 2) {
        const std::vector<Coord> p{k};
        a.set(p, static_cast<double>(k + 1));
        b.set(p, 2.0);
        ref += static_cast<double>(k + 1) * 2.0;
    }
    const Tensor z =
        runCascade(einsum, {{"A", a.clone()}, {"B", b.clone()}});
    // Scalar results live at coordinate 0 of the internal rank.
    ASSERT_EQ(z.numRanks(), 1u);
    const std::vector<Coord> origin{0};
    EXPECT_DOUBLE_EQ(z.at(origin), ref);
}

TEST(ExecExtended, FftStepCascadeExecutes)
{
    // The Cooley-Tukey step of Table 2: constant indices select
    // twiddle planes; the final outputs are sum and difference.
    const char* einsum =
        "declaration:\n"
        "  P: [Z, K0, N1, W]\n"
        "  X: [N1, Z]\n"
        "  E0: [K0]\n"
        "  O0: [K0]\n"
        "  T: [K0]\n"
        "  Y0: [K0]\n"
        "  Y1: [K0]\n"
        "expressions:\n"
        "  - E0[k0] = P[0, k0, n1, 0] * X[n1, 0]\n"
        "  - O0[k0] = P[0, k0, n1, 0] * X[n1, 1]\n"
        "  - T[k0] = P[0, k0, 0, 1] * O0[k0]\n"
        "  - Y0[k0] = E0[k0] + T[k0]\n"
        "  - Y1[k0] = E0[k0] - T[k0]\n";

    const Coord K0 = 4, N1 = 2;
    Tensor p("P", {"Z", "K0", "N1", "W"}, {1, K0, N1, 2});
    Tensor x("X", {"N1", "Z"}, {N1, 2});
    Xoshiro256 rng(66);
    for (Coord k = 0; k < K0; ++k) {
        for (Coord n = 0; n < N1; ++n) {
            const std::vector<Coord> pp{0, k, n, 0};
            p.set(pp, 1.0 + rng.uniform());
        }
        const std::vector<Coord> tw{0, k, 0, 1};
        p.set(tw, 0.5 + rng.uniform()); // twiddle for T
    }
    for (Coord n = 0; n < N1; ++n) {
        const std::vector<Coord> even{n, 0}, odd{n, 1};
        x.set(even, 1.0 + rng.uniform());
        x.set(odd, 1.0 + rng.uniform());
    }

    const auto spec = einsum::EinsumSpec::parse(yaml::parse(einsum));
    trace::Observer obs;
    std::map<std::string, Tensor> tensors{{"P", p.clone()},
                                          {"X", x.clone()}};
    std::vector<std::string> produced;
    for (const auto& e : spec.expressions) {
        const auto plan = ir::buildPlan(e, spec, {}, tensors, produced);
        exec::Executor ex(plan, obs);
        tensors.insert_or_assign(e.output.name, ex.run());
        produced.push_back(e.output.name);
    }

    for (Coord k = 0; k < K0; ++k) {
        double e0 = 0, o0 = 0;
        for (Coord n = 0; n < N1; ++n) {
            const std::vector<Coord> pp{0, k, n, 0};
            const std::vector<Coord> xe{n, 0}, xo{n, 1};
            e0 += p.at(pp) * x.at(xe);
            o0 += p.at(pp) * x.at(xo);
        }
        const std::vector<Coord> tw{0, k, 0, 1};
        const double t = p.at(tw) * o0;
        const std::vector<Coord> pk{k};
        EXPECT_NEAR(tensors.at("Y0").at(pk), e0 + t, 1e-9);
        EXPECT_NEAR(tensors.at("Y1").at(pk), e0 - t, 1e-9);
    }
}

TEST(ExecExtended, FactorizedMttkrpEqualsDirect)
{
    // Table 2: factorized MTTKRP must equal the three-operand form.
    const char* direct =
        "declaration:\n"
        "  T: [I, J, K]\n  A: [K, R]\n  B: [J, R]\n  C: [I, R]\n"
        "expressions:\n"
        "  - C[i, r] = T[i, j, k] * B[j, r] * A[k, r]\n";
    const char* factorized =
        "declaration:\n"
        "  T: [I, J, K]\n  A: [K, R]\n  B: [J, R]\n"
        "  S: [I, J, R]\n  C: [I, R]\n"
        "expressions:\n"
        "  - S[i, j, r] = T[i, j, k] * A[k, r]\n"
        "  - C[i, r] = S[i, j, r] * B[j, r]\n";

    Xoshiro256 rng(77);
    std::vector<std::pair<std::vector<Coord>, double>> coo;
    for (Coord i = 0; i < 5; ++i)
        for (Coord j = 0; j < 4; ++j)
            for (Coord k = 0; k < 6; ++k)
                if (rng.uniform() < 0.4)
                    coo.push_back({{i, j, k}, 1.0 + rng.uniform()});
    const Tensor t =
        Tensor::fromCoo("T", {"I", "J", "K"}, {5, 4, 6}, coo);
    coo.clear();
    for (Coord k = 0; k < 6; ++k)
        for (Coord r = 0; r < 3; ++r)
            if (rng.uniform() < 0.8)
                coo.push_back({{k, r}, 1.0 + rng.uniform()});
    const Tensor a = Tensor::fromCoo("A", {"K", "R"}, {6, 3}, coo);
    coo.clear();
    for (Coord j = 0; j < 4; ++j)
        for (Coord r = 0; r < 3; ++r)
            if (rng.uniform() < 0.8)
                coo.push_back({{j, r}, 1.0 + rng.uniform()});
    const Tensor b = Tensor::fromCoo("B", {"J", "R"}, {4, 3}, coo);

    const Tensor c1 = runCascade(
        direct,
        {{"T", t.clone()}, {"A", a.clone()}, {"B", b.clone()}});
    const Tensor c2 = runCascade(
        factorized,
        {{"T", t.clone()}, {"A", a.clone()}, {"B", b.clone()}});
    EXPECT_TRUE(c1.equals(c2, 1e-9));
}

// ------------------------------------------ co-iteration strategies

Tensor
randomSparse(const std::string& name, const std::vector<std::string>& ids,
             Coord rows, Coord cols, double density, std::uint64_t seed)
{
    Xoshiro256 rng(seed);
    std::vector<std::pair<std::vector<Coord>, double>> coo;
    for (Coord r = 0; r < rows; ++r) {
        for (Coord c = 0; c < cols; ++c) {
            if (rng.uniform() < density)
                coo.push_back({{r, c}, 1.0 + rng.uniform()});
        }
    }
    return Tensor::fromCoo(name, ids, {rows, cols}, coo);
}

const char* kStrategyMatmul = "declaration:\n"
                              "  A: [K, M]\n"
                              "  B: [K, N]\n"
                              "  Z: [M, N]\n"
                              "expressions:\n"
                              "  - Z[m, n] = A[k, m] * B[k, n]\n";

/** Run @p plan with every loop forced to strategy @p s. */
Tensor
runForced(const ir::EinsumPlan& base, ir::CoiterStrategy s,
          exec::ExecutionStats& stats)
{
    ir::EinsumPlan plan = base;
    for (ir::LoopRank& lr : plan.loops) {
        if (!lr.isUpperPartition)
            lr.coiter = s;
    }
    trace::Observer obs;
    exec::Executor ex(plan, obs);
    Tensor out = ex.run();
    stats = ex.stats();
    return out;
}

/// Property: the three strategies are functionally interchangeable —
/// identical output tensors and identical ExecutionStats on random
/// sparse inputs, uniform or skewed.
class StrategyEquivalence : public ::testing::TestWithParam<int>
{
  protected:
    void
    check(const Tensor& a, const Tensor& b)
    {
        const auto es =
            einsum::EinsumSpec::parse(yaml::parse(kStrategyMatmul));
        std::map<std::string, Tensor> tensors{{"A", a.clone()},
                                              {"B", b.clone()}};
        const ir::EinsumPlan plan =
            ir::buildPlan(es.expressions[0], es, {}, tensors, {});

        exec::ExecutionStats s2f, sgal, sdense;
        const Tensor z2f =
            runForced(plan, ir::CoiterStrategy::TwoFinger, s2f);
        const Tensor zgal =
            runForced(plan, ir::CoiterStrategy::Gallop, sgal);
        const Tensor zdense =
            runForced(plan, ir::CoiterStrategy::DenseDrive, sdense);

        EXPECT_TRUE(zgal.equals(z2f, 1e-12))
            << "gallop:\n" << zgal.toString(8) << "\nvs two-finger\n"
            << z2f.toString(8);
        EXPECT_TRUE(zdense.equals(z2f, 1e-12))
            << "dense-drive:\n" << zdense.toString(8)
            << "\nvs two-finger\n" << z2f.toString(8);
        EXPECT_TRUE(sgal == s2f) << "gallop stats diverge";
        EXPECT_TRUE(sdense == s2f) << "dense-drive stats diverge";
    }
};

TEST_P(StrategyEquivalence, UniformOccupancy)
{
    const auto seed = static_cast<std::uint64_t>(GetParam());
    check(randomSparse("A", {"K", "M"}, 48, 30, 0.25, 900 + seed),
          randomSparse("B", {"K", "N"}, 48, 24, 0.3, 1900 + seed));
}

TEST_P(StrategyEquivalence, SkewedOccupancy)
{
    // One driver ~40x denser than the other: the gallop sweet spot.
    const auto seed = static_cast<std::uint64_t>(GetParam());
    check(randomSparse("A", {"K", "M"}, 128, 20, 0.85, 2900 + seed),
          randomSparse("B", {"K", "N"}, 128, 16, 0.02, 3900 + seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategyEquivalence,
                         ::testing::Range(0, 6));

TEST(StrategyPlanning, GallopSelectedForSkewedDrivers)
{
    // Dense-rowed A against nearly-empty-rowed B: the K loop's
    // occupancy hints are skewed far past the threshold.
    const Tensor a = randomSparse("A", {"K", "M"}, 256, 20, 0.9, 41);
    const Tensor b = randomSparse("B", {"K", "N"}, 256, 24, 0.015, 42);
    const auto es =
        einsum::EinsumSpec::parse(yaml::parse(kStrategyMatmul));
    std::map<std::string, Tensor> tensors{{"A", a.clone()},
                                          {"B", b.clone()}};
    const ir::EinsumPlan plan =
        ir::buildPlan(es.expressions[0], es, {}, tensors, {});
    int gallops = 0;
    for (const ir::LoopRank& lr : plan.loops) {
        if (lr.coiter == ir::CoiterStrategy::Gallop) {
            ++gallops;
            EXPECT_GE(lr.driverSkew, 32.0) << lr.name;
        }
    }
    EXPECT_GE(gallops, 1) << plan.toString();
}

TEST(StrategyPlanning, UniformOccupancyStaysTwoFinger)
{
    const Tensor a = randomSparse("A", {"K", "M"}, 64, 20, 0.3, 43);
    const Tensor b = randomSparse("B", {"K", "N"}, 64, 24, 0.3, 44);
    const auto es =
        einsum::EinsumSpec::parse(yaml::parse(kStrategyMatmul));
    std::map<std::string, Tensor> tensors{{"A", a.clone()},
                                          {"B", b.clone()}};
    const ir::EinsumPlan plan =
        ir::buildPlan(es.expressions[0], es, {}, tensors, {});
    for (const ir::LoopRank& lr : plan.loops)
        EXPECT_EQ(lr.coiter, ir::CoiterStrategy::TwoFinger) << lr.name;
}

TEST(StrategyPlanning, DriverlessRankPlansDenseDrive)
{
    // Direct convolution: Q has no driving fiber, so the planner must
    // mark it DenseDrive.
    const char* einsum = "declaration:\n"
                         "  I: [W]\n"
                         "  F: [S]\n"
                         "  O: [Q]\n"
                         "expressions:\n"
                         "  - O[q] = I[q+s] * F[s]\n";
    Tensor i("I", {"W"}, {20});
    Tensor f("F", {"S"}, {4});
    for (Coord c = 0; c < 20; ++c) {
        const std::vector<Coord> p{c};
        i.set(p, 1.0);
        if (c < 4)
            f.set(p, 2.0);
    }
    const auto es = einsum::EinsumSpec::parse(yaml::parse(einsum));
    std::map<std::string, Tensor> tensors{{"I", i.clone()},
                                          {"F", f.clone()}};
    const ir::EinsumPlan plan =
        ir::buildPlan(es.expressions[0], es, {}, tensors, {});
    bool found_dense = false;
    for (const ir::LoopRank& lr : plan.loops) {
        if (lr.name == "Q") {
            EXPECT_EQ(lr.coiter, ir::CoiterStrategy::DenseDrive);
            found_dense = true;
        }
    }
    EXPECT_TRUE(found_dense);
}

// -------------------------------------------------- batched trace bus

/** Counts the observer's batch calls and the records they carry. */
class CountingObserver : public trace::Observer
{
  public:
    std::size_t batchCalls = 0;
    std::size_t recordsSeen = 0;

    void
    onEventBatch(const trace::EventBatch& batch) override
    {
        ++batchCalls;
        recordsSeen += batch.size();
    }
};

TEST(TraceBus, BatchingCutsVirtualCallsTenfold)
{
    const Tensor a = randomSparse("A", {"K", "M"}, 64, 48, 0.3, 51);
    const Tensor b = randomSparse("B", {"K", "N"}, 64, 40, 0.3, 52);
    const auto es =
        einsum::EinsumSpec::parse(yaml::parse(kStrategyMatmul));
    std::map<std::string, Tensor> tensors{{"A", a.clone()},
                                          {"B", b.clone()}};
    const ir::EinsumPlan plan =
        ir::buildPlan(es.expressions[0], es, {}, tensors, {});

    CountingObserver counting;
    exec::Executor ex(plan, counting);
    ex.run();

    // One virtual call per batch: an unbatched engine would have made
    // one per record.
    EXPECT_GE(counting.recordsSeen, counting.batchCalls * 10)
        << counting.recordsSeen << " records in "
        << counting.batchCalls << " batches";
    // Datapath records are counted but never delivered as Events.
    EXPECT_GT(ex.bus().eventCount(), counting.recordsSeen);
    EXPECT_EQ(ex.bus().batchCount(), counting.batchCalls);
}

/** A run without model hooks shards like a hooked one: at 2 and 4
 *  threads on a pool it splits the walk, and its tensor, stats,
 *  logical event and batch counts and delivered stream equal the
 *  serial run's. */
TEST(TraceBus, ExecutorWithoutHooksShardsLikeSerial)
{
    const Tensor a = randomSparse("A", {"K", "M"}, 64, 48, 0.3, 51);
    const Tensor b = randomSparse("B", {"K", "N"}, 64, 40, 0.3, 52);
    const auto es =
        einsum::EinsumSpec::parse(yaml::parse(kStrategyMatmul));
    std::map<std::string, Tensor> tensors{{"A", a.clone()},
                                          {"B", b.clone()}};
    const ir::EinsumPlan plan =
        ir::buildPlan(es.expressions[0], es, {}, tensors, {});

    test::StreamRecorder serial_rec;
    exec::Executor serial(plan, serial_rec);
    const Tensor ref = serial.run();
    ASSERT_EQ(serial.split().merge, exec::SplitPoint::Merge::Serial);

    util::ThreadPool pool(4);
    for (const unsigned threads : {2u, 4u}) {
        SCOPED_TRACE(threads);
        exec::ExecOptions opts;
        opts.threads = threads;
        opts.pool = &pool;
        test::StreamRecorder rec;
        exec::Executor ex(plan, rec, exec::Semiring::arithmetic(), opts);
        const Tensor got = ex.run();
        EXPECT_NE(ex.split().merge, exec::SplitPoint::Merge::Serial);
        EXPECT_GT(ex.split().slices, 1u);
        EXPECT_TRUE(got.equals(ref, 0.0));
        EXPECT_EQ(ex.stats(), serial.stats());
        EXPECT_EQ(ex.bus().eventCount(), serial.bus().eventCount());
        EXPECT_EQ(ex.bus().batchCount(), serial.bus().batchCount());
        EXPECT_EQ(rec.log, serial_rec.log);
    }
}

} // namespace
} // namespace teaal
