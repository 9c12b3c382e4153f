/**
 * @file
 * Model-property tests: qualitative behaviours of the generated
 * performance models that must hold for the paper's conclusions to be
 * reproducible (traffic monotonicity, design-feature effects, energy
 * consistency).
 */
#include <gtest/gtest.h>

#include "accelerators/accelerators.hpp"
#include "baselines/baselines.hpp"
#include "compiler/pipeline.hpp"
#include "workloads/datasets.hpp"

namespace teaal
{
namespace
{

compiler::SimulationResult
run(compiler::Specification spec, const ft::Tensor& a,
    const ft::Tensor& b)
{
    compiler::Workload w;
    w.add("A", a).add("B", b);
    compiler::RunOptions opts;
    opts.cacheState = false;
    return compiler::compile(std::move(spec)).run(w, opts);
}

/** Skewed test matrices (reuse-sensitive). */
struct Inputs
{
    ft::Tensor a;
    ft::Tensor b;
};

Inputs
skewed(std::uint64_t seed)
{
    return {workloads::powerLawMatrix("A", 600, 500, 4000, seed,
                                      {"K", "M"}),
            workloads::powerLawMatrix("B", 600, 550, 4000, seed + 1,
                                      {"K", "N"})};
}

TEST(TrafficProperties, GammaFiberCacheMonotonicity)
{
    // Bigger FiberCache can only reduce B's DRAM traffic.
    const Inputs in = skewed(3);
    double previous = std::numeric_limits<double>::infinity();
    for (double bytes : {2.0 * 1024, 16.0 * 1024, 256.0 * 1024}) {
        accel::GammaConfig cfg;
        cfg.fiberCacheBytes = bytes;
        const auto result = run(accel::gamma(cfg), in.a, in.b);
        const double b_traffic = result.traffic.at("B").total();
        EXPECT_LE(b_traffic, previous * 1.001) << bytes;
        previous = b_traffic;
    }
}

TEST(TrafficProperties, ExTensorStreamsOperandsPerTilePass)
{
    // With buffet-windowed tiles, shrinking the N1/M1 tiles increases
    // the number of passes and so the A/B re-read traffic.
    const Inputs in = skewed(4);
    accel::ExTensorConfig coarse;
    coarse.tileK1 = 512;
    coarse.tileK0 = 64;
    coarse.tileM1 = 512;
    coarse.tileM0 = 64;
    coarse.tileN1 = 512;
    coarse.tileN0 = 64;
    accel::ExTensorConfig fine = coarse;
    fine.tileM1 = 128;
    fine.tileN1 = 128;
    const auto big = run(accel::extensor(coarse), in.a, in.b);
    const auto small = run(accel::extensor(fine), in.a, in.b);
    const double big_ab = big.traffic.at("A").total() +
                          big.traffic.at("B").total();
    const double small_ab = small.traffic.at("A").total() +
                            small.traffic.at("B").total();
    EXPECT_GT(small_ab, big_ab);
}

TEST(TrafficProperties, OuterSpaceTrafficDominatedByT)
{
    const Inputs in = skewed(5);
    const auto result = run(accel::outerSpace(), in.a, in.b);
    const double t = result.traffic.at("T").total();
    const double a = result.traffic.at("A").total();
    const double b = result.traffic.at("B").total();
    // The multiply-merge round trip of partial products is the
    // defining cost of OuterSPACE (Fig. 9c).
    EXPECT_GT(t, a);
    EXPECT_GT(t, b);
    // T is written by the multiply phase and read back by the merge.
    EXPECT_GT(result.traffic.at("T").writeBytes, 0);
    EXPECT_GT(result.traffic.at("T").readBytes, 0);
}

TEST(TrafficProperties, GammaBeatsOuterSpaceOnTraffic)
{
    // The headline qualitative comparison: row-wise with on-chip
    // fusion moves far less data than multiply-merge.
    const Inputs in = skewed(6);
    const auto gamma = run(accel::gamma(), in.a, in.b);
    const auto outer = run(accel::outerSpace(), in.a, in.b);
    EXPECT_LT(gamma.totalTrafficBytes(), outer.totalTrafficBytes());
}

TEST(TrafficProperties, MergerRadixReducesPasses)
{
    const Inputs in = skewed(7);
    double previous = std::numeric_limits<double>::infinity();
    for (int radix : {2, 8, 64}) {
        accel::GammaConfig cfg;
        cfg.mergerWays = radix;
        const auto result = run(accel::gamma(cfg), in.a, in.b);
        double elems = 0;
        for (const auto& record : result.records) {
            const auto it = record.components.find("TopMerger");
            if (it != record.components.end())
                elems += it->second.count("merge_elems");
        }
        EXPECT_LE(elems, previous * 1.001) << radix;
        previous = elems;
    }
}

TEST(TrafficProperties, SkipAheadBeatsTwoFinger)
{
    const Inputs in = skewed(8);
    accel::ExTensorConfig two;
    two.intersection = "two-finger";
    accel::ExTensorConfig skip;
    skip.intersection = "skip-ahead";
    auto cfg_small = [](accel::ExTensorConfig c) {
        c.tileK1 = 256;
        c.tileK0 = 32;
        c.tileM1 = 256;
        c.tileM0 = 64;
        c.tileN1 = 256;
        c.tileN0 = 64;
        return c;
    };
    const auto t = run(accel::extensor(cfg_small(two)), in.a, in.b);
    const auto s = run(accel::extensor(cfg_small(skip)), in.a, in.b);
    const double t_cycles =
        t.records[0].components.at("SkipAhead").count("cycles");
    const double s_cycles =
        s.records[0].components.at("SkipAhead").count("cycles");
    EXPECT_LT(s_cycles, t_cycles);
}

TEST(TrafficProperties, EnergyTracksTraffic)
{
    // More DRAM traffic (OuterSPACE) must cost more DRAM energy than
    // the fused design (Gamma) on the same input.
    const Inputs in = skewed(9);
    const auto gamma = run(accel::gamma(), in.a, in.b);
    const auto outer = run(accel::outerSpace(), in.a, in.b);
    auto dram_energy = [](const compiler::SimulationResult& r,
                          const std::string& name) {
        double joules = 0;
        const auto it = r.energy.byComponent.find(name);
        if (it != r.energy.byComponent.end())
            joules = it->second;
        return joules;
    };
    EXPECT_GT(dram_energy(outer, "HBM"), dram_energy(gamma, "HBM"));
}

TEST(TrafficProperties, PartialOutputsGrowWithKTiling)
{
    // ExTensor PO traffic grows as K is cut into more K2 tiles
    // (each tile revisits the output partials).
    const Inputs in = skewed(10);
    auto base = [](long k1) {
        accel::ExTensorConfig c;
        c.tileK1 = k1;
        c.tileK0 = 32;
        c.tileM1 = 256;
        c.tileM0 = 64;
        c.tileN1 = 256;
        c.tileN0 = 64;
        return c;
    };
    const auto few = run(accel::extensor(base(600)), in.a, in.b);
    const auto many = run(accel::extensor(base(128)), in.a, in.b);
    double few_po = 0, many_po = 0;
    for (const auto& [t, tr] : few.traffic)
        few_po += tr.poBytes;
    for (const auto& [t, tr] : many.traffic)
        many_po += tr.poBytes;
    EXPECT_GE(many_po, few_po);
}

TEST(TrafficProperties, DataDrivenBeatsAnalyticalOnSkewedData)
{
    // The paper's methodological claim (Fig. 10a): on skewed inputs,
    // the uniform-density analytical model mispredicts the effectual
    // multiply count that the data-driven executor measures exactly.
    const Inputs in = skewed(11);
    const auto work = baselines::countSpmspmWork(in.a, in.b);
    const double da = static_cast<double>(in.a.nnz()) / (600.0 * 500.0);
    const double db = static_cast<double>(in.b.nnz()) / (600.0 * 550.0);
    const auto est =
        baselines::sparseloopExtensor({}, 600, 500, 550, da, db);
    const double analytic_err =
        std::abs(est.mults - static_cast<double>(work.mults)) /
        static_cast<double>(work.mults);
    // Power-law inputs correlate nonzeros: uniform models are off.
    EXPECT_GT(analytic_err, 0.10);
}

} // namespace
} // namespace teaal
