/**
 * @file
 * Tests of the compile-once / run-many pipeline API:
 * Specification -> compile() -> CompiledModel::run(Workload,
 * RunOptions).
 *
 * Covers run-many determinism, the no-deep-copy guarantee for
 * unmutated workload inputs, RunOptions (coiter overrides, extra
 * observers and the stream they see), and the
 * structured diagnostics surfaced by parse/compile instead of
 * asserts.
 */
#include <gtest/gtest.h>

#include "accelerators/accelerators.hpp"
#include "baselines/baselines.hpp"
#include "compiler/pipeline.hpp"
#include "storage/packed.hpp"
#include "support.hpp"
#include "util/diagnostic.hpp"
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

struct TestMatrices
{
    ft::Tensor a;
    ft::Tensor b;
};

TestMatrices
makeMatrices(std::uint64_t seed)
{
    return {workloads::uniformMatrix("A", 40, 32, 300, seed,
                                     {"K", "M"}),
            workloads::uniformMatrix("B", 40, 36, 300, seed + 1,
                                     {"K", "N"})};
}

void
expectSameRecords(const SimulationResult& x, const SimulationResult& y)
{
    ASSERT_EQ(x.records.size(), y.records.size());
    for (std::size_t i = 0; i < x.records.size(); ++i) {
        EXPECT_TRUE(x.records[i].execStats == y.records[i].execStats)
            << "einsum " << i;
        ASSERT_EQ(x.records[i].traffic.size(),
                  y.records[i].traffic.size());
        for (const auto& [tensor, tt] : x.records[i].traffic) {
            const auto it = y.records[i].traffic.find(tensor);
            ASSERT_NE(it, y.records[i].traffic.end()) << tensor;
            EXPECT_DOUBLE_EQ(tt.readBytes, it->second.readBytes);
            EXPECT_DOUBLE_EQ(tt.writeBytes, it->second.writeBytes);
            EXPECT_DOUBLE_EQ(tt.poBytes, it->second.poBytes);
        }
    }
}

void
expectSameResults(const SimulationResult& x, const SimulationResult& y)
{
    expectSameRecords(x, y);
    ASSERT_EQ(x.traffic.size(), y.traffic.size());
    for (const auto& [tensor, tt] : x.traffic) {
        const auto it = y.traffic.find(tensor);
        ASSERT_NE(it, y.traffic.end()) << tensor;
        EXPECT_DOUBLE_EQ(tt.readBytes, it->second.readBytes);
        EXPECT_DOUBLE_EQ(tt.writeBytes, it->second.writeBytes);
        EXPECT_DOUBLE_EQ(tt.poBytes, it->second.poBytes);
    }
    EXPECT_DOUBLE_EQ(x.perf.totalSeconds, y.perf.totalSeconds);
    EXPECT_DOUBLE_EQ(x.energy.totalJoules, y.energy.totalJoules);
}

/// Compile once, run twice: records, perf, and traffic identical
/// between runs.
TEST(Pipeline, RunManyIsDeterministic)
{
    const auto mats = makeMatrices(11);
    auto model = compiler::compile(accel::gamma(smallGamma()));
    Workload w;
    w.add("A", mats.a).add("B", mats.b);

    const SimulationResult first = model.run(w);
    const SimulationResult second = model.run(w);
    expectSameResults(first, second);
    EXPECT_TRUE(first.result(model.spec())
                    .equals(second.result(model.spec()), 0.0));
}

/// The second run on a cached workload performs no deep copies at
/// all: plans, prepared tensors, and intermediates are reused.
TEST(Pipeline, CachedRunIsCloneFree)
{
    const auto mats = makeMatrices(12);
    auto model = compiler::compile(accel::gamma(smallGamma()));
    Workload w;
    w.add("A", mats.a).add("B", mats.b);
    (void)model.run(w); // instantiating run

    const std::uint64_t before = ft::Tensor::cloneCount();
    (void)model.run(w);
    EXPECT_EQ(ft::Tensor::cloneCount() - before, 0u);
}

/// Workload inputs that need no preparation (already concordant, no
/// partitioning) are never deep-copied — not even on the
/// instantiating run. A pointer input is packed once per cached state
/// (every later run binds that same store); a packed input binds with
/// no copy at all.
TEST(Pipeline, ConcordantInputsAreNeverDeepCopied)
{
    const char* text = "einsum:\n"
                       "  declaration:\n"
                       "    A: [K, M]\n"
                       "    B: [K, N]\n"
                       "    Z: [M, N]\n"
                       "  expressions:\n"
                       "    - Z[m, n] = A[k, m] * B[k, n]\n";
    auto model =
        compiler::compile(compiler::Specification::parse(text));
    // Default loop order is M, N, K: concordant orders are A [M, K]
    // and B [N, K].
    const ft::Tensor a =
        workloads::uniformMatrix("A", 32, 40, 200, 5, {"M", "K"});
    const ft::Tensor b =
        workloads::uniformMatrix("B", 36, 40, 200, 6, {"N", "K"});
    Workload w;
    w.add("A", a).add("B", b);

    const std::uint64_t before = ft::Tensor::cloneCount();
    const SimulationResult result = model.run(w);
    EXPECT_EQ(ft::Tensor::cloneCount() - before, 0u);
    EXPECT_GT(result.result(model.spec()).nnz(), 0u);
    const storage::PackedTensor* packed_once =
        model.plans(w)[0].inputs[0].packed.get();
    ASSERT_NE(packed_once, nullptr);
    (void)model.run(w);
    EXPECT_EQ(model.plans(w)[0].inputs[0].packed.get(), packed_once);

    const auto pa = std::make_shared<const storage::PackedTensor>(
        storage::PackedTensor::fromTensor(a));
    const auto pb = std::make_shared<const storage::PackedTensor>(
        storage::PackedTensor::fromTensor(b));
    Workload packed_w;
    packed_w.add("A", pa).add("B", pb);
    const auto& plans = model.plans(packed_w);
    EXPECT_EQ(plans[0].inputs[0].packed, pa);
    EXPECT_EQ(plans[0].inputs[1].packed, pb);
}

/// The plans() accessor exposes one instantiated plan per Einsum
/// (cascades execute once to materialize intermediates).
TEST(Pipeline, PlansAccessorCoversTheCascade)
{
    const auto mats = makeMatrices(13);
    auto model = compiler::compile(accel::gamma(smallGamma()));
    Workload w;
    w.add("A", mats.a).add("B", mats.b);
    const auto& plans = model.plans(w);
    ASSERT_EQ(plans.size(),
              model.spec().einsums.expressions.size());
    for (const auto& plan : plans)
        EXPECT_FALSE(plan.loops.empty());
    // A later run() reuses exactly these plans (no re-instantiation).
    const std::uint64_t before = ft::Tensor::cloneCount();
    (void)model.run(w);
    EXPECT_EQ(ft::Tensor::cloneCount() - before, 0u);
}

/// Per-loop co-iteration overrides change the walk, not the answer.
TEST(Pipeline, CoiterOverridesPreserveResults)
{
    const auto mats = makeMatrices(14);
    auto model = compiler::compile(accel::extensor(smallExTensor()));
    Workload w;
    w.add("A", mats.a).add("B", mats.b);
    const SimulationResult base = model.run(w);

    RunOptions forced;
    for (const auto& plan : model.plans(w)) {
        for (const auto& lr : plan.loops) {
            if (!lr.isUpperPartition)
                forced.coiterOverrides[lr.name] =
                    ir::CoiterStrategy::TwoFinger;
        }
    }
    const SimulationResult two = model.run(w, forced);
    EXPECT_TRUE(base.result(model.spec())
                    .equals(two.result(model.spec()), 1e-12));
    EXPECT_EQ(base.records[0].execStats.computeMuls,
              two.records[0].execStats.computeMuls);
}

/// Cached intermediates are keyed per semiring: a min-plus run after
/// an arithmetic run on the same workload must match a fresh
/// min-plus run, not consume arithmetic-valued intermediates.
TEST(Pipeline, SemiringChangeDoesNotReuseStaleIntermediates)
{
    const char* text = "einsum:\n"
                       "  declaration:\n"
                       "    A: [K, M]\n"
                       "    B: [K, N]\n"
                       "    C: [N]\n"
                       "    T: [M, N]\n"
                       "    Z: [M]\n"
                       "  expressions:\n"
                       "    - T[m, n] = A[k, m] * B[k, n]\n"
                       "    - Z[m] = T[m, n] * C[n]\n";
    const auto mats = makeMatrices(19);
    ft::Tensor c("C", {"N"}, {36});
    for (ft::Coord n = 0; n < 36; n += 2) {
        const std::vector<ft::Coord> p{n};
        c.set(p, 1.0 + 0.5 * static_cast<double>(n));
    }
    Workload w;
    w.add("A", mats.a).add("B", mats.b).add("C", c);

    auto warm =
        compiler::compile(compiler::Specification::parse(text));
    (void)warm.run(w); // arithmetic run warms the plan cache
    RunOptions min_plus;
    min_plus.semiring = exec::Semiring::minPlus();
    const SimulationResult warmed = warm.run(w, min_plus);

    auto fresh =
        compiler::compile(compiler::Specification::parse(text));
    const SimulationResult direct = fresh.run(w, min_plus);

    EXPECT_TRUE(warmed.result(warm.spec())
                    .equals(direct.result(fresh.spec()), 0.0));
    expectSameRecords(warmed, direct);
}

/// Extra RunOptions observers ride alongside the performance model
/// without perturbing it.
/// An extra observer sees the performance model's storage-tier
/// stream: the trace bus routes every datapath record to the model's
/// accumulators as it is produced, so the observer gets no CoIterate,
/// CoordScan or Compute record, and what it records — records and
/// batch boundaries — is identical at threads 1 and 4. Attaching it
/// changes no result.
TEST(Pipeline, ExtraObserversSeeTheStorageTierStream)
{
    const auto mats = makeMatrices(15);
    auto model = compiler::compile(accel::gamma(smallGamma()));
    Workload w;
    w.add("A", mats.a).add("B", mats.b);
    const SimulationResult base = model.run(w);

    std::vector<std::vector<std::string>> streams;
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        test::StreamRecorder rec;
        RunOptions opts;
        opts.threads = threads;
        opts.observers.push_back(&rec);
        const SimulationResult observed = model.run(w, opts);
        expectSameResults(base, observed);

        std::size_t batches = 0;
        std::size_t writes = 0;
        for (const std::string& entry : rec.log) {
            const std::string tag = entry.substr(0, entry.find(':'));
            EXPECT_TRUE(tag != "I" && tag != "S" && tag != "C") << entry;
            batches += tag == "batch" ? 1 : 0;
            writes += tag == "W" ? 1 : 0;
        }
        EXPECT_GT(batches, 0u);
        EXPECT_GT(writes, 0u);
        streams.push_back(std::move(rec.log));
    }
    EXPECT_TRUE(streams[0] == streams[1])
        << "the observer's stream differs between threads 1 and 4";
}

// ------------------------------------------------------- diagnostics

TEST(PipelineDiagnostics, MissingEinsumSection)
{
    try {
        compiler::Specification::parse("mapping:\n  loop-order:\n");
        FAIL() << "expected DiagnosticError";
    } catch (const DiagnosticError& e) {
        EXPECT_EQ(e.diagnostic().section, "einsum");
        EXPECT_NE(e.diagnostic().message.find("missing"),
                  std::string::npos);
    }
}

TEST(PipelineDiagnostics, UndeclaredTensorInExpression)
{
    const char* text = "einsum:\n"
                       "  declaration:\n"
                       "    A: [K, M]\n"
                       "    Z: [M]\n"
                       "  expressions:\n"
                       "    - Z[m] = A[k, m] * C[k]\n";
    try {
        compiler::Specification::parse(text);
        FAIL() << "expected DiagnosticError";
    } catch (const DiagnosticError& e) {
        EXPECT_EQ(e.diagnostic().section, "einsum");
        EXPECT_EQ(e.diagnostic().key, "C");
    }
}

TEST(PipelineDiagnostics, BadRankCount)
{
    const char* text = "einsum:\n"
                       "  declaration:\n"
                       "    A: [K]\n"
                       "    B: [K]\n"
                       "    Z: [M]\n"
                       "  expressions:\n"
                       "    - Z[m] = A[k, m] * B[k]\n";
    try {
        compiler::Specification::parse(text);
        FAIL() << "expected DiagnosticError";
    } catch (const DiagnosticError& e) {
        EXPECT_EQ(e.diagnostic().section, "einsum");
        EXPECT_EQ(e.diagnostic().key, "A");
        EXPECT_NE(e.diagnostic().message.find("ranks"),
                  std::string::npos);
    }
}

TEST(PipelineDiagnostics, MalformedYamlDocument)
{
    EXPECT_THROW(compiler::Specification::parse("nonsense: {"),
                 SpecError);
}

TEST(PipelineDiagnostics, MissingWorkloadInput)
{
    const auto mats = makeMatrices(16);
    auto model = compiler::compile(accel::gamma(smallGamma()));
    Workload w;
    w.add("A", mats.a); // B missing
    try {
        (void)model.run(w);
        FAIL() << "expected DiagnosticError";
    } catch (const DiagnosticError& e) {
        EXPECT_EQ(e.diagnostic().section, "workload");
        EXPECT_EQ(e.diagnostic().key, "B");
    }
}

/// A storage binding naming a component the bound topology does not
/// declare fails compile() (it used to fail mid-run with a bare
/// SpecError).
TEST(PipelineDiagnostics, UnknownStorageComponentFailsCompile)
{
    const char* text = "einsum:\n"
                       "  declaration:\n"
                       "    A: [K, M]\n"
                       "    B: [K, N]\n"
                       "    Z: [M, N]\n"
                       "  expressions:\n"
                       "    - Z[m, n] = A[k, m] * B[k, n]\n"
                       "architecture:\n"
                       "  accel:\n"
                       "    subtree:\n"
                       "      - name: System\n"
                       "        local:\n"
                       "          - name: Memory\n"
                       "            class: DRAM\n"
                       "          - name: Mul\n"
                       "            class: compute\n"
                       "binding:\n"
                       "  Z:\n"
                       "    components:\n"
                       "      - component: NoSuchBuffer\n"
                       "        bindings:\n"
                       "          - tensor: A\n"
                       "            rank: M\n";
    try {
        (void)compiler::compile(compiler::Specification::parse(text));
        FAIL() << "expected DiagnosticError";
    } catch (const DiagnosticError& e) {
        EXPECT_EQ(e.diagnostic().section, "binding");
        EXPECT_EQ(e.diagnostic().key, "NoSuchBuffer");
        EXPECT_NE(e.diagnostic().message.find("NoSuchBuffer"),
                  std::string::npos);
        EXPECT_NE(e.diagnostic().message.find("architecture"),
                  std::string::npos);
    }
}

/// Op bindings to unknown components used to silently create an
/// empty pseudo-component in the model (default instance count,
/// wrong class); they now fail compile() the same way.
TEST(PipelineDiagnostics, UnknownOpComponentFailsCompile)
{
    const char* text = "einsum:\n"
                       "  declaration:\n"
                       "    A: [K, M]\n"
                       "    B: [K, N]\n"
                       "    Z: [M, N]\n"
                       "  expressions:\n"
                       "    - Z[m, n] = A[k, m] * B[k, n]\n"
                       "architecture:\n"
                       "  accel:\n"
                       "    subtree:\n"
                       "      - name: System\n"
                       "        local:\n"
                       "          - name: Memory\n"
                       "            class: DRAM\n"
                       "          - name: Mul\n"
                       "            class: compute\n"
                       "binding:\n"
                       "  Z:\n"
                       "    components:\n"
                       "      - component: GhostALU\n"
                       "        bindings:\n"
                       "          - op: mul\n";
    try {
        (void)compiler::compile(compiler::Specification::parse(text));
        FAIL() << "expected DiagnosticError";
    } catch (const DiagnosticError& e) {
        EXPECT_EQ(e.diagnostic().section, "binding");
        EXPECT_EQ(e.diagnostic().key, "GhostALU");
    }
}

TEST(PipelineDiagnostics, WorkloadRankMismatch)
{
    const auto mats = makeMatrices(17);
    auto model = compiler::compile(accel::gamma(smallGamma()));
    const ft::Tensor wrong =
        workloads::uniformMatrix("B", 40, 36, 100, 3, {"K", "Q"});
    Workload w;
    w.add("A", mats.a).add("B", wrong);
    try {
        (void)model.run(w);
        FAIL() << "expected DiagnosticError";
    } catch (const DiagnosticError& e) {
        EXPECT_EQ(e.diagnostic().section, "workload");
        EXPECT_EQ(e.diagnostic().key, "B");
    }
}

} // namespace
} // namespace teaal
