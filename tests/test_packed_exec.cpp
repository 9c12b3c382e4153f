/**
 * @file
 * Packed-vs-pointer execution equivalence: a workload bound as packed
 * rank stores (storage/packed.hpp) must produce byte-identical
 * results, counters, traffic, and delivered trace streams (batch
 * boundaries included) to the same workload bound as pointer
 * fibertrees — per Table 1 accelerator, at threads = 1 and 4. Plus
 * the zero-copy guarantee of the concordant packed bind, the
 * zero-fiber-construction guarantee of every bind (discordant and
 * partitioned inputs are prepared on packed buffers), and the
 * unknown-format-config compile diagnostic.
 */
#include <gtest/gtest.h>


#include "accelerators/accelerators.hpp"
#include "compiler/pipeline.hpp"
#include "storage/packed.hpp"
#include "storage/store.hpp"
#include "storage/transform.hpp"
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
using test::StreamRecorder;

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

/**
 * Run @p spec on the same matrices bound as pointer tensors and as
 * packed stores (packed per the spec's declared formats) at the given
 * thread count; everything delivered must be identical.
 */
void
expectPackedEquivalence(compiler::Specification spec, unsigned threads,
                        std::uint64_t seed)
{
    const TestMatrices m = makeMatrices(seed);
    auto model = compiler::compile(std::move(spec));

    const auto packedA = storage::PackedTensor::fromTensor(
        m.a, model.spec().formats.getLenient("A"));
    const auto packedB = storage::PackedTensor::fromTensor(
        m.b, model.spec().formats.getLenient("B"));

    Workload pointer_w;
    pointer_w.add("A", m.a).add("B", m.b);
    Workload packed_w;
    packed_w.add("A", packedA).add("B", packedB);

    StreamRecorder pointer_rec;
    RunOptions opts;
    opts.threads = threads;
    opts.observers = {&pointer_rec};
    const SimulationResult base = model.run(pointer_w, opts);

    StreamRecorder packed_rec;
    opts.observers = {&packed_rec};
    const SimulationResult packed = model.run(packed_w, opts);

    expectSameResults(base, packed);
    EXPECT_EQ(pointer_rec.log, packed_rec.log);
}

class PackedAccelerators
    : public ::testing::TestWithParam<std::tuple<std::string, unsigned>>
{
};

TEST_P(PackedAccelerators, MatchesPointerExecution)
{
    const auto& [name, threads] = GetParam();
    if (name == "gamma") {
        expectPackedEquivalence(accel::gamma(smallGamma()), threads, 11);
    } else if (name == "extensor") {
        expectPackedEquivalence(accel::extensor(smallExTensor()),
                                threads, 12);
    } else if (name == "outerspace") {
        expectPackedEquivalence(accel::outerSpace(smallOuterSpace()),
                                threads, 13);
    } else {
        expectPackedEquivalence(accel::sigma(smallSigma()), threads, 14);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Table1, PackedAccelerators,
    ::testing::Combine(::testing::Values("gamma", "extensor",
                                         "outerspace", "sigma"),
                       ::testing::Values(1u, 4u)),
    [](const auto& info) {
        return std::get<0>(info.param) + "_t" +
               std::to_string(std::get<1>(info.param));
    });

// ------------------------------------------------------------------
// A concordant spec with no partitioning: packed inputs bind as
// given, the walk reads their buffers, and no input fiber is built.
// ------------------------------------------------------------------

const char* kConcordantSpmSpm = R"(
einsum:
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
  spacetime:
    Z:
      space: [M]
      time: [K, N]
)";

/** A/B in the mapping's rank order, built directly as packed stores
 *  (streaming builder — no fibertree ever exists for them). */
struct PackedPair
{
    storage::PackedTensor a;
    storage::PackedTensor b;
};

PackedPair
buildPackedInputs(std::uint64_t seed)
{
    // Materialize the COO through temporary tensors for value
    // generation only; the workload under test gets independent
    // packed stores built by streaming appends.
    const ft::Tensor a =
        workloads::uniformMatrix("A", 48, 40, 400, seed, {"M", "K"});
    const ft::Tensor b = workloads::uniformMatrix("B", 40, 44, 420,
                                                  seed + 1, {"K", "N"});
    PackedPair out{storage::PackedTensor::fromTensor(a),
                   storage::PackedTensor::fromTensor(b)};
    return out;
}

TEST(PackedBinding, ConcordantInputsBindWithoutClonesOrFibers)
{
    // Bind two packed workloads of very different nnz and measure the
    // pointer-fiber constructions each bind performs: none, and no
    // clone either — the plans bind the workload's stores.
    auto model =
        compiler::compile(compiler::Specification::parse(kConcordantSpmSpm));
    const PackedPair in = buildPackedInputs(21);
    const ft::Tensor big_a =
        workloads::uniformMatrix("A", 192, 160, 6000, 31, {"M", "K"});
    const ft::Tensor big_b =
        workloads::uniformMatrix("B", 160, 176, 6400, 32, {"K", "N"});
    const PackedPair big{storage::PackedTensor::fromTensor(big_a),
                         storage::PackedTensor::fromTensor(big_b)};

    auto bind_delta = [&](const PackedPair& pair,
                          std::uint64_t& clones) {
        Workload w;
        w.add("A", pair.a).add("B", pair.b);
        const std::uint64_t clones_before = ft::Tensor::cloneCount();
        const std::uint64_t fibers_before =
            ft::Fiber::constructionCount();
        const auto& plans = model.plans(w);
        EXPECT_EQ(plans.size(), 1u);
        EXPECT_NE(plans[0].inputs[0].packed, nullptr);
        EXPECT_NE(plans[0].inputs[1].packed, nullptr);
        // Walk variants recorded: all ranks are C-format by default.
        EXPECT_EQ(plans[0].loops[0].packedWalk, ir::PackedWalk::Coords);
        clones = ft::Tensor::cloneCount() - clones_before;
        return ft::Fiber::constructionCount() - fibers_before;
    };

    std::uint64_t clones_small = 0;
    std::uint64_t clones_big = 0;
    const std::uint64_t fibers_small = bind_delta(in, clones_small);
    const std::uint64_t fibers_big = bind_delta(big, clones_big);
    EXPECT_EQ(clones_small, 0u);
    EXPECT_EQ(clones_big, 0u);
    EXPECT_EQ(fibers_small, 0u);
    EXPECT_EQ(fibers_big, 0u);

    // The packed run matches the pointer run bit for bit.
    Workload w;
    w.add("A", in.a).add("B", in.b);
    Workload pw;
    pw.add("A", in.a.toTensor()).add("B", in.b.toTensor());
    StreamRecorder packed_rec;
    StreamRecorder pointer_rec;
    RunOptions opts;
    opts.observers = {&packed_rec};
    const SimulationResult packed = model.run(w, opts);
    opts.observers = {&pointer_rec};
    const SimulationResult base = model.run(pw, opts);
    expectSameResults(base, packed);
    EXPECT_EQ(pointer_rec.log, packed_rec.log);
}

TEST(PackedBinding, ShardedPackedExecutionMatchesSerial)
{
    auto model =
        compiler::compile(compiler::Specification::parse(kConcordantSpmSpm));
    const PackedPair in = buildPackedInputs(22);
    Workload w;
    w.add("A", in.a).add("B", in.b);

    StreamRecorder serial_rec;
    RunOptions opts;
    opts.observers = {&serial_rec};
    opts.threads = 1;
    const SimulationResult serial = model.run(w, opts);

    StreamRecorder sharded_rec;
    opts.observers = {&sharded_rec};
    opts.threads = 4;
    const SimulationResult sharded = model.run(w, opts);

    expectSameResults(serial, sharded);
    EXPECT_EQ(serial_rec.log, sharded_rec.log);
}

TEST(PackedBinding, DenseDriveOverrideProbesPackedViews)
{
    // Force the dense coordinate drive so every coordinate probes the
    // packed views through FiberView::find (the bitmap/implicit probe
    // paths when the format says B/U).
    for (const char* fmt_type : {"C", "U", "B"}) {
        auto model = compiler::compile(
            compiler::Specification::parse(kConcordantSpmSpm));
        const PackedPair plain = buildPackedInputs(23);
        fmt::TensorFormat tf;
        fmt::RankFormat rf;
        rf.type = fmt_type[0] == 'C'
                      ? fmt::RankFormat::Type::C
                      : (fmt_type[0] == 'U' ? fmt::RankFormat::Type::U
                                            : fmt::RankFormat::Type::B);
        for (const char* rank : {"M", "K", "N"})
            tf.ranks[rank] = rf;
        const auto pa =
            storage::PackedTensor::fromTensor(plain.a.toTensor(), tf);
        const auto pb =
            storage::PackedTensor::fromTensor(plain.b.toTensor(), tf);

        Workload packed_w;
        packed_w.add("A", pa).add("B", pb);
        Workload pointer_w;
        pointer_w.add("A", plain.a.toTensor())
            .add("B", plain.b.toTensor());

        RunOptions opts;
        opts.coiterOverrides = {{"K", ir::CoiterStrategy::DenseDrive}};
        StreamRecorder packed_rec;
        StreamRecorder pointer_rec;
        opts.observers = {&packed_rec};
        const SimulationResult packed = model.run(packed_w, opts);
        opts.observers = {&pointer_rec};
        const SimulationResult base = model.run(pointer_w, opts);
        expectSameResults(base, packed);
        EXPECT_EQ(pointer_rec.log, packed_rec.log) << fmt_type;
    }
}

TEST(PackedBinding, MixedPointerAndPackedInputs)
{
    auto model =
        compiler::compile(compiler::Specification::parse(kConcordantSpmSpm));
    const PackedPair in = buildPackedInputs(24);

    Workload mixed;
    mixed.add("A", in.a.toTensor()).add("B", in.b);
    Workload pointer_w;
    pointer_w.add("A", in.a.toTensor()).add("B", in.b.toTensor());

    StreamRecorder mixed_rec;
    StreamRecorder pointer_rec;
    RunOptions opts;
    opts.observers = {&mixed_rec};
    const SimulationResult mixed_r = model.run(mixed, opts);
    opts.observers = {&pointer_rec};
    const SimulationResult base = model.run(pointer_w, opts);
    expectSameResults(base, mixed_r);
    EXPECT_EQ(pointer_rec.log, mixed_rec.log);
}

TEST(PackedBinding, DiscordantPackedSwizzlesOnPackedBuffers)
{
    // The packed tensor arrives in [K, M] order but the mapping wants
    // A as [M, K]: prepareInputs swizzles it once on packed buffers,
    // no pointer fiber is built, and results still match the pointer
    // binding.
    auto model =
        compiler::compile(compiler::Specification::parse(kConcordantSpmSpm));
    const ft::Tensor a_km =
        workloads::uniformMatrix("A", 48, 40, 400, 25, {"K", "M"});
    const ft::Tensor b =
        workloads::uniformMatrix("B", 48, 44, 420, 26, {"K", "N"});

    Workload packed_w;
    packed_w.add("A", storage::PackedTensor::fromTensor(a_km)).add("B", b);
    Workload pointer_w;
    pointer_w.add("A", a_km).add("B", b);

    const std::uint64_t fibers_before = ft::Fiber::constructionCount();
    const auto& plans = model.plans(packed_w);
    EXPECT_EQ(ft::Fiber::constructionCount() - fibers_before, 0u);
    EXPECT_EQ(plans[0].inputs[0].rankIds(),
              (std::vector<std::string>{"M", "K"}));

    const SimulationResult packed = model.run(packed_w);
    const SimulationResult base = model.run(pointer_w);
    expectSameResults(base, packed);
}

/** Every input of @p model's cascade prepared as the pipeline does
 *  (packed, in the mapping's rank-order), plus every intermediate of
 *  @p run packed. */
ir::PackedRefMap
packedCascadeTensors(const CompiledModel& model, const Workload& w,
                     const SimulationResult& run)
{
    ir::PackedRefMap out;
    const compiler::Specification& spec = model.spec();
    for (const std::string& name : spec.einsums.inputTensors()) {
        auto pk = w.packed(name);
        if (pk == nullptr) {
            pk = std::make_shared<const storage::PackedTensor>(
                storage::PackedTensor::fromTensor(
                    w.tensor(name), spec.formats.getLenient(name)));
        }
        const auto& order = spec.mapping.rankOrder(name);
        if (!order.empty() && pk->rankIds() != order) {
            pk = std::make_shared<const storage::PackedTensor>(
                storage::swizzle(*pk, order));
        }
        out.emplace(name, std::move(pk));
    }
    for (const auto& [name, t] : run.tensors) {
        out.emplace(name, std::make_shared<const storage::PackedTensor>(
                              storage::PackedTensor::fromTensor(
                                  t, spec.formats.getLenient(name))));
    }
    return out;
}

TEST(PackedBinding, InstantiationBuildsNoFibers)
{
    // Binding any input — pointer, packed or mapped, discordant with
    // its mapping rank-order (Gamma's A) or partitioned (all four) —
    // builds no pointer fiber: preparation runs on packed buffers.
    const TestMatrices m = makeMatrices(41);
    test::TempDir dir;
    const std::vector<std::pair<std::string, compiler::Specification>>
        specs{{"gamma", accel::gamma(smallGamma())},
              {"extensor", accel::extensor(smallExTensor())},
              {"outerspace", accel::outerSpace(smallOuterSpace())},
              {"sigma", accel::sigma(smallSigma())}};
    for (const auto& [name, spec] : specs) {
        SCOPED_TRACE(name);
        auto model = compiler::compile(spec);
        const auto pa = std::make_shared<const storage::PackedTensor>(
            storage::PackedTensor::fromTensor(
                m.a, model.spec().formats.getLenient("A")));
        const auto pb = std::make_shared<const storage::PackedTensor>(
            storage::PackedTensor::fromTensor(
                m.b, model.spec().formats.getLenient("B")));
        storage::writeStore(dir.path(name + "_A.tpk"), *pa);
        storage::writeStore(dir.path(name + "_B.tpk"), *pb);

        Workload pointer_w;
        pointer_w.add("A", m.a).add("B", m.b);
        Workload packed_w;
        packed_w.add("A", pa).add("B", pb);
        Workload mapped_w;
        mapped_w.add("A", storage::mapStore(dir.path(name + "_A.tpk")))
            .add("B", storage::mapStore(dir.path(name + "_B.tpk")));

        for (const Workload* w : {&pointer_w, &packed_w, &mapped_w}) {
            const SimulationResult run = model.run(*w);
            const ir::PackedRefMap tensors =
                packedCascadeTensors(model, *w, run);
            const einsum::EinsumSpec& es = model.spec().einsums;
            std::vector<std::string> produced;
            const std::uint64_t before = ft::Fiber::constructionCount();
            for (std::size_t i = 0; i < es.expressions.size(); ++i) {
                (void)ir::instantiatePlan(model.recipes()[i], es, tensors,
                                          produced);
                produced.push_back(es.expressions[i].output.name);
            }
            EXPECT_EQ(ft::Fiber::constructionCount() - before, 0u);
        }

        // Through the pipeline: a single-Einsum cascade instantiates
        // without executing anything, so plans() builds no fiber.
        if (model.spec().einsums.expressions.size() == 1) {
            for (const Workload* w : {&pointer_w, &packed_w, &mapped_w}) {
                model.clearCache();
                const std::uint64_t before = ft::Fiber::constructionCount();
                (void)model.plans(*w);
                EXPECT_EQ(ft::Fiber::constructionCount() - before, 0u);
            }
        }
    }
}

TEST(PackedBinding, WorkloadAccessors)
{
    const PackedPair in = buildPackedInputs(27);
    Workload w;
    w.add("A", in.a);
    EXPECT_TRUE(w.has("A"));
    EXPECT_NE(w.packed("A"), nullptr);
    EXPECT_EQ(w.packed("missing"), nullptr);
    EXPECT_EQ(w.rankIdsOf("A"), in.a.rankIds());
    EXPECT_THROW((void)w.tensor("A"), DiagnosticError);

    // Owning add keeps the buffers alive inside the workload.
    storage::PackedTensor own = storage::PackedTensor::fromTensor(
        workloads::uniformMatrix("B", 8, 8, 12, 1, {"K", "N"}));
    w.add("B", std::move(own));
    EXPECT_NE(w.packed("B"), nullptr);
    EXPECT_EQ(w.packed("B")->nnz(), 12u);
}

TEST(FormatDiagnostics, UnknownFormatConfigInBindingFailsCompile)
{
    // A storage binding naming a format config the format section
    // does not declare must fail at compile() with a "format"
    // diagnostic instead of silently routing the tensor to the
    // default all-compressed format.
    const char* bad = R"(
einsum:
  declaration:
    A: [K, M]
    B: [K]
    Z: [M]
  expressions:
    - Z[m] = A[k, m] * B[k]
format:
  A:
    CSR:
      M:
        format: U
      K:
        format: C
architecture:
  Simple:
    clock: 1e9
    subtree:
      - name: System
        local:
          - name: Memory
            class: DRAM
          - name: Buf
            class: Buffer
            attributes:
              width: 64
              depth: 1024
          - name: ALU
            class: Compute
            attributes:
              type: mul
binding:
  Z:
    config: Simple
    components:
      - component: ALU
        bindings:
          - op: mul
      - component: Buf
        bindings:
          - tensor: A
            rank: K
            config: CSC
)";
    try {
        (void)compiler::compile(compiler::Specification::parse(bad));
        FAIL() << "expected DiagnosticError";
    } catch (const DiagnosticError& e) {
        EXPECT_EQ(e.diagnostic().section, "format");
        EXPECT_NE(std::string(e.what()).find("CSC"), std::string::npos);
    }
}

} // namespace
} // namespace teaal
