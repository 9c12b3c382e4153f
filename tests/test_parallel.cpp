/**
 * @file
 * Tests of parallel sharded execution (RunOptions::threads): the
 * thread-count equivalence guarantee (identical counters, output
 * tensors, and delivered trace streams — including batch boundaries —
 * for every thread count, per Table 1 accelerator spec), sharding of
 * contraction-outermost and inner-rank walks (SIGMA and ExTensor split
 * output-keyed, scalar-output cascades run live, no-space-rank
 * mappings keyed), the split each run picks (deeper than the outermost
 * loop when that yields too few units, never making a collision-free
 * walk collide, never at a take's probe loop) and slices reordering
 * their own partial outputs, which plans shard, the disjoint fiber
 * merge, concurrent CompiledModel::run from multiple host threads, and
 * the unknown-rank diagnostic for co-iteration overrides.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>

#include "accelerators/accelerators.hpp"
#include "baselines/baselines.hpp"
#include "compiler/pipeline.hpp"
#include "fibertree/fiber.hpp"
#include "ir/plan.hpp"
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

/**
 * Sparse matrix with small *integer* values: sums of products of
 * these are exact in double in any grouping, so a test on them checks
 * the structure and counts of a split, not its summation order (real
 * values check that).
 */
ft::Tensor
intMatrix(std::string name, ft::Coord rows, ft::Coord cols,
          std::size_t nnz, std::uint64_t seed,
          std::vector<std::string> rank_ids)
{
    std::vector<std::pair<std::vector<ft::Coord>, ft::Value>> elems;
    std::set<std::pair<ft::Coord, ft::Coord>> used;
    std::uint64_t s = seed;
    auto next = [&s] {
        s = s * 6364136223846793005ULL + 1442695040888963407ULL;
        return s >> 33;
    };
    while (elems.size() < nnz) {
        const ft::Coord r = static_cast<ft::Coord>(next() % rows);
        const ft::Coord c = static_cast<ft::Coord>(next() % cols);
        if (!used.insert({r, c}).second)
            continue;
        elems.push_back(
            {{r, c}, static_cast<ft::Value>(1 + next() % 7)});
    }
    return ft::Tensor::fromCoo(std::move(name), rank_ids,
                               {rows, cols}, elems);
}

/** Each leaf's point and the bit pattern of its value: equal exactly
 *  when the values are the same doubles, not merely close. */
std::vector<std::pair<std::vector<ft::Coord>, std::uint64_t>>
leafBits(const ft::Tensor& t)
{
    std::vector<std::pair<std::vector<ft::Coord>, std::uint64_t>> out;
    t.forEachLeaf([&](std::span<const ft::Coord> p, ft::Value v) {
        out.emplace_back(std::vector<ft::Coord>(p.begin(), p.end()),
                         std::bit_cast<std::uint64_t>(v));
    });
    return out;
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
            EXPECT_DOUBLE_EQ(tt.readBytes, it->second.readBytes);
            EXPECT_DOUBLE_EQ(tt.writeBytes, it->second.writeBytes);
            EXPECT_DOUBLE_EQ(tt.poBytes, it->second.poBytes);
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

/** Run the same workload at two thread counts; everything — counters,
 *  tensors, the delivered trace stream with its batch boundaries —
 *  must be byte-identical. */
void
expectThreadEquivalenceOn(CompiledModel& model, const Workload& w,
                          unsigned t_low, unsigned t_high)
{
    StreamRecorder rec_low;
    RunOptions low;
    low.threads = t_low;
    low.observers.push_back(&rec_low);
    const SimulationResult r_low = model.run(w, low);

    StreamRecorder rec_high;
    RunOptions high;
    high.threads = t_high;
    high.observers.push_back(&rec_high);
    const SimulationResult r_high = model.run(w, high);

    expectSameResults(r_low, r_high);
    ASSERT_EQ(rec_low.log.size(), rec_high.log.size());
    for (std::size_t i = 0; i < rec_low.log.size(); ++i) {
        ASSERT_EQ(rec_low.log[i], rec_high.log[i])
            << "stream diverges at event " << i;
    }
}

void
expectThreadEquivalence(compiler::Specification spec, unsigned t_low,
                        unsigned t_high)
{
    const auto mats = makeMatrices(23);
    auto model = compiler::compile(std::move(spec));
    Workload w;
    w.add("A", mats.a).add("B", mats.b);
    expectThreadEquivalenceOn(model, w, t_low, t_high);
}

/** A two-Einsum cascade ending in a scalar output: the matmul shards
 *  disjoint; Z[] = T[m, n] * W[m, n] has no space rank and a scalar
 *  output — the degenerate reduction where every shard writes the
 *  single output point. */
const char* kScalarCascadeYaml = R"(
einsum:
  declaration:
    A: [K, M]
    B: [K, N]
    W: [M, N]
    T: [M, N]
    Z: []
  expressions:
    - T[m, n] = A[k, m] * B[k, n]
    - Z[] = T[m, n] * W[m, n]
)";

// ------------------------------------------------- thread equivalence

TEST(Parallel, GammaThreads1Vs4)
{
    expectThreadEquivalence(accel::gamma(smallGamma()), 1, 4);
}

TEST(Parallel, GammaThreads2Vs4)
{
    expectThreadEquivalence(accel::gamma(smallGamma()), 2, 4);
}

TEST(Parallel, ExTensorThreads1Vs4)
{
    expectThreadEquivalence(accel::extensor(smallExTensor()), 1, 4);
}

TEST(Parallel, OuterSpaceThreads1Vs4)
{
    expectThreadEquivalence(accel::outerSpace(smallOuterSpace()), 1, 4);
}

/** SIGMA's Z nest is contraction-outermost (K1): it shards with
 *  output-keyed slices below its chunk loop (each slice owns a range
 *  of m). Counters and streams must stay byte-identical at
 *  threads=4. */
TEST(Parallel, SigmaReductionShardingThreads1Vs4)
{
    expectThreadEquivalence(accel::sigma(smallSigma()), 1, 4);
}

/** SIGMA with integer values at 1/2/4 threads, pointer and packed
 *  backends alike: the serial tensor bit-for-bit, as from any keyed
 *  split (integer sums would also hide a regrouped one). */
TEST(Parallel, SigmaIntegerExactThreads124PointerAndPacked)
{
    const ft::Tensor a = intMatrix("A", 40, 32, 300, 23, {"K", "M"});
    const ft::Tensor b = intMatrix("B", 40, 36, 300, 29, {"K", "N"});

    auto model = compiler::compile(accel::sigma(smallSigma()));
    Workload w;
    w.add("A", a).add("B", b);
    expectThreadEquivalenceOn(model, w, 1, 2);
    expectThreadEquivalenceOn(model, w, 1, 4);

    auto packed_model = compiler::compile(accel::sigma(smallSigma()));
    const auto pa = storage::PackedTensor::fromTensor(
        a, packed_model.spec().formats.getLenient("A"));
    const auto pb = storage::PackedTensor::fromTensor(
        b, packed_model.spec().formats.getLenient("B"));
    Workload pw;
    pw.add("A", pa).add("B", pb);
    expectThreadEquivalenceOn(packed_model, pw, 1, 2);
    expectThreadEquivalenceOn(packed_model, pw, 1, 4);
}

/** Scalar-output cascade: the final Einsum reduces everything into
 *  Z[] — every unit writes the same output point, and no output
 *  coordinate exists to key a split on, so at 2 and 4 threads it runs
 *  live: enumerated, then run by the serial engine. Z is the serial
 *  value bit for bit at 1/2/4 threads, pointer and packed, on integer
 *  values and on power-law real ones, whose sums would show any
 *  regrouping in their low bits. */
TEST(Parallel, ScalarCascadeThreads124PointerAndPacked)
{
    struct Inputs
    {
        const char* name;
        ft::Tensor a;
        ft::Tensor b;
        ft::Tensor w;
    };
    const Inputs cases[] = {
        {"integer", intMatrix("A", 40, 32, 300, 31, {"K", "M"}),
         intMatrix("B", 40, 36, 300, 37, {"K", "N"}),
         intMatrix("W", 32, 36, 400, 41, {"M", "N"})},
        {"power-law",
         workloads::powerLawMatrix("A", 40, 32, 300, 31, {"K", "M"}),
         workloads::powerLawMatrix("B", 40, 36, 300, 37, {"K", "N"}),
         workloads::powerLawMatrix("W", 32, 36, 400, 41, {"M", "N"})},
    };
    for (const Inputs& in : cases) {
        SCOPED_TRACE(in.name);
        auto model = compiler::compile(
            compiler::Specification::parse(kScalarCascadeYaml));
        Workload w;
        w.add("A", in.a).add("B", in.b).add("W", in.w);
        expectThreadEquivalenceOn(model, w, 1, 2);
        expectThreadEquivalenceOn(model, w, 1, 4);
        const SimulationResult serial = model.run(w, RunOptions{});
        for (const unsigned threads : {2u, 4u}) {
            SCOPED_TRACE(threads);
            RunOptions opts;
            opts.threads = threads;
            const SimulationResult r = model.run(w, opts);
            ASSERT_EQ(r.splits.size(), 2u);
            EXPECT_EQ(r.splits[1].merge, exec::SplitPoint::Merge::Live);
            EXPECT_EQ(r.splits[1].segments, 0u);
            EXPECT_EQ(leafBits(r.tensors.at("Z")),
                      leafBits(serial.tensors.at("Z")));
        }

        auto packed_model = compiler::compile(
            compiler::Specification::parse(kScalarCascadeYaml));
        const auto pa = storage::PackedTensor::fromTensor(
            in.a, packed_model.spec().formats.getLenient("A"));
        const auto pb = storage::PackedTensor::fromTensor(
            in.b, packed_model.spec().formats.getLenient("B"));
        const auto pwt = storage::PackedTensor::fromTensor(
            in.w, packed_model.spec().formats.getLenient("W"));
        Workload pw;
        pw.add("A", pa).add("B", pb).add("W", pwt);
        expectThreadEquivalenceOn(packed_model, pw, 1, 2);
        expectThreadEquivalenceOn(packed_model, pw, 1, 4);
    }
}

// ------------------------------------------------------ split depth

/** ExTensor with top tiles larger than the matrices: N2, K2 and M2
 *  have one coordinate each and M1 alone yields too few units, so the
 *  walk is split one loop deeper at N1. With K1 tiles larger than K
 *  too, K1 never branches, so the walk stays collision-free at N1 and
 *  splits disjoint there. With 16-wide K1 tiles, K1 branches on the
 *  contraction below N1's few units, so the split goes output-keyed at
 *  M0, the first loop below K1 that binds an output variable: every
 *  slice owns a range of m and runs all of its M0 units in unit order
 *  across the K1 nodes. Either way Z keeps the serial summation order:
 *  bit-identical to the serial run and to Gustavson's, with identical
 *  counters and streams, and the split is the same at 2 and 4
 *  threads. */
TEST(Parallel, ExTensorSplitsBelowOneCoordinateTiles)
{
    struct Case
    {
        ft::Coord tileK1;
        const char* rank;
        std::size_t depth;
        exec::SplitPoint::Merge merge;
    };
    for (const Case& c :
         {Case{64, "N1", 4, exec::SplitPoint::Merge::Disjoint},
          Case{16, "M0", 6, exec::SplitPoint::Merge::Keyed}}) {
        SCOPED_TRACE(c.rank);
        accel::ExTensorConfig cfg = smallExTensor();
        cfg.tileK1 = c.tileK1;
        cfg.tileM1 = 64;
        cfg.tileN1 = 64;
        const auto mats = makeMatrices(23);
        auto model = compiler::compile(accel::extensor(cfg));
        Workload w;
        w.add("A", mats.a).add("B", mats.b);

        StreamRecorder serial_rec;
        RunOptions serial;
        serial.observers.push_back(&serial_rec);
        const SimulationResult ref = model.run(w, serial);
        const ft::Tensor& z = ref.result(model.spec());
        EXPECT_TRUE(
            z.equals(baselines::gustavsonSpmspm(mats.a, mats.b), 0.0));
        ASSERT_EQ(ref.splits.size(), 1u);
        EXPECT_EQ(ref.splits[0].merge, exec::SplitPoint::Merge::Serial);

        std::vector<exec::SplitPoint> splits;
        for (const unsigned threads : {2u, 4u}) {
            SCOPED_TRACE(threads);
            StreamRecorder rec;
            RunOptions opts;
            opts.threads = threads;
            opts.observers.push_back(&rec);
            const SimulationResult got = model.run(w, opts);
            expectSameResults(ref, got);
            EXPECT_EQ(rec.log, serial_rec.log);
            EXPECT_TRUE(got.result(model.spec()).equals(z, 0.0));
            ASSERT_EQ(got.splits.size(), 1u);
            const exec::SplitPoint& split = got.splits[0];
            EXPECT_EQ(split.rank, c.rank);
            EXPECT_EQ(split.depth, c.depth);
            EXPECT_GE(split.units, 16u);
            EXPECT_EQ(split.merge, c.merge);
            EXPECT_GT(split.slices, 1u);
            splits.push_back(split);
        }
        EXPECT_EQ(splits[0].units, splits[1].units);
        EXPECT_EQ(splits[0].slices, splits[1].slices);
        if (c.merge == exec::SplitPoint::Merge::Keyed) {
            // Every keyed slice has a segment under at least one K1
            // node.
            EXPECT_GE(splits[1].segments, splits[1].slices);
            EXPECT_EQ(splits[0].segments, splits[1].segments);
        }
    }
}

/** SIGMA's Z at two geometries. At the small one, three K1 tiles of
 *  about two MK01 chunks each are too few units, and the walk already
 *  branches at those contraction loops, so it moves below MK01 to
 *  MK00. With 2-wide K tiles of one chunk each, MK01 never branches
 *  but the twenty K1 tiles do, so the walk collides at MK01 through
 *  K1, which restricts k although its leaf rank K0 is flattened into
 *  MK0. Either way the split goes output-keyed at MK00, whose leading
 *  variable m is Z's: slices own ranges of m, each accumulating its
 *  points in the serial order, so tensors equal the serial run's
 *  exactly, like counters and streams, and 2 and 4 threads report the
 *  same split. */
TEST(Parallel, SigmaSplitsBelowItsChunkLoop)
{
    accel::SigmaConfig one_chunk_tiles = smallSigma();
    one_chunk_tiles.kTile = 2;
    one_chunk_tiles.stationaryChunk = 4096;
    for (const accel::SigmaConfig& cfg : {smallSigma(), one_chunk_tiles}) {
        SCOPED_TRACE(cfg.kTile);
        const auto mats = makeMatrices(23);
        auto model = compiler::compile(accel::sigma(cfg));
        Workload w;
        w.add("A", mats.a).add("B", mats.b);
        expectThreadEquivalenceOn(model, w, 1, 2);
        expectThreadEquivalenceOn(model, w, 1, 4);

        const SimulationResult r1 = model.run(w);
        RunOptions two;
        two.threads = 2;
        RunOptions four;
        four.threads = 4;
        const SimulationResult r2 = model.run(w, two);
        const SimulationResult r4 = model.run(w, four);
        ASSERT_EQ(r4.splits.size(), 3u);
        const exec::SplitPoint& z4 = r4.splits[2];
        EXPECT_EQ(z4.rank, "MK00");
        EXPECT_EQ(z4.depth, 2u);
        EXPECT_EQ(z4.merge, exec::SplitPoint::Merge::Keyed);
        EXPECT_GT(z4.slices, 1u);
        EXPECT_EQ(r2.splits[2].merge, z4.merge);
        EXPECT_EQ(r2.splits[2].rank, z4.rank);
        EXPECT_EQ(r2.splits[2].units, z4.units);
        EXPECT_EQ(r2.splits[2].slices, z4.slices);
        for (const auto& [name, t] : r1.tensors) {
            EXPECT_TRUE(t.equals(r2.tensors.at(name), 0.0)) << name;
            EXPECT_TRUE(t.equals(r4.tensors.at(name), 0.0)) << name;
        }
    }
}

/** OuterSPACE's T is produced [K, M, N] and stored [M, K, N], and its
 *  walk splits disjoint, so each slice reorders its own partial and
 *  the coordinator charges the swizzle from the node counts the merged
 *  stream announced. T and its delivered swizzle record (elements,
 *  merge ways) must equal the serial run's at 2 and 4 threads. */
TEST(Parallel, OuterSpaceSlicesReorderTheirOwnPartials)
{
    const auto mats = makeMatrices(23);
    auto model = compiler::compile(accel::outerSpace(smallOuterSpace()));
    Workload w;
    w.add("A", mats.a).add("B", mats.b);
    ASSERT_TRUE(model.plans(w)[0].output.needsReorder);

    const auto swizzlesOfT = [](const StreamRecorder& rec) {
        std::vector<std::string> out;
        for (const std::string& e : rec.log) {
            if (e.rfind("Z:", 0) == 0 && e.size() > 2 &&
                e.compare(e.size() - 2, 2, ":T") == 0)
                out.push_back(e);
        }
        return out;
    };
    StreamRecorder serial_rec;
    RunOptions serial;
    serial.observers.push_back(&serial_rec);
    const SimulationResult ref = model.run(w, serial);
    // T's output swizzle, then Z's online swizzle of its input T.
    ASSERT_EQ(swizzlesOfT(serial_rec).size(), 2u);

    for (const unsigned threads : {2u, 4u}) {
        SCOPED_TRACE(threads);
        StreamRecorder rec;
        RunOptions opts;
        opts.threads = threads;
        opts.observers.push_back(&rec);
        const SimulationResult got = model.run(w, opts);
        EXPECT_EQ(got.splits[0].merge, exec::SplitPoint::Merge::Disjoint);
        EXPECT_EQ(swizzlesOfT(rec), swizzlesOfT(serial_rec));
        EXPECT_TRUE(got.tensors.at("T").equals(ref.tensors.at("T"), 0.0));
        expectSameResults(ref, got);
        EXPECT_EQ(rec.log, serial_rec.log);
    }
}

/** A union walk over a partition window that matched nothing. M is
 *  split by A's occupancy into the tiles [0, 10) and [10, ...), so B's
 *  only row 5 falls in the first: B's window in the second tile is
 *  empty but keeps its position after row 5 (lo == hi == 1). The merge
 *  must start at the window, not at the rank's first element, so
 *  Z[5, 0] is B's 100 once, and each of the five output points is one
 *  leaf visit, at 1, 2 and 4 threads. */
TEST(Parallel, EmptyWindowKeepsItsPosition)
{
    const char* yaml = R"(
einsum:
  declaration:
    A: [M, N]
    B: [M, N]
    Z: [M, N]
  expressions:
    - Z[m, n] = A[m, n] + B[m, n]
mapping:
  partitioning:
    Z:
      M: [uniform_occupancy(A.2)]
  loop-order:
    Z: [M1, M0, N]
)";
    using Elems = std::vector<std::pair<std::vector<ft::Coord>, ft::Value>>;
    Elems a;
    for (const ft::Coord m : {0, 1, 10, 11})
        a.push_back({{m, 0}, 1.0});
    const Elems b = {{{5, 0}, 100.0}};
    Workload w;
    w.add("A", ft::Tensor::fromCoo("A", {"M", "N"}, {16, 2}, a))
        .add("B", ft::Tensor::fromCoo("B", {"M", "N"}, {16, 2}, b));
    auto model = compiler::compile(compiler::Specification::parse(yaml));
    for (const unsigned threads : {1u, 2u, 4u}) {
        SCOPED_TRACE(threads);
        RunOptions opts;
        opts.threads = threads;
        const SimulationResult r = model.run(w, opts);
        const ft::Tensor& z = r.result(model.spec());
        EXPECT_EQ(z.nnz(), 5u);
        const std::vector<ft::Coord> row5 = {5, 0};
        EXPECT_EQ(z.at(row5), 100.0);
        for (const ft::Coord m : {0, 1, 10, 11}) {
            const std::vector<ft::Coord> p = {m, 0};
            EXPECT_EQ(z.at(p), 1.0) << m;
        }
        ASSERT_EQ(r.records.size(), 1u);
        EXPECT_EQ(r.records[0].execStats.leafVisits, 5u);
    }
}

/** A mapping with no spacetime section at all still shards: declared
 *  spatial parallelism is no prerequisite. M's 32 units are fewer than
 *  a pool's slice count, and K branches below them on the contraction,
 *  so the run splits output-keyed at N, the first loop below K that
 *  binds an output variable. */
TEST(Parallel, NoSpaceRankShardsKeyed)
{
    const char* yaml = R"(
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
)";
    auto model =
        compiler::compile(compiler::Specification::parse(yaml));
    const auto mats = makeMatrices(5);
    Workload w;
    w.add("A", mats.a).add("B", mats.b);
    RunOptions serial;
    RunOptions wide;
    wide.threads = 4;
    const SimulationResult r = model.run(w, wide);
    expectSameResults(model.run(w, serial), r);
    ASSERT_EQ(r.splits.size(), 1u);
    EXPECT_EQ(r.splits[0].merge, exec::SplitPoint::Merge::Keyed);
    EXPECT_EQ(r.splits[0].rank, "N");
    EXPECT_EQ(r.splits[0].depth, 2u);
    EXPECT_GT(r.splits[0].slices, 1u);
}

/** SIGMA's first take, S[k, m] = take(A[k, m], B[k, n], 0), under a
 *  loop order given per case: n is its probe variable, and no split
 *  reaches a loop that restricts it. With N outermost the plan is not
 *  shardable and a 4-thread run is the serial one. With N below K the
 *  run splits at K: its 8 units are too few to feed a pool, but the
 *  loop below is the probe loop. Either way the 4-thread run equals
 *  the serial run. */
TEST(Parallel, TakeProbeLoopIsNeverSplit)
{
    struct Case
    {
        const char* order;
        bool shardable;
    };
    for (const Case& c :
         {Case{"[N, K, M]", false}, Case{"[K, N, M]", true}}) {
        SCOPED_TRACE(c.order);
        const std::string yaml = std::string(R"(
einsum:
  declaration:
    A: [K, M]
    B: [K, N]
    S: [K, M]
  expressions:
    - S[k, m] = take(A[k, m], B[k, n], 0)
mapping:
  loop-order:
    S: )") + c.order + "\n";
        auto model =
            compiler::compile(compiler::Specification::parse(yaml));
        Workload w;
        w.add("A", intMatrix("A", 8, 32, 120, 43, {"K", "M"}))
            .add("B", intMatrix("B", 8, 36, 120, 47, {"K", "N"}));
        const ir::ShardPlan& sp = model.plans(w).at(0).shard;
        EXPECT_EQ(sp.shardable, c.shardable) << sp.reason;
        if (!c.shardable)
            EXPECT_NE(sp.reason.find("'N'"), std::string::npos)
                << sp.reason;

        StreamRecorder serial_rec;
        RunOptions serial;
        serial.observers.push_back(&serial_rec);
        const SimulationResult ref = model.run(w, serial);
        StreamRecorder rec;
        RunOptions four;
        four.threads = 4;
        four.observers.push_back(&rec);
        const SimulationResult got = model.run(w, four);
        expectSameResults(ref, got);
        EXPECT_EQ(rec.log, serial_rec.log);
        EXPECT_EQ(leafBits(got.tensors.at("S")),
                  leafBits(ref.tensors.at("S")));
        ASSERT_EQ(got.splits.size(), 1u);
        const exec::SplitPoint& split = got.splits[0];
        if (c.shardable) {
            EXPECT_EQ(split.rank, "K");
            EXPECT_EQ(split.depth, 0u);
            EXPECT_EQ(split.units, 8u);
            EXPECT_EQ(split.merge, exec::SplitPoint::Merge::Disjoint);
            EXPECT_GT(split.slices, 1u);
        } else {
            EXPECT_EQ(split.merge, exec::SplitPoint::Merge::Serial);
        }
    }
}

// -------------------------------------------------------- shard plans

/** Each instantiated plan says whether its walk can shard; the run's
 *  splits say how it did. Gamma's and SIGMA's Einsums all shard, and
 *  SIGMA's Z, whose outermost rank K1 restricts the contraction, runs
 *  output-keyed. In the FFT step's O and T the outermost loop K
 *  carries lookups of P's constant coordinates; both split disjoint
 *  at K and equal the serial run. A unary full reduction
 *  lowers to the whole-tensor copy, which bypasses the loop nest:
 *  nothing to shard, and its 4-thread run reports a serial split. */
TEST(Parallel, ShardPlansAndRunSplits)
{
    const auto mats = makeMatrices(11);
    Workload w;
    w.add("A", mats.a).add("B", mats.b);
    RunOptions four;
    four.threads = 4;

    auto gamma = compiler::compile(accel::gamma(smallGamma()));
    ASSERT_EQ(gamma.plans(w).size(), 2u);
    for (const ir::EinsumPlan& plan : gamma.plans(w))
        EXPECT_TRUE(plan.shard.shardable) << plan.shard.reason;

    auto sigma = compiler::compile(accel::sigma(smallSigma()));
    ASSERT_EQ(sigma.plans(w).size(), 3u);
    for (const ir::EinsumPlan& plan : sigma.plans(w))
        EXPECT_TRUE(plan.shard.shardable) << plan.shard.reason;
    const SimulationResult r = sigma.run(w, four);
    ASSERT_EQ(r.splits.size(), 3u);
    EXPECT_EQ(r.splits[2].merge, exec::SplitPoint::Merge::Keyed);

    auto fft = compiler::compile(compiler::Specification::parse(R"(
einsum:
  declaration:
    P: [Z, K, N, W]
    X: [N, Z]
    O: [K]
    T: [K]
  expressions:
    - O[k] = P[0, k, n, 0] * X[n, 1]
    - T[k] = P[0, k, 0, 1] * O[k]
)"));
    std::vector<std::pair<std::vector<ft::Coord>, ft::Value>> pe;
    std::vector<std::pair<std::vector<ft::Coord>, ft::Value>> xe;
    for (ft::Coord k = 0; k < 32; ++k) {
        for (ft::Coord n = 0; n < 4; ++n)
            pe.push_back({{0, k, n, 0}, static_cast<ft::Value>(1 + k % 5)});
        pe.push_back({{0, k, 0, 1}, static_cast<ft::Value>(2 + k % 3)});
    }
    for (ft::Coord n = 0; n < 4; ++n)
        xe.push_back({{n, 1}, static_cast<ft::Value>(n + 1)});
    Workload f;
    f.add("P", ft::Tensor::fromCoo("P", {"Z", "K", "N", "W"},
                                   {1, 32, 4, 2}, pe))
        .add("X", ft::Tensor::fromCoo("X", {"N", "Z"}, {4, 2}, xe));
    for (const ir::EinsumPlan& plan : fft.plans(f))
        EXPECT_TRUE(plan.shard.shardable) << plan.shard.reason;
    StreamRecorder serial_rec;
    RunOptions serial;
    serial.observers.push_back(&serial_rec);
    const SimulationResult fs = fft.run(f, serial);
    StreamRecorder rec;
    RunOptions four_rec = four;
    four_rec.observers.push_back(&rec);
    const SimulationResult f4 = fft.run(f, four_rec);
    expectSameResults(fs, f4);
    EXPECT_EQ(rec.log, serial_rec.log);
    ASSERT_EQ(f4.splits.size(), 2u);
    for (const exec::SplitPoint& split : f4.splits) {
        EXPECT_EQ(split.rank, "K");
        EXPECT_EQ(split.merge, exec::SplitPoint::Merge::Disjoint);
        EXPECT_GT(split.slices, 1u);
    }

    auto copy = compiler::compile(
        compiler::Specification::parse(R"(
einsum:
  declaration:
    T: [M, N]
    Z: []
  expressions:
    - Z[] = T[m, n]
)"));
    Workload t;
    t.add("T", intMatrix("T", 32, 36, 200, 53, {"M", "N"}));
    ASSERT_EQ(copy.plans(t).size(), 1u);
    const ir::ShardPlan& sp = copy.plans(t)[0].shard;
    EXPECT_FALSE(sp.shardable);
    EXPECT_NE(sp.reason.find("whole-tensor copy"), std::string::npos)
        << sp.reason;
    const SimulationResult c = copy.run(t, four);
    ASSERT_EQ(c.splits.size(), 1u);
    EXPECT_EQ(c.splits[0].merge, exec::SplitPoint::Merge::Serial);
}

// ------------------------------------------------- unknown overrides

TEST(Parallel, UnknownCoiterOverrideRankIsDiagnosed)
{
    const auto mats = makeMatrices(7);
    auto model = compiler::compile(accel::gamma(smallGamma()));
    Workload w;
    w.add("A", mats.a).add("B", mats.b);
    RunOptions opts;
    opts.coiterOverrides["QQ"] = ir::CoiterStrategy::Gallop;
    try {
        model.run(w, opts);
        FAIL() << "expected DiagnosticError";
    } catch (const DiagnosticError& e) {
        EXPECT_EQ(e.diagnostic().section, "exec");
        EXPECT_EQ(e.diagnostic().key, "QQ");
        EXPECT_NE(e.diagnostic().message.find("QQ"),
                  std::string::npos);
    }
    // Valid ranks must keep working after per-Einsum slicing.
    RunOptions valid;
    valid.coiterOverrides["K0"] = ir::CoiterStrategy::TwoFinger;
    EXPECT_NO_THROW(model.run(w, valid));
}

TEST(Parallel, EngineRejectsUnknownOverrideRank)
{
    const auto mats = makeMatrices(9);
    auto model = compiler::compile(accel::gamma(smallGamma()));
    Workload w;
    w.add("A", mats.a).add("B", mats.b);
    const auto& plans = model.plans(w);
    ASSERT_FALSE(plans.empty());
    trace::Observer obs;
    exec::ExecOptions eo;
    eo.coiterOverrides["NOPE"] = ir::CoiterStrategy::DenseDrive;
    EXPECT_THROW(
        exec::Executor(plans[0], obs, exec::Semiring::arithmetic(), eo),
        DiagnosticError);
}

// ------------------------------------------------------- fiber merge

TEST(Parallel, AbsorbDisjointAppendFastPath)
{
    ft::Fiber a(100);
    a.append(1, ft::Payload(1.0));
    a.append(5, ft::Payload(2.0));
    ft::Fiber b(100);
    b.append(7, ft::Payload(3.0));
    b.append(9, ft::Payload(4.0));
    a.absorbDisjoint(std::move(b));
    ASSERT_EQ(a.size(), 4u);
    EXPECT_EQ(a.coordAt(2), 7);
    EXPECT_DOUBLE_EQ(a.payloadAt(3).value(), 4.0);
}

TEST(Parallel, AbsorbDisjointInterleavedAndRecursive)
{
    auto child = [](ft::Coord c, double v) {
        auto f = std::make_shared<ft::Fiber>(ft::Coord{10});
        f->append(c, ft::Payload(v));
        return f;
    };
    ft::Fiber a(100);
    a.append(2, ft::Payload(child(1, 1.0)));
    a.append(8, ft::Payload(child(2, 2.0)));
    ft::Fiber b(100);
    b.append(2, ft::Payload(child(5, 5.0))); // collides: recurse
    b.append(4, ft::Payload(child(3, 3.0)));
    a.absorbDisjoint(std::move(b));
    ASSERT_EQ(a.size(), 3u);
    EXPECT_EQ(a.coordAt(0), 2);
    EXPECT_EQ(a.coordAt(1), 4);
    EXPECT_EQ(a.coordAt(2), 8);
    // The colliding subfibers merged: {1, 5} under coordinate 2.
    ASSERT_EQ(a.payloadAt(0).fiber()->size(), 2u);
    EXPECT_DOUBLE_EQ(a.payloadAt(0).fiber()->payloadAt(1).value(), 5.0);
}

TEST(Parallel, AbsorbDisjointLeafCollisionIsAnError)
{
    ft::Fiber a(10);
    a.append(3, ft::Payload(1.0));
    ft::Fiber b(10);
    b.append(3, ft::Payload(2.0));
    EXPECT_THROW(a.absorbDisjoint(std::move(b)), ModelError);
}

/** The disjoint merge's collision error names the Einsum and rank it
 *  happened on when given context. */
TEST(Parallel, AbsorbDisjointErrorNamesEinsumAndRank)
{
    ft::Fiber a(10);
    a.append(3, ft::Payload(1.0));
    ft::Fiber b(10);
    b.append(3, ft::Payload(2.0));
    ft::AbsorbContext ctx;
    ctx.einsum = "Z";
    ctx.rankIds = {"N"};
    try {
        a.absorbDisjoint(std::move(b), &ctx);
        FAIL() << "expected ModelError";
    } catch (const ModelError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("'N'"), std::string::npos) << msg;
        EXPECT_NE(msg.find("'Z'"), std::string::npos) << msg;
    }
}

/** An observer throwing mid-run must surface as a catchable exception
 *  from run() at any thread count (workers are drained first), not a
 *  process abort: thrown at its first batch, or a quarter, half or
 *  three quarters into the run. Gamma splits disjoint; ExTensor with
 *  K1 tiles under one N1 tile splits output-keyed, a segment per slice
 *  and K1 node, more than the claim window holds. A later throw then
 *  finds slice engines idle between two segments after the coordinator
 *  replayed and freed earlier captures, and the unwind that destroys
 *  those engines must not touch a freed capture (the sanitizer jobs
 *  check). */
TEST(Parallel, ObserverExceptionPropagatesFromShardedRun)
{
    struct Thrower : trace::Observer
    {
        std::size_t at = 0; // 0: never throw, only count
        std::size_t seen = 0;

        void
        onEventBatch(const trace::EventBatch&) override
        {
            if (++seen == at)
                throw std::runtime_error("observer boom");
        }
    };
    const auto mats = makeMatrices(31);
    accel::ExTensorConfig keyed = smallExTensor();
    keyed.tileM1 = 64;
    keyed.tileN1 = 64;
    for (const bool is_keyed : {false, true}) {
        auto model = compiler::compile(is_keyed ? accel::extensor(keyed)
                                                : accel::gamma(smallGamma()));
        Workload w;
        w.add("A", mats.a).add("B", mats.b);
        Thrower counter;
        RunOptions four;
        four.threads = 4;
        four.observers.push_back(&counter);
        const SimulationResult clean = model.run(w, four);
        const std::size_t batches = counter.seen;
        ASSERT_GE(batches, 8u);
        if (is_keyed) {
            const exec::SplitPoint& split = clean.splits.back();
            ASSERT_EQ(split.merge, exec::SplitPoint::Merge::Keyed);
            ASSERT_GT(split.segments, 2 * split.slices);
        }
        for (const std::size_t at :
             {std::size_t{1}, batches / 4, batches / 2, 3 * batches / 4}) {
            for (const unsigned threads : {1u, 4u}) {
                Thrower thrower;
                thrower.at = at;
                RunOptions opts;
                opts.threads = threads;
                opts.cacheState = false;
                opts.observers.push_back(&thrower);
                EXPECT_THROW(model.run(w, opts), std::runtime_error)
                    << "keyed=" << is_keyed << " threads=" << threads
                    << " batch " << at << " of " << batches;
            }
        }
        // The pool drained: the model runs cleanly afterwards.
        Thrower again_counter;
        four.observers = {&again_counter};
        expectSameResults(clean, model.run(w, four));
        EXPECT_EQ(again_counter.seen, batches);
    }
}

// ------------------------------------------------ concurrent run()

/** Concurrent CompiledModel::run from multiple host threads on
 *  distinct workloads, with a cache small enough to force eviction
 *  churn: the internally synchronized LRU must never corrupt state
 *  or results (run under TSan/ASan in debug builds). */
TEST(Parallel, ConcurrentRunsOnDistinctWorkloads)
{
    compiler::CompileOptions copts;
    copts.workloadCacheCapacity = 2; // force evictions
    auto model = compiler::compile(accel::gamma(smallGamma()), copts);

    constexpr int kThreads = 4;
    constexpr int kRounds = 3;
    std::vector<TestMatrices> mats;
    std::vector<SimulationResult> reference;
    for (int t = 0; t < kThreads; ++t) {
        mats.push_back(makeMatrices(100 + 10 * t));
        Workload w;
        w.add("A", mats.back().a).add("B", mats.back().b);
        reference.push_back(model.run(w));
    }
    model.clearCache();

    std::vector<SimulationResult> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Workload w;
            w.add("A", mats[static_cast<std::size_t>(t)].a)
                .add("B", mats[static_cast<std::size_t>(t)].b);
            RunOptions opts;
            // Half the host threads also shard internally, sharing
            // the model's worker pool.
            opts.threads = t % 2 == 0 ? 1 : 2;
            for (int round = 0; round < kRounds; ++round)
                got[static_cast<std::size_t>(t)] = model.run(w, opts);
        });
    }
    for (std::thread& t : threads)
        t.join();
    for (int t = 0; t < kThreads; ++t) {
        expectSameResults(reference[static_cast<std::size_t>(t)],
                          got[static_cast<std::size_t>(t)]);
    }
}

/**
 * Plan-cache LRU eviction under concurrent churn (deterministic, no
 * sleeps — run under TSan in CI): more live workloads than cache
 * capacity, every host thread cycling through all of them in a
 * different order, so entries are concurrently hit, missed, evicted,
 * and re-instantiated. Results must match the serial reference
 * exactly, counters must balance, and eviction must actually have
 * happened (the stress is vacuous otherwise).
 */
TEST(Parallel, PlanCacheEvictionStress)
{
    compiler::CompileOptions copts;
    copts.workloadCacheCapacity = 2;
    auto model = compiler::compile(accel::gamma(smallGamma()), copts);

    constexpr int kWorkloads = 5;
    constexpr int kThreads = 4;
    constexpr int kRounds = 4;
    std::vector<TestMatrices> mats;
    std::vector<Workload> workloads(kWorkloads);
    std::vector<SimulationResult> reference;
    for (int i = 0; i < kWorkloads; ++i)
        mats.push_back(makeMatrices(500 + 10 * i));
    for (int i = 0; i < kWorkloads; ++i) {
        // Workloads are shared across host threads (stable
        // fingerprints — a per-thread Workload would never share
        // cache entries), so borrow from the stable mats vector.
        workloads[static_cast<std::size_t>(i)]
            .add("A", mats[static_cast<std::size_t>(i)].a)
            .add("B", mats[static_cast<std::size_t>(i)].b);
        reference.push_back(model.run(
            workloads[static_cast<std::size_t>(i)]));
    }
    model.clearCache();
    // Counters survive clearCache (entries do not); assert on deltas.
    const compiler::PlanCacheStats before = model.planCacheStats();
    ASSERT_EQ(before.entries, 0u);

    std::vector<std::vector<SimulationResult>> got(
        kThreads, std::vector<SimulationResult>(kWorkloads));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int round = 0; round < kRounds; ++round) {
                for (int i = 0; i < kWorkloads; ++i) {
                    // A different cycling order per thread maximizes
                    // LRU churn (thread t starts at workload t).
                    const int w = (i + t) % kWorkloads;
                    got[static_cast<std::size_t>(t)]
                       [static_cast<std::size_t>(w)] = model.run(
                           workloads[static_cast<std::size_t>(w)]);
                }
            }
        });
    }
    for (std::thread& th : threads)
        th.join();

    for (int t = 0; t < kThreads; ++t) {
        for (int i = 0; i < kWorkloads; ++i)
            expectSameResults(reference[static_cast<std::size_t>(i)],
                              got[static_cast<std::size_t>(t)]
                                 [static_cast<std::size_t>(i)]);
    }

    const compiler::PlanCacheStats stats = model.planCacheStats();
    const std::uint64_t total = kThreads * kRounds * kWorkloads;
    EXPECT_EQ((stats.hits - before.hits) +
                  (stats.misses - before.misses),
              total); // every run() is exactly one hit or one miss
    EXPECT_GT(stats.evictions,
              before.evictions); // capacity 2 < 5 live workloads
    EXPECT_LE(stats.entries, 2u);
    // Since clearCache, every miss instantiated a state and every
    // eviction retired one; whatever the interleaving, the ledger
    // balances to the live entry count.
    EXPECT_EQ(stats.misses - before.misses, stats.evictions -
                                                before.evictions +
                                                stats.entries);
}

} // namespace
} // namespace teaal
