/**
 * @file
 * Golden digests of serial runs: the four Table 1 accelerators on two
 * small seeded stand-ins (power-law and banded, B drawn from A's seed
 * so Z = A^T A). Each run is reduced to a text digest that pins the
 * modeled time as a hexfloat, the per-tensor traffic, the execution
 * counters, the trace-bus totals, an FNV-1a hash of the result's
 * leaves, and an FNV-1a hash of the storage-tier stream a
 * StreamRecorder records. The pinned strings were recorded once; any
 * drift in a modeled count, a result value, or the delivered stream
 * fails here, whichever input backend the run binds. The packed-input
 * run of each configuration must give the same digest, and so must
 * sharded runs at 2 and 4 threads — pointer inputs with resident
 * captures, and packed inputs with captures spilled in small segments
 * — result values (`z=`) included.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include "accelerators/accelerators.hpp"
#include "compiler/pipeline.hpp"
#include "storage/packed.hpp"
#include "support.hpp"
#include "workloads/datasets.hpp"

namespace teaal
{
namespace
{

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

/** FNV-1a over @p n raw bytes, continuing from @p h. */
std::uint64_t
fnv1a(std::uint64_t h, const void* data, std::size_t n)
{
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

std::string
hexfloat(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

std::string
hex64(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Hash of every leaf of @p t: its coordinates and value bits. */
std::uint64_t
leafHash(const ft::Tensor& t)
{
    std::uint64_t h = kFnvBasis;
    t.forEachLeaf([&h](std::span<const ft::Coord> point, ft::Value v) {
        h = fnv1a(h, point.data(), point.size() * sizeof(ft::Coord));
        h = fnv1a(h, &v, sizeof(v));
    });
    return h;
}

std::uint64_t
streamHash(const std::vector<std::string>& log)
{
    std::uint64_t h = kFnvBasis;
    for (const std::string& line : log) {
        h = fnv1a(h, line.data(), line.size());
        h = fnv1a(h, "\n", 1);
    }
    return h;
}

/** The pinned text digest of one run. */
std::string
digest(const compiler::SimulationResult& r, const std::string& result,
       const test::StreamRecorder& rec)
{
    std::ostringstream os;
    os << "seconds=" << hexfloat(r.perf.totalSeconds) << '\n';
    for (const auto& [tensor, tt] : r.traffic) {
        os << "traffic " << tensor << " r=" << hexfloat(tt.readBytes)
           << " w=" << hexfloat(tt.writeBytes)
           << " po=" << hexfloat(tt.poBytes) << '\n';
    }
    for (const model::EinsumRecord& e : r.records) {
        os << "einsum " << e.output << " muls=" << e.execStats.computeMuls
           << " adds=" << e.execStats.computeAdds
           << " leaves=" << e.execStats.leafVisits
           << " writes=" << e.execStats.outputWrites
           << " events=" << e.traceEvents << " batches=" << e.traceBatches
           << '\n';
    }
    os << "z=" << hex64(leafHash(r.tensors.at(result))) << '\n';
    os << "stream=" << hex64(streamHash(rec.log)) << ":" << rec.log.size()
       << '\n';
    return os.str();
}

accel::GammaConfig
smallGamma()
{
    accel::GammaConfig cfg;
    cfg.pes = 4;
    cfg.rowChunk = 4;
    cfg.kChunk = 8;
    cfg.fiberCacheBytes = 16 * 1024;
    return cfg;
}

accel::ExTensorConfig
smallExTensor()
{
    accel::ExTensorConfig cfg;
    cfg.pes = 4;
    cfg.tileK1 = 32;
    cfg.tileK0 = 8;
    cfg.tileM1 = 32;
    cfg.tileM0 = 8;
    cfg.tileN1 = 32;
    cfg.tileN0 = 8;
    cfg.llcBytes = 16 * 1024;
    cfg.peBufferBytes = 1024;
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
    cfg.l0CacheBytes = 2 * 1024;
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

compiler::Specification
specOf(const std::string& accel)
{
    if (accel == "gamma")
        return accel::gamma(smallGamma());
    if (accel == "extensor")
        return accel::extensor(smallExTensor());
    if (accel == "outerspace")
        return accel::outerSpace(smallOuterSpace());
    return accel::sigma(smallSigma());
}

struct Pair
{
    ft::Tensor a;
    ft::Tensor b;
};

/** The stand-in pairs: B shares A's seed, only the rank ids differ. */
Pair
standIn(const std::string& kind)
{
    constexpr std::uint64_t kSeed = 2025;
    if (kind == "powerlaw") {
        return {workloads::powerLawMatrix("A", 96, 96, 700, kSeed,
                                          {"K", "M"}),
                workloads::powerLawMatrix("B", 96, 96, 700, kSeed,
                                          {"K", "N"})};
    }
    return {workloads::bandedMatrix("A", 96, 96, 600, kSeed, {"K", "M"}),
            workloads::bandedMatrix("B", 96, 96, 600, kSeed, {"K", "N"})};
}

/** Serial run of @p accel on @p kind, pointer and packed inputs. */
void
expectGolden(const std::string& accel, const std::string& kind,
             const std::string& pinned)
{
    const Pair p = standIn(kind);
    auto model = compiler::compile(specOf(accel));
    const std::string result = model.spec().einsums.resultTensor();

    test::StreamRecorder pointer_rec;
    compiler::RunOptions opts;
    opts.observers = {&pointer_rec};
    compiler::Workload pointer_w;
    pointer_w.add("A", p.a).add("B", p.b);
    const compiler::SimulationResult pointer = model.run(pointer_w, opts);
    EXPECT_EQ(digest(pointer, result, pointer_rec), pinned)
        << accel << "/" << kind << " (pointer inputs)";

    test::StreamRecorder packed_rec;
    opts.observers = {&packed_rec};
    compiler::Workload packed_w;
    packed_w
        .add("A", storage::PackedTensor::fromTensor(
                      p.a, model.spec().formats.getLenient("A")))
        .add("B", storage::PackedTensor::fromTensor(
                      p.b, model.spec().formats.getLenient("B")));
    const compiler::SimulationResult packed = model.run(packed_w, opts);
    EXPECT_EQ(digest(packed, result, packed_rec), pinned)
        << accel << "/" << kind << " (packed inputs)";

    const test::TempDir spill_dir;
    for (const unsigned threads : {2u, 4u}) {
        test::StreamRecorder resident_rec;
        opts.threads = threads;
        opts.observers = {&resident_rec};
        const compiler::SimulationResult resident =
            model.run(pointer_w, opts);
        EXPECT_EQ(digest(resident, result, resident_rec), pinned)
            << accel << "/" << kind << " (pointer inputs, " << threads
            << " threads)";

        test::StreamRecorder spilled_rec;
        compiler::RunOptions spilled_opts = opts;
        spilled_opts.observers = {&spilled_rec};
        spilled_opts.spillDir = spill_dir.str();
        spilled_opts.spillSegmentBytes = 8 * sizeof(trace::Event);
        const compiler::SimulationResult spilled =
            model.run(packed_w, spilled_opts);
        EXPECT_EQ(digest(spilled, result, spilled_rec), pinned)
            << accel << "/" << kind << " (packed inputs, spilled, "
            << threads << " threads)";
        EXPECT_GT(spilled.spill.frames, 0u)
            << accel << "/" << kind << " " << threads << " threads";
    }
}

TEST(Golden, GammaPowerLaw)
{
    expectGolden("gamma", "powerlaw",
                 "seconds=0x1.5968c96484dc4p-17\n"
                 "traffic A r=0x1.2a8p+13 w=0x0p+0 po=0x0p+0\n"
                 "traffic B r=0x1.dc4p+12 w=0x0p+0 po=0x0p+0\n"
                 "traffic T r=0x0p+0 w=0x0p+0 po=0x0p+0\n"
                 "traffic Z r=0x0p+0 w=0x1.e57p+15 po=0x0p+0\n"
                 "einsum T muls=0 adds=0 leaves=8777 writes=8777 events=31324 batches=30\n"
                 "einsum Z muls=8777 adds=3599 leaves=8777 writes=8777 events=84777 batches=83\n"
                 "z=281cb96afdaa694b\n"
                 "stream=76953373b3787090:19226\n");
}

TEST(Golden, GammaBanded)
{
    expectGolden("gamma", "banded",
                 "seconds=0x1.79a7b6bdc1c2p-18\n"
                 "traffic A r=0x1.1bep+13 w=0x0p+0 po=0x0p+0\n"
                 "traffic B r=0x1.c2p+12 w=0x0p+0 po=0x0p+0\n"
                 "traffic T r=0x0p+0 w=0x0p+0 po=0x0p+0\n"
                 "traffic Z r=0x0p+0 w=0x1.d7p+14 po=0x0p+0\n"
                 "einsum T muls=0 adds=0 leaves=4222 writes=4222 events=17429 batches=17\n"
                 "einsum Z muls=4222 adds=1710 leaves=4222 writes=4222 events=40262 batches=40\n"
                 "z=833bd6612804ddad\n"
                 "stream=e9e1111117a5c8bf:9990\n");
}

TEST(Golden, ExTensorPowerLaw)
{
    expectGolden("extensor", "powerlaw",
                 "seconds=0x1.303cefdbabc9p-17\n"
                 "traffic A r=0x1.0518p+15 w=0x0p+0 po=0x0p+0\n"
                 "traffic B r=0x1.2138p+15 w=0x0p+0 po=0x0p+0\n"
                 "traffic Z r=0x1.248p+14 w=0x1.3bd8p+16 po=0x1.248p+15\n"
                 "einsum Z muls=8777 adds=3599 leaves=8777 writes=8777 events=178728 batches=174\n"
                 "z=281cb96afdaa694b\n"
                 "stream=87e8d5778827be8d:12292\n");
}

TEST(Golden, ExTensorBanded)
{
    expectGolden("extensor", "banded",
                 "seconds=0x1.8b818f1cfa1dp-18\n"
                 "traffic A r=0x1.146p+14 w=0x0p+0 po=0x0p+0\n"
                 "traffic B r=0x1.28fp+14 w=0x0p+0 po=0x0p+0\n"
                 "traffic Z r=0x1.a4p+11 w=0x1.05cp+15 po=0x1.a4p+12\n"
                 "einsum Z muls=4222 adds=1710 leaves=4222 writes=4222 events=83306 batches=82\n"
                 "z=833bd6612804ddad\n"
                 "stream=2bbc5c0cee5ebcea:5123\n");
}

TEST(Golden, OuterSpacePowerLaw)
{
    expectGolden("outerspace", "powerlaw",
                 "seconds=0x1.4f8e913072165p-18\n"
                 "traffic A r=0x1.072p+13 w=0x0p+0 po=0x0p+0\n"
                 "traffic B r=0x1.dc4p+12 w=0x0p+0 po=0x0p+0\n"
                 "traffic T r=0x1.1266p+18 w=0x1.1248p+18 po=0x0p+0\n"
                 "traffic Z r=0x0p+0 w=0x1.e57p+15 po=0x0p+0\n"
                 "einsum T muls=8777 adds=0 leaves=8777 writes=8777 events=40052 batches=38\n"
                 "einsum Z muls=0 adds=3599 leaves=8777 writes=8777 events=51245 batches=50\n"
                 "z=281cb96afdaa694b\n"
                 "stream=1770f7fd1e22b3a2:19298\n");
}

TEST(Golden, OuterSpaceBanded)
{
    expectGolden("outerspace", "banded",
                 "seconds=0x1.4af4ac20152f8p-19\n"
                 "traffic A r=0x1.f1p+12 w=0x0p+0 po=0x0p+0\n"
                 "traffic B r=0x1.c2p+12 w=0x0p+0 po=0x0p+0\n"
                 "traffic T r=0x1.081cp+17 w=0x1.07ep+17 po=0x0p+0\n"
                 "traffic Z r=0x0p+0 w=0x1.d7p+14 po=0x0p+0\n"
                 "einsum T muls=4222 adds=0 leaves=4222 writes=4222 events=21563 batches=21\n"
                 "einsum Z muls=0 adds=1710 leaves=4222 writes=4222 events=25027 batches=25\n"
                 "z=833bd6612804ddad\n"
                 "stream=cebd497073b416e8:10076\n");
}

TEST(Golden, SigmaPowerLaw)
{
    expectGolden("sigma", "powerlaw",
                 "seconds=0x1.a188b7854e195p-21\n"
                 "traffic A r=0x1.b158p+11 w=0x0p+0 po=0x0p+0\n"
                 "traffic B r=0x1.051ap+12 w=0x0p+0 po=0x0p+0\n"
                 "traffic S r=0x1.558p+7 w=0x1.3d8p+7 po=0x0p+0\n"
                 "traffic T r=0x1.e2cp+12 w=0x1.5158p+10 po=0x0p+0\n"
                 "traffic Z r=0x0p+0 w=0x1.43ap+14 po=0x0p+0\n"
                 "einsum S muls=0 adds=0 leaves=635 writes=635 events=5024 batches=5\n"
                 "einsum T muls=0 adds=0 leaves=635 writes=635 events=3215 batches=4\n"
                 "einsum Z muls=8777 adds=3599 leaves=8777 writes=8777 events=42698 batches=39\n"
                 "z=281cb96afdaa694b\n"
                 "stream=88b82bcb311418b6:10401\n");
}

TEST(Golden, SigmaBanded)
{
    expectGolden("sigma", "banded",
                 "seconds=0x1.823afa9f3a64dp-21\n"
                 "traffic A r=0x1.9ecp+11 w=0x0p+0 po=0x0p+0\n"
                 "traffic B r=0x1.bbdcp+11 w=0x0p+0 po=0x0p+0\n"
                 "traffic S r=0x1.44p+7 w=0x1.2cp+7 po=0x0p+0\n"
                 "traffic T r=0x1.c8p+12 w=0x1.3ecp+10 po=0x0p+0\n"
                 "traffic Z r=0x0p+0 w=0x1.3ap+13 po=0x0p+0\n"
                 "einsum S muls=0 adds=0 leaves=600 writes=600 events=4779 batches=5\n"
                 "einsum T muls=0 adds=0 leaves=600 writes=600 events=3075 batches=3\n"
                 "einsum Z muls=4222 adds=1710 leaves=4222 writes=4222 events=22375 batches=22\n"
                 "z=833bd6612804ddad\n"
                 "stream=9fd7e5d741ab273a:5758\n");
}

} // namespace
} // namespace teaal
