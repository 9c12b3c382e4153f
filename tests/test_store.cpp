/**
 * @file
 * Disk-backed packed store (storage/store.hpp): write/map round-trip
 * fidelity, execution equivalence of mapped stores against the
 * in-memory packed path (per Table 1 accelerator, threads 1 and 4,
 * results/counters/streams byte-identical), the validation matrix for
 * damaged files (bad magic, version, truncation, header/payload
 * corruption), and the mapping-lifetime rules (copies share the map,
 * residentBytes charges file size).
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "accelerators/accelerators.hpp"
#include "compiler/pipeline.hpp"
#include "storage/packed.hpp"
#include "storage/store.hpp"
#include "support.hpp"
#include "util/diagnostic.hpp"
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

storage::PackedTensor
samplePacked(std::uint64_t seed, const fmt::TensorFormat& tf = {})
{
    return storage::PackedTensor::fromTensor(
        workloads::uniformMatrix("A", 40, 32, 300, seed, {"K", "M"}),
        tf);
}

void
expectSameBuffers(const storage::PackedTensor& x,
                  const storage::PackedTensor& y)
{
    ASSERT_EQ(x.numRanks(), y.numRanks());
    EXPECT_EQ(x.name(), y.name());
    EXPECT_EQ(x.rankIds(), y.rankIds());
    for (std::size_t l = 0; l < x.numRanks(); ++l) {
        EXPECT_EQ(x.rank(l).shape, y.rank(l).shape) << "rank " << l;
        EXPECT_EQ(x.rank(l).flatIds, y.rank(l).flatIds) << "rank " << l;
        EXPECT_EQ(x.rank(l).flatShapes, y.rank(l).flatShapes)
            << "rank " << l;
        EXPECT_EQ(x.levelType(l), y.levelType(l)) << "rank " << l;
        EXPECT_EQ(x.level(l).seg, y.level(l).seg) << "rank " << l;
        EXPECT_EQ(x.level(l).crd, y.level(l).crd) << "rank " << l;
        EXPECT_EQ(x.level(l).bits, y.level(l).bits) << "rank " << l;
        EXPECT_EQ(x.level(l).bitBase, y.level(l).bitBase)
            << "rank " << l;
        EXPECT_EQ(x.level(l).bitRank, y.level(l).bitRank)
            << "rank " << l;
    }
    EXPECT_EQ(x.values(), y.values());
    EXPECT_EQ(x.format().config, y.format().config);
    EXPECT_EQ(x.format().rankOrder, y.format().rankOrder);
    ASSERT_EQ(x.format().ranks.size(), y.format().ranks.size());
}

// ------------------------------------------------------- round trip

TEST(Store, WriteMapRoundTripsBuffersAndMetadata)
{
    const TempDir tmp;
    const auto original = samplePacked(5);
    const std::string path = tmp.path("a.teaal");
    storage::writeStore(path, original);

    const storage::PackedTensor mapped =
        storage::mapStore(path, /*verifyPayload=*/true);
    expectSameBuffers(original, mapped);
    EXPECT_TRUE(mapped.mapped());
    EXPECT_FALSE(original.mapped());
    EXPECT_EQ(mapped.storePath(), path);
    EXPECT_EQ(mapped.residentBytes(),
              static_cast<std::size_t>(fs::file_size(path)));
    EXPECT_TRUE(mapped.toTensor().equals(original.toTensor()));
}

TEST(Store, BitmapFormatAuxiliariesSurviveTheTrip)
{
    fmt::TensorFormat tf;
    fmt::RankFormat rf;
    rf.type = fmt::RankFormat::Type::B;
    tf.ranks["K"] = rf;
    tf.ranks["M"] = rf;
    const TempDir tmp;
    const auto original = samplePacked(6, tf);
    ASSERT_FALSE(original.level(1).bits.empty());
    const std::string path = tmp.path("b.teaal");
    storage::writeStore(path, original);
    const auto mapped = storage::mapStore(path, true);
    expectSameBuffers(original, mapped);
}

TEST(Store, EmptyTensorRoundTrips)
{
    const TempDir tmp;
    storage::PackedBuilder builder("A", {"K", "M"}, {16, 16});
    const auto original = std::move(builder).finish();
    const std::string path = tmp.path("empty.teaal");
    storage::writeStore(path, original);
    const auto mapped = storage::mapStore(path, true);
    expectSameBuffers(original, mapped);
    EXPECT_EQ(mapped.nnz(), 0u);
}

TEST(Store, CopiesShareTheMappingAndOutliveTheOriginal)
{
    const TempDir tmp;
    const std::string path = tmp.path("c.teaal");
    storage::writeStore(path, samplePacked(7));

    storage::PackedTensor copy;
    {
        const auto mapped = storage::mapStore(path);
        copy = mapped;
        // Same external pages, not a heap duplicate.
        EXPECT_EQ(copy.level(1).crd.data(), mapped.level(1).crd.data());
    }
    // The original mapping owner is gone; the copy keeps the file
    // mapped (deleting the path is fine on POSIX — pages live on).
    fs::remove(path);
    EXPECT_TRUE(copy.mapped());
    EXPECT_EQ(copy.nnz(), copy.values().size());
    EXPECT_GT(copy.values().size(), 0u);
    double sum = 0;
    for (const ft::Value v : copy.values())
        sum += v;
    EXPECT_NE(sum, 0.0);
}

TEST(Store, RewritingAMappedStoreCopiesItThrough)
{
    const TempDir tmp;
    const std::string path = tmp.path("d.teaal");
    const std::string path2 = tmp.path("d2.teaal");
    storage::writeStore(path, samplePacked(8));
    const auto mapped = storage::mapStore(path);
    storage::writeStore(path2, mapped); // mapped tensor as the source
    const auto again = storage::mapStore(path2, true);
    expectSameBuffers(mapped, again);
}

TEST(Store, IsStoreFileSniffsMagic)
{
    const TempDir tmp;
    const std::string store = tmp.path("e.teaal");
    storage::writeStore(store, samplePacked(9));
    EXPECT_TRUE(storage::isStoreFile(store));

    const std::string text = tmp.path("e.mtx");
    std::ofstream(text) << "%%MatrixMarket matrix coordinate real "
                           "general\n1 1 1\n1 1 1.0\n";
    EXPECT_FALSE(storage::isStoreFile(text));
    EXPECT_FALSE(storage::isStoreFile(tmp.path("missing")));
}

// -------------------------------------------- damaged-file matrix

/** Flip one byte at @p offset of @p path. */
void
flipByte(const std::string& path, std::uint64_t offset)
{
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(offset));
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x5a);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&b, 1);
}

void
expectStoreError(const std::string& path, const char* needle,
                 bool verify = false)
{
    try {
        (void)storage::mapStore(path, verify);
        FAIL() << "expected DiagnosticError for " << needle;
    } catch (const DiagnosticError& e) {
        EXPECT_EQ(e.diagnostic().section, "store");
        EXPECT_EQ(e.diagnostic().key, path);
        EXPECT_NE(std::string(e.what()).find(needle),
                  std::string::npos)
            << e.what();
    }
}

class StoreDamage : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = tmp_.path("victim.teaal");
        storage::writeStore(path_, samplePacked(10));
        size_ = static_cast<std::uint64_t>(fs::file_size(path_));
    }

    TempDir tmp_;
    std::string path_;
    std::uint64_t size_ = 0;
};

TEST_F(StoreDamage, MissingAndTinyFiles)
{
    expectStoreError(tmp_.path("nope.teaal"), "cannot open");
    std::ofstream(tmp_.path("tiny.teaal")) << "short";
    expectStoreError(tmp_.path("tiny.teaal"), "not a packed store");
}

TEST_F(StoreDamage, BadMagic)
{
    flipByte(path_, 0);
    expectStoreError(path_, "bad magic");
}

TEST_F(StoreDamage, UnsupportedVersion)
{
    flipByte(path_, 8); // version field, checked before the checksum
    expectStoreError(path_, "unsupported store version");
}

TEST_F(StoreDamage, TruncatedFile)
{
    fs::resize_file(path_, size_ - 1);
    expectStoreError(path_, "truncated store");
}

TEST_F(StoreDamage, CorruptHeaderFailsChecksum)
{
    flipByte(path_, 70); // inside the variable header
    expectStoreError(path_, "checksum mismatch");
}

TEST_F(StoreDamage, CorruptPrologueCountersFailChecksum)
{
    flipByte(path_, 48); // nnz field — covered by the header checksum
    expectStoreError(path_, "checksum mismatch");
}

TEST_F(StoreDamage, CorruptPayloadCaughtOnlyByVerify)
{
    flipByte(path_, size_ - 1); // last payload byte
    // Default open skips the payload checksum (cold-start path)...
    const auto mapped = storage::mapStore(path_);
    EXPECT_TRUE(mapped.mapped());
    // ...the explicit verify pass (teaal-pack --verify) catches it.
    expectStoreError(path_, "payload checksum mismatch",
                     /*verify=*/true);
}

// ------------------------------------- execution equivalence matrix

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
 * Run @p spec with inputs bound as in-memory packed tensors and as
 * mapped store files; every delivered byte must match.
 */
void
expectMappedEquivalence(compiler::Specification spec, unsigned threads,
                        std::uint64_t seed)
{
    const ft::Tensor a =
        workloads::uniformMatrix("A", 40, 32, 300, seed, {"K", "M"});
    const ft::Tensor b = workloads::uniformMatrix("B", 40, 36, 300,
                                                  seed + 1, {"K", "N"});
    auto model = compiler::compile(std::move(spec));

    const auto packedA = storage::PackedTensor::fromTensor(
        a, model.spec().formats.getLenient("A"));
    const auto packedB = storage::PackedTensor::fromTensor(
        b, model.spec().formats.getLenient("B"));

    const TempDir tmp;
    storage::writeStore(tmp.path("a.teaal"), packedA);
    storage::writeStore(tmp.path("b.teaal"), packedB);

    Workload memory_w;
    memory_w.add("A", packedA).add("B", packedB);
    Workload mapped_w;
    mapped_w.add("A", storage::mapStore(tmp.path("a.teaal")))
        .add("B", storage::mapStore(tmp.path("b.teaal")));

    StreamRecorder memory_rec;
    RunOptions opts;
    opts.threads = threads;
    opts.observers = {&memory_rec};
    const SimulationResult base = model.run(memory_w, opts);

    StreamRecorder mapped_rec;
    opts.observers = {&mapped_rec};
    const SimulationResult mapped = model.run(mapped_w, opts);

    expectSameResults(base, mapped);
    EXPECT_EQ(memory_rec.log, mapped_rec.log);
}

class StoreAccelerators
    : public ::testing::TestWithParam<std::tuple<std::string, unsigned>>
{
};

TEST_P(StoreAccelerators, MappedStoreMatchesInMemoryPacked)
{
    const auto& [name, threads] = GetParam();
    if (name == "gamma") {
        accel::GammaConfig cfg;
        cfg.pes = 4;
        cfg.rowChunk = 4;
        cfg.kChunk = 8;
        cfg.fiberCacheBytes = 64 * 1024;
        expectMappedEquivalence(accel::gamma(cfg), threads, 31);
    } else if (name == "extensor") {
        accel::ExTensorConfig cfg;
        cfg.pes = 4;
        cfg.tileK1 = 16;
        cfg.tileK0 = 4;
        cfg.tileM1 = 16;
        cfg.tileM0 = 4;
        cfg.tileN1 = 16;
        cfg.tileN0 = 4;
        cfg.llcBytes = 256 * 1024;
        expectMappedEquivalence(accel::extensor(cfg), threads, 32);
    } else if (name == "outerspace") {
        accel::OuterSpaceConfig cfg;
        cfg.chunkOuter = 32;
        cfg.chunkInner = 8;
        cfg.mergeChunkOuter = 16;
        cfg.mergeChunkInner = 4;
        expectMappedEquivalence(accel::outerSpace(cfg), threads, 33);
    } else {
        accel::SigmaConfig cfg;
        cfg.kTile = 16;
        cfg.stationaryChunk = 64;
        expectMappedEquivalence(accel::sigma(cfg), threads, 34);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Table1, StoreAccelerators,
    ::testing::Combine(::testing::Values("gamma", "extensor",
                                         "outerspace", "sigma"),
                       ::testing::Values(1u, 4u)),
    [](const auto& info) {
        return std::get<0>(info.param) + "_t" +
               std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace teaal
