/**
 * @file
 * Property tests of the packed transforms (storage/transform.hpp):
 * each must give exactly `PackedTensor::fromTensor` of the pointer
 * transform (fibertree/transform.hpp) applied to the unpacked tensor —
 * the same rank metadata, level types, segment, coordinate, bitmap
 * and value buffers, occupancy hints and element counts — on seeded
 * tensors with empty fibers and explicit zeros, in heap and mapped
 * stores.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>

#include "fibertree/transform.hpp"
#include "storage/packed.hpp"
#include "storage/store.hpp"
#include "storage/transform.hpp"
#include "support.hpp"

namespace teaal::storage
{
namespace
{

using ft::Coord;
using ft::Tensor;

void
expectSameRanks(const ft::RankInfo& a, const ft::RankInfo& b)
{
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.shape, b.shape) << a.id;
    EXPECT_EQ(a.flatIds, b.flatIds) << a.id;
    EXPECT_EQ(a.flatShapes, b.flatShapes) << a.id;
}

/** Buffer-for-buffer equality, plus the derived hints and counts. */
void
expectSamePacked(const PackedTensor& got, const PackedTensor& want)
{
    ASSERT_EQ(got.numRanks(), want.numRanks());
    for (std::size_t l = 0; l < want.numRanks(); ++l) {
        SCOPED_TRACE("level " + std::to_string(l));
        expectSameRanks(got.rank(l), want.rank(l));
        const PackedLevel& g = got.level(l);
        const PackedLevel& w = want.level(l);
        EXPECT_EQ(static_cast<int>(g.type), static_cast<int>(w.type));
        EXPECT_TRUE(g.seg == w.seg);
        EXPECT_TRUE(g.crd == w.crd);
        EXPECT_TRUE(g.bits == w.bits);
        EXPECT_TRUE(g.bitBase == w.bitBase);
        EXPECT_TRUE(g.bitRank == w.bitRank);
    }
    EXPECT_TRUE(got.values() == want.values());
    EXPECT_EQ(got.occupancyHints(), want.occupancyHints());
    EXPECT_EQ(got.nnz(), want.nnz());
}

/**
 * A seeded 3-rank [I, J, K] tensor with explicit zero leaves and empty
 * interior fibers at both interior levels (a fibertree may hold them;
 * the builders and transforms must keep or drop them exactly as the
 * pointer code does).
 */
Tensor
randomTensor(std::uint64_t seed, std::size_t points = 120)
{
    std::mt19937_64 rng(seed);
    Tensor t("T", {"I", "J", "K"}, {10, 12, 13});
    for (std::size_t n = 0; n < points; ++n) {
        const std::vector<Coord> p{static_cast<Coord>(rng() % 9),
                                   static_cast<Coord>(rng() % 11),
                                   static_cast<Coord>(rng() % 13)};
        t.set(p, rng() % 5 == 0 ? 0.0 : static_cast<double>(rng() % 97));
    }
    // Empty fibers: a J coordinate whose K fiber is empty, and an I
    // coordinate whose J fiber is empty (the random points never use
    // I = 9 or J = 11).
    ft::Fiber& root = *t.root();
    root.payloadAt(0).fiber()->getOrInsert(11).setFiber(
        std::make_shared<ft::Fiber>(13));
    root.getOrInsert(9).setFiber(std::make_shared<ft::Fiber>(12));
    return t;
}

/** A format mixing U, B and C ranks (J bitmap, I implicit). */
fmt::TensorFormat
mixedFormat()
{
    fmt::TensorFormat f;
    fmt::RankFormat u;
    u.type = fmt::RankFormat::Type::U;
    fmt::RankFormat b;
    b.type = fmt::RankFormat::Type::B;
    f.ranks.emplace("I", u);
    f.ranks.emplace("J", b);
    return f;
}

const std::vector<fmt::TensorFormat>&
formats()
{
    static const std::vector<fmt::TensorFormat> all{fmt::TensorFormat{},
                                                    mixedFormat()};
    return all;
}

TEST(PackedTransform, SwizzleMatchesPointerForEveryRankOrder)
{
    std::vector<std::string> order{"I", "J", "K"};
    std::sort(order.begin(), order.end());
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const Tensor t = randomTensor(seed);
        for (const fmt::TensorFormat& f : formats()) {
            const PackedTensor packed = PackedTensor::fromTensor(t, f);
            std::vector<std::string> o = order;
            do {
                SCOPED_TRACE("seed " + std::to_string(seed) + " order " +
                             o[0] + o[1] + o[2]);
                expectSamePacked(
                    swizzle(packed, o),
                    PackedTensor::fromTensor(ft::swizzle(t, o), f));
            } while (std::next_permutation(o.begin(), o.end()));
        }
    }
}

TEST(PackedTransform, SwizzleRejectsBadOrders)
{
    const PackedTensor packed = PackedTensor::fromTensor(randomTensor(4));
    EXPECT_THROW((void)swizzle(packed, {"I", "J"}), SpecError);
    EXPECT_THROW((void)swizzle(packed, {"I", "J", "X"}), SpecError);
    EXPECT_THROW((void)swizzle(packed, {"I", "J", "J"}), SpecError);
}

TEST(PackedTransform, ShapeSplitsMatchPointer)
{
    for (std::uint64_t seed = 5; seed <= 7; ++seed) {
        const Tensor t = randomTensor(seed);
        for (const fmt::TensorFormat& f : formats()) {
            const PackedTensor packed = PackedTensor::fromTensor(t, f);
            for (const std::string rank : {"I", "J", "K"}) {
                for (const Coord tile : {1, 3, 4, 20}) {
                    SCOPED_TRACE(rank + " tile " + std::to_string(tile));
                    const std::string up = rank + "1";
                    const std::string lo = rank + "0";
                    expectSamePacked(
                        splitRankByShape(packed, rank, tile, up, lo),
                        PackedTensor::fromTensor(
                            ft::splitRankByShape(t, rank, tile, up, lo),
                            f));
                }
            }
        }
    }
    EXPECT_THROW((void)splitRankByShape(PackedTensor::fromTensor(
                                            randomTensor(5)),
                                        "I", 0, "I1", "I0"),
                 SpecError);
}

TEST(PackedTransform, OccupancySplitsMatchPointer)
{
    for (std::uint64_t seed = 8; seed <= 10; ++seed) {
        const Tensor t = randomTensor(seed);
        for (const fmt::TensorFormat& f : formats()) {
            const PackedTensor packed = PackedTensor::fromTensor(t, f);
            for (const std::string rank : {"I", "J", "K"}) {
                for (const std::size_t chunk : {1u, 2u, 5u, 64u}) {
                    SCOPED_TRACE(rank + " chunk " + std::to_string(chunk));
                    const std::string up = rank + "1";
                    const std::string lo = rank + "0";
                    expectSamePacked(
                        splitRankByOccupancy(packed, rank, chunk, up, lo),
                        PackedTensor::fromTensor(
                            ft::splitRankByOccupancy(t, rank, chunk, up,
                                                     lo),
                            f));
                }
            }
        }
    }
}

TEST(PackedTransform, LeaderBoundariesSplitAFollowerLikePointer)
{
    // The leader's occupancy boundaries (one fiber's chunk starts)
    // partition a follower over the same rank.
    const Tensor leader = randomTensor(11, 60);
    const Tensor follower = randomTensor(12);
    const ft::Fiber& leader_k =
        *leader.root()->payloadAt(1).fiber()->payloadAt(0).fiber();
    for (const std::size_t chunk : {1u, 2u, 3u}) {
        const std::vector<Coord> starts =
            ft::occupancyBoundaries(leader_k, chunk);
        for (const std::string rank : {"I", "K"}) {
            SCOPED_TRACE(rank + " chunk " + std::to_string(chunk));
            for (const fmt::TensorFormat& f : formats()) {
                expectSamePacked(
                    splitRankByBoundaries(
                        PackedTensor::fromTensor(follower, f), rank,
                        starts, rank + "1", rank + "0"),
                    PackedTensor::fromTensor(
                        ft::splitRankByBoundaries(follower, rank, starts,
                                                  rank + "1", rank + "0"),
                        f));
            }
        }
    }
}

TEST(PackedTransform, BoundariesThatDropElementsCompactTheLevelsBelow)
{
    // Partitions starting above a fiber's first coordinate (and a
    // shape-capped last partition) drop elements; the pointer split
    // drops them with their subtrees, and so must the packed one.
    const Tensor t = randomTensor(13);
    const std::vector<std::vector<Coord>> cases{
        {2, 5}, {4}, {1, 1, 6}, {7, 30}, {20}};
    for (const std::vector<Coord>& starts : cases) {
        for (const std::string rank : {"I", "J", "K"}) {
            SCOPED_TRACE(rank + " from " + std::to_string(starts[0]));
            for (const fmt::TensorFormat& f : formats()) {
                expectSamePacked(
                    splitRankByBoundaries(PackedTensor::fromTensor(t, f),
                                          rank, starts, rank + "1",
                                          rank + "0"),
                    PackedTensor::fromTensor(
                        ft::splitRankByBoundaries(t, rank, starts,
                                                  rank + "1", rank + "0"),
                        f));
            }
        }
    }
}

TEST(PackedTransform, FlattenMatchesPointerIncludingNested)
{
    const Tensor t = randomTensor(14);
    for (const fmt::TensorFormat& f : formats()) {
        const PackedTensor packed = PackedTensor::fromTensor(t, f);
        expectSamePacked(
            flattenRanks(packed, "I", "J"),
            PackedTensor::fromTensor(ft::flattenRanks(t, "I", "J"), f));
        expectSamePacked(
            flattenRanks(packed, "J", "K"),
            PackedTensor::fromTensor(ft::flattenRanks(t, "J", "K"), f));
        // Nested: a flattened rank flattened again concatenates the
        // constituents.
        expectSamePacked(
            flattenRanks(flattenRanks(packed, "I", "J"), "IJ", "K"),
            PackedTensor::fromTensor(
                ft::flattenRanks(ft::flattenRanks(t, "I", "J"), "IJ", "K"),
                f));
        EXPECT_THROW((void)flattenRanks(packed, "I", "K"), SpecError);
        EXPECT_THROW((void)flattenRanks(packed, "J", "I"), SpecError);
    }
}

/** SIGMA's preparation of T[K, M]: split K by shape, bring (M, K0)
 *  together, flatten them, split the flattened rank by occupancy. */
PackedTensor
sigmaChainPacked(PackedTensor t)
{
    t = splitRankByShape(std::move(t), "K", 4, "K1", "K0");
    t = swizzle(t, {"K1", "M", "K0"});
    t = flattenRanks(std::move(t), "M", "K0");
    return splitRankByOccupancy(std::move(t), "MK0", 16, "MK01", "MK00");
}

Tensor
sigmaChainPointer(const Tensor& t)
{
    Tensor s = ft::splitRankByShape(t, "K", 4, "K1", "K0");
    s = ft::swizzle(s, {"K1", "M", "K0"});
    s = ft::flattenRanks(s, "M", "K0");
    return ft::splitRankByOccupancy(s, "MK0", 16, "MK01", "MK00");
}

fmt::TensorFormat
sigmaFormat()
{
    fmt::TensorFormat f;
    fmt::RankFormat u;
    u.type = fmt::RankFormat::Type::U;
    fmt::RankFormat b;
    b.type = fmt::RankFormat::Type::B;
    f.ranks.emplace("K", u);
    f.ranks.emplace("M", b);
    return f;
}

TEST(PackedTransform, SigmaFlattenOfADerivedRankMatchesPointer)
{
    std::mt19937_64 rng(15);
    Tensor t("T", {"K", "M"}, {24, 40});
    for (int n = 0; n < 300; ++n) {
        t.set(std::vector<Coord>{static_cast<Coord>(rng() % 24),
                                 static_cast<Coord>(rng() % 40)},
              static_cast<double>(rng() % 7));
    }
    for (const fmt::TensorFormat& f : {fmt::TensorFormat{}, sigmaFormat()})
        expectSamePacked(sigmaChainPacked(PackedTensor::fromTensor(t, f)),
                         PackedTensor::fromTensor(sigmaChainPointer(t), f));
}

TEST(PackedTransform, MappedSourcesTransformLikeHeapSources)
{
    // A mapped store's buffers are external: the transforms read them
    // in place, and levels they leave untouched stay bound to the
    // mapping, which the result keeps alive.
    test::TempDir dir;
    const Tensor t = randomTensor(16);
    for (const fmt::TensorFormat& f : formats()) {
        const PackedTensor heap = PackedTensor::fromTensor(t, f);
        const std::string path = dir.path("t.tstore");
        writeStore(path, heap);
        PackedTensor split_mapped;
        {
            const PackedTensor mapped = mapStore(path);
            ASSERT_TRUE(mapped.mapped());
            expectSamePacked(swizzle(mapped, {"K", "I", "J"}),
                             swizzle(heap, {"K", "I", "J"}));
            expectSamePacked(flattenRanks(mapped, "J", "K"),
                             flattenRanks(heap, "J", "K"));
            expectSamePacked(splitRankByOccupancy(mapped, "J", 2, "J1", "J0"),
                             splitRankByOccupancy(heap, "J", 2, "J1", "J0"));
            expectSamePacked(
                splitRankByBoundaries(mapped, "K", {3, 8}, "K1", "K0"),
                splitRankByBoundaries(heap, "K", {3, 8}, "K1", "K0"));
            split_mapped = splitRankByShape(mapped, "I", 4, "I1", "I0");
        }
        // The source handle is gone; the split still reads its
        // untouched levels from the mapping it shares.
        EXPECT_TRUE(split_mapped.level(3).crd.external());
        EXPECT_GT(split_mapped.residentBytes(), 0u);
        expectSamePacked(split_mapped,
                         splitRankByShape(heap, "I", 4, "I1", "I0"));
    }
}

TEST(PackedTransform, EmptyTensorsStayEmpty)
{
    const Tensor empty("E", {"I", "J"}, {5, 6});
    const PackedTensor packed = PackedTensor::fromTensor(empty);
    expectSamePacked(swizzle(packed, {"J", "I"}),
                     PackedTensor::fromTensor(ft::swizzle(empty, {"J", "I"})));
    expectSamePacked(
        splitRankByShape(packed, "I", 2, "I1", "I0"),
        PackedTensor::fromTensor(
            ft::splitRankByShape(empty, "I", 2, "I1", "I0")));
    expectSamePacked(
        splitRankByOccupancy(packed, "J", 2, "J1", "J0"),
        PackedTensor::fromTensor(
            ft::splitRankByOccupancy(empty, "J", 2, "J1", "J0")));
    expectSamePacked(
        flattenRanks(packed, "I", "J"),
        PackedTensor::fromTensor(ft::flattenRanks(empty, "I", "J")));
}

} // namespace
} // namespace teaal::storage
