/**
 * @file
 * Unit and property tests for the fibertree substrate: fibers, tensors,
 * fiber views, and the content-preserving transformations of paper
 * §2.1/§3.2 (swizzle, flatten, shape/occupancy partitioning).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "fibertree/coiter.hpp"
#include "fibertree/tensor.hpp"
#include "fibertree/transform.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace teaal::ft
{
namespace
{

/// The matrix A from paper Figure 1: rank order [M, K], shape 3x4.
///   A[0,2]=1, A[2,0]=3, A[2,1]=4, A[2,2]=2  (values arbitrary here)
Tensor
paperMatrixA()
{
    return Tensor::fromCoo("A", {"M", "K"}, {3, 4},
                           {{{0, 2}, 1.0},
                            {{2, 0}, 3.0},
                            {{2, 1}, 4.0},
                            {{2, 2}, 2.0}});
}

TEST(Fiber, AppendAndLookup)
{
    Fiber f(10);
    f.append(1, Payload(1.5));
    f.append(4, Payload(2.5));
    f.append(9, Payload(3.5));
    EXPECT_EQ(f.size(), 3u);
    EXPECT_EQ(f.coordAt(1), 4);
    ASSERT_TRUE(f.find(4).has_value());
    EXPECT_EQ(*f.find(4), 1u);
    EXPECT_FALSE(f.find(5).has_value());
    EXPECT_EQ(f.lowerBound(5), 2u);
    EXPECT_EQ(f.lowerBound(0), 0u);
    EXPECT_EQ(f.lowerBound(100), 3u);
}

TEST(Fiber, AppendOutOfOrderThrows)
{
    Fiber f(10);
    f.append(5, Payload(1.0));
    EXPECT_THROW(f.append(5, Payload(2.0)), ModelError);
    EXPECT_THROW(f.append(3, Payload(2.0)), ModelError);
}

TEST(Fiber, GetOrInsertMaintainsSortedOrder)
{
    Fiber f(10);
    f.getOrInsert(5).setValue(1);
    f.getOrInsert(2).setValue(2);
    f.getOrInsert(8).setValue(3);
    f.getOrInsert(5).setValue(4); // overwrite
    ASSERT_EQ(f.size(), 3u);
    EXPECT_EQ(f.coordAt(0), 2);
    EXPECT_EQ(f.coordAt(1), 5);
    EXPECT_EQ(f.coordAt(2), 8);
    EXPECT_DOUBLE_EQ(f.payloadAt(1).value(), 4);
}

TEST(Fiber, FromUnsortedSortsAndRejectsDuplicates)
{
    auto f = Fiber::fromUnsorted(
        {{5, Payload(1.0)}, {1, Payload(2.0)}, {3, Payload(3.0)}}, 10);
    EXPECT_EQ(f->coordAt(0), 1);
    EXPECT_EQ(f->coordAt(2), 5);
    EXPECT_THROW(
        Fiber::fromUnsorted({{1, Payload(1.0)}, {1, Payload(2.0)}}, 10),
        ModelError);
}

TEST(Payload, EmptyClassification)
{
    EXPECT_TRUE(Payload().empty());
    EXPECT_FALSE(Payload(1.0).empty());
    EXPECT_TRUE(Payload(FiberPtr()).empty());
    EXPECT_TRUE(Payload(std::make_shared<Fiber>(4)).empty());
    auto f = std::make_shared<Fiber>(4);
    f->append(0, Payload(1.0));
    EXPECT_FALSE(Payload(f).empty());
}

TEST(Tensor, SetAtRoundTrip)
{
    Tensor t = paperMatrixA();
    EXPECT_EQ(t.nnz(), 4u);
    const std::vector<Coord> p1{0, 2};
    const std::vector<Coord> p2{2, 1};
    const std::vector<Coord> missing{1, 1};
    EXPECT_DOUBLE_EQ(t.at(p1), 1.0);
    EXPECT_DOUBLE_EQ(t.at(p2), 4.0);
    EXPECT_DOUBLE_EQ(t.at(missing), 0.0);
}

TEST(Tensor, RankLookup)
{
    const Tensor t = paperMatrixA();
    EXPECT_EQ(t.rankLevel("M"), 0);
    EXPECT_EQ(t.rankLevel("K"), 1);
    EXPECT_EQ(t.rankLevel("Q"), -1);
    EXPECT_EQ(t.rankIds(), (std::vector<std::string>{"M", "K"}));
}

TEST(Tensor, ForEachLeafIsConcordant)
{
    const Tensor t = paperMatrixA();
    std::vector<std::vector<Coord>> points;
    t.forEachLeaf([&](std::span<const Coord> p, Value) {
        points.emplace_back(p.begin(), p.end());
    });
    ASSERT_EQ(points.size(), 4u);
    EXPECT_TRUE(std::is_sorted(points.begin(), points.end()));
}

TEST(Tensor, EqualsIgnoresZeroLeaves)
{
    Tensor a = paperMatrixA();
    Tensor b = paperMatrixA();
    EXPECT_TRUE(a.equals(b));
    const std::vector<Coord> extra{1, 3};
    b.set(extra, 0.0); // explicit zero should not break equality
    EXPECT_TRUE(a.equals(b));
    b.set(extra, 7.0);
    EXPECT_FALSE(a.equals(b));
}

TEST(Tensor, CloneIsDeep)
{
    Tensor a = paperMatrixA();
    Tensor b = a.clone();
    const std::vector<Coord> p{0, 2};
    b.set(p, 99.0);
    EXPECT_DOUBLE_EQ(a.at(p), 1.0);
    EXPECT_DOUBLE_EQ(b.at(p), 99.0);
}

TEST(CoIter, RangeSlicesByCoordinate)
{
    const std::vector<Coord> crd{10, 20, 30, 40};
    FiberView whole;
    whole.crd = crd.data();
    whole.hi = crd.size();
    whole.shapeHint = 100;
    const auto view = whole.range(15, 40);
    ASSERT_EQ(view.size(), 2u);
    EXPECT_EQ(view.coordAt(view.lo), 20);
    EXPECT_EQ(view.coordAt(view.hi - 1), 30);
    EXPECT_TRUE(whole.range(35, 100).size() == 1);
    EXPECT_TRUE(whole.range(50, 10).empty());
}

TEST(Transform, SwizzleMatchesPaperFigure4)
{
    // [M, K] -> [K, M]: contents preserved, coordinates transposed.
    const Tensor a = paperMatrixA();
    const Tensor at = swizzle(a, {"K", "M"});
    EXPECT_EQ(at.rankIds(), (std::vector<std::string>{"K", "M"}));
    EXPECT_EQ(at.nnz(), a.nnz());
    a.forEachLeaf([&](std::span<const Coord> p, Value v) {
        const std::vector<Coord> swapped{p[1], p[0]};
        EXPECT_DOUBLE_EQ(at.at(swapped), v);
    });
}

TEST(Transform, SwizzleInvalidOrderThrows)
{
    const Tensor a = paperMatrixA();
    EXPECT_THROW(swizzle(a, {"K", "K"}), SpecError);
    EXPECT_THROW(swizzle(a, {"K"}), SpecError);
    EXPECT_THROW(swizzle(a, {"K", "Q"}), SpecError);
}

TEST(Transform, SwizzleRoundTripIsIdentity)
{
    const Tensor a = paperMatrixA();
    const Tensor back = swizzle(swizzle(a, {"K", "M"}), {"M", "K"});
    EXPECT_TRUE(back.equals(a));
}

TEST(Transform, FlattenMatchesPaperFigure2)
{
    // Figure 2 flattens [M, K] into MK with tuple coordinates; our
    // packed coordinate is m*Kshape + k.
    const Tensor a = paperMatrixA();
    const Tensor flat = flattenRanks(a, "M", "K");
    ASSERT_EQ(flat.numRanks(), 1u);
    EXPECT_EQ(flat.rank(0).id, "MK");
    EXPECT_TRUE(flat.rank(0).isFlattened());
    EXPECT_EQ(flat.rank(0).flatIds,
              (std::vector<std::string>{"M", "K"}));
    EXPECT_EQ(flat.nnz(), 4u);
    const std::vector<Coord> p{0 * 4 + 2};
    EXPECT_DOUBLE_EQ(flat.at(p), 1.0);
    const std::vector<Coord> q{2 * 4 + 1};
    EXPECT_DOUBLE_EQ(flat.at(q), 4.0);
}

TEST(Transform, FlattenRequiresAdjacentRanks)
{
    const Tensor t = Tensor::fromCoo("T", {"A", "B", "C"}, {2, 2, 2},
                                     {{{0, 0, 0}, 1.0}});
    EXPECT_THROW(flattenRanks(t, "A", "C"), SpecError);
    EXPECT_THROW(flattenRanks(t, "B", "A"), SpecError);
    EXPECT_NO_THROW(flattenRanks(t, "A", "B"));
}

TEST(Transform, SplitByShapeCreatesTiles)
{
    // K rank of [K] vector, shape 8, tile 3: partitions at 0, 3, 6.
    const Tensor v = Tensor::fromCoo(
        "V", {"K"}, {8},
        {{{0}, 1.0}, {{2}, 2.0}, {{3}, 3.0}, {{7}, 4.0}});
    const Tensor split = splitRankByShape(v, "K", 3, "K1", "K0");
    ASSERT_EQ(split.numRanks(), 2u);
    EXPECT_EQ(split.rank(0).id, "K1");
    EXPECT_EQ(split.rank(1).id, "K0");
    // Upper coords are tile starts; lower fibers keep absolute coords.
    const Fiber& top = *split.root();
    ASSERT_EQ(top.size(), 3u);
    EXPECT_EQ(top.coordAt(0), 0);
    EXPECT_EQ(top.coordAt(1), 3);
    EXPECT_EQ(top.coordAt(2), 6);
    EXPECT_EQ(top.payloadAt(0).fiber()->size(), 2u);
    EXPECT_EQ(top.payloadAt(1).fiber()->size(), 1u);
    EXPECT_EQ(top.payloadAt(2).fiber()->coordAt(0), 7);
}

TEST(Transform, SplitByShapePreservesContents)
{
    const Tensor a = paperMatrixA();
    const Tensor split = splitRankByShape(a, "K", 2, "K1", "K0");
    EXPECT_EQ(split.nnz(), a.nnz());
    a.forEachLeaf([&](std::span<const Coord> p, Value v) {
        const std::vector<Coord> q{p[0], p[1] - p[1] % 2, p[1]};
        EXPECT_DOUBLE_EQ(split.at(q), v);
    });
}

TEST(Transform, SplitByOccupancyBalancesElements)
{
    // 7 elements, chunks of 3 -> occupancies 3, 3, 1.
    std::vector<std::pair<std::vector<Coord>, Value>> elems;
    for (Coord c : {1, 5, 6, 20, 21, 40, 90})
        elems.push_back({{c}, static_cast<Value>(c)});
    const Tensor v = Tensor::fromCoo("V", {"K"}, {100}, elems);
    const Tensor split = splitRankByOccupancy(v, "K", 3, "K1", "K0");
    const Fiber& top = *split.root();
    ASSERT_EQ(top.size(), 3u);
    EXPECT_EQ(top.payloadAt(0).fiber()->size(), 3u);
    EXPECT_EQ(top.payloadAt(1).fiber()->size(), 3u);
    EXPECT_EQ(top.payloadAt(2).fiber()->size(), 1u);
    // First chunk starts at the range minimum; later chunks start at
    // their first element's coordinate.
    EXPECT_EQ(top.coordAt(0), 0);
    EXPECT_EQ(top.coordAt(1), 20);
    EXPECT_EQ(top.coordAt(2), 90);
}

TEST(Transform, OccupancyBoundariesExported)
{
    Fiber f(100);
    for (Coord c : {1, 5, 6, 20, 21, 40, 90})
        f.append(c, Payload(1.0));
    const auto starts = occupancyBoundaries(f, 3);
    EXPECT_EQ(starts, (std::vector<Coord>{0, 20, 90}));
    Fiber empty(10);
    EXPECT_EQ(occupancyBoundaries(empty, 4), (std::vector<Coord>{0}));
}

TEST(Transform, SplitByBoundariesFollowsLeader)
{
    // Follower adopts leader boundaries even where it has no elements.
    const Tensor v = Tensor::fromCoo(
        "W", {"K"}, {100},
        {{{2}, 1.0}, {{25}, 2.0}, {{95}, 3.0}});
    const Tensor split =
        splitRankByBoundaries(v, "K", {0, 20, 90}, "K1", "K0");
    const Fiber& top = *split.root();
    ASSERT_EQ(top.size(), 3u);
    EXPECT_EQ(top.coordAt(0), 0);
    EXPECT_EQ(top.coordAt(1), 20);
    EXPECT_EQ(top.coordAt(2), 90);
    EXPECT_EQ(top.payloadAt(1).fiber()->coordAt(0), 25);
}

TEST(Transform, FlattenThenOccupancyMatchesFigure2Flow)
{
    // Figure 2: flatten ranks M, K of A then partition to equalize
    // element counts per partition.
    const Tensor a = paperMatrixA();
    const Tensor flat = flattenRanks(a, "M", "K");
    const Tensor split =
        splitRankByOccupancy(flat, "MK", 2, "MK1", "MK0");
    const Fiber& top = *split.root();
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top.payloadAt(0).fiber()->size(), 2u);
    EXPECT_EQ(top.payloadAt(1).fiber()->size(), 2u);
    EXPECT_EQ(split.nnz(), 4u);
}

TEST(Transform, PartitioningDeepRankSplitsEachFiber)
{
    // Split the K rank (level 1) of A [M, K]: each row fiber is
    // partitioned independently.
    const Tensor a = paperMatrixA();
    const Tensor split = splitRankByOccupancy(a, "K", 2, "K1", "K0");
    EXPECT_EQ(split.rankIds(),
              (std::vector<std::string>{"M", "K1", "K0"}));
    EXPECT_EQ(split.nnz(), a.nnz());
    // Row 2 has 3 elements -> chunks of 2 then 1.
    const auto pos = split.root()->find(2);
    ASSERT_TRUE(pos.has_value());
    const Fiber& row = *split.root()->payloadAt(*pos).fiber();
    ASSERT_EQ(row.size(), 2u);
    EXPECT_EQ(row.payloadAt(0).fiber()->size(), 2u);
    EXPECT_EQ(row.payloadAt(1).fiber()->size(), 1u);
}

/// Property test over random matrices: every transform preserves the
/// multiset of (point, value) contents (content preservation, §3.2).
class TransformProperty : public ::testing::TestWithParam<int>
{
  protected:
    Tensor
    randomMatrix(int seed)
    {
        Xoshiro256 rng(static_cast<std::uint64_t>(seed));
        const Coord rows = 20 + static_cast<Coord>(rng.below(30));
        const Coord cols = 20 + static_cast<Coord>(rng.below(30));
        std::map<std::pair<Coord, Coord>, Value> elems;
        const std::size_t nnz = 50 + rng.below(100);
        while (elems.size() < nnz) {
            const Coord r = static_cast<Coord>(rng.below(
                static_cast<std::uint64_t>(rows)));
            const Coord c = static_cast<Coord>(rng.below(
                static_cast<std::uint64_t>(cols)));
            elems[{r, c}] = 1.0 + rng.uniform();
        }
        std::vector<std::pair<std::vector<Coord>, Value>> coo;
        for (const auto& [rc, v] : elems)
            coo.push_back({{rc.first, rc.second}, v});
        return Tensor::fromCoo("R", {"M", "K"}, {rows, cols}, coo);
    }
};

TEST_P(TransformProperty, SwizzlePreservesContents)
{
    const Tensor t = randomMatrix(GetParam());
    const Tensor s = swizzle(t, {"K", "M"});
    EXPECT_EQ(s.nnz(), t.nnz());
    t.forEachLeaf([&](std::span<const Coord> p, Value v) {
        const std::vector<Coord> q{p[1], p[0]};
        EXPECT_DOUBLE_EQ(s.at(q), v);
    });
}

/// Every rank order of a 3-rank tensor against a tensor built point by
/// point: same leaves in the same order, zero-valued leaves included.
/// Odd seeds spread rank J's few distinct coordinates far beyond the
/// leaf count, which the swizzle sorts by a (stable) comparison sort
/// instead of by counting.
TEST_P(TransformProperty, SwizzleEveryOrderMatchesPointwiseBuild)
{
    Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()));
    const bool wide = GetParam() % 2 != 0;
    const std::vector<std::string> ids{"I", "J", "K"};
    const std::vector<Coord> shape{7, wide ? Coord{1} << 40 : Coord{9}, 5};
    std::map<std::vector<Coord>, Value> elems;
    const std::size_t nnz = 40 + rng.below(60);
    while (elems.size() < nnz) {
        std::vector<Coord> p{static_cast<Coord>(rng.below(7)),
                             static_cast<Coord>(rng.below(wide ? 6 : 9)),
                             static_cast<Coord>(rng.below(5))};
        if (wide)
            p[1] <<= 37;
        // Every seventh leaf stores an explicit zero.
        elems[p] = elems.size() % 7 == 0 ? 0.0 : 1.0 + rng.uniform();
    }
    std::vector<std::pair<std::vector<Coord>, Value>> coo(elems.begin(),
                                                           elems.end());
    const Tensor t = Tensor::fromCoo("T", ids, shape, coo);

    const auto leaves = [](const Tensor& x) {
        std::vector<std::pair<std::vector<Coord>, Value>> out;
        x.forEachLeaf([&](std::span<const Coord> p, Value v) {
            out.emplace_back(std::vector<Coord>(p.begin(), p.end()), v);
        });
        return out;
    };
    std::vector<std::size_t> perm{0, 1, 2};
    do {
        std::vector<std::string> order;
        std::vector<Coord> pshape;
        for (const std::size_t i : perm) {
            order.push_back(ids[i]);
            pshape.push_back(shape[i]);
        }
        std::vector<std::pair<std::vector<Coord>, Value>> pcoo;
        for (const auto& [p, v] : coo)
            pcoo.push_back({{p[perm[0]], p[perm[1]], p[perm[2]]}, v});
        const Tensor ref = Tensor::fromCoo("T", order, pshape, pcoo);
        const Tensor s = swizzle(t, order);
        EXPECT_EQ(s.rankIds(), order);
        EXPECT_EQ(leaves(s), leaves(ref))
            << order[0] << order[1] << order[2];
    } while (std::next_permutation(perm.begin(), perm.end()));
}

TEST_P(TransformProperty, FlattenPreservesContents)
{
    const Tensor t = randomMatrix(GetParam());
    const Coord kshape = t.rank(1).shape;
    const Tensor flat = flattenRanks(t, "M", "K");
    EXPECT_EQ(flat.nnz(), t.nnz());
    t.forEachLeaf([&](std::span<const Coord> p, Value v) {
        const std::vector<Coord> q{p[0] * kshape + p[1]};
        EXPECT_DOUBLE_EQ(flat.at(q), v);
    });
}

TEST_P(TransformProperty, ShapeSplitPreservesContents)
{
    const Tensor t = randomMatrix(GetParam());
    for (Coord tile : {1, 3, 7, 64}) {
        const Tensor s = splitRankByShape(t, "M", tile, "M1", "M0");
        EXPECT_EQ(s.nnz(), t.nnz());
        t.forEachLeaf([&](std::span<const Coord> p, Value v) {
            const std::vector<Coord> q{p[0] - p[0] % tile, p[0], p[1]};
            EXPECT_DOUBLE_EQ(s.at(q), v);
        });
    }
}

TEST_P(TransformProperty, OccupancySplitBalancesWithinOne)
{
    const Tensor t = randomMatrix(GetParam());
    const Tensor flat = flattenRanks(t, "M", "K");
    for (std::size_t chunk : {2u, 5u, 16u}) {
        const Tensor s =
            splitRankByOccupancy(flat, "MK", chunk, "MK1", "MK0");
        EXPECT_EQ(s.nnz(), t.nnz());
        const Fiber& top = *s.root();
        for (std::size_t pos = 0; pos < top.size(); ++pos) {
            const std::size_t occ = top.payloadAt(pos).fiber()->size();
            if (pos + 1 < top.size())
                EXPECT_EQ(occ, chunk); // all but last chunk are full
            else
                EXPECT_LE(occ, chunk);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransformProperty,
                         ::testing::Range(0, 8));

} // namespace
} // namespace teaal::ft
