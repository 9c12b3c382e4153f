#include "fibertree/transform.hpp"

#include <algorithm>
#include <cstdint>

#include "util/error.hpp"

namespace teaal::ft
{

namespace
{

/**
 * A tensor's leaves as one flat row-major coordinate array (`depth`
 * coordinates per leaf, already in the target rank order) beside a
 * value array: two allocations in total, however many leaves.
 */
struct FlatLeaves
{
    std::size_t depth = 0;
    std::vector<Coord> coords;
    std::vector<Value> values;

    const Coord* row(std::size_t i) const { return &coords[i * depth]; }
};

/** Append every leaf under @p fiber (at @p level) to @p out, writing
 *  coordinate point[perm[j]] as the leaf's j-th target coordinate. */
void
gatherFlat(const Fiber& fiber, std::size_t level, std::vector<Coord>& point,
           const std::vector<std::size_t>& perm, FlatLeaves& out)
{
    TEAAL_ASSERT(level < out.depth, "leaf arity mismatch");
    for (std::size_t pos = 0; pos < fiber.size(); ++pos) {
        point[level] = fiber.coordAt(pos);
        const Payload& p = fiber.payloadAt(pos);
        if (p.isValue()) {
            TEAAL_ASSERT(level + 1 == out.depth, "leaf arity mismatch");
            for (const std::size_t src : perm)
                out.coords.push_back(point[src]);
            out.values.push_back(p.value());
        } else if (p.fiber() != nullptr) {
            gatherFlat(*p.fiber(), level + 1, point, perm, out);
        }
    }
}

/** Build @p t from @p leaves visited in @p order (ascending rows)
 *  using append-only construction. */
void
buildFromSortedRows(Tensor& t, const FlatLeaves& leaves,
                    const std::vector<std::size_t>& order)
{
    // Maintain a stack of open fibers, one per level.
    const std::size_t depth = t.numRanks();
    std::vector<Fiber*> stack(depth, nullptr);
    stack[0] = t.root().get();
    std::vector<Coord> open(depth, -1);
    for (const std::size_t leaf : order) {
        const Coord* point = leaves.row(leaf);
        // Find the first level whose open coordinate differs.
        std::size_t level = 0;
        while (level + 1 < depth && open[level] == point[level] &&
               stack[level + 1] != nullptr) {
            ++level;
        }
        for (; level + 1 < depth; ++level) {
            auto child = std::make_shared<Fiber>(t.rank(level + 1).shape);
            Fiber* child_raw = child.get();
            stack[level]->append(point[level], Payload(std::move(child)));
            open[level] = point[level];
            stack[level + 1] = child_raw;
        }
        stack[depth - 1]->append(point[depth - 1],
                                 Payload(leaves.values[leaf]));
        open[depth - 1] = point[depth - 1];
    }
}

/**
 * Apply @p fn to every fiber at @p target_level (0 = root), replacing
 * each with the fiber @p fn returns.
 */
void
replaceFibersAtLevel(FiberPtr& fiber, std::size_t target_level,
                     const std::function<FiberPtr(const Fiber&)>& fn)
{
    if (fiber == nullptr)
        return;
    if (target_level == 0) {
        fiber = fn(*fiber);
        return;
    }
    for (std::size_t pos = 0; pos < fiber->size(); ++pos) {
        Payload& p = fiber->payloadAt(pos);
        if (p.isFiber()) {
            FiberPtr child = p.fiber();
            replaceFibersAtLevel(child, target_level - 1, fn);
            p.setFiber(std::move(child));
        }
    }
}

} // namespace

std::vector<std::size_t>
swizzleOrder(std::span<const Coord> rows,
             const std::vector<std::size_t>& perm)
{
    const std::size_t depth = perm.size();
    const std::size_t n = depth == 0 ? 0 : rows.size() / depth;
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    // Sort by target row, least significant column first (LSD radix).
    // The rows arrive in source order, which already breaks ties
    // correctly on the longest target suffix whose ranks keep their
    // source relative order, so only the columns before that suffix
    // need a pass: one for a plain transpose, none for the identity.
    // Source order also sorts the rows by the longest target prefix
    // that keeps the source's leading ranks; those columns collapse
    // into one pass over a group key, the rank of the row's prefix.
    std::size_t suffix = depth - 1;
    while (suffix > 0 && perm[suffix - 1] < perm[suffix])
        --suffix;
    std::size_t prefix = 0;
    while (prefix < depth && perm[prefix] == prefix)
        ++prefix;
    if (n <= 1 || suffix <= prefix)
        return order;

    std::vector<std::size_t> scratch;
    // One stable pass by @p key: a counting sort when the key's span is
    // within a small multiple of the row count, else a stable
    // comparison sort (a flattened rank can span far more coordinates
    // than it holds).
    const auto pass = [&order, &scratch, n](const auto& key) {
        Coord lo = key(order[0]);
        Coord hi = lo;
        for (const std::size_t row : order) {
            lo = std::min(lo, key(row));
            hi = std::max(hi, key(row));
        }
        const std::uint64_t span = static_cast<std::uint64_t>(hi) -
                                   static_cast<std::uint64_t>(lo) + 1;
        if (span > 4 * static_cast<std::uint64_t>(n) + 1024) {
            std::stable_sort(order.begin(), order.end(),
                             [&key](std::size_t a, std::size_t b) {
                                 return key(a) < key(b);
                             });
            return;
        }
        std::vector<std::size_t> start(static_cast<std::size_t>(span) + 1,
                                       0);
        for (const std::size_t row : order)
            ++start[static_cast<std::size_t>(key(row) - lo) + 1];
        for (std::size_t k = 1; k < start.size(); ++k)
            start[k] += start[k - 1];
        scratch.resize(n);
        for (const std::size_t row : order)
            scratch[start[static_cast<std::size_t>(key(row) - lo)]++] = row;
        order.swap(scratch);
    };
    for (std::size_t col = suffix; col-- > prefix;) {
        pass([rows, depth, col](std::size_t row) {
            return rows[row * depth + col];
        });
    }
    if (prefix > 0) {
        std::vector<Coord> group(n, 0);
        for (std::size_t i = 1; i < n; ++i) {
            const Coord* cur = &rows[i * depth];
            group[i] = group[i - 1] +
                       (std::equal(cur, cur + prefix, cur - depth) ? 0 : 1);
        }
        pass([&group](std::size_t row) { return group[row]; });
    }
    return order;
}

Tensor
swizzle(const Tensor& t, const std::vector<std::string>& new_order)
{
    if (new_order.size() != t.numRanks())
        specError("swizzle of '", t.name(), "': order has ",
                  new_order.size(), " ranks, tensor has ", t.numRanks());

    std::vector<std::size_t> perm;
    std::vector<RankInfo> new_ranks;
    for (const std::string& id : new_order) {
        const int level = t.rankLevel(id);
        if (level < 0)
            specError("swizzle of '", t.name(), "': unknown rank '", id,
                      "'");
        perm.push_back(static_cast<std::size_t>(level));
        new_ranks.push_back(t.rank(static_cast<std::size_t>(level)));
    }
    std::vector<bool> seen(t.numRanks(), false);
    for (std::size_t p : perm) {
        if (seen[p])
            specError("swizzle of '", t.name(), "': duplicate rank");
        seen[p] = true;
    }

    FlatLeaves leaves;
    leaves.depth = perm.size();
    if (t.root() != nullptr) {
        const std::size_t nnz = t.nnz();
        leaves.coords.reserve(nnz * leaves.depth);
        leaves.values.reserve(nnz);
        std::vector<Coord> point(leaves.depth, 0);
        gatherFlat(*t.root(), 0, point, perm, leaves);
    }
    const std::vector<std::size_t> order =
        swizzleOrder(leaves.coords, perm);
    Tensor out(t.name(), new_ranks);
    buildFromSortedRows(out, leaves, order);
    return out;
}

Tensor
flattenRanks(const Tensor& t, const std::string& upper_id,
             const std::string& lower_id)
{
    const int upper = t.rankLevel(upper_id);
    const int lower = t.rankLevel(lower_id);
    if (upper < 0 || lower < 0 || lower != upper + 1)
        specError("flatten of '", t.name(), "': ranks ", upper_id, ", ",
                  lower_id, " must be adjacent (upper directly above)");

    const RankInfo& ru = t.rank(static_cast<std::size_t>(upper));
    const RankInfo& rl = t.rank(static_cast<std::size_t>(lower));
    const Coord stride = rl.shape;
    TEAAL_ASSERT(stride > 0, "flatten: lower rank shape must be positive");

    RankInfo flat;
    flat.id = ru.id + rl.id;
    flat.shape = ru.shape * rl.shape;
    // Record constituents; nested flattening concatenates expansions.
    auto expand = [](const RankInfo& r, std::vector<std::string>& ids,
                     std::vector<Coord>& shapes) {
        if (r.isFlattened()) {
            ids.insert(ids.end(), r.flatIds.begin(), r.flatIds.end());
            shapes.insert(shapes.end(), r.flatShapes.begin(),
                          r.flatShapes.end());
        } else {
            ids.push_back(r.id);
            shapes.push_back(r.shape);
        }
    };
    expand(ru, flat.flatIds, flat.flatShapes);
    expand(rl, flat.flatIds, flat.flatShapes);

    std::vector<RankInfo> new_ranks;
    for (std::size_t i = 0; i < t.numRanks(); ++i) {
        if (static_cast<int>(i) == upper)
            new_ranks.push_back(flat);
        else if (static_cast<int>(i) != lower)
            new_ranks.push_back(t.rank(i));
    }

    Tensor out(t.name(), new_ranks);
    out.root() = t.root() ? t.root()->clone() : nullptr;
    replaceFibersAtLevel(
        out.root(), static_cast<std::size_t>(upper),
        [&](const Fiber& f) {
            auto merged = std::make_shared<Fiber>(flat.shape);
            std::size_t total = 0;
            for (std::size_t pos = 0; pos < f.size(); ++pos) {
                const Payload& p = f.payloadAt(pos);
                if (p.isFiber() && p.fiber() != nullptr)
                    total += p.fiber()->size();
            }
            merged->reserve(total);
            for (std::size_t pos = 0; pos < f.size(); ++pos) {
                const Coord cu = f.coordAt(pos);
                const Payload& p = f.payloadAt(pos);
                if (!p.isFiber() || p.fiber() == nullptr)
                    modelError("flatten: expected fibers below rank '",
                               upper_id, "'");
                const Fiber& child = *p.fiber();
                for (std::size_t cpos = 0; cpos < child.size(); ++cpos) {
                    merged->append(cu * stride + child.coordAt(cpos),
                                   child.payloadAt(cpos));
                }
            }
            return merged;
        });
    return out;
}

namespace
{

/**
 * Common splitter: given a function mapping a fiber to the list of
 * partition start coordinates, split every fiber at @p level.
 */
Tensor
splitImpl(const Tensor& t, const std::string& rank_id,
          const std::string& upper_name, const std::string& lower_name,
          const std::function<std::vector<Coord>(const Fiber&)>& bounds_fn)
{
    const int level = t.rankLevel(rank_id);
    if (level < 0)
        specError("partitioning of '", t.name(), "': unknown rank '",
                  rank_id, "'");

    const RankInfo& orig = t.rank(static_cast<std::size_t>(level));
    RankInfo upper = orig;
    upper.id = upper_name;
    RankInfo lower = orig;
    lower.id = lower_name;

    std::vector<RankInfo> new_ranks;
    for (std::size_t i = 0; i < t.numRanks(); ++i) {
        if (static_cast<int>(i) == level) {
            new_ranks.push_back(upper);
            new_ranks.push_back(lower);
        } else {
            new_ranks.push_back(t.rank(i));
        }
    }

    Tensor out(t.name(), new_ranks);
    out.root() = t.root() ? t.root()->clone() : nullptr;
    replaceFibersAtLevel(
        out.root(), static_cast<std::size_t>(level),
        [&](const Fiber& f) {
            auto split = std::make_shared<Fiber>(orig.shape);
            const std::vector<Coord> starts = bounds_fn(f);
            split->reserve(starts.size());
            std::size_t pos = 0;
            for (std::size_t j = 0; j < starts.size(); ++j) {
                const Coord begin = starts[j];
                const Coord end = j + 1 < starts.size()
                                      ? starts[j + 1]
                                      : orig.shape;
                auto part = std::make_shared<Fiber>(orig.shape);
                while (pos < f.size() && f.coordAt(pos) < begin)
                    ++pos; // elements before the first boundary: none
                part->reserve(f.lowerBound(end) - pos);
                while (pos < f.size() && f.coordAt(pos) < end) {
                    part->append(f.coordAt(pos), f.payloadAt(pos));
                    ++pos;
                }
                if (!part->empty())
                    split->append(begin, Payload(std::move(part)));
            }
            return split;
        });
    return out;
}

} // namespace

Tensor
splitRankByShape(const Tensor& t, const std::string& rank_id, Coord tile,
                 const std::string& upper_name,
                 const std::string& lower_name)
{
    if (tile <= 0)
        specError("uniform_shape tile must be positive, got ", tile);
    return splitImpl(t, rank_id, upper_name, lower_name,
                     [&t, rank_id, tile](const Fiber& f) {
                         const int level = t.rankLevel(rank_id);
                         const Coord shape =
                             t.rank(static_cast<std::size_t>(level)).shape;
                         (void)f;
                         std::vector<Coord> starts;
                         for (Coord c = 0; c < shape; c += tile)
                             starts.push_back(c);
                         if (starts.empty())
                             starts.push_back(0);
                         return starts;
                     });
}

Tensor
splitRankByOccupancy(const Tensor& t, const std::string& rank_id,
                     std::size_t chunk, const std::string& upper_name,
                     const std::string& lower_name)
{
    if (chunk == 0)
        specError("uniform_occupancy chunk must be positive");
    return splitImpl(t, rank_id, upper_name, lower_name,
                     [chunk](const Fiber& f) {
                         return occupancyBoundaries(f, chunk);
                     });
}

Tensor
splitRankByBoundaries(const Tensor& t, const std::string& rank_id,
                      const std::vector<Coord>& starts,
                      const std::string& upper_name,
                      const std::string& lower_name)
{
    if (starts.empty())
        specError("splitRankByBoundaries: empty boundary list");
    return splitImpl(t, rank_id, upper_name, lower_name,
                     [&starts](const Fiber&) { return starts; });
}

std::vector<Coord>
occupancyBoundaries(const Fiber& fiber, std::size_t chunk)
{
    TEAAL_ASSERT(chunk > 0, "occupancy chunk must be positive");
    std::vector<Coord> starts;
    if (fiber.empty()) {
        starts.push_back(0);
        return starts;
    }
    for (std::size_t pos = 0; pos < fiber.size(); pos += chunk) {
        // Each chunk starts at its first element's coordinate, except
        // the first chunk which starts at the range minimum so that
        // follower elements below the leader's first coordinate are
        // not orphaned.
        starts.push_back(pos == 0 ? 0 : fiber.coordAt(pos));
    }
    return starts;
}

} // namespace teaal::ft
