#include "storage/transform.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "fibertree/transform.hpp"
#include "util/error.hpp"

namespace teaal::storage
{

/** Friend of PackedTensor: the transforms rebuild its levels. */
struct TransformAccess
{
    static PackedTensor swizzle(const PackedTensor& t,
                                const std::vector<std::string>& new_order);
    static PackedTensor flatten(PackedTensor t, const std::string& upper_id,
                                const std::string& lower_id);

    /**
     * Split level @p rank_id: @p parts(crd, lo, hi, shape, emit) calls
     * emit(begin, a, b) for each non-empty partition of the fiber at
     * positions [lo, hi), in order, with its elements at [a, b).
     * Elements no partition takes are dropped, as the pointer split
     * drops them.
     */
    template <typename Parts>
    static PackedTensor split(PackedTensor t, const std::string& rank_id,
                              const std::string& upper_name,
                              const std::string& lower_name,
                              const Parts& parts);

  private:
    /** Keep only the elements of level @p level - 1 in @p kept (old
     *  position ranges, in order): rebuild level @p level and every
     *  level below it, and the values, over the surviving subtrees. */
    static void compactBelow(
        PackedTensor& t, std::size_t level,
        std::vector<std::pair<std::uint64_t, std::uint64_t>> kept);
};

PackedTensor
TransformAccess::swizzle(const PackedTensor& t,
                         const std::vector<std::string>& new_order)
{
    const std::size_t nr = t.numRanks();
    if (new_order.size() != nr)
        specError("swizzle of '", t.name(), "': order has ",
                  new_order.size(), " ranks, tensor has ", nr);
    std::vector<std::size_t> perm;
    std::vector<ft::RankInfo> new_ranks;
    for (const std::string& id : new_order) {
        const int level = t.rankLevel(id);
        if (level < 0)
            specError("swizzle of '", t.name(), "': unknown rank '", id,
                      "'");
        perm.push_back(static_cast<std::size_t>(level));
        new_ranks.push_back(t.rank(static_cast<std::size_t>(level)));
    }
    std::vector<bool> seen(nr, false);
    for (const std::size_t p : perm) {
        if (seen[p])
            specError("swizzle of '", t.name(), "': duplicate rank");
        seen[p] = true;
    }

    // Every leaf's target row, in source order: one depth-first pass
    // over the segment arrays. Leaves are met in position order, so a
    // leaf's position is its row.
    const std::size_t n = t.nnz();
    std::vector<ft::Coord> rows(n * nr);
    std::vector<std::size_t> column(nr);
    for (std::size_t j = 0; j < nr; ++j)
        column[perm[j]] = j;
    if (n > 0) {
        std::vector<std::uint64_t> pos(nr);
        std::vector<std::uint64_t> end(nr);
        std::vector<ft::Coord> point(nr);
        pos[0] = t.levels_[0].seg[0];
        end[0] = t.levels_[0].seg[1];
        std::size_t level = 0;
        for (;;) {
            if (pos[level] == end[level]) {
                if (level == 0)
                    break;
                ++pos[--level];
                continue;
            }
            const PackedLevel& L = t.levels_[level];
            point[level] = L.crd[pos[level]];
            if (level + 1 == nr) {
                ft::Coord* row = &rows[pos[level] * nr];
                for (std::size_t l = 0; l < nr; ++l)
                    row[column[l]] = point[l];
                ++pos[level];
                continue;
            }
            const PackedLevel& C = t.levels_[level + 1];
            const std::uint64_t p = pos[level];
            ++level;
            pos[level] = C.seg[p];
            end[level] = C.seg[p + 1];
        }
    }

    const std::vector<std::size_t> order = ft::swizzleOrder(rows, perm);
    PackedBuilder b(t.name(), std::move(new_ranks), t.format());
    for (const std::size_t leaf : order) {
        b.append(std::span<const ft::Coord>(&rows[leaf * nr], nr),
                 t.vals_[leaf]);
    }
    return std::move(b).finish();
}

PackedTensor
TransformAccess::flatten(PackedTensor t, const std::string& upper_id,
                         const std::string& lower_id)
{
    const int upper = t.rankLevel(upper_id);
    const int lower = t.rankLevel(lower_id);
    if (upper < 0 || lower < 0 || lower != upper + 1)
        specError("flatten of '", t.name(), "': ranks ", upper_id, ", ",
                  lower_id, " must be adjacent (upper directly above)");
    const auto u = static_cast<std::size_t>(upper);
    const auto l = static_cast<std::size_t>(lower);

    const ft::RankInfo& ru = t.ranks_[u];
    const ft::RankInfo& rl = t.ranks_[l];
    const ft::Coord stride = rl.shape;
    TEAAL_ASSERT(stride > 0, "flatten: lower rank shape must be positive");

    ft::RankInfo flat;
    flat.id = ru.id + rl.id;
    flat.shape = ru.shape * rl.shape;
    // Record constituents; nested flattening concatenates expansions.
    for (const ft::RankInfo* r : {&ru, &rl}) {
        if (r->isFlattened()) {
            flat.flatIds.insert(flat.flatIds.end(), r->flatIds.begin(),
                                r->flatIds.end());
            flat.flatShapes.insert(flat.flatShapes.end(),
                                   r->flatShapes.begin(),
                                   r->flatShapes.end());
        } else {
            flat.flatIds.push_back(r->id);
            flat.flatShapes.push_back(r->shape);
        }
    }

    // The merged level lives in the lower level's position space: the
    // children of one upper fiber are contiguous there, so the levels
    // below keep their segment arrays as they are.
    const PackedLevel& U = t.levels_[u];
    const PackedLevel& L = t.levels_[l];
    PackedLevel merged;
    merged.type = t.format_.rankFormat(flat.id).type;
    const std::size_t nf = U.fiberCount();
    merged.seg.resize(nf + 1);
    for (std::size_t f = 0; f <= nf; ++f)
        merged.seg[f] = L.seg[static_cast<std::size_t>(U.seg[f])];
    merged.crd.resize(L.crd.size());
    for (std::size_t q = 0; q < U.crd.size(); ++q) {
        const ft::Coord base = U.crd[q] * stride;
        for (std::uint64_t p = L.seg[q]; p < L.seg[q + 1]; ++p)
            merged.crd[p] = base + L.crd[p];
    }

    t.levels_[u] = std::move(merged);
    t.levels_.erase(t.levels_.begin() + lower);
    t.ranks_[u] = std::move(flat);
    t.ranks_.erase(t.ranks_.begin() + lower);
    t.buildAux(u);
    return t;
}

template <typename Parts>
PackedTensor
TransformAccess::split(PackedTensor t, const std::string& rank_id,
                       const std::string& upper_name,
                       const std::string& lower_name, const Parts& parts)
{
    const int level = t.rankLevel(rank_id);
    if (level < 0)
        specError("partitioning of '", t.name(), "': unknown rank '",
                  rank_id, "'");
    const auto s = static_cast<std::size_t>(level);
    const ft::Coord shape = t.ranks_[s].shape;

    // Read through a const view: the source buffers may be bound to a
    // mapped file, and only the const accessors read those.
    const PackedLevel& src = t.levels_[s];
    PackedLevel up;
    PackedLevel low;
    up.type = t.format_.rankFormat(upper_name).type;
    low.type = t.format_.rankFormat(lower_name).type;
    up.seg.push_back(0);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> kept;
    std::uint64_t taken = 0;
    bool dropped = false;
    const std::size_t nf = src.fiberCount();
    for (std::size_t f = 0; f < nf; ++f) {
        std::uint64_t cursor = src.seg[f];
        parts(src.crd, src.seg[f], src.seg[f + 1], shape,
              [&](ft::Coord begin, std::uint64_t a, std::uint64_t b) {
                  dropped |= a != cursor;
                  cursor = b;
                  up.crd.push_back(begin);
                  low.seg.push_back(taken);
                  taken += b - a;
                  kept.emplace_back(a, b);
              });
        dropped |= cursor != src.seg[f + 1];
        up.seg.push_back(up.crd.size());
    }
    low.seg.push_back(taken);

    if (dropped) {
        for (const auto& [a, b] : kept) {
            for (std::uint64_t p = a; p < b; ++p)
                low.crd.push_back(src.crd[p]);
        }
        compactBelow(t, s + 1, std::move(kept));
    } else {
        // Every element stays where it was: the lower level reuses the
        // split rank's coordinates and the levels below are untouched.
        low.crd = std::move(t.levels_[s].crd);
    }

    ft::RankInfo upper_rank = t.ranks_[s];
    upper_rank.id = upper_name;
    ft::RankInfo lower_rank = t.ranks_[s];
    lower_rank.id = lower_name;
    t.ranks_[s] = std::move(upper_rank);
    t.ranks_.insert(t.ranks_.begin() + level + 1, std::move(lower_rank));
    t.levels_[s] = std::move(up);
    t.levels_.insert(t.levels_.begin() + level + 1, std::move(low));
    const std::size_t rebuilt = dropped ? t.levels_.size() : s + 2;
    for (std::size_t l = s; l < rebuilt; ++l)
        t.buildAux(l);
    return t;
}

void
TransformAccess::compactBelow(
    PackedTensor& t, std::size_t level,
    std::vector<std::pair<std::uint64_t, std::uint64_t>> kept)
{
    for (std::size_t l = level; l < t.levels_.size(); ++l) {
        const PackedLevel& old = t.levels_[l];
        PackedLevel now;
        now.type = old.type;
        now.seg.push_back(0);
        std::vector<std::pair<std::uint64_t, std::uint64_t>> below;
        for (const auto& [a, b] : kept) {
            for (std::uint64_t p = a; p < b; ++p) {
                for (std::uint64_t q = old.seg[p]; q < old.seg[p + 1]; ++q)
                    now.crd.push_back(old.crd[q]);
                now.seg.push_back(now.crd.size());
            }
            below.emplace_back(old.seg[a], old.seg[b]);
        }
        t.levels_[l] = std::move(now);
        kept = std::move(below);
    }
    const Buf<ft::Value>& old_vals = t.vals_;
    Buf<ft::Value> vals;
    for (const auto& [a, b] : kept) {
        for (std::uint64_t p = a; p < b; ++p)
            vals.push_back(old_vals[p]);
    }
    t.vals_ = std::move(vals);
}

namespace
{

/** The pointer split's walk over explicit partition starts: partition
 *  j spans [starts[j], starts[j+1]), the last one up to the shape. */
template <typename Emit>
void
partsFromStarts(const std::vector<ft::Coord>& starts,
                const Buf<ft::Coord>& crd, std::uint64_t lo,
                std::uint64_t hi, ft::Coord shape, const Emit& emit)
{
    std::uint64_t pos = lo;
    for (std::size_t j = 0; j < starts.size(); ++j) {
        const ft::Coord begin = starts[j];
        const ft::Coord end = j + 1 < starts.size() ? starts[j + 1] : shape;
        while (pos < hi && crd[pos] < begin)
            ++pos;
        const std::uint64_t a = pos;
        while (pos < hi && crd[pos] < end)
            ++pos;
        if (pos > a)
            emit(begin, a, pos);
    }
}

} // namespace

PackedTensor
swizzle(const PackedTensor& t, const std::vector<std::string>& new_order)
{
    return TransformAccess::swizzle(t, new_order);
}

PackedTensor
flattenRanks(PackedTensor t, const std::string& upper_id,
             const std::string& lower_id)
{
    return TransformAccess::flatten(std::move(t), upper_id, lower_id);
}

PackedTensor
splitRankByShape(PackedTensor t, const std::string& rank_id, ft::Coord tile,
                 const std::string& upper_name, const std::string& lower_name)
{
    if (tile <= 0)
        specError("uniform_shape tile must be positive, got ", tile);
    // Partition starts are the multiples of the tile below the shape,
    // so an element's partition is arithmetic: no per-fiber start list
    // (which would cost shape / tile per fiber).
    return TransformAccess::split(
        std::move(t), rank_id, upper_name, lower_name,
        [tile](const Buf<ft::Coord>& crd, std::uint64_t lo,
               std::uint64_t hi, ft::Coord shape, const auto& emit) {
            std::uint64_t pos = lo;
            while (pos < hi && crd[pos] < 0)
                ++pos;
            while (pos < hi && crd[pos] < shape) {
                const ft::Coord begin = crd[pos] - crd[pos] % tile;
                const ft::Coord end = std::min(begin + tile, shape);
                const std::uint64_t a = pos;
                while (pos < hi && crd[pos] < end)
                    ++pos;
                emit(begin, a, pos);
            }
        });
}

PackedTensor
splitRankByOccupancy(PackedTensor t, const std::string& rank_id,
                     std::size_t chunk, const std::string& upper_name,
                     const std::string& lower_name)
{
    if (chunk == 0)
        specError("uniform_occupancy chunk must be positive");
    std::vector<ft::Coord> starts;
    return TransformAccess::split(
        std::move(t), rank_id, upper_name, lower_name,
        [chunk, &starts](const Buf<ft::Coord>& crd, std::uint64_t lo,
                         std::uint64_t hi, ft::Coord shape,
                         const auto& emit) {
            // ft::occupancyBoundaries of this fiber.
            starts.assign(1, 0);
            for (std::uint64_t p = lo + chunk; p < hi; p += chunk)
                starts.push_back(crd[p]);
            partsFromStarts(starts, crd, lo, hi, shape, emit);
        });
}

PackedTensor
splitRankByBoundaries(PackedTensor t, const std::string& rank_id,
                      const std::vector<ft::Coord>& starts,
                      const std::string& upper_name,
                      const std::string& lower_name)
{
    if (starts.empty())
        specError("splitRankByBoundaries: empty boundary list");
    return TransformAccess::split(
        std::move(t), rank_id, upper_name, lower_name,
        [&starts](const Buf<ft::Coord>& crd, std::uint64_t lo,
                  std::uint64_t hi, ft::Coord shape, const auto& emit) {
            partsFromStarts(starts, crd, lo, hi, shape, emit);
        });
}

} // namespace teaal::storage
