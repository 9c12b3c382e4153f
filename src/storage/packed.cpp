#include "storage/packed.hpp"

#include <algorithm>
#include <bit>
#include <functional>

#include "fibertree/occupancy.hpp"
#include "util/error.hpp"

namespace teaal::storage
{

namespace
{

/** Coordinate span (last - first + 1) of fiber [lo, hi) in @p crd. */
ft::Coord
fiberSpan(const Buf<ft::Coord>& crd, std::uint64_t lo,
          std::uint64_t hi)
{
    return lo >= hi ? 0 : crd[hi - 1] - crd[lo] + 1;
}

} // namespace

std::vector<std::string>
PackedTensor::rankIds() const
{
    std::vector<std::string> ids;
    ids.reserve(ranks_.size());
    for (const ft::RankInfo& r : ranks_)
        ids.push_back(r.id);
    return ids;
}

std::vector<double>
PackedTensor::occupancyHints() const
{
    std::vector<std::size_t> counts;
    counts.reserve(levels_.size());
    for (const PackedLevel& level : levels_)
        counts.push_back(level.crd.size());
    return ft::occupancyHintsFromCounts(counts, ranks_.size());
}

int
PackedTensor::rankLevel(const std::string& id) const
{
    for (std::size_t i = 0; i < ranks_.size(); ++i) {
        if (ranks_[i].id == id)
            return static_cast<int>(i);
    }
    return -1;
}

void
PackedTensor::buildAux(std::size_t level)
{
    PackedLevel& L = levels_[level];
    L.bits.clear();
    L.bitBase.clear();
    L.bitRank.clear();
    if (L.type != fmt::RankFormat::Type::B)
        return;
    // The segment and coordinate arrays may be bound to a mapped file:
    // read them through the const (either-mode) accessors.
    const Buf<std::uint64_t>& seg = L.seg;
    const Buf<ft::Coord>& crd = L.crd;
    const std::size_t nf = L.fiberCount();
    L.bitBase.resize(nf + 1, 0);
    std::uint64_t total = 0;
    for (std::size_t f = 0; f < nf; ++f) {
        L.bitBase[f] = total;
        total += static_cast<std::uint64_t>(
            fiberSpan(crd, seg[f], seg[f + 1]));
    }
    L.bitBase[nf] = total;
    L.bits.assign((total + 63) / 64, 0);
    for (std::size_t f = 0; f < nf; ++f) {
        const std::uint64_t lo = seg[f];
        const std::uint64_t hi = seg[f + 1];
        if (lo >= hi)
            continue;
        const ft::Coord first = crd[lo];
        for (std::uint64_t p = lo; p < hi; ++p) {
            const std::uint64_t idx =
                L.bitBase[f] + static_cast<std::uint64_t>(crd[p] - first);
            L.bits[idx >> 6] |= 1ULL << (idx & 63);
        }
    }
    // Rank directory: bitRank[w] = set bits before word w.
    L.bitRank.assign(L.bits.size() + 1, 0);
    for (std::size_t w = 0; w < L.bits.size(); ++w) {
        L.bitRank[w + 1] =
            L.bitRank[w] +
            static_cast<std::uint64_t>(std::popcount(L.bits[w]));
    }
}

PackedTensor
PackedTensor::fromTensor(const ft::Tensor& t, const fmt::TensorFormat& format)
{
    PackedTensor out;
    out.name_ = t.name();
    out.ranks_ = t.ranks();
    out.format_ = format;
    const std::size_t nr = out.ranks_.size();
    out.levels_.resize(nr);
    for (std::size_t l = 0; l < nr; ++l) {
        out.levels_[l].type = format.rankFormat(out.ranks_[l].id).type;
        out.levels_[l].seg.push_back(0);
    }

    // Depth-first concordant walk, copying the exact skeleton: every
    // element of every fiber (zero leaves and empty children too), so
    // the packed walk visits exactly what the fibertree holds.
    std::function<void(const ft::Fiber&, std::size_t)> walk =
        [&](const ft::Fiber& fiber, std::size_t level) {
            PackedLevel& L = out.levels_[level];
            for (std::size_t pos = 0; pos < fiber.size(); ++pos) {
                L.crd.push_back(fiber.coordAt(pos));
                const ft::Payload& p = fiber.payloadAt(pos);
                if (level + 1 == nr) {
                    if (!p.isValue())
                        modelError("packing '", out.name_,
                                   "': fiber payload at the leaf rank");
                    out.vals_.push_back(p.value());
                } else {
                    if (p.isValue())
                        modelError("packing '", out.name_,
                                   "': scalar payload at interior rank '",
                                   out.ranks_[level].id, "'");
                    if (p.fiber() != nullptr)
                        walk(*p.fiber(), level + 1);
                    out.levels_[level + 1].seg.push_back(
                        out.levels_[level + 1].crd.size());
                }
            }
        };
    if (t.root() != nullptr)
        walk(*t.root(), 0);
    // Seal level 0 (one root fiber).
    out.levels_[0].seg.push_back(out.levels_[0].crd.size());
    for (std::size_t l = 0; l < nr; ++l)
        out.buildAux(l);
    return out;
}

ft::Tensor
PackedTensor::toTensor() const
{
    ft::Tensor t(name_, ranks_);
    const std::size_t nr = ranks_.size();
    std::function<ft::FiberPtr(std::size_t, std::uint64_t, std::uint64_t)>
        build = [&](std::size_t level, std::uint64_t lo,
                    std::uint64_t hi) -> ft::FiberPtr {
        auto fiber = std::make_shared<ft::Fiber>(ranks_[level].shape);
        fiber->reserve(static_cast<std::size_t>(hi - lo));
        const PackedLevel& L = levels_[level];
        for (std::uint64_t p = lo; p < hi; ++p) {
            if (level + 1 == nr) {
                fiber->append(L.crd[p], ft::Payload(vals_[p]));
            } else {
                const PackedLevel& C = levels_[level + 1];
                fiber->append(L.crd[p],
                              ft::Payload(build(level + 1, C.seg[p],
                                                C.seg[p + 1])));
            }
        }
        return fiber;
    };
    if (!levels_.empty())
        t.root() = build(0, levels_[0].seg.front(), levels_[0].seg.back());
    return t;
}

std::size_t
PackedTensor::leafCountBelow(std::size_t level, std::size_t pos) const
{
    // The subtree below one element spans a contiguous position range
    // at every deeper level; narrow it down to the leaf rank.
    std::uint64_t lo = pos;
    std::uint64_t hi = pos + 1;
    for (std::size_t l = level + 1; l < levels_.size(); ++l) {
        const PackedLevel& L = levels_[l];
        lo = L.seg[lo];
        hi = L.seg[hi];
    }
    return static_cast<std::size_t>(hi - lo);
}

std::uint64_t
PackedTensor::residentBytes() const
{
    // Buffers bound to the mapping are charged as the file; a
    // transform of a mapped tensor adds owned levels beside it.
    const auto owned = [](const auto& buf) -> std::uint64_t {
        return buf.external() ? 0 : buf.size() * sizeof(buf[0]);
    };
    std::uint64_t bytes = mappedBytes_ + owned(vals_);
    for (const PackedLevel& L : levels_) {
        bytes += owned(L.seg) + owned(L.crd) + owned(L.bits) +
                 owned(L.bitBase) + owned(L.bitRank);
    }
    return bytes;
}

std::uint64_t
PackedTensor::subtreeBits(const fmt::TensorFormat& format,
                          std::size_t level, std::size_t pos) const
{
    const std::size_t nr = levels_.size();
    if (level + 1 == nr) {
        // Leaf payload: mirrors fmt::subtreeBits on a value payload.
        const fmt::RankFormat& rf = format.rankFormat(ranks_[level].id);
        return static_cast<std::uint64_t>(rf.payloadBits(true));
    }
    // Interior: the child fiber's recursive footprint, mirroring
    // fmt::fiberSubtreeBits fiber by fiber (same occupancy, span, and
    // shape per fiber — same bits).
    std::function<std::uint64_t(std::size_t, std::uint64_t)> fiberSub =
        [&](std::size_t l, std::uint64_t f) -> std::uint64_t {
        const PackedLevel& L = levels_[l];
        const std::uint64_t lo = L.seg[f];
        const std::uint64_t hi = L.seg[f + 1];
        const std::size_t occ = static_cast<std::size_t>(hi - lo);
        std::uint64_t bits = fmt::fiberBits(
            format.rankFormat(ranks_[l].id), occ, ranks_[l].shape,
            l + 1 == nr, fiberSpan(L.crd, lo, hi));
        if (l + 1 < nr) {
            for (std::uint64_t p = lo; p < hi; ++p)
                bits += fiberSub(l + 1, p);
        }
        return bits;
    };
    return fiberSub(level + 1, pos);
}

// --------------------------------------------------------- builder

PackedBuilder::PackedBuilder(std::string name,
                             std::vector<ft::RankInfo> ranks,
                             const fmt::TensorFormat& format)
{
    TEAAL_ASSERT(!ranks.empty(), "packed tensor '", name,
                 "' needs >= 1 rank");
    t_.name_ = std::move(name);
    t_.ranks_ = std::move(ranks);
    t_.format_ = format;
    t_.levels_.resize(t_.ranks_.size());
    for (std::size_t l = 0; l < t_.ranks_.size(); ++l)
        t_.levels_[l].type = format.rankFormat(t_.ranks_[l].id).type;
    // Level 0 has its single root fiber open from the start; interior
    // levels get one start pushed per parent element as appends open
    // their fibers (finish() seals every level with the final end).
    t_.levels_[0].seg.push_back(0);
    last_.assign(t_.ranks_.size(), 0);
}

PackedBuilder::PackedBuilder(std::string name,
                             const std::vector<std::string>& rank_ids,
                             const std::vector<ft::Coord>& shape,
                             const fmt::TensorFormat& format)
    : PackedBuilder(std::move(name),
                    [&] {
                        TEAAL_ASSERT(rank_ids.size() == shape.size(),
                                     "rank ids / shape length mismatch");
                        std::vector<ft::RankInfo> ranks;
                        for (std::size_t i = 0; i < rank_ids.size(); ++i)
                            ranks.push_back(
                                {rank_ids[i], shape[i], {}, {}});
                        return ranks;
                    }(),
                    format)
{
}

void
PackedBuilder::reserve(std::size_t nnz)
{
    for (PackedLevel& L : t_.levels_)
        L.crd.reserve(nnz);
    t_.vals_.reserve(nnz);
}

void
PackedBuilder::append(std::span<const ft::Coord> point, ft::Value v)
{
    const std::size_t nr = t_.ranks_.size();
    TEAAL_ASSERT(point.size() == nr, "packed append arity mismatch for '",
                 t_.name_, "'");
    // Divergence level: the shallowest rank whose coordinate moved.
    std::size_t d = 0;
    if (any_) {
        while (d < nr && point[d] == last_[d])
            ++d;
        if (d == nr || point[d] < last_[d])
            modelError("packed append to '", t_.name_,
                       "' out of order (points must be strictly "
                       "increasing lexicographically)");
    }
    for (std::size_t l = d; l < nr; ++l) {
        t_.levels_[l].crd.push_back(point[l]);
        // A fresh interior element opens a fiber at the level below,
        // starting at that level's current end.
        if (l + 1 < nr)
            t_.levels_[l + 1].seg.push_back(t_.levels_[l + 1].crd.size());
        last_[l] = point[l];
    }
    t_.vals_.push_back(v);
    any_ = true;
}

PackedTensor
PackedBuilder::finish() &&
{
    TEAAL_ASSERT(!finished_, "packed builder for '", t_.name_,
                 "' finished twice");
    finished_ = true;
    // Seal: seg arrays currently hold fiber *starts*; append the final
    // sentinel per level (level 0's single root fiber included).
    for (std::size_t l = 0; l < t_.levels_.size(); ++l) {
        t_.levels_[l].seg.push_back(t_.levels_[l].crd.size());
        t_.buildAux(l);
    }
    return std::move(t_);
}

// ------------------------------------------------------- footprints

std::uint64_t
packedTensorBits(const fmt::TensorFormat& format, const PackedTensor& t)
{
    std::uint64_t total = 0;
    const std::size_t nr = t.numRanks();
    for (std::size_t l = 0; l < nr; ++l) {
        const PackedLevel& L = t.level(l);
        const fmt::RankFormat& rf = format.rankFormat(t.rank(l).id);
        const bool is_leaf = l + 1 == nr;
        const auto pbits =
            static_cast<std::uint64_t>(rf.payloadBits(is_leaf));
        const auto cbits = static_cast<std::uint64_t>(rf.coordBits());
        const auto hbits = static_cast<std::uint64_t>(rf.headerBits());
        const std::uint64_t fibers = L.fiberCount();
        total += hbits * fibers;
        switch (rf.type) {
          case fmt::RankFormat::Type::C:
            // Straight off the buffers: one coordinate + one payload
            // slot per stored element.
            total += (cbits + pbits) * L.crd.size();
            break;
          case fmt::RankFormat::Type::B: {
            // Coordinate structure = the bit pool's actual length;
            // payloads stay compressed (one slot per element).
            std::uint64_t pool = L.bitBase.empty() ? 0 : L.bitBase.back();
            if (L.type != fmt::RankFormat::Type::B) {
                // Packed under a different format: no pool was built;
                // fall back to per-fiber spans (what the pool's length
                // would be).
                pool = 0;
                for (std::uint64_t f = 0; f < fibers; ++f)
                    pool += static_cast<std::uint64_t>(
                        fiberSpan(L.crd, L.seg[f], L.seg[f + 1]));
            }
            total += cbits * pool + pbits * L.crd.size();
            break;
          }
          case fmt::RankFormat::Type::U: {
            // Implicit payload slots cover each fiber's span (capped
            // by the rank shape) — not stored in the walk skeleton,
            // so use the span-capped formula.
            const ft::Coord shape = t.rank(l).shape;
            for (std::uint64_t f = 0; f < fibers; ++f) {
                const ft::Coord extent = std::min(
                    shape, fiberSpan(L.crd, L.seg[f], L.seg[f + 1]));
                total += (cbits + pbits) *
                         static_cast<std::uint64_t>(extent);
            }
            break;
          }
        }
    }
    return total;
}

} // namespace teaal::storage
