#include "fibertree/coiter.hpp"

#include <algorithm>
#include <bit>

namespace teaal::ft
{

FiberView
FiberView::range(Coord c0, Coord c1) const
{
    if (empty())
        return {};
    FiberView out = *this;
    const auto r0 = static_cast<std::size_t>(
        std::lower_bound(crd + lo, crd + hi, c0) - crd);
    const auto r1 = static_cast<std::size_t>(
        std::lower_bound(crd + lo, crd + hi, c1) - crd);
    out.lo = std::max(r0, lo);
    out.hi = std::min(r1, hi);
    if (out.lo > out.hi)
        out.lo = out.hi;
    return out;
}

std::optional<std::size_t>
FiberView::find(Coord c) const
{
    if (empty())
        return std::nullopt;
    if (bits != nullptr) {
        // Bitmap probe: O(1) membership, rank directory for position.
        const Coord off = c - bitFirst;
        if (off < 0 || off >= bitExtent)
            return std::nullopt;
        const std::uint64_t idx = bitBase + static_cast<std::uint64_t>(off);
        const std::uint64_t word = bits[idx >> 6];
        if (((word >> (idx & 63)) & 1ULL) == 0)
            return std::nullopt;
        const std::uint64_t below =
            bitRank[idx >> 6] +
            static_cast<std::uint64_t>(
                std::popcount(word & ((1ULL << (idx & 63)) - 1)));
        const auto pos = static_cast<std::size_t>(below);
        if (pos >= lo && pos < hi)
            return pos;
        return std::nullopt;
    }
    // Contiguous-coordinate (implicit/dense) fast path: two loads
    // decide, then position is arithmetic.
    const Coord first = crd[lo];
    const Coord last = crd[hi - 1];
    if (last - first == static_cast<Coord>(hi - lo - 1)) {
        if (c < first || c > last)
            return std::nullopt;
        return lo + static_cast<std::size_t>(c - first);
    }
    const Coord* it = std::lower_bound(crd + lo, crd + hi, c);
    if (it == crd + hi || *it != c)
        return std::nullopt;
    return static_cast<std::size_t>(it - crd);
}

} // namespace teaal::ft
