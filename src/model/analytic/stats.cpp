#include "model/analytic/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace teaal::model::analytic
{

double
expectedDistinct(double draws, double universe)
{
    if (draws <= 0 || universe <= 0)
        return 0;
    if (universe <= 1)
        return 1;
    // U * (1 - (1 - 1/U)^n) via expm1/log1p for large U.
    const double per = -std::expm1(draws * std::log1p(-1.0 / universe));
    return std::min(draws, universe * per);
}

SymbolicTensor
SymbolicTensor::fromHints(std::string name, std::vector<ft::RankInfo> ranks,
                          const std::vector<double>& hints)
{
    SymbolicTensor t;
    t.name = std::move(name);
    t.ranks = std::move(ranks);
    double running = 1.0;
    for (std::size_t l = 0; l < t.ranks.size(); ++l) {
        running *= l < hints.size() ? hints[l] : 0.0;
        t.counts.push_back(running);
        t.windows.push_back(
            std::max<double>(static_cast<double>(t.ranks[l].shape), 1.0));
    }
    return t;
}

double
SymbolicTensor::occupancy(std::size_t level) const
{
    if (level >= counts.size())
        return 0;
    const double fibers = level == 0 ? 1.0 : counts[level - 1];
    return fibers > 0 ? counts[level] / fibers : 0.0;
}

std::vector<double>
SymbolicTensor::occupancyHints() const
{
    std::vector<double> hints;
    hints.reserve(counts.size());
    for (std::size_t l = 0; l < counts.size(); ++l)
        hints.push_back(occupancy(l));
    return hints;
}

std::vector<std::string>
SymbolicTensor::rankIds() const
{
    std::vector<std::string> ids;
    ids.reserve(ranks.size());
    for (const ft::RankInfo& r : ranks)
        ids.push_back(r.id);
    return ids;
}

int
SymbolicTensor::rankLevel(const std::string& id) const
{
    for (std::size_t i = 0; i < ranks.size(); ++i) {
        if (ranks[i].id == id)
            return static_cast<int>(i);
    }
    return -1;
}

SymbolicTensor
swizzle(const SymbolicTensor& t, const std::vector<std::string>& order)
{
    TEAAL_ASSERT(order.size() == t.ranks.size(),
                 "symbolic swizzle of '", t.name,
                 "': order is not a permutation");
    SymbolicTensor out = t;
    out.ranks.clear();
    out.windows.clear();
    for (const std::string& id : order) {
        const int lvl = t.rankLevel(id);
        TEAAL_ASSERT(lvl >= 0, "symbolic swizzle of '", t.name,
                     "': unknown rank '", id, "'");
        out.ranks.push_back(t.ranks[static_cast<std::size_t>(lvl)]);
        out.windows.push_back(t.windows[static_cast<std::size_t>(lvl)]);
    }
    // A common prefix keeps its exact counts (those fibers are
    // untouched); below the first moved rank, prefixes redistribute
    // and the count becomes the expected number of distinct prefixes
    // of the tensor's nnz points over the permuted windows.
    std::size_t prefix = 0;
    while (prefix < order.size() && order[prefix] == t.ranks[prefix].id)
        ++prefix;
    const double n = t.nnz();
    double universe = 1.0;
    for (std::size_t l = 0; l < out.ranks.size(); ++l) {
        universe *= std::max(out.windows[l], 1.0);
        if (l < prefix)
            continue;
        double c = expectedDistinct(n, universe);
        if (l > 0)
            c = std::max(c, out.counts[l - 1]);
        out.counts[l] = std::min(c, n > 0 ? n : 0.0);
    }
    if (!out.counts.empty())
        out.counts.back() = n;
    return out;
}

SymbolicTensor
flattenRanks(const SymbolicTensor& t, const std::string& upper,
             const std::string& lower)
{
    const int u = t.rankLevel(upper);
    const int l = t.rankLevel(lower);
    TEAAL_ASSERT(u >= 0 && l == u + 1, "symbolic flatten of '", t.name,
                 "': ranks '", upper, "'/'", lower, "' not adjacent");
    const auto uu = static_cast<std::size_t>(u);
    const ft::RankInfo& ru = t.ranks[uu];
    const ft::RankInfo& rl = t.ranks[uu + 1];

    ft::RankInfo flat;
    flat.id = ru.id + rl.id;
    flat.shape = ru.shape * rl.shape;
    auto expand = [&](const ft::RankInfo& ri) {
        if (ri.isFlattened()) {
            flat.flatIds.insert(flat.flatIds.end(), ri.flatIds.begin(),
                                ri.flatIds.end());
            flat.flatShapes.insert(flat.flatShapes.end(),
                                   ri.flatShapes.begin(),
                                   ri.flatShapes.end());
        } else {
            flat.flatIds.push_back(ri.id);
            flat.flatShapes.push_back(ri.shape);
        }
    };
    expand(ru);
    expand(rl);

    SymbolicTensor out = t;
    out.ranks.erase(out.ranks.begin() + u, out.ranks.begin() + u + 2);
    out.ranks.insert(out.ranks.begin() + u, flat);
    // One flattened element per lower element; the upper level's
    // count row disappears.
    out.counts.erase(out.counts.begin() + u);
    const double win =
        std::max(t.windows[uu], 1.0) * std::max(t.windows[uu + 1], 1.0);
    out.windows.erase(out.windows.begin() + u, out.windows.begin() + u + 2);
    out.windows.insert(out.windows.begin() + u, win);
    return out;
}

SymbolicTensor
splitRankByShape(const SymbolicTensor& t, const std::string& rank,
                 ft::Coord tile, const std::string& upper,
                 const std::string& lower)
{
    const int r = t.rankLevel(rank);
    TEAAL_ASSERT(r >= 0, "symbolic shape split of '", t.name,
                 "': unknown rank '", rank, "'");
    TEAAL_ASSERT(tile > 0, "symbolic shape split of '", t.name,
                 "': tile must be positive");
    const auto rr = static_cast<std::size_t>(r);
    const double fibers = rr == 0 ? 1.0 : t.counts[rr - 1];
    const double occ = fibers > 0 ? t.counts[rr] / fibers : 0.0;
    const double window = std::max(t.windows[rr], 1.0);
    const double tiles =
        std::max(1.0, std::ceil(window / static_cast<double>(tile)));
    const double tiles_per_fiber =
        std::min(expectedDistinct(occ, tiles), std::max(occ, 0.0));

    SymbolicTensor out = t;
    ft::RankInfo up = t.ranks[rr];
    up.id = upper;
    ft::RankInfo low = t.ranks[rr];
    low.id = lower;
    out.ranks[rr] = up;
    out.ranks.insert(out.ranks.begin() + r + 1, low);
    out.counts.insert(out.counts.begin() + r, fibers * tiles_per_fiber);
    // Use the average tile width so the window product stays equal to
    // the true coordinate extent; the nominal tile width would pad the
    // space (ceil) and dilute every density derived from it.
    out.windows[rr] = tiles;
    out.windows.insert(out.windows.begin() + r + 1, window / tiles);
    return out;
}

SymbolicTensor
splitRankByOccupancy(const SymbolicTensor& t, const std::string& rank,
                     std::size_t chunk, const std::string& upper,
                     const std::string& lower)
{
    const int r = t.rankLevel(rank);
    TEAAL_ASSERT(r >= 0, "symbolic occupancy split of '", t.name,
                 "': unknown rank '", rank, "'");
    TEAAL_ASSERT(chunk > 0, "symbolic occupancy split of '", t.name,
                 "': chunk must be positive");
    const auto rr = static_cast<std::size_t>(r);
    const double fibers = rr == 0 ? 1.0 : t.counts[rr - 1];
    const double occ = fibers > 0 ? t.counts[rr] / fibers : 0.0;
    const double trips =
        occ > 0 ? std::ceil(occ / static_cast<double>(chunk)) : 0.0;

    SymbolicTensor out = t;
    ft::RankInfo up = t.ranks[rr];
    up.id = upper;
    ft::RankInfo low = t.ranks[rr];
    low.id = lower;
    out.ranks[rr] = up;
    out.ranks.insert(out.ranks.begin() + r + 1, low);
    out.counts.insert(out.counts.begin() + r, fibers * trips);
    out.windows[rr] = std::max(trips, 1.0);
    out.windows.insert(out.windows.begin() + r + 1,
                       std::max(t.windows[rr], 1.0) / std::max(trips, 1.0));
    return out;
}

} // namespace teaal::model::analytic
