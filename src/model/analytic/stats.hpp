/**
 * @file
 * Symbolic tensor statistics for the analytic model tier.
 *
 * A SymbolicTensor carries what the trace simulator's fibertree walk
 * would discover about a tensor, as expected values: per-level element
 * counts (the running product of the occupancy hints both backing
 * stores already expose) and per-level coordinate windows (the span of
 * legal coordinates inside one fiber). Every preparation transform the
 * plan builder applies to real data — swizzle, flatten, shape split,
 * occupancy split — has a closed-form counterpart here that updates
 * rank metadata identically to fibertree/transform.cpp and counts and
 * windows under a uniform-occupancy assumption.
 *
 * The estimator (model/analytic/estimator.hpp) instantiates plans
 * against these statistics instead of fiber data, so a mapping can be
 * ranked without touching a single fiber.
 */
#pragma once

#include <set>
#include <string>
#include <vector>

#include "fibertree/types.hpp"

namespace teaal::model::analytic
{

/**
 * Expected number of distinct values seen after @p draws uniform
 * draws from a universe of @p universe values:
 * U * (1 - (1 - 1/U)^n), evaluated stably for large U.
 */
double expectedDistinct(double draws, double universe);

/** Expected-value shadow of one (possibly transformed) tensor. */
struct SymbolicTensor
{
    std::string name;
    /// Rank metadata, maintained exactly as the real transforms would.
    std::vector<ft::RankInfo> ranks;
    /// Expected element count at each level (cumulative, level 0
    /// outermost); counts.back() is the expected nnz.
    std::vector<double> counts;
    /// Expected span of legal coordinates inside one fiber at each
    /// level. Starts at the rank shape; splits narrow it.
    std::vector<double> windows;
    /// Names of tensors whose nonzero support contains this one's
    /// (e.g. a take() output is a subset of the copied operand).
    /// Used to drop double-counted density factors in intersections.
    std::set<std::string> supersets;

    /**
     * Build from the backing store's metadata: declared ranks and the
     * per-level occupancy hints (ft::Tensor::occupancyHints /
     * storage::PackedTensor::occupancyHints). Counts are the running
     * product of the hints; windows start at the rank shapes.
     */
    static SymbolicTensor fromHints(std::string name,
                                    std::vector<ft::RankInfo> ranks,
                                    const std::vector<double>& hints);

    double nnz() const { return counts.empty() ? 0.0 : counts.back(); }

    /** Expected elements per fiber at @p level. */
    double occupancy(std::size_t level) const;

    /** occupancy() at every level — same shape as the stores' hints. */
    std::vector<double> occupancyHints() const;

    std::vector<std::string> rankIds() const;
    int rankLevel(const std::string& id) const;
};

/** Reorder ranks to @p order (a permutation of rankIds()). */
SymbolicTensor swizzle(const SymbolicTensor& t,
                       const std::vector<std::string>& order);

/** Merge adjacent ranks @p upper and @p lower into one flat rank. */
SymbolicTensor flattenRanks(const SymbolicTensor& t,
                            const std::string& upper,
                            const std::string& lower);

/** Uniform-shape split of @p rank into tiles of @p tile coordinates. */
SymbolicTensor splitRankByShape(const SymbolicTensor& t,
                                const std::string& rank, ft::Coord tile,
                                const std::string& upper,
                                const std::string& lower);

/** Uniform-occupancy split of @p rank into chunks of @p chunk elems. */
SymbolicTensor splitRankByOccupancy(const SymbolicTensor& t,
                                    const std::string& rank,
                                    std::size_t chunk,
                                    const std::string& upper,
                                    const std::string& lower);

} // namespace teaal::model::analytic
