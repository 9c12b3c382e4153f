/**
 * @file
 * Content-preserving fibertree transformations (paper §2.1, §3.2):
 * rank swizzling, rank flattening, and rank partitioning (uniform
 * shape, uniform occupancy, and explicit-boundary for leader-follower
 * adoption). None of these change the set of leaf values — only the
 * coordinate system used to reach them.
 */
#pragma once

#include <span>
#include <string>
#include <vector>

#include "fibertree/tensor.hpp"

namespace teaal::ft
{

/**
 * Reorder the levels of the fibertree to @p new_order, which must be a
 * permutation of the tensor's rank ids (paper Figure 4).
 */
Tensor swizzle(const Tensor& t, const std::vector<std::string>& new_order);

/**
 * The leaf order a swizzle builds its result in. @p rows holds one
 * row per leaf, gathered in source (concordant) order, with the
 * leaf's coordinates already permuted into the target rank order:
 * target column j is source level @p perm[j]. Returns the row indices
 * sorted lexicographically by target row, ties kept in source order
 * (a stable LSD radix over the columns source order does not already
 * sort). Shared by the pointer and packed swizzles
 * (storage/transform.hpp), so both order leaves identically.
 */
std::vector<std::size_t> swizzleOrder(std::span<const Coord> rows,
                                      const std::vector<std::size_t>& perm);

/**
 * Flatten adjacent ranks @p upper_id (directly above) and @p lower_id
 * into one rank whose packed coordinate is upper*lowerShape + lower;
 * packing preserves lexicographic tuple order (paper Figure 2).
 * The combined rank is named upper_id + lower_id.
 */
Tensor flattenRanks(const Tensor& t, const std::string& upper_id,
                    const std::string& lower_id);

/**
 * Split rank @p rank_id at coordinate multiples of @p tile (uniform
 * shape-based partitioning, §2.3). Upper-rank coordinates are the first
 * legal coordinate of the fiber below (i.e. c - c % tile).
 */
Tensor splitRankByShape(const Tensor& t, const std::string& rank_id,
                        Coord tile, const std::string& upper_name,
                        const std::string& lower_name);

/**
 * Split rank @p rank_id so every fiber is divided into chunks of
 * @p chunk elements (uniform occupancy-based partitioning, §3.2.1).
 * Boundaries are chosen per fiber; upper-rank coordinates are each
 * chunk's first coordinate.
 */
Tensor splitRankByOccupancy(const Tensor& t, const std::string& rank_id,
                            std::size_t chunk,
                            const std::string& upper_name,
                            const std::string& lower_name);

/**
 * Split rank @p rank_id at explicit coordinate boundaries, used by
 * follower tensors adopting a leader's occupancy boundaries.
 * @p starts holds each partition's first coordinate, ascending,
 * starting with the range minimum; partition j spans
 * [starts[j], starts[j+1]) with the last extending to the shape.
 */
Tensor splitRankByBoundaries(const Tensor& t, const std::string& rank_id,
                             const std::vector<Coord>& starts,
                             const std::string& upper_name,
                             const std::string& lower_name);

/**
 * Occupancy boundaries of one fiber: the coordinates starting each
 * chunk of @p chunk elements. Leader tensors export these for their
 * followers (leader-follower paradigm, §3.2.1).
 */
std::vector<Coord> occupancyBoundaries(const Fiber& fiber,
                                       std::size_t chunk);

} // namespace teaal::ft
