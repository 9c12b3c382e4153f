/**
 * @file
 * The content-preserving fibertree transforms (fibertree/transform.hpp)
 * applied directly to packed rank stores: rank swizzling, rank
 * flattening, and shape, occupancy and explicit-boundary partitioning.
 * Plan instantiation prepares every input with these, so no input is
 * ever unpacked into a pointer fibertree.
 *
 * Each transform gives exactly the packed structure that
 * `PackedTensor::fromTensor` gives for the pointer transform's result
 * under the same format: the same buffers, occupancy hints and element
 * counts, so strategies, swizzle charges and every modeled count do
 * not depend on which backend prepared an input.
 *
 *   swizzle     gathers the leaves into flat rows, sorts them with the
 *               pointer swizzle's LSD order (ft::swizzleOrder) and
 *               feeds PackedBuilder;
 *   splits      insert one level over the split rank's coordinate and
 *               segment arrays; the levels below move over untouched
 *               (unless a partition drops elements, which the pointer
 *               split also drops);
 *   flatten     merges two levels into one over the lower level's
 *               positions; the levels below move over untouched.
 *
 * The splits and the flatten take their source by value: pass an
 * rvalue to transform an owned intermediate in place. Levels bound to
 * a mapped store file stay bound, and the result shares the mapping.
 */
#pragma once

#include <string>
#include <vector>

#include "storage/packed.hpp"

namespace teaal::storage
{

/** ft::swizzle on packed buffers. */
PackedTensor swizzle(const PackedTensor& t,
                     const std::vector<std::string>& new_order);

/** ft::flattenRanks on packed buffers. */
PackedTensor flattenRanks(PackedTensor t, const std::string& upper_id,
                          const std::string& lower_id);

/** ft::splitRankByShape on packed buffers. */
PackedTensor splitRankByShape(PackedTensor t, const std::string& rank_id,
                              ft::Coord tile, const std::string& upper_name,
                              const std::string& lower_name);

/** ft::splitRankByOccupancy on packed buffers. */
PackedTensor splitRankByOccupancy(PackedTensor t,
                                  const std::string& rank_id,
                                  std::size_t chunk,
                                  const std::string& upper_name,
                                  const std::string& lower_name);

/** ft::splitRankByBoundaries on packed buffers. */
PackedTensor splitRankByBoundaries(PackedTensor t,
                                   const std::string& rank_id,
                                   const std::vector<ft::Coord>& starts,
                                   const std::string& upper_name,
                                   const std::string& lower_name);

} // namespace teaal::storage
