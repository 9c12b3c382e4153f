/**
 * @file
 * Fiber views: the read-only windows of packed ranks that the
 * execution engine and its co-iteration strategies
 * (exec/coiter_strategy.hpp) walk.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "fibertree/types.hpp"

namespace teaal::ft
{

/**
 * A contiguous, read-only window [lo, hi) of a packed rank's flat
 * coordinate array (storage/packed.hpp), positions global to the rank.
 *
 * Views may carry a bitmap auxiliary (B-format ranks): a presence-bit
 * run plus a per-word rank directory giving O(1) membership and
 * position in find(). Views of contiguous fibers (dense/U ranks) take
 * an O(1) implicit-coordinate path in find() — no per-view state
 * needed, contiguity is two loads.
 */
struct FiberView
{
    /// Base of the rank's coordinate array (positions are absolute).
    const Coord* crd = nullptr;
    std::size_t lo = 0;
    std::size_t hi = 0;
    /// Coordinate-space size of the rank.
    Coord shapeHint = 0;
    /// Bitmap auxiliary: the fiber's presence bits occupy pool bits
    /// [bitBase, bitBase + bitExtent), bit 0 = coordinate bitFirst.
    /// The pool-global rank of a set bit is the element's position.
    const std::uint64_t* bits = nullptr;
    const std::uint64_t* bitRank = nullptr;
    std::uint64_t bitBase = 0;
    Coord bitFirst = 0;
    Coord bitExtent = 0;

    std::size_t size() const { return hi - lo; }
    bool empty() const { return lo >= hi || crd == nullptr; }

    Coord coordAt(std::size_t pos) const { return crd[pos]; }

    /** Coordinate-space size of the backing rank (0 if unbacked). */
    Coord shape() const { return shapeHint; }

    /**
     * Position of coordinate @p c inside this window, or nullopt: a
     * binary search of the slice, with O(1) fast paths for contiguous
     * (implicit-coordinate) fibers and bitmap ranks.
     */
    std::optional<std::size_t> find(Coord c) const;

    /** Subview restricted to coordinates in [c0, c1). */
    FiberView range(Coord c0, Coord c1) const;
};

} // namespace teaal::ft
