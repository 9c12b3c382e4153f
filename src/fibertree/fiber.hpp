/**
 * @file
 * Fiber: a sorted sequence of coordinate/payload pairs (paper §2.1).
 *
 * Stored struct-of-arrays (a coordinate vector plus a payload vector)
 * so two-finger co-iteration touches only the coordinate array, which
 * is also how compressed concrete formats lay fibers out.
 */
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "fibertree/payload.hpp"
#include "fibertree/types.hpp"

namespace teaal::ft
{

/**
 * Provenance for shard-merge diagnostics: which Einsum produced the
 * partial outputs being merged and what the output's rank ids are
 * (root to leaf), so a collision error can name the rank it happened
 * on instead of only the coordinate.
 */
struct AbsorbContext
{
    std::string einsum;
    std::vector<std::string> rankIds;
};

class Fiber
{
  public:
    Fiber() { noteConstruction(); }

    /** @param shape Legal coordinate range is [0, shape). */
    explicit Fiber(Coord shape) : shape_(shape) { noteConstruction(); }

    /**
     * Process-wide count of Fiber constructions. The packed-execution
     * tests assert that binding and running a packed workload builds
     * no per-element pointer fibers (the counter's delta stays O(rank
     * count), independent of nnz).
     */
    static std::uint64_t constructionCount();

    std::size_t size() const { return coords_.size(); }
    bool empty() const { return coords_.empty(); }

    Coord shape() const { return shape_; }
    void setShape(Coord shape) { shape_ = shape; }

    /** Coordinate at position @p pos (positions are occupancy-order). */
    Coord
    coordAt(std::size_t pos) const
    {
        return coords_[pos];
    }

    const Payload& payloadAt(std::size_t pos) const
    {
        return payloads_[pos];
    }

    Payload& payloadAt(std::size_t pos) { return payloads_[pos]; }

    /** Binary search for an exact coordinate. */
    std::optional<std::size_t> find(Coord c) const;

    /** First position whose coordinate is >= @p c. */
    std::size_t lowerBound(Coord c) const;

    /**
     * Append an element; @p c must exceed the last coordinate.
     * This is the fast path for concordant construction.
     */
    void append(Coord c, Payload p);

    /**
     * Return the payload at coordinate @p c, inserting a default
     * payload if absent. Appends are O(1); mid-fiber inserts shift.
     */
    Payload& getOrInsert(Coord c);

    /**
     * Position-returning getOrInsert: one binary search total, and the
     * caller learns whether the element is fresh without re-searching
     * (the engine's output materialization needs both).
     */
    std::size_t getOrInsertPos(Coord c, bool& inserted);

    /** Pre-size both the coordinate and payload arrays. */
    void reserve(std::size_t n);

    /**
     * Merge @p other into this fiber, consuming it. The two fibers
     * must cover *disjoint* leaf paths: colliding coordinates whose
     * payloads are subfibers merge recursively; colliding scalar
     * leaves are a hard error (they would mean two producers wrote
     * the same output point — a disjoint-mode shard merge must never
     * see that; the error names the Einsum and rank when @p ctx is
     * given). When @p other's coordinates all lie past this fiber's
     * last coordinate the merge is a bulk reserve + move append (the
     * common case for contiguous shard outputs).
     */
    void absorbDisjoint(Fiber&& other,
                        const AbsorbContext* ctx = nullptr,
                        std::size_t depth = 0);

    /** Number of scalar leaves in the subtree rooted at this fiber. */
    std::size_t leafCount() const;

    /**
     * Element counts of the subtree by depth: counts[0] is this
     * fiber's occupancy, counts[1] sums the child fibers', etc.
     */
    void elementCountsByDepth(std::vector<std::size_t>& counts,
                              std::size_t depth = 0) const;

    /** Deep copy of this fiber and everything below it. */
    FiberPtr clone() const;

    /**
     * Build a fiber from possibly-unsorted (coord, payload) pairs;
     * duplicate coordinates are rejected.
     */
    static FiberPtr fromUnsorted(
        std::vector<std::pair<Coord, Payload>> elems, Coord shape);

  private:
    static void noteConstruction();

    std::vector<Coord> coords_;
    std::vector<Payload> payloads_;
    Coord shape_ = 0;
};

} // namespace teaal::ft
