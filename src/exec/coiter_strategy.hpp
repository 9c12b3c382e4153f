/**
 * @file
 * Co-iteration strategies: the per-loop fiber-walk algorithms the
 * execution engine dispatches between (enum-keyed at plan time, never
 * a virtual call per element).
 *
 *   TwoFinger   sorted n-way merge advancing below the running max —
 *               the classic intersection walk (paper §2.4),
 *   Gallop      leader-follower with exponential + binary-search leaps
 *               through the denser fiber (the row-fetching pattern of
 *               Gamma-style designs); wins when one driver is >= ~32x
 *               denser than the other,
 *   DenseDrive  iterate the coordinate space and probe each driver —
 *               what a dense address generator does in hardware,
 *   Union       sorted merge-union for Add Einsums (not a planner
 *               choice: unions must visit every driver element).
 *
 * The walk bodies are templates over the per-coordinate callback so
 * the engine's (large) coordinate body inlines into the merge loop;
 * the callback returns false to stop the walk (probe-only ranks).
 *
 * Observed work counters deliberately model the *hardware* cost, not
 * the host cost: gallop charges two steps per leader element (leader
 * element + follower probe) exactly like the old leader-follower
 * escape, so modeled action counts are independent of how fast the
 * host finds the match.
 */
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "fibertree/coiter.hpp"
#include "ir/plan.hpp"

namespace teaal::exec
{

using ir::CoiterStrategy;

/** Work counters of one walk, fed to the intersection-unit model. */
struct WalkCounts
{
    std::size_t steps = 0;
    std::size_t matches = 0;
};

/**
 * N-way two-finger intersection over @p views. @p pos are the running
 * cursors (pre-seeded at each view's lo); @p scans accumulates
 * per-driver element advances. @p body is called as body(c) with
 * pos[d] at each driver's matching position, and returns false to
 * stop early.
 */
template <typename Body>
WalkCounts
intersectTwoFinger(const std::vector<ft::FiberView>& views,
                   std::vector<std::size_t>& pos,
                   std::vector<std::size_t>& scans, Body&& body)
{
    WalkCounts wc;
    const std::size_t nd = views.size();
    while (true) {
        bool all_have = true;
        for (std::size_t d = 0; d < nd; ++d) {
            if (pos[d] >= views[d].hi)
                all_have = false;
        }
        if (!all_have)
            break;
        ft::Coord cmax = views[0].coordAt(pos[0]);
        for (std::size_t d = 1; d < nd; ++d)
            cmax = std::max(cmax, views[d].coordAt(pos[d]));
        bool aligned = true;
        for (std::size_t d = 0; d < nd; ++d) {
            while (pos[d] < views[d].hi &&
                   views[d].coordAt(pos[d]) < cmax) {
                ++pos[d];
                ++scans[d];
                ++wc.steps;
            }
            if (pos[d] >= views[d].hi ||
                views[d].coordAt(pos[d]) != cmax) {
                aligned = false;
            }
        }
        if (!aligned)
            continue; // re-derive the max and keep advancing
        ++wc.matches;
        const bool keep_going = body(cmax);
        // Advance every driver past the consumed coordinate.
        for (std::size_t d = 0; d < nd; ++d) {
            ++pos[d];
            ++scans[d];
            ++wc.steps;
        }
        if (!keep_going)
            break;
    }
    return wc;
}

/**
 * Galloping 2-way intersection: walk the sparse @p lead view; locate
 * each of its coordinates in @p big by exponential search from the
 * last match followed by binary search in the bracketed window.
 * body(c, lead_pos, big_pos) returns false to stop. Charged steps are
 * the leader-follower hardware cost (2 per leader element), matching
 * the engine's historical runtime escape bit-for-bit.
 */
template <typename Body>
WalkCounts
gallopIntersect(const ft::FiberView& lead, const ft::FiberView& big,
                std::size_t& lead_scans, std::size_t& big_scans,
                Body&& body)
{
    WalkCounts wc;
    std::size_t bpos = big.lo;
    for (std::size_t pl = lead.lo; pl < lead.hi; ++pl) {
        const ft::Coord c = lead.coordAt(pl);
        // Charged even when the follower is exhausted, matching the
        // historical escape's per-leader-element accounting.
        wc.steps += 2; // leader element + follower probe
        ++lead_scans;
        if (bpos >= big.hi)
            continue;
        // Exponential leap: bracket the first big position >= c.
        std::size_t step = 1;
        while (bpos + step < big.hi && big.coordAt(bpos + step) < c)
            step <<= 1;
        std::size_t lo = bpos;
        std::size_t hi = std::min(bpos + step + 1, big.hi);
        while (lo < hi) {
            const std::size_t mid = lo + (hi - lo) / 2;
            if (big.coordAt(mid) < c)
                lo = mid + 1;
            else
                hi = mid;
        }
        bpos = lo;
        if (bpos >= big.hi || big.coordAt(bpos) != c)
            continue;
        ++big_scans;
        ++wc.matches;
        if (!body(c, pl, bpos))
            break;
    }
    return wc;
}

/**
 * N-way merge-union over @p views (Add Einsums). body(c) is called
 * with @p present marking which drivers carry the coordinate (their
 * pos[d] at the match); returns false to stop.
 */
template <typename Body>
WalkCounts
unionMergeN(const std::vector<ft::FiberView>& views,
            std::vector<std::size_t>& pos,
            std::vector<std::size_t>& scans, std::vector<bool>& present,
            Body&& body)
{
    WalkCounts wc;
    const std::size_t nd = views.size();
    while (true) {
        bool any = false;
        ft::Coord c = 0;
        for (std::size_t d = 0; d < nd; ++d) {
            if (pos[d] < views[d].hi) {
                const ft::Coord cd = views[d].coordAt(pos[d]);
                if (!any || cd < c)
                    c = cd;
                any = true;
            }
        }
        if (!any)
            break;
        for (std::size_t d = 0; d < nd; ++d)
            present[d] =
                pos[d] < views[d].hi && views[d].coordAt(pos[d]) == c;
        ++wc.matches;
        const bool keep_going = body(c);
        for (std::size_t d = 0; d < nd; ++d) {
            if (present[d]) {
                ++pos[d];
                ++scans[d];
                ++wc.steps;
            }
        }
        if (!keep_going)
            break;
    }
    return wc;
}

/**
 * Dense coordinate drive with driver probes: iterate [0, extent) and
 * binary-search each driver for the coordinate. In intersection mode
 * every driver must be present for the body to fire; in union mode
 * any. Charged steps: one probe per driver per coordinate (the dense
 * address generator's lookups). body(c) sees pos[d]/present[d] at the
 * match; returns false to stop.
 */
template <typename Body>
WalkCounts
denseProbe(const std::vector<ft::FiberView>& views, ft::Coord extent,
           bool unite, std::vector<std::size_t>& pos,
           std::vector<std::size_t>& scans, std::vector<bool>& present,
           Body&& body)
{
    WalkCounts wc;
    const std::size_t nd = views.size();
    for (ft::Coord c = 0; c < extent; ++c) {
        bool all = true;
        bool any = false;
        for (std::size_t d = 0; d < nd; ++d) {
            ++wc.steps;
            ++scans[d];
            present[d] = false;
            if (const auto f = views[d].find(c)) {
                present[d] = true;
                pos[d] = *f;
            }
            all &= present[d];
            any |= present[d];
        }
        if (unite ? !any : !all)
            continue;
        ++wc.matches;
        if (!body(c))
            break;
    }
    return wc;
}

/**
 * Size ratio at which a TwoFinger 2-way intersection escapes to
 * galloping at run time (gallopLeader); the analytic estimator
 * predicts the escape with the same constant.
 */
constexpr std::size_t kRuntimeGallopRatio = 8;

/**
 * Runtime escape check for TwoFinger 2-way intersections: when one
 * fiber is more than kRuntimeGallopRatio times the other's size, the
 * sparse side leads a gallop instead (the historical behavior,
 * preserved so modeled counts are unchanged for plans that predate
 * plan-time strategy selection). Returns the leader index, or -1 to
 * stay on the two-finger merge.
 */
int gallopLeader(const std::vector<ft::FiberView>& views, bool unite);

} // namespace teaal::exec
