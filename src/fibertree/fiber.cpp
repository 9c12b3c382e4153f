#include "fibertree/fiber.hpp"

#include <algorithm>
#include <atomic>

#include "util/error.hpp"

namespace teaal::ft
{

namespace
{
std::atomic<std::uint64_t> g_fiber_constructions{0};
} // namespace

void
Fiber::noteConstruction()
{
    g_fiber_constructions.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t
Fiber::constructionCount()
{
    return g_fiber_constructions.load(std::memory_order_relaxed);
}

bool
Payload::empty() const
{
    if (isValue())
        return value() == Value{0};
    const FiberPtr& f = std::get<FiberPtr>(data_);
    return f == nullptr || f->empty();
}

std::optional<std::size_t>
Fiber::find(Coord c) const
{
    const auto it = std::lower_bound(coords_.begin(), coords_.end(), c);
    if (it == coords_.end() || *it != c)
        return std::nullopt;
    return static_cast<std::size_t>(it - coords_.begin());
}

std::size_t
Fiber::lowerBound(Coord c) const
{
    const auto it = std::lower_bound(coords_.begin(), coords_.end(), c);
    return static_cast<std::size_t>(it - coords_.begin());
}

void
Fiber::append(Coord c, Payload p)
{
    TEAAL_ASSERT(coords_.empty() || c > coords_.back(),
                 "append coordinate ", c, " not past fiber end");
    coords_.push_back(c);
    payloads_.push_back(std::move(p));
}

Payload&
Fiber::getOrInsert(Coord c)
{
    bool inserted = false;
    return payloads_[getOrInsertPos(c, inserted)];
}

std::size_t
Fiber::getOrInsertPos(Coord c, bool& inserted)
{
    if (coords_.empty() || c > coords_.back()) {
        coords_.push_back(c);
        payloads_.emplace_back();
        inserted = true;
        return coords_.size() - 1;
    }
    const std::size_t pos = lowerBound(c);
    if (pos < coords_.size() && coords_[pos] == c) {
        inserted = false;
        return pos;
    }
    // One insert per array: each shifts the tail exactly once.
    coords_.insert(coords_.begin() + static_cast<std::ptrdiff_t>(pos), c);
    payloads_.insert(payloads_.begin() + static_cast<std::ptrdiff_t>(pos),
                     Payload());
    inserted = true;
    return pos;
}

void
Fiber::reserve(std::size_t n)
{
    coords_.reserve(n);
    payloads_.reserve(n);
}

namespace
{

/** "rank 'K1' of Einsum 'Z'" when @p ctx is known, "" otherwise. */
std::string
absorbWhere(const AbsorbContext* ctx, std::size_t depth)
{
    if (ctx == nullptr)
        return "";
    std::string where = " of rank '";
    where += depth < ctx->rankIds.size() ? ctx->rankIds[depth]
                                         : "?";
    where += "' of Einsum '";
    where += ctx->einsum;
    where += '\'';
    return where;
}

} // namespace

void
Fiber::absorbDisjoint(Fiber&& other, const AbsorbContext* ctx,
                      std::size_t depth)
{
    if (other.empty())
        return;
    shape_ = std::max(shape_, other.shape_);
    // Fast path: strictly past our last coordinate — bulk move append.
    if (coords_.empty() || other.coords_.front() > coords_.back()) {
        reserve(coords_.size() + other.coords_.size());
        coords_.insert(coords_.end(), other.coords_.begin(),
                       other.coords_.end());
        payloads_.insert(payloads_.end(),
                         std::make_move_iterator(other.payloads_.begin()),
                         std::make_move_iterator(other.payloads_.end()));
        other.coords_.clear();
        other.payloads_.clear();
        return;
    }
    // Interleaved: sorted union merge, recursing into colliding
    // subfibers. Scalar collisions are producer bugs, not data.
    std::vector<Coord> coords;
    std::vector<Payload> payloads;
    coords.reserve(coords_.size() + other.coords_.size());
    payloads.reserve(coords.capacity());
    std::size_t a = 0;
    std::size_t b = 0;
    while (a < coords_.size() || b < other.coords_.size()) {
        const bool take_a =
            b >= other.coords_.size() ||
            (a < coords_.size() && coords_[a] < other.coords_[b]);
        const bool take_b =
            a >= coords_.size() ||
            (b < other.coords_.size() && other.coords_[b] < coords_[a]);
        if (take_a) {
            coords.push_back(coords_[a]);
            payloads.push_back(std::move(payloads_[a]));
            ++a;
        } else if (take_b) {
            coords.push_back(other.coords_[b]);
            payloads.push_back(std::move(other.payloads_[b]));
            ++b;
        } else {
            // Collision: merge subfibers, reject scalar overlap.
            Payload& pa = payloads_[a];
            Payload& pb = other.payloads_[b];
            if (!pa.isFiber() || !pb.isFiber() || pa.fiber() == nullptr ||
                pb.fiber() == nullptr) {
                modelError("absorbDisjoint: leaf collision at coordinate ",
                           coords_[a], absorbWhere(ctx, depth),
                           " (two shards produced the same output point)");
            }
            pa.fiber()->absorbDisjoint(std::move(*pb.fiber()), ctx,
                                       depth + 1);
            coords.push_back(coords_[a]);
            payloads.push_back(std::move(pa));
            ++a;
            ++b;
        }
    }
    coords_ = std::move(coords);
    payloads_ = std::move(payloads);
    other.coords_.clear();
    other.payloads_.clear();
}

std::size_t
Fiber::leafCount() const
{
    std::size_t total = 0;
    for (const Payload& p : payloads_) {
        if (p.isValue())
            ++total;
        else if (p.fiber() != nullptr)
            total += p.fiber()->leafCount();
    }
    return total;
}

void
Fiber::elementCountsByDepth(std::vector<std::size_t>& counts,
                            std::size_t depth) const
{
    if (counts.size() <= depth)
        counts.resize(depth + 1, 0);
    counts[depth] += size();
    for (const Payload& p : payloads_) {
        if (p.isFiber() && p.fiber() != nullptr)
            p.fiber()->elementCountsByDepth(counts, depth + 1);
    }
}

FiberPtr
Fiber::clone() const
{
    auto copy = std::make_shared<Fiber>(shape_);
    copy->coords_ = coords_;
    copy->payloads_.reserve(payloads_.size());
    for (const Payload& p : payloads_) {
        if (p.isValue()) {
            copy->payloads_.emplace_back(p.value());
        } else {
            copy->payloads_.emplace_back(
                p.fiber() ? p.fiber()->clone() : FiberPtr());
        }
    }
    return copy;
}

FiberPtr
Fiber::fromUnsorted(std::vector<std::pair<Coord, Payload>> elems,
                    Coord shape)
{
    std::sort(elems.begin(), elems.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    auto fiber = std::make_shared<Fiber>(shape);
    fiber->reserve(elems.size());
    for (auto& [c, p] : elems) {
        if (!fiber->empty() && fiber->coords_.back() == c)
            modelError("fromUnsorted: duplicate coordinate ", c);
        fiber->coords_.push_back(c);
        fiber->payloads_.push_back(std::move(p));
    }
    return fiber;
}

} // namespace teaal::ft
