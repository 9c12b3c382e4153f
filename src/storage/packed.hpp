/**
 * @file
 * Format-aware physical storage: packed compressed rank stores the
 * execution engine walks directly (paper §4.1.1; the Sparse Abstract
 * Machine and Sparseloop draw the same line between a format-agnostic
 * iteration abstraction and a swappable concrete representation).
 *
 * A `PackedTensor` materializes a fibertree into contiguous per-rank
 * buffers (CSF-style): every rank keeps a segment array delimiting its
 * fibers inside one coordinate array, the leaf rank owns one flat
 * value array, and the declared `fmt::TensorFormat` adds per-rank
 * auxiliaries —
 *
 *   C  nothing extra: the coordinate/payload arrays *are* the stored
 *      representation, so footprints are read off the buffer sizes,
 *   U  implicit coordinates: contiguous fibers take the O(1)
 *      dense-position fast path in `ft::FiberView::find`,
 *   B  a contiguous presence-bit pool (SIGMA's bitmap) with a per-word
 *      rank directory, giving O(1) membership + position probes.
 *
 * The skeleton always records the *exact* fibertree structure
 * (per-fiber occupancy, empty fibers included), so a packed store
 * walks the same elements, emits the same trace events, and produces
 * the same counters as the fibertree it was packed from. It is the
 * only input representation plans bind: pointer inputs are packed
 * once, and swizzles, partitions and flattens run on the packed
 * buffers (storage/transform.hpp). Engine outputs stay pointer
 * fibertrees.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "fibertree/coiter.hpp"
#include "fibertree/tensor.hpp"
#include "format/format.hpp"

namespace teaal::storage
{

/**
 * A packed rank buffer that is either *owned* (a plain vector filled
 * by the builders) or *bound* to external read-only memory (a section
 * of an mmap-ed store file — storage/store.hpp). Readers see one
 * contiguous [data(), data()+size()) range either way, so the engine
 * walks heap and mapped tensors through identical code; mutators are
 * owned-mode only (binders never mutate, they re-bind or copy).
 */
template <typename T>
class Buf
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "packed buffers hold flat PODs");

  public:
    Buf() = default;

    // ---- owned-mode mutators (vector surface the builders use)
    void push_back(const T& v) { own_.push_back(v); }
    void reserve(std::size_t n) { own_.reserve(n); }
    void resize(std::size_t n, T v = T()) { own_.resize(n, v); }
    void
    assign(std::size_t n, T v)
    {
        ext_ = nullptr;
        extSize_ = 0;
        own_.assign(n, v);
    }
    void
    clear()
    {
        ext_ = nullptr;
        extSize_ = 0;
        own_.clear();
    }
    T& operator[](std::size_t i) { return own_[i]; }

    /** Bind to @p n elements of external memory (drops owned data).
     *  The caller keeps the memory alive (PackedTensor holds the
     *  mapping handle). */
    void
    bindExternal(const T* p, std::size_t n)
    {
        own_.clear();
        own_.shrink_to_fit();
        ext_ = p;
        extSize_ = n;
    }

    /** True when bound to external (mapped) memory. */
    bool external() const { return ext_ != nullptr; }

    // ---- readers (both modes)
    const T*
    data() const
    {
        return ext_ != nullptr ? ext_ : own_.data();
    }
    std::size_t
    size() const
    {
        return ext_ != nullptr ? extSize_ : own_.size();
    }
    bool empty() const { return size() == 0; }
    const T& operator[](std::size_t i) const { return data()[i]; }
    const T& front() const { return data()[0]; }
    const T& back() const { return data()[size() - 1]; }
    const T* begin() const { return data(); }
    const T* end() const { return data() + size(); }

    friend bool
    operator==(const Buf& a, const Buf& b)
    {
        return a.size() == b.size() &&
               std::equal(a.begin(), a.end(), b.begin());
    }

  private:
    std::vector<T> own_;
    const T* ext_ = nullptr;
    std::size_t extSize_ = 0;
};

/**
 * One rank's packed buffers. Fiber @p f of this rank occupies
 * coordinate positions [seg[f], seg[f+1]); positions are global across
 * all fibers of the rank (the position space the execution engine's
 * cursors live in).
 */
struct PackedLevel
{
    /// Charged representation of this rank (from the TensorFormat).
    fmt::RankFormat::Type type = fmt::RankFormat::Type::C;

    /// Fiber boundaries: size fiberCount()+1, seg[0] == 0.
    Buf<std::uint64_t> seg;

    /// Explicit sorted coordinates, all fibers concatenated.
    Buf<ft::Coord> crd;

    // ---- B-format auxiliary: one contiguous bit pool. Fiber f's
    // presence bitmap occupies pool bits [bitBase[f], bitBase[f+1]),
    // bit 0 standing for the fiber's first stored coordinate. Each
    // fiber contributes exactly its occupancy in set bits, so the
    // pool-global rank (popcount prefix) of a set bit *is* the global
    // element position.
    Buf<std::uint64_t> bits;
    Buf<std::uint64_t> bitBase; ///< size fiberCount()+1
    Buf<std::uint64_t> bitRank; ///< set bits before each word

    std::size_t fiberCount() const { return seg.empty() ? 0 : seg.size() - 1; }
};

/**
 * A fibertree materialized into packed rank stores. Immutable after
 * construction (the transforms build new ones); views handed to the
 * engine point into the buffers, so a PackedTensor must outlive any
 * plan bound to it (plans hold their packed inputs by shared_ptr).
 */
class PackedTensor
{
  public:
    PackedTensor() = default;

    /**
     * Pack @p t per @p format (rank formats looked up by rank id;
     * defaults are all-compressed). Preserves the exact fibertree
     * structure — zero-valued leaves and empty child fibers included —
     * so toTensor() round-trips structurally.
     */
    static PackedTensor fromTensor(const ft::Tensor& t,
                                   const fmt::TensorFormat& format = {});

    /** Materialize back into a pointer fibertree. */
    ft::Tensor toTensor() const;

    const std::string& name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }

    std::size_t numRanks() const { return ranks_.size(); }
    const ft::RankInfo& rank(std::size_t level) const
    {
        return ranks_[level];
    }
    const std::vector<ft::RankInfo>& ranks() const { return ranks_; }
    std::vector<std::string> rankIds() const;

    /** Level of rank @p id, or -1 if the tensor lacks it. */
    int rankLevel(const std::string& id) const;

    /** Stored leaf count (== leaf coordinate-array length). */
    std::size_t nnz() const { return vals_.size(); }

    const PackedLevel& level(std::size_t l) const { return levels_[l]; }
    const Buf<ft::Value>& values() const { return vals_; }

    /** Charged format type of one rank. */
    fmt::RankFormat::Type levelType(std::size_t l) const
    {
        return levels_[l].type;
    }

    /** The format this tensor was packed under. */
    const fmt::TensorFormat& format() const { return format_; }

    /**
     * Per-level average fiber occupancy, bit-identical to
     * ft::Tensor::occupancyHints on the unpacked tree (counts are the
     * coordinate-array lengths — no traversal needed).
     */
    std::vector<double> occupancyHints() const;

    // ------------------------------------------------- engine views
    // The view/descend accessors are the engine's per-element hot
    // path; they are defined inline here so they fold into the walk.

    /** View of the root fiber (level 0). */
    ft::FiberView
    rootView() const
    {
        if (levels_.empty())
            return {};
        return childViewOf(0, 0);
    }

    /**
     * View of the child fiber below element @p pos of level @p level
     * (valid for level + 1 < numRanks()).
     */
    ft::FiberView
    childView(std::size_t level, std::size_t pos) const
    {
        // Element pos of level l owns fiber #pos of level l+1.
        return childViewOf(level + 1, pos);
    }

    /** Leaf value at global leaf position @p pos. */
    ft::Value leafValue(std::size_t pos) const { return vals_[pos]; }

    /**
     * Stable identity key for the payload of element (@p level,
     * @p pos), used by the reuse models (distinct logical payloads
     * get distinct, run-stable addresses).
     */
    const void*
    payloadKey(std::size_t level, std::size_t pos) const
    {
        if (level + 1 == levels_.size())
            return &vals_[pos];
        // Interior payload: the child fiber's segment entry is one
        // stable address per (level, pos).
        return &levels_[level + 1].seg[pos];
    }

    // -------------------------------------------------- footprints
    /**
     * Footprint in bits of the subtree below element (@p level,
     * @p pos) under @p format — the packed analog of
     * fmt::subtreeBits, numerically identical for the same structure.
     */
    std::uint64_t subtreeBits(const fmt::TensorFormat& format,
                              std::size_t level, std::size_t pos) const;

    /** Scalar leaves below element (@p level, @p pos): O(depth). */
    std::size_t leafCountBelow(std::size_t level, std::size_t pos) const;

    /**
     * Actual resident heap bytes of the packed buffers (segment,
     * coordinate, value, and bitmap arrays) — host memory accounting
     * for caches holding packed tensors (serve::Registry's eviction
     * budget), as opposed to packedTensorBits' *charged* format
     * footprint. Mapped tensors (storage/store.hpp) are charged their
     * store file size: that is the page-cache footprint the mapping
     * can pin, and what a registry eviction releases by unmapping.
     */
    std::uint64_t residentBytes() const;

    /** True when the buffers point into an mmap-ed store file. */
    bool mapped() const { return backing_ != nullptr; }

    /** Source file of a mapped tensor (empty for heap tensors). */
    const std::string& storePath() const { return storePath_; }

  private:
    friend class PackedBuilder;
    friend struct StoreAccess;     ///< storage/store.cpp (de)serializer
    friend struct TransformAccess; ///< storage/transform.cpp

    /** Build the B-format bit pool + rank directory of @p level (a
     *  no-op for other rank types). */
    void buildAux(std::size_t level);

    /** View of fiber @p fiber at @p level (position-space window). */
    ft::FiberView
    childViewOf(std::size_t level, std::size_t fiber) const
    {
        const PackedLevel& L = levels_[level];
        ft::FiberView v;
        v.crd = L.crd.data();
        v.lo = static_cast<std::size_t>(L.seg[fiber]);
        v.hi = static_cast<std::size_t>(L.seg[fiber + 1]);
        v.shapeHint = ranks_[level].shape;
        if (!L.bits.empty() && v.hi > v.lo) {
            v.bits = L.bits.data();
            v.bitRank = L.bitRank.data();
            v.bitBase = L.bitBase[fiber];
            v.bitFirst = L.crd[v.lo];
            v.bitExtent = static_cast<ft::Coord>(L.bitBase[fiber + 1] -
                                                 L.bitBase[fiber]);
        }
        return v;
    }

    std::string name_;
    std::vector<ft::RankInfo> ranks_;
    std::vector<PackedLevel> levels_; ///< one per rank
    Buf<ft::Value> vals_;             ///< leaf payloads
    fmt::TensorFormat format_;

    // Mapped-store backing: keeps the mmap alive for the lifetime of
    // every copy of this tensor (Buf copies share the same external
    // pointers, so copies share the mapping — and the pages).
    std::shared_ptr<void> backing_;
    std::uint64_t mappedBytes_ = 0; ///< store file size when mapped
    std::string storePath_;
};

/**
 * Streaming concordant constructor: feed strictly increasing
 * (lexicographic) points and values, get a PackedTensor without ever
 * building a pointer fibertree — the bulk path for sorted external
 * data (Matrix Market CSR streams, COO dumps).
 */
class PackedBuilder
{
  public:
    PackedBuilder(std::string name, std::vector<ft::RankInfo> ranks,
                  const fmt::TensorFormat& format = {});

    PackedBuilder(std::string name,
                  const std::vector<std::string>& rank_ids,
                  const std::vector<ft::Coord>& shape,
                  const fmt::TensorFormat& format = {});

    /** Pre-size every level's buffers for @p nnz leaves. */
    void reserve(std::size_t nnz);

    /**
     * Append one leaf. @p point must be lexicographically greater
     * than the previous point (ModelError otherwise).
     */
    void append(std::span<const ft::Coord> point, ft::Value v);

    /** Finalize (seals segment sentinels, builds bitmap pools). */
    PackedTensor finish() &&;

  private:
    PackedTensor t_;
    std::vector<ft::Coord> last_;
    bool any_ = false;
    bool finished_ = false;
};

/**
 * Total footprint in bits of a packed tensor under @p format. C and B
 * ranks are read off the actual buffer sizes (coordinate-array
 * lengths, bit-pool length); U ranks use the span-capped formula (the
 * walk skeleton stores occupancy, not the implicit payload slots).
 * Numerically identical to fmt::tensorBits on the unpacked tree.
 */
std::uint64_t packedTensorBits(const fmt::TensorFormat& format,
                               const PackedTensor& t);

} // namespace teaal::storage
