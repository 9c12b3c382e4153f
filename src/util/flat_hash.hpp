/**
 * @file
 * Minimal open-addressing hash containers for per-trace-event lookups
 * (the performance model's buffer simulators, and the sharded
 * executor's replay fixup (its output-insert dedup), touch one per
 * record; the node allocations and pointer chasing of
 * std::unordered_map dominated profiles).
 *
 * Design: power-of-two slot array of (generation, index) tags over a
 * dense entry vector. Linear probing, no per-entry deletion — the
 * buffet's working set is dropped wholesale at eviction, which here
 * is an O(1) generation bump. Iteration walks the dense vector in
 * insertion order, which is deterministic (and all byte quantities
 * the model sums are multiples of 1/8, so floating-point accumulation
 * order cannot change results anyway).
 */
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace teaal::util
{

/** splitMix64 finalizer: cheap, well-distributed 64-bit mixing. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Open-addressing map from 64-bit keys to V, with O(1) clear(). */
template <typename V>
class FlatMap64
{
  public:
    struct Entry
    {
        std::uint64_t key;
        V value;
    };

    /** Pointer to the value for @p key, or nullptr. */
    V*
    find(std::uint64_t key)
    {
        if (entries_.empty())
            return nullptr;
        for (std::size_t s = mix64(key) & mask_;;
             s = (s + 1) & mask_) {
            const std::uint64_t tag = slots_[s];
            if ((tag >> 32) != gen_)
                return nullptr;
            Entry& e = entries_[(tag & 0xffffffffULL)];
            if (e.key == key)
                return &e.value;
        }
    }

    /** Insert @p key with @p value unless present; returns the value
     *  slot and whether it was inserted. */
    std::pair<V*, bool>
    tryEmplace(std::uint64_t key, V value)
    {
        if (entries_.size() + 1 > (slots_.size() * 3) / 4)
            grow();
        for (std::size_t s = mix64(key) & mask_;;
             s = (s + 1) & mask_) {
            const std::uint64_t tag = slots_[s];
            if ((tag >> 32) != gen_) {
                slots_[s] = (static_cast<std::uint64_t>(gen_) << 32) |
                            entries_.size();
                entries_.push_back(Entry{key, std::move(value)});
                return {&entries_.back().value, true};
            }
            Entry& e = entries_[(tag & 0xffffffffULL)];
            if (e.key == key)
                return {&e.value, false};
        }
    }

    /** Live entries in insertion order. */
    const std::vector<Entry>& entries() const { return entries_; }

    std::size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }

    /** Drop everything; capacity (and the slot array) is kept. */
    void
    clear()
    {
        entries_.clear();
        ++gen_;
    }

  private:
    void
    grow()
    {
        const std::size_t cap =
            slots_.empty() ? 64 : slots_.size() * 2;
        slots_.assign(cap, 0);
        mask_ = cap - 1;
        gen_ = 1;
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            for (std::size_t s = mix64(entries_[i].key) & mask_;;
                 s = (s + 1) & mask_) {
                if ((slots_[s] >> 32) != gen_) {
                    slots_[s] =
                        (static_cast<std::uint64_t>(gen_) << 32) | i;
                    break;
                }
            }
        }
    }

    std::vector<Entry> entries_;
    std::vector<std::uint64_t> slots_; // (generation << 32) | index
    std::size_t mask_ = 0;
    std::uint32_t gen_ = 1;
};

/** Open-addressing set of 64-bit keys (no clear-per-use pattern). */
class FlatSet64
{
  public:
    /** Insert @p key; returns true if it was not present. */
    bool
    insert(std::uint64_t key)
    {
        return map_.tryEmplace(key, Unit{}).second;
    }

    bool contains(std::uint64_t key) { return map_.find(key) != nullptr; }

    std::size_t size() const { return map_.size(); }

    void clear() { map_.clear(); }

  private:
    struct Unit
    {
    };
    FlatMap64<Unit> map_;
};

} // namespace teaal::util
