/**
 * @file
 * Storage-component simulators used by the performance model (paper
 * §4.1.2, Table 3):
 *
 *  - LruCache: replacement-managed buffer (e.g. Gamma's FiberCache,
 *    OuterSPACE's L0/L1 caches). Capacity-bounded by bytes; counts
 *    hits, fills (misses, charged to the parent level), and accesses.
 *
 *  - Buffet: explicitly managed buffer (Pellauer et al.), filled on
 *    first touch and drained when the binding's evict-on loop rank
 *    changes coordinate (paper §4.1.3).
 */
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>

#include "util/flat_hash.hpp"

namespace teaal::model
{

/** Counters shared by both buffer kinds. */
struct BufferCounters
{
    double accessBytes = 0;  ///< all bytes moved through the buffer
    double fillBytes = 0;    ///< bytes filled from the parent level
    double drainBytes = 0;   ///< bytes drained to the parent level
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

/** Byte-capacity LRU cache keyed by opaque object identities. */
class LruCache
{
  public:
    /** @param capacity_bytes Total capacity; 0 = unbounded. */
    explicit LruCache(double capacity_bytes)
        : capacity_(capacity_bytes)
    {
    }

    /**
     * Access an object of @p bytes; returns true on hit. On miss the
     * object is filled (fillBytes += bytes) and LRU victims are
     * evicted to fit.
     */
    bool access(const void* key, double bytes);

    /** Forget everything (between Einsums). */
    void reset();

    const BufferCounters& counters() const { return counters_; }

  private:
    struct Entry
    {
        const void* key;
        double bytes;
    };

    double capacity_;
    double occupied_ = 0;
    std::list<Entry> lru_; // front = most recent
    std::unordered_map<const void*, std::list<Entry>::iterator> index_;
    BufferCounters counters_;
};

/**
 * Explicitly managed buffet. Objects are identified by 64-bit keys
 * (payload addresses or output path hashes). All resident objects are
 * dropped (reads) or drained (writes) when the eviction context
 * advances. A buffet holds one tensor, so a key is either read or
 * written, never both.
 *
 * Writes carry the first-write bit of the output write record, which
 * replaces a set of every key ever drained: only evictAll removes
 * entries, and it drains every written one, so a later write whose
 * key is not resident is exactly a revisit of a drained partial. Until
 * some written entry has drained, a later write is always a hit, and
 * written entries are kept as running byte totals instead of table
 * entries.
 */
class Buffet
{
  public:
    Buffet() = default;

    /**
     * Read access; fills on first touch in the current residency.
     * @return true if the object was already resident.
     */
    bool read(std::uint64_t key, double bytes);

    /**
     * Write access. @p first marks the first write of @p key in the
     * run, which allocates it. A later write hits while the key is
     * resident; otherwise the key was drained in an earlier residency
     * and is re-filled first (partial output re-read; the caller
     * charges the parent).
     * @return true for a partial-output revisit.
     */
    bool write(std::uint64_t key, double bytes, bool first);

    /** Bytes drained by one eviction, split by first-time vs. re-drain
     *  (re-drains are partial-output traffic). */
    struct DrainResult
    {
        double firstBytes = 0;
        double againBytes = 0;
    };

    /**
     * The eviction context changed: drop reads, drain writes.
     * drainBytes accumulates the written-resident bytes.
     */
    DrainResult evictAll();

    /** Total bytes currently resident. */
    double residentBytes() const { return resident_bytes_; }

    void reset();

    const BufferCounters& counters() const { return counters_; }

  private:
    struct Entry
    {
        double bytes;
        bool written;
        /// Allocated by a revisit: its drain is a re-drain.
        bool revisit;
    };

    /// Flat tables: one buffet access per trace event made the node
    /// allocations of std::unordered_map a top profile entry. The
    /// residency is dropped wholesale at eviction (an O(1) generation
    /// bump), and evictAll's insertion-order iteration is
    /// deterministic — all byte quantities are multiples of 1/8, so
    /// accumulation order cannot perturb the sums either.
    util::FlatMap64<Entry> resident_;
    double resident_bytes_ = 0;

    /// Whether some written entry has drained. Until then written
    /// keys stay out of resident_: they are all resident and all
    /// first drains, so only their total bytes are kept.
    bool drained_ = false;
    bool untrackedWrites_ = false;
    double untrackedWriteBytes_ = 0;

    BufferCounters counters_;
};

} // namespace teaal::model
