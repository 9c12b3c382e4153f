/**
 * @file
 * The performance model's public result types: per-component action
 * counts, per-tensor DRAM traffic, and the per-Einsum record the
 * pipeline hands to perf/energy analysis (paper §4.3).
 *
 * These are pure data; the machinery that fills them lives in the
 * two-tier model split (model/accumulator.hpp for order-independent
 * datapath counters, model/storage_replay.hpp for order-dependent
 * storage simulation) behind the model/model.hpp façade.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "arch/arch.hpp"
#include "exec/engine.hpp"

namespace teaal::model
{

/**
 * Per-PE cycle-equivalent loads as a sorted flat vector of
 * (pe, load) pairs. PE slot ids are small and dense (peSlot folds
 * sparse logical ids into [0, instances)), so a flat vector beats a
 * hash map on every operation the model performs — O(log n) find,
 * linear max/merge — and its iteration order is deterministic by
 * construction (no hash-order dependence anywhere downstream).
 * Consecutive updates mostly name one PE, so the last slot found is
 * checked before searching.
 */
class PeLoadVector
{
  public:
    /** Load of @p pe, inserting a zero entry if absent (map-like). */
    double&
    operator[](std::uint64_t pe)
    {
        if (last_ < v_.size() && v_[last_].first == pe)
            return v_[last_].second;
        auto it = lowerBound(pe);
        if (it == v_.end() || it->first != pe)
            it = v_.insert(it, {pe, 0.0});
        last_ = static_cast<std::size_t>(it - v_.begin());
        return it->second;
    }

    void add(std::uint64_t pe, double load) { (*this)[pe] += load; }

    /** The most-loaded PE's load (0 when empty). */
    double
    maxLoad() const
    {
        double best = 0;
        for (const auto& [pe, load] : v_)
            best = std::max(best, load);
        return best;
    }

    /** Element-wise sum with @p o (union of PE ids). */
    void
    merge(const PeLoadVector& o)
    {
        for (const auto& [pe, load] : o.v_)
            (*this)[pe] += load;
    }

    bool empty() const { return v_.empty(); }
    std::size_t size() const { return v_.size(); }
    auto begin() const { return v_.begin(); }
    auto end() const { return v_.end(); }

    bool operator==(const PeLoadVector& o) const { return v_ == o.v_; }

  private:
    std::vector<std::pair<std::uint64_t, double>>::iterator
    lowerBound(std::uint64_t pe)
    {
        return std::lower_bound(
            v_.begin(), v_.end(), pe,
            [](const auto& e, std::uint64_t key) { return e.first < key; });
    }

    /// Sorted by PE id.
    std::vector<std::pair<std::uint64_t, double>> v_;
    /// Index of the last slot operator[] returned.
    std::size_t last_ = 0;
};

/** Action counts of one component during one Einsum. */
struct ComponentActions
{
    std::string name;
    arch::ComponentClass cls = arch::ComponentClass::Compute;
    long instances = 1;
    /// Named action counters (bytes, ops, steps, ...).
    std::map<std::string, double> counts;
    /// Per-PE cycle-equivalent load (datapath components).
    PeLoadVector perPe;

    double maxPerPe() const { return perPe.maxLoad(); }
    double
    count(const std::string& key) const
    {
        const auto it = counts.find(key);
        return it == counts.end() ? 0.0 : it->second;
    }
    void add(const std::string& key, double v) { counts[key] += v; }
};

/** DRAM traffic attributed to one tensor. */
struct TensorTraffic
{
    double readBytes = 0;
    double writeBytes = 0;
    /// Partial-output traffic: re-reads + re-writes of evicted partial
    /// results (the "PO" bars of paper Figure 9).
    double poBytes = 0;

    double total() const { return readBytes + writeBytes; }
};

/** Everything the model learned about one Einsum's execution. */
struct EinsumRecord
{
    std::string output;
    std::string topologyName;
    double clock = 1e9;

    std::map<std::string, ComponentActions> components;
    std::map<std::string, TensorTraffic> traffic;

    exec::ExecutionStats execStats;

    /// Trace-bus diagnostics: logical events consumed and the batches
    /// that delivered them (events/batches = virtual-call reduction).
    /// Sharded runs sum shard-consumed and replayed records so these
    /// equal the serial run's totals at every thread count.
    std::size_t traceEvents = 0;
    std::size_t traceBatches = 0;

    // Fusion-relevant facts (paper §4.3).
    std::vector<std::string> loopOrder;
    std::vector<std::string> temporalPrefix;
    std::set<std::string> nonStorageComponents;
};

} // namespace teaal::model
