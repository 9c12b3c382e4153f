/**
 * @file
 * The per-Einsum model tables: everything the performance model
 * resolves once from the plan, topology, binding, and format spec —
 * functional-component identities, storage-unit configuration,
 * per-(input, level) access routes, the output leaf layout, the
 * trace-record classifier, and the pre-populated EinsumRecord
 * skeleton (component rows with instance counts, zero traffic rows,
 * fusion facts).
 *
 * Both model tiers reference one immutable ModelTables: the
 * order-independent ShardAccumulator (model/accumulator.hpp), which
 * runs inside every shard, and the order-dependent StorageReplay
 * (model/storage_replay.hpp), which only the coordinator feeds. The
 * split boundary IS the classifier: a record is order-dependent
 * exactly when consuming it touches buffet/cache/partial-output
 * state.
 */
#pragma once

#include <set>
#include <string>
#include <vector>

#include "arch/arch.hpp"
#include "binding/binding.hpp"
#include "format/format.hpp"
#include "ir/plan.hpp"
#include "model/record.hpp"
#include "trace/batch.hpp"
#include "util/random.hpp"

namespace teaal::model
{

/**
 * One additive counter with event-occurrence tracking: a counter row
 * appears in the record exactly when some trace event touched it —
 * even with a zero value — matching the lazily-created rows of the
 * streaming model, so records merged from shard pieces are
 * byte-identical to a serial run's.
 */
struct Slot
{
    double value = 0;
    bool touched = false;

    void
    add(double v)
    {
        value += v;
        touched = true;
    }

    void
    merge(const Slot& o)
    {
        value += o.value;
        touched = touched || o.touched;
    }

    /** Apply to @p ca's @p key row (created on first touch). */
    void
    mergeInto(ComponentActions& ca, const char* key) const
    {
        if (touched)
            ca.counts[key] += value;
    }
};

/**
 * Map a (possibly sparse, mixed-radix) logical PE id onto a physical
 * instance. When the id already fits the instance count this is the
 * identity (static placement); larger/sparse id spaces are spread by
 * a mixing hash, modeling the dynamic work distribution real designs
 * use to balance irregular task sizes.
 */
inline std::uint64_t
peSlot(long instances, std::uint64_t pe)
{
    const auto n = static_cast<std::uint64_t>(instances);
    if (n == 0)
        return pe;
    if (pe < n)
        return pe;
    std::uint64_t state = pe;
    return splitMix64(state) % n;
}

/** Algorithm of an intersection unit (its `type` attribute). */
enum class IsectType : std::uint8_t
{
    TwoFinger,
    LeaderFollower,
    SkipAhead,
};

/** Parse an intersection `type` attribute; unknown names model the
 *  two-finger unit. */
IsectType isectTypeOf(const std::string& type);

/**
 * Cycles an intersection unit of @p type spends on a walk of @p steps
 * element advances producing @p matches coordinates. Both model tiers
 * charge it: the trace tier per DatapathSink::coIterate call, the
 * analytic tier per estimated walk.
 */
inline double
isectCycles(IsectType type, double steps, double matches)
{
    switch (type) {
      case IsectType::SkipAhead:
        // Hegde et al.'s unit fast-forwards through non-matching
        // runs at ~2 elements/cycle.
        return matches + (steps - matches) / 2.0;
      case IsectType::LeaderFollower:
        // Only the leader's elements are examined.
        return steps / 2.0 + matches / 2.0;
      case IsectType::TwoFinger:
        break;
    }
    return steps;
}

/// DRAM transaction granularity paid per element when chasing
/// interleaved (array-of-structs / linked-list) layouts; partial
/// write-combining makes this less than a full 64B line. Shared by
/// the output-leaf sizing (tables.cpp) and the input subtree charges
/// (storage_replay.cpp) so the two cannot diverge.
constexpr double kInterleavedTransactionBytes = 32.0;

/** Immutable per-Einsum model configuration (see file comment). */
struct ModelTables
{
    const ir::EinsumPlan* plan = nullptr;
    const arch::Topology* topo = nullptr;
    const fmt::FormatSpec* formats = nullptr;
    std::set<std::string> onChip;

    // Resolved functional components (empty name = absent). The
    // intersection type and merger radix are the bound unit's.
    std::string dramName;
    std::string seqName;
    std::string isectName;
    IsectType isectType = IsectType::TwoFinger;
    std::string mergerName;
    long mergerRadix = 2;
    std::string mulName;
    std::string addName;
    long seqInstances = 1;
    long isectInstances = 1;
    long mulInstances = 1;
    long addInstances = 1;

    bool unionCombine = false;

    /** Static configuration of one bound storage unit (the simulator
     *  state itself lives in StorageReplay). */
    struct UnitInfo
    {
        std::string component;
        std::string tensor;
        bool isCache = false;
        /// Shared pool capacity of the component's cache (aggregate
        /// over replicated instances); 0 for buffets.
        double cacheBytes = 0;
        const fmt::TensorFormat* format = nullptr;
        int input = -1;      // -1 for the output tensor
        int boundLevel = -1; // prepared/production level
        int evictLoop = -1;  // loop index that drains the buffet
        bool eager = false;
        /// Interleaved (linked-list) layout: DRAM transaction
        /// granularity is paid per chased element.
        bool interleaved = false;
        /// Tensor stays on chip (fused intermediate): no DRAM charge.
        bool onChipTensor = false;
    };
    std::vector<UnitInfo> units;
    int outUnit = -1;
    double outLeafBytes = 8;
    /// DRAM transaction bytes for interleaved (linked-list) output
    /// layouts: pointer chasing pays line granularity per element.
    double outLineBytes = 0;

    /** Per-level routing for one input tensor. */
    struct LevelRoute
    {
        double coordBytes = 4;
        double payloadBytes = 4;
        int unit = -1;         // UnitInfo index handling this level
        bool absorbed = false; // covered by an eager unit above
        // Unit facts denormalized onto the route so the hot path pays
        // one read instead of a units[] indirection.
        bool unitIsCache = false;
        bool unitEager = false;
        int unitBoundLevel = -1;
    };
    std::vector<std::vector<LevelRoute>> routes; // per input, per level
    std::vector<char> inputOnChip;               // per input slot
    bool outputOnChip = false;

    /// Record classification derived from the routes: what the shard
    /// accumulators may consume vs. what must replay in order.
    trace::RecordClassifier classifier;

    /// Pre-populated record: metadata, component rows (instances,
    /// classes), zero traffic rows. finalize() copies this and merges
    /// the tiers' counters in.
    EinsumRecord skeleton;

    /**
     * Resolve the tables for one Einsum. All references are borrowed
     * and must outlive the tables (the plan, topology, and format
     * spec already outlive every run using them).
     */
    static ModelTables build(const ir::EinsumPlan& plan,
                             const arch::Topology& topo,
                             const binding::EinsumBinding& eb,
                             const fmt::FormatSpec& formats,
                             const std::set<std::string>& on_chip);
};

} // namespace teaal::model
