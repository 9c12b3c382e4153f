/**
 * @file
 * Mapping specification (paper §2.3, §3.2, Figures 3 and 8):
 * per-tensor `rank-order`, per-Einsum `partitioning` (uniform shape,
 * uniform occupancy with a leader, flattening), `loop-order`, and
 * `spacetime` (which loop ranks are spatial vs. temporal).
 *
 * Derived rank names follow the paper's convention: a rank R split by
 * n directives becomes R<n>, ..., R0 (K -> K1, K0); flattening (K, M)
 * yields KM; partitioning a flattened or derived rank appends digits
 * (MK0 -> MK01, MK00).
 */
#pragma once

#include <map>
#include <string>
#include <vector>

#include "fibertree/types.hpp"
#include "yaml/yaml.hpp"

namespace teaal::mapping
{

/** Symbol table for symbolic tile sizes (e.g. ExTensor's K1, M0). */
using ParamMap = std::map<std::string, long>;

/** One partitioning directive. */
struct PartitionDirective
{
    enum class Kind { Flatten, UniformShape, UniformOccupancy };

    Kind kind = Kind::UniformShape;

    /// UniformShape: tile size (coordinate extent).
    ft::Coord tile = 0;

    /// UniformOccupancy: leader tensor and elements per partition.
    std::string leader;
    std::size_t chunk = 0;

    std::string toString() const;

    /** Parse "flatten()", "uniform_shape(X)", "uniform_occupancy(A.N)". */
    static PartitionDirective parse(const std::string& text,
                                    const ParamMap& params);
};

/** All directives applied to one (possibly flattened) rank group. */
struct RankPartitioning
{
    /// The key's ranks: one entry normally, several for `(K, M)`.
    std::vector<std::string> sourceRanks;
    std::vector<PartitionDirective> directives;

    /** True if this group only flattens (no splitting). */
    bool flattenOnly() const;

    /** Name of the rank the directives apply to (post-flatten). */
    std::string baseRank() const;

    /**
     * Names of the ranks produced, top to bottom. A flatten of (K, M)
     * gives {KM}; splitting K twice gives {K2, K1, K0}.
     */
    std::vector<std::string> resultRanks() const;
};

/**
 * The rank a partition-derived rank came from, inverting
 * RankPartitioning::resultRanks: strips every trailing digit (K0 -> K,
 * KM2 -> KM, MK01 -> MK, N1 -> N, K -> K).
 */
std::string baseOfDerived(const std::string& rank);

/** One `spacetime` entry; ".coord" selects coordinate-space stamping. */
struct SpaceTimeEntry
{
    std::string rank;
    bool coordSpace = false;

    static SpaceTimeEntry parse(const std::string& text);
};

/** Mapping attributes of a single Einsum (keyed by its output). */
struct EinsumMapping
{
    std::vector<RankPartitioning> partitioning;
    std::vector<std::string> loopOrder;
    std::vector<SpaceTimeEntry> space;
    std::vector<SpaceTimeEntry> time;

    /** The partition group owning @p rank, or nullptr. */
    const RankPartitioning* groupFor(const std::string& rank) const;
};

/** The full `mapping:` section. */
class MappingSpec
{
  public:
    MappingSpec() = default;

    /**
     * Parse the `mapping:` YAML node; symbolic tile sizes are
     * resolved against @p params (SpecError if unresolved).
     */
    static MappingSpec parse(const yaml::Node& node,
                             const ParamMap& params = {});

    /** Declared storage rank order of @p tensor, or empty. */
    const std::vector<std::string>& rankOrder(
        const std::string& tensor) const;

    /** True if a rank-order was declared for @p tensor. */
    bool hasRankOrder(const std::string& tensor) const;

    /** Mapping for the Einsum producing @p tensor (default if none). */
    const EinsumMapping& einsum(const std::string& output) const;

    bool hasEinsum(const std::string& output) const;

    /** Register programmatically (used by canned accelerator specs). */
    void setRankOrder(const std::string& tensor,
                      std::vector<std::string> order);
    void setEinsum(const std::string& output, EinsumMapping m);

  private:
    std::map<std::string, std::vector<std::string>> rankOrder_;
    std::map<std::string, EinsumMapping> einsums_;
    static const EinsumMapping defaultMapping_;
    static const std::vector<std::string> emptyOrder_;
};

} // namespace teaal::mapping
