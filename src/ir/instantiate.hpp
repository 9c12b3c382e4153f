/**
 * @file
 * The recipe traversal both model tiers instantiate plans with
 * (internal to ir/ and model/analytic/).
 *
 * instantiateWith binds an EinsumRecipe to one tensor representation
 * and derives everything the loop nest needs: rank and variable
 * shapes, loop-rank metadata, variable binding points, spacetime
 * flags, each input's preparation (partition/flatten groups and the
 * concordance swizzle), level actions, co-iteration strategies, and
 * the output plan. The tiers differ only in what a tensor is, which
 * PlanTensors and PlanInput hide:
 *
 *   ir::instantiatePlan (trace tier)  packed rank stores. An input
 *       is borrowed until its first transform, so a concordant
 *       unpartitioned store binds with no copy; every transform runs
 *       on packed buffers (storage/transform.hpp), and no pointer
 *       fiber is built.
 *   model::analytic::symbolicInstantiate (analytic tier)
 *       SymbolicTensor statistics, transformed in closed form
 *       (model/analytic/stats.hpp), with expected element counts.
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ir/plan.hpp"

namespace teaal::ir
{

/** One input tensor under preparation, in its tier's representation. */
class PlanInput
{
  public:
    virtual ~PlanInput() = default;

    /** Rank metadata after the transforms applied so far. */
    virtual const std::vector<ft::RankInfo>& ranks() = 0;

    /** The preparation transforms (fibertree/transform.hpp). */
    virtual void swizzle(const std::vector<std::string>& order) = 0;
    virtual void flatten(const std::string& upper,
                         const std::string& lower) = 0;
    virtual void splitByShape(const std::string& rank, ft::Coord tile,
                              const std::string& upper,
                              const std::string& lower) = 0;
    virtual void splitByOccupancy(const std::string& rank,
                                  std::size_t chunk,
                                  const std::string& upper,
                                  const std::string& lower) = 0;

    /** Element count, charged by the concordance swizzle. */
    virtual std::size_t elements() = 0;

    /** Per-level occupancy hints (elements per fiber), which pick
     *  co-iteration strategies and size the swizzle's merger. */
    virtual std::vector<double> hints() = 0;

    /** Move the prepared input into @p tp (TensorPlan::ranks, and
     *  the trace tier's TensorPlan::packed). */
    virtual void finish(TensorPlan& tp) = 0;
};

/** The tensors a recipe is instantiated against. */
class PlanTensors
{
  public:
    virtual ~PlanTensors() = default;

    /** Ranks of live tensor @p name, or null (shape derivation). */
    virtual const std::vector<ft::RankInfo>*
    ranksOf(const std::string& name) const = 0;

    /** Start preparing input @p name of @p expr; throws when it has
     *  no data. */
    virtual std::unique_ptr<PlanInput>
    open(const std::string& name, const einsum::Expression& expr) = 0;
};

/**
 * Bind @p recipe to @p tensors. @p intermediates names the tensors
 * earlier Einsums produced: their swizzles are online and charged.
 * Leaves EinsumPlan::shard to the caller.
 */
EinsumPlan instantiateWith(const EinsumRecipe& recipe,
                           const einsum::EinsumSpec& spec,
                           const std::vector<std::string>& intermediates,
                           PlanTensors& tensors);

} // namespace teaal::ir
