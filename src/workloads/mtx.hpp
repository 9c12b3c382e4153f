/**
 * @file
 * Matrix Market (.mtx) I/O so the models can run on the actual
 * SuiteSparse/SNAP matrices of Table 4 when the user has them on disk
 * (the repository itself ships only synthetic stand-ins).
 *
 * Supported subset: `%%MatrixMarket matrix coordinate
 * (real|integer|pattern) (general|symmetric)`. Pattern entries get
 * value 1.0; symmetric matrices are expanded. 1-based indices per the
 * format.
 */
#pragma once

#include <string>

#include "fibertree/tensor.hpp"
#include "storage/packed.hpp"

namespace teaal::workloads
{

/** Read a Matrix Market file into a [rank_ids] fibertree. */
ft::Tensor readMatrixMarket(const std::string& path,
                            const std::string& name,
                            const std::vector<std::string>& rank_ids = {
                                "K", "M"});

/** Parse Matrix Market text (for tests and in-memory use). */
ft::Tensor parseMatrixMarket(const std::string& text,
                             const std::string& name,
                             const std::vector<std::string>& rank_ids = {
                                 "K", "M"});

/**
 * Read a Matrix Market file straight into a packed CSR store: entries
 * are sorted once and bulk-appended to a storage::PackedBuilder — no
 * per-element fibertree insert, no pointer fiber ever built. The
 * first rank is rows, the second columns (the file's coordinate
 * order); callers wanting a discordant (e.g. column-major) rank order
 * swizzle the store (storage::swizzle), or bind it as is and let the
 * pipeline apply the mapping's rank-order.
 *
 * @param format Rank formats for the packed store (footprints,
 *               bitmap/implicit walk auxiliaries); defaults to
 *               all-compressed.
 */
storage::PackedTensor readMatrixMarketPacked(
    const std::string& path, const std::string& name,
    const std::vector<std::string>& rank_ids = {"K", "M"},
    const fmt::TensorFormat& format = {});

/** Packed counterpart of parseMatrixMarket (tests, in-memory use). */
storage::PackedTensor parseMatrixMarketPacked(
    const std::string& text, const std::string& name,
    const std::vector<std::string>& rank_ids = {"K", "M"},
    const fmt::TensorFormat& format = {});

/** Write a tensor (2 ranks) as Matrix Market coordinate/real/general. */
void writeMatrixMarket(const std::string& path, const ft::Tensor& t);

/** Render to text (for tests). */
std::string renderMatrixMarket(const ft::Tensor& t);

} // namespace teaal::workloads
