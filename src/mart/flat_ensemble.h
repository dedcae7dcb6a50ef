// Compiled inference layout for trained MART ensembles. A FlatEnsembleSet
// packs several models (the per-candidate error regressors of
// EstimatorSelector) into one set of QuickScorer-style tables (Lucchese et
// al., SIGIR'15 idiom) merged across the whole set: per feature, the split
// nodes of every model sorted by threshold; each carries a bitmask clearing
// its left subtree's leaves. Scoring scans each feature's list while
// x[f] > threshold (a false node means the walk would go right, abandoning
// the left subtree) and ANDs the masks into per-tree leaf bitvectors; the
// exit leaf of every tree is then the lowest surviving bit. Sequential
// streaming replaces the pointer-chased walk entirely, and x[f] is loaded
// (and NaN-tested) once per feature for the whole pool instead of once per
// model. This is what makes the per-candidate scoring of the selection
// stack (selector × pool × observation) cheap enough for continuous
// monitoring.
//
// Predictions are bit-exact with MartModel::Predict: the chosen leaf is the
// one the tree walk reaches, leaf values carry the learning rate pre-folded
// (FP multiplication is deterministic), and they accumulate per model in
// tree order from the bias. One uint64 bitvector per tree is why trees are
// capped at kMaxTreeLeaves (64) leaves (mart/tree.h).
//
// Storage: every table is a Slab — owned when compiled in memory
// (Compile), borrowed when rebuilt over snapshot bytes (FromParts, fed by
// serving/snapshot.h). Scoring reads only through the slab views, so both
// forms score bit-identically, and both carry the same tables: Compile
// appends the leaf table's kQsLeafGuard tail too, so a compiled set is
// persisted as is. FromParts is the untrusted-input gate for borrowed
// tables: every index scoring can follow is bounds-checked there, so a
// hostile snapshot yields a Status, never UB.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/slab.h"
#include "common/status.h"
#include "mart/mart.h"

namespace rpe {

/// Zero doubles appended after every QuickScorer leaf-value table so a
/// fully-cleared (hostile) leaf bitvector indexes the guard, not past the
/// table: countr_zero(0) == 64.
inline constexpr size_t kQsLeafGuard = 64;

namespace flat_internal {

/// The merged evaluation tables of a model set (layout described above).
/// Tree ids are global across the set; model m owns trees
/// [model_tree_begin[m], model_tree_begin[m + 1]).
struct MergedQuickScorer {
  /// out[m] = model m's prediction for x; out.size() must equal the model
  /// count. `bits_scratch` is reused across calls (resized to the global
  /// tree count), keeping the hot path allocation-free. The row kernel:
  /// also the batch kernel's tail path and its scalar reference.
  void ScoreAll(const double* x, std::vector<uint64_t>* bits_scratch,
                std::span<double> out) const;

  /// Rows scored together by PredictAllBatch's vector kernel; the batch
  /// facade tiles any row count into groups of this many.
  static constexpr size_t kBatchRows = 8;

  /// Reusable scratch for PredictAllBatch (SoA feature tile + per-lane
  /// leaf bitvectors); allocation-free after the first call.
  struct BatchScratch {
    std::vector<double> x;          ///< tile: x[f * kBatchRows + lane]
    std::vector<uint64_t> bits;     ///< bits[tree * kBatchRows + lane]
    std::vector<uint64_t> row_bits; ///< ScoreAll scratch for tail rows
  };

  /// Batched ScoreAll, dispatched through common/simd.h: out is row-major,
  /// out[r * num_models + m] = model m's prediction for rows[r] (each row
  /// a feature vector of at least num_features values); out.size() must be
  /// rows.size() * num_models. The AVX2 kernel gathers kBatchRows rows
  /// into an SoA tile and runs the threshold compares and bitmask ANDs
  /// over all lanes at once; per lane the same entries fire and leaves
  /// accumulate in the same order as ScoreAll, so every output double is
  /// bit-identical to the per-row path on every tier
  /// (tests/simd_test.cpp).
  void PredictAllBatch(std::span<const double* const> rows,
                       BatchScratch* scratch, std::span<double> out) const;

  int32_t num_features = 0;  ///< max split feature id + 1 over the set

  /// Per feature f: entries [feat_begin[f], feat_begin[f+1]) sorted by
  /// ascending threshold (parallel arrays).
  Slab<uint64_t> feat_begin;
  Slab<double> threshold;
  Slab<int32_t> entry_tree;
  Slab<uint64_t> entry_mask;

  Slab<uint64_t> init_mask;  ///< per tree: one bit per leaf
  Slab<int32_t> leaf_base;   ///< per tree, into leaf_value
  /// lr * leaf, left-to-right per tree, trees concatenated, then the
  /// kQsLeafGuard zero tail (see FromParts).
  Slab<double> leaf_value;
  Slab<int32_t> model_tree_begin;  ///< per model + 1, global tree ids
  Slab<double> bias;               ///< per model
};

}  // namespace flat_internal

/// \brief Several models packed into one table set, scored together — the
/// selection-stack hot path (one error regressor per pool candidate).
class FlatEnsembleSet {
 public:
  FlatEnsembleSet() = default;

  /// Compile `models`; every tree must have at most kMaxTreeLeaves leaves
  /// (MartModel::Train guarantees it).
  static FlatEnsembleSet Compile(const std::vector<MartModel>& models);

  /// Rebuild a set from persisted tables (the snapshot load path).
  /// This is the untrusted-input gate: the slabs may alias raw file bytes,
  /// so every index scoring can reach — model tree ranges, entry tree ids,
  /// leaf bases (leaf_value must carry the kQsLeafGuard tail) —
  /// is bounds-checked against `num_inputs` (the feature-vector width
  /// scoring will be called with) before anything is scored. Returns
  /// InvalidArgument instead of invoking UB on a hostile or truncated
  /// snapshot. Validation is structural only, so a set that passes scores
  /// without further checks; it scores bit-identically to the Compile'd
  /// set its tables were persisted from.
  static Result<FlatEnsembleSet> FromParts(
      flat_internal::MergedQuickScorer tables, size_t num_inputs);

  /// The compiled tables, for the snapshot writer.
  const flat_internal::MergedQuickScorer& merged() const { return merged_; }

  size_t num_models() const { return merged_.bias.size(); }

  /// out[m] = prediction of model m; out.size() must equal num_models().
  /// Bit-exact with calling MartModel::Predict per model.
  void PredictAll(std::span<const double> features,
                  std::span<double> out) const;

  /// Batched PredictAll over many feature vectors: out is row-major,
  /// out[r * num_models() + m] = model m's prediction for rows[r];
  /// out.size() must be rows.size() * num_models(). Runs the
  /// SIMD-dispatched batch kernel (groups of
  /// MergedQuickScorer::kBatchRows rows per tile); every output double is
  /// bit-identical to PredictAll on the same row.
  void PredictAllBatch(std::span<const double* const> rows,
                       std::span<double> out) const;

  /// Index of the model with the smallest prediction (first on ties);
  /// requires num_models() > 0. Allocation-free after the first call on
  /// each thread.
  size_t ArgMin(std::span<const double> features) const;

  /// Batched ArgMin: out[r] = ArgMin(rows[r]), scored through
  /// PredictAllBatch (same first-on-ties election, so the chosen indices
  /// are identical to the per-row path at every tier).
  void ArgMinBatch(std::span<const double* const> rows,
                   std::span<size_t> out) const;

 private:
  flat_internal::MergedQuickScorer merged_;
};

}  // namespace rpe
