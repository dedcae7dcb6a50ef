// The estimator-selection model (paper §4.1): one MART error-regressor per
// candidate estimator; at selection time the candidate with the smallest
// predicted error wins. Supports static-only feature mode (choice before
// execution) and static+dynamic mode (choice revised at the 20% driver
// marker), and arbitrary candidate pools (e.g. {DNE, TGN, LUO} vs. the full
// six of Figure 5).
//
// Scoring runs on a FlatEnsembleSet compiled from the per-candidate models
// at training time: one contiguous buffer scores the whole pool per
// decision with no allocation, which is what the continuous-monitoring
// path (ProgressMonitor replay: selector × pipeline × observation) leans
// on. The candidate regressors themselves train concurrently on the
// ThreadPool; training is deterministic, so the serialized models are
// identical at any thread count.
//
// Threading contract: an EstimatorSelector is immutable once built
// (Train/FromModels are the only constructors-of-state), so all const
// methods — Select / PredictErrors / SelectForRecord / accessors — are
// safe to call concurrently from any number of threads without locking.
// This is what lets the serving layer share one selector stack across
// every session via shared_ptr<const ...> (see serving/monitor_service.h).
// Train itself runs parallel work on params.pool (nullptr = the global
// pool) and must not be re-entered with the same mutable output.
//
// Error behavior: Train and the Select/Predict paths RPE_CHECK their
// invariants (feature-vector arity must match the schema) — violations
// are programming errors and abort. FromModels is the untrusted-input
// gate (snapshot loading): malformed persisted models (wrong pool/model
// count, split features beyond the input width, trees over
// kMaxTreeLeaves leaves, hostile node graphs) return Status instead of
// aborting.
#pragma once

#include <span>
#include <vector>

#include "mart/flat_ensemble.h"
#include "mart/mart.h"
#include "selection/record.h"

namespace rpe {

/// \brief Trained selection model.
class EstimatorSelector {
 public:
  /// \param pool indices into SelectableEstimators() order of the candidate
  ///   estimators the selector may choose between.
  /// \param use_dynamic_features train on the full feature vector (static +
  ///   dynamic) rather than the static prefix only.
  static EstimatorSelector Train(const std::vector<PipelineRecord>& records,
                                 std::vector<size_t> pool,
                                 bool use_dynamic_features,
                                 const MartParams& params = DefaultParams());

  /// Paper training setup: M = 200 boosting iterations, 30-leaf trees.
  static MartParams DefaultParams();

  /// Reassemble a trained selector from persisted models (binary snapshot
  /// load path). The flat scoring buffers are recompiled — compilation is
  /// deterministic from the models, so the rebuilt selector scores
  /// bit-identically to the one that was saved.
  static Result<EstimatorSelector> FromModels(std::vector<size_t> pool,
                                              bool use_dynamic_features,
                                              std::vector<MartModel> models);

  /// Reassemble a selector directly from persisted compiled scoring
  /// buffers (zero-copy snapshot load path, serving/mmap_arena.h): no
  /// MartModels are materialized, so `models()` is empty and the selector
  /// cannot be re-encoded — it can only score. `flat` must already have
  /// passed FlatEnsembleSet::FromParts validation against this feature
  /// mode's input width; `feature_gains` (one vector per pool entry, may
  /// be empty) keeps FeatureImportance working without the models.
  static Result<EstimatorSelector> FromFlat(
      std::vector<size_t> pool, bool use_dynamic_features,
      FlatEnsembleSet flat, std::vector<std::vector<double>> feature_gains);

  /// False for selectors rebuilt via FromFlat: scoring works, but paths
  /// that need the tree structure (EncodeSelectorStack, text Serialize)
  /// do not.
  bool has_models() const { return !models_.empty() || pool_.empty(); }

  /// Predicted L1 error per pool candidate (pool order).
  std::vector<double> PredictErrors(std::span<const double> features) const;
  std::vector<double> PredictErrors(
      const std::vector<double>& features) const {
    return PredictErrors(std::span<const double>(features));
  }

  /// Index into SelectableEstimators order of the chosen estimator.
  /// Allocation-free: scores the compiled ensemble set directly.
  size_t Select(std::span<const double> features) const;
  size_t Select(const std::vector<double>& features) const {
    return Select(std::span<const double>(features));
  }

  /// Batched Select: `out[r]` is exactly `Select(rows[r])` for every row
  /// — same projection, same first-on-ties argmin — but the pool scores
  /// through FlatEnsembleSet::ArgMinBatch, which runs the SIMD tile
  /// kernel (common/simd.h) across 8 decisions at once. Each `rows[r]`
  /// must point at a full feature vector of the schema width Select
  /// accepts. Used by the serving tier to open and replay many sessions
  /// per call (monitor_service.h).
  void SelectBatch(std::span<const std::vector<double>* const> rows,
                   std::span<size_t> out) const;

  /// Chosen estimator for a record (uses its stored features).
  size_t SelectForRecord(const PipelineRecord& record) const;

  const std::vector<size_t>& pool() const { return pool_; }
  bool uses_dynamic_features() const { return use_dynamic_; }
  const std::vector<MartModel>& models() const { return models_; }
  const FlatEnsembleSet& flat() const { return flat_; }

  /// Aggregate split-gain importance across the per-estimator models,
  /// indexed by feature (full schema indices).
  std::vector<double> FeatureImportance() const;

 private:
  std::vector<double> ProjectFeatures(
      const std::vector<double>& features) const;
  /// Zero-copy projection: the model inputs are always a prefix of the
  /// full feature vector (static features come first in the schema).
  std::span<const double> ProjectSpan(std::span<const double> features) const;

  std::vector<size_t> pool_;
  bool use_dynamic_ = false;
  size_t num_inputs_ = 0;
  std::vector<MartModel> models_;  // one per pool entry; empty via FromFlat
  FlatEnsembleSet flat_;           // compiled from models_, scoring path
  /// Per-model training gains for FromFlat selectors (models_ is empty
  /// there); FeatureImportance falls back to these.
  std::vector<std::vector<double>> flat_gains_;
};

/// Convenience pools.
std::vector<size_t> PoolOriginalThree();  ///< DNE, TGN, LUO
std::vector<size_t> PoolSix();            ///< + BATCHDNE, DNESEEK, TGNINT
std::vector<size_t> PoolAll();            ///< all eight (incl. SAFE, PMAX)

}  // namespace rpe
