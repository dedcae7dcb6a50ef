#include "selection/selector.h"

#include <algorithm>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace rpe {

MartParams EstimatorSelector::DefaultParams() {
  MartParams params;
  params.num_trees = 200;
  params.tree.max_leaves = 30;
  params.learning_rate = 0.1;
  return params;
}

std::vector<double> EstimatorSelector::ProjectFeatures(
    const std::vector<double>& features) const {
  const std::span<const double> s = ProjectSpan(features);
  return std::vector<double>(s.begin(), s.end());
}

std::span<const double> EstimatorSelector::ProjectSpan(
    std::span<const double> features) const {
  if (use_dynamic_) {
    RPE_CHECK_EQ(features.size(), num_inputs_);
    return features;
  }
  RPE_CHECK_GE(features.size(), num_inputs_);
  return features.first(num_inputs_);
}

EstimatorSelector EstimatorSelector::Train(
    const std::vector<PipelineRecord>& records, std::vector<size_t> pool,
    bool use_dynamic_features, const MartParams& params) {
  EstimatorSelector selector;
  selector.pool_ = std::move(pool);
  selector.use_dynamic_ = use_dynamic_features;
  const FeatureSchema& schema = FeatureSchema::Get();
  selector.num_inputs_ = use_dynamic_features
                             ? schema.num_features()
                             : schema.num_static_features();
  RPE_CHECK(!selector.pool_.empty());

  // The per-candidate error regressors are independent (same features,
  // different labels), so they train concurrently; each lands in its own
  // slot and MartModel::Train is itself deterministic, so the result is
  // identical to the sequential loop.
  ThreadPool* workers =
      params.pool != nullptr ? params.pool : &ThreadPool::Global();
  selector.models_.resize(selector.pool_.size());
  workers->ParallelFor(selector.pool_.size(), [&](size_t k) {
    const size_t est = selector.pool_[k];
    Dataset data(selector.num_inputs_);
    for (const auto& r : records) {
      RPE_CHECK_LT(est, r.l1.size());
      RPE_CHECK_OK(
          data.AddExample(selector.ProjectFeatures(r.features), r.l1[est]));
    }
    selector.models_[k] = MartModel::Train(data, params);
  });
  selector.flat_ = FlatEnsembleSet::Compile(selector.models_);
  return selector;
}

Result<EstimatorSelector> EstimatorSelector::FromModels(
    std::vector<size_t> pool, bool use_dynamic_features,
    std::vector<MartModel> models) {
  if (pool.empty()) return Status::InvalidArgument("empty selector pool");
  if (models.size() != pool.size()) {
    return Status::InvalidArgument("selector pool/model count mismatch");
  }
  const FeatureSchema& schema = FeatureSchema::Get();
  for (size_t est : pool) {
    if (est >= static_cast<size_t>(kNumEstimatorKinds)) {
      return Status::InvalidArgument("selector pool entry out of range");
    }
  }
  EstimatorSelector selector;
  selector.pool_ = std::move(pool);
  selector.use_dynamic_ = use_dynamic_features;
  selector.num_inputs_ = use_dynamic_features ? schema.num_features()
                                              : schema.num_static_features();
  // The models come from persisted bytes: a split on a feature beyond the
  // selector's input width would read past the feature vector at scoring
  // time, and a tree wider than the compiled scorer's leaf bitvector
  // cannot be compiled, so both must be errors here, not crashes later.
  for (const MartModel& model : models) {
    for (const RegressionTree& tree : model.trees()) {
      if (tree.num_leaves() > kMaxTreeLeaves) {
        return Status::InvalidArgument(
            "selector model has a tree with " +
            std::to_string(tree.num_leaves()) + " leaves, beyond the " +
            std::to_string(kMaxTreeLeaves) + "-leaf cap");
      }
      for (const RegressionTree::Node& n : tree.nodes()) {
        if (n.feature >= static_cast<int>(selector.num_inputs_)) {
          return Status::InvalidArgument(
              "selector model splits on feature " +
              std::to_string(n.feature) + ", beyond its " +
              std::to_string(selector.num_inputs_) + " inputs");
        }
      }
    }
  }
  selector.models_ = std::move(models);
  selector.flat_ = FlatEnsembleSet::Compile(selector.models_);
  return selector;
}

Result<EstimatorSelector> EstimatorSelector::FromFlat(
    std::vector<size_t> pool, bool use_dynamic_features, FlatEnsembleSet flat,
    std::vector<std::vector<double>> feature_gains) {
  if (pool.empty()) return Status::InvalidArgument("empty selector pool");
  if (flat.num_models() != pool.size()) {
    return Status::InvalidArgument(
        "selector pool/compiled-model count mismatch");
  }
  if (!feature_gains.empty() && feature_gains.size() != pool.size()) {
    return Status::InvalidArgument("selector pool/feature-gain mismatch");
  }
  for (size_t est : pool) {
    if (est >= static_cast<size_t>(kNumEstimatorKinds)) {
      return Status::InvalidArgument("selector pool entry out of range");
    }
  }
  const FeatureSchema& schema = FeatureSchema::Get();
  EstimatorSelector selector;
  selector.pool_ = std::move(pool);
  selector.use_dynamic_ = use_dynamic_features;
  selector.num_inputs_ = use_dynamic_features ? schema.num_features()
                                              : schema.num_static_features();
  selector.flat_ = std::move(flat);
  selector.flat_gains_ = std::move(feature_gains);
  return selector;
}

std::vector<double> EstimatorSelector::PredictErrors(
    std::span<const double> features) const {
  std::vector<double> predicted(flat_.num_models());
  flat_.PredictAll(ProjectSpan(features), predicted);
  return predicted;
}

size_t EstimatorSelector::Select(std::span<const double> features) const {
  return pool_[flat_.ArgMin(ProjectSpan(features))];
}

size_t EstimatorSelector::SelectForRecord(
    const PipelineRecord& record) const {
  return Select(record.features);
}

void EstimatorSelector::SelectBatch(
    std::span<const std::vector<double>* const> rows,
    std::span<size_t> out) const {
  RPE_CHECK_EQ(out.size(), rows.size());
  if (rows.empty()) return;
  static thread_local std::vector<const double*> ptrs;
  static thread_local std::vector<size_t> choice;
  ptrs.resize(rows.size());
  choice.resize(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    // Same arity contract as Select: ProjectSpan validates each row, and
    // the projected view is a prefix, so only the pointer survives.
    ptrs[r] = ProjectSpan(*rows[r]).data();
  }
  flat_.ArgMinBatch(ptrs, choice);
  for (size_t r = 0; r < rows.size(); ++r) out[r] = pool_[choice[r]];
}

std::vector<double> EstimatorSelector::FeatureImportance() const {
  std::vector<double> gains(num_inputs_, 0.0);
  if (models_.empty()) {
    // FromFlat selectors carry the persisted gains instead of models.
    for (const auto& g : flat_gains_) {
      for (size_t i = 0; i < g.size() && i < gains.size(); ++i) {
        gains[i] += g[i];
      }
    }
    return gains;
  }
  for (const auto& model : models_) {
    const auto& g = model.feature_gains();
    for (size_t i = 0; i < g.size() && i < gains.size(); ++i) {
      gains[i] += g[i];
    }
  }
  return gains;
}

std::vector<size_t> PoolOriginalThree() {
  return {static_cast<size_t>(EstimatorKind::kDne),
          static_cast<size_t>(EstimatorKind::kTgn),
          static_cast<size_t>(EstimatorKind::kLuo)};
}

std::vector<size_t> PoolSix() {
  return {static_cast<size_t>(EstimatorKind::kDne),
          static_cast<size_t>(EstimatorKind::kTgn),
          static_cast<size_t>(EstimatorKind::kLuo),
          static_cast<size_t>(EstimatorKind::kBatchDne),
          static_cast<size_t>(EstimatorKind::kDneSeek),
          static_cast<size_t>(EstimatorKind::kTgnInt)};
}

std::vector<size_t> PoolAll() {
  std::vector<size_t> pool;
  for (int i = 0; i < kNumSelectableEstimators; ++i) {
    pool.push_back(static_cast<size_t>(i));
  }
  return pool;
}

}  // namespace rpe
