// MART — Multiple Additive Regression Trees (stochastic gradient boosting,
// Friedman [10]): the statistical model behind estimator selection
// (paper §4.2). Squared loss, steepest-descent residual fitting, regression
// trees as the functional approximators. Training parallelizes histogram
// accumulation, the split sweep (both over feature blocks) and the
// per-tree prediction update on a ThreadPool; the fitted (and serialized)
// model is identical at any thread count. Training internals are
// documented in docs/TRAINING.md.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "mart/tree.h"

namespace rpe {

class ThreadPool;

/// \brief Boosting parameters (paper defaults: M = 200, 30 leaves).
struct MartParams {
  int num_trees = 200;
  double learning_rate = 0.1;
  TreeParams tree;
  /// Fraction of examples sampled per boosting iteration (1.0 = none).
  double subsample = 1.0;
  /// Quantile-binning resolution; must be in [2, 255] (checked at binning
  /// time — bin ids live in uint8, see BinnedDataset).
  int max_bins = 255;
  uint64_t seed = 7;
  /// Worker pool for training; nullptr = the global pool. The trained
  /// model does not depend on the pool's thread count.
  ThreadPool* pool = nullptr;
};

/// \brief A trained boosted ensemble.
class MartModel {
 public:
  MartModel() = default;

  /// Train on `data` with squared loss.
  static MartModel Train(const Dataset& data, const MartParams& params = {});

  /// Reassemble a trained model from its parts (binary snapshot load path).
  /// The training curve is not persisted; the rebuilt model predicts and
  /// re-serializes identically to the original.
  static MartModel FromParts(double bias, double learning_rate,
                             std::vector<RegressionTree> trees,
                             std::vector<double> feature_gains);

  double Predict(std::span<const double> features) const;
  double Predict(const std::vector<double>& features) const {
    return Predict(std::span<const double>(features));
  }

  /// Mean squared error over a dataset.
  double MeanSquaredError(const Dataset& data) const;

  size_t num_trees() const { return trees_.size(); }
  double bias() const { return bias_; }
  double learning_rate() const { return learning_rate_; }
  /// Read-only tree access for ensemble compilation (FlatEnsembleSet).
  const std::vector<RegressionTree>& trees() const { return trees_; }
  /// Total split gain accumulated per feature during training.
  const std::vector<double>& feature_gains() const { return feature_gains_; }
  /// Training MSE after each boosting iteration.
  const std::vector<double>& training_curve() const { return training_curve_; }

  /// Text round-trip for persistence.
  std::string Serialize() const;
  static Result<MartModel> Deserialize(const std::string& text);

 private:
  double bias_ = 0.0;
  double learning_rate_ = 0.1;
  std::vector<RegressionTree> trees_;
  std::vector<double> feature_gains_;
  std::vector<double> training_curve_;
};

}  // namespace rpe
