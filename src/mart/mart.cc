#include "mart/mart.h"

#include <cmath>
#include <sstream>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace rpe {

namespace {
/// Below this many example×tree steps the pool hand-off costs more than
/// the prediction-update loop it parallelizes.
constexpr size_t kMinParallelPredict = 1 << 13;
}  // namespace

MartModel MartModel::Train(const Dataset& data, const MartParams& params) {
  RPE_CHECK_LE(params.tree.max_leaves, static_cast<int>(kMaxTreeLeaves))
      << "max_leaves beyond the compiled scorer's leaf bitvector";
  MartModel model;
  model.learning_rate_ = params.learning_rate;
  model.feature_gains_.assign(data.num_features(), 0.0);
  const size_t n = data.num_examples();
  if (n == 0) return model;
  ThreadPool* pool =
      params.pool != nullptr ? params.pool : &ThreadPool::Global();

  // F_0: the mean target.
  double mean = 0.0;
  for (size_t i = 0; i < n; ++i) mean += data.target(i);
  mean /= static_cast<double>(n);
  model.bias_ = mean;

  const BinnedDataset binned(data, params.max_bins);
  std::vector<double> predictions(n, mean);
  std::vector<double> residuals(n, 0.0);
  Rng rng(params.seed);

  for (int m = 0; m < params.num_trees; ++m) {
    // Squared loss: the negative gradient is the plain residual.
    double mse = 0.0;
    for (size_t i = 0; i < n; ++i) {
      residuals[i] = data.target(i) - predictions[i];
      mse += residuals[i] * residuals[i];
    }
    model.training_curve_.push_back(mse / static_cast<double>(n));

    std::vector<uint32_t> sample;
    if (params.subsample < 1.0) {
      sample.reserve(static_cast<size_t>(
          static_cast<double>(n) * params.subsample) + 1);
      for (size_t i = 0; i < n; ++i) {
        if (rng.NextBool(params.subsample)) {
          sample.push_back(static_cast<uint32_t>(i));
        }
      }
      if (sample.empty()) sample.push_back(0);
    }

    RegressionTree tree = RegressionTree::Fit(
        binned, residuals, sample, params.tree, &model.feature_gains_, pool);
    // Each index writes only predictions[i], so the parallel update is
    // bitwise identical to the sequential loop.
    const auto update = [&](size_t i) {
      predictions[i] +=
          params.learning_rate * tree.Predict(data.ExampleSpan(i));
    };
    if (pool->num_threads() > 1 && n >= kMinParallelPredict) {
      pool->ParallelFor(n, update);
    } else {
      for (size_t i = 0; i < n; ++i) update(i);
    }
    model.trees_.push_back(std::move(tree));
  }
  return model;
}

double MartModel::Predict(std::span<const double> features) const {
  double f = bias_;
  for (const auto& tree : trees_) {
    f += learning_rate_ * tree.Predict(features);
  }
  return f;
}

double MartModel::MeanSquaredError(const Dataset& data) const {
  if (data.num_examples() == 0) return 0.0;
  double mse = 0.0;
  for (size_t i = 0; i < data.num_examples(); ++i) {
    const double d = Predict(data.ExampleSpan(i)) - data.target(i);
    mse += d * d;
  }
  return mse / static_cast<double>(data.num_examples());
}

MartModel MartModel::FromParts(double bias, double learning_rate,
                               std::vector<RegressionTree> trees,
                               std::vector<double> feature_gains) {
  MartModel model;
  model.bias_ = bias;
  model.learning_rate_ = learning_rate;
  model.trees_ = std::move(trees);
  model.feature_gains_ = std::move(feature_gains);
  return model;
}

std::string MartModel::Serialize() const {
  std::ostringstream out;
  out.precision(17);
  out << "MART " << bias_ << " " << learning_rate_ << " " << trees_.size()
      << " " << feature_gains_.size() << "\n";
  for (double g : feature_gains_) out << g << " ";
  out << "\n";
  for (const auto& tree : trees_) out << tree.Serialize();
  return out.str();
}

Result<MartModel> MartModel::Deserialize(const std::string& text) {
  std::istringstream in(text);
  std::string magic;
  MartModel model;
  size_t num_trees = 0, num_features = 0;
  if (!(in >> magic >> model.bias_ >> model.learning_rate_ >> num_trees >>
        num_features) ||
      magic != "MART") {
    return Status::InvalidArgument("bad MART header");
  }
  model.feature_gains_.resize(num_features);
  for (size_t i = 0; i < num_features; ++i) {
    if (!(in >> model.feature_gains_[i])) {
      return Status::InvalidArgument("bad MART gains");
    }
  }
  // Re-serialize remaining stream per tree: trees are line-structured, so
  // hand the rest of the stream to each tree in turn.
  for (size_t t = 0; t < num_trees; ++t) {
    size_t count = 0;
    if (!(in >> count)) return Status::InvalidArgument("bad tree count");
    std::ostringstream tree_text;
    tree_text.precision(17);
    tree_text << count << "\n";
    for (size_t i = 0; i < count; ++i) {
      int feature, left, right;
      double threshold, value;
      if (!(in >> feature >> threshold >> left >> right >> value)) {
        return Status::InvalidArgument("bad tree body");
      }
      tree_text << feature << " " << threshold << " " << left << " " << right
                << " " << value << "\n";
    }
    RPE_ASSIGN_OR_RETURN(RegressionTree tree,
                         RegressionTree::Deserialize(tree_text.str()));
    model.trees_.push_back(std::move(tree));
  }
  return model;
}

}  // namespace rpe
