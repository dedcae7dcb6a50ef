// MART learner tests: binning (column-major layout), one-pass leaf
// histograms and the subtraction trick, the split sweeps, tree fitting,
// boosting convergence, serialization, feature importance and the linear
// baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>

#include "common/logging.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "mart/linear.h"
#include "mart/mart.h"

namespace rpe {
namespace {

Dataset MakeDataset(size_t n, uint64_t seed,
                    double (*f)(const std::vector<double>&)) {
  Dataset data(4);
  Rng rng(seed);
  std::vector<double> x(4);
  for (size_t i = 0; i < n; ++i) {
    for (auto& v : x) v = rng.NextDouble();
    RPE_CHECK_OK(data.AddExample(x, f(x)));
  }
  return data;
}

double StepTarget(const std::vector<double>& x) {
  return (x[0] > 0.5 ? 1.0 : 0.0) + (x[1] > 0.3 ? 0.5 : 0.0);
}

double LinearTarget(const std::vector<double>& x) {
  return 2.0 * x[0] - 1.0 * x[1] + 0.25;
}

double NonlinearTarget(const std::vector<double>& x) {
  return x[0] * x[1] + (x[2] > 0.7 ? 0.8 : 0.1);
}

// --- Dataset / binning ---------------------------------------------------

TEST(DatasetTest, AddAndAccess) {
  Dataset data(2);
  ASSERT_TRUE(data.AddExample({1.0, 2.0}, 3.0).ok());
  ASSERT_TRUE(data.AddExample({4.0, 5.0}, 6.0).ok());
  EXPECT_EQ(data.num_examples(), 2u);
  EXPECT_DOUBLE_EQ(data.feature(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(data.target(1), 6.0);
  EXPECT_EQ(data.ExampleFeatures(0), (std::vector<double>{1.0, 2.0}));
  EXPECT_FALSE(data.AddExample({1.0}, 0.0).ok());  // arity mismatch
}

TEST(BinnedDatasetTest, FewDistinctValuesGetOwnBins) {
  Dataset data(1);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(data.AddExample({static_cast<double>(i % 3)}, 0.0).ok());
  }
  BinnedDataset binned(data, 255);
  EXPECT_EQ(binned.num_bins(0), 3u);
  // Values 0,1,2 -> bins 0,1,2.
  EXPECT_EQ(binned.bin(0, 0), 0);
  EXPECT_EQ(binned.bin(1, 0), 1);
  EXPECT_EQ(binned.bin(2, 0), 2);
}

TEST(BinnedDatasetTest, BinOrderRespectsValues) {
  Dataset data(1);
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(data.AddExample({rng.NextDouble()}, 0.0).ok());
  }
  BinnedDataset binned(data, 64);
  EXPECT_LE(binned.num_bins(0), 64u);
  for (size_t i = 0; i + 1 < 500; ++i) {
    const double a = data.feature(i, 0), b = data.feature(i + 1, 0);
    if (a < b) {
      EXPECT_LE(binned.bin(i, 0), binned.bin(i + 1, 0));
    }
  }
}

TEST(BinnedDatasetTest, ColumnMajorMatchesRowMajorReference) {
  Dataset data = MakeDataset(800, 41, NonlinearTarget);
  BinnedDataset binned(data, 32);
  const size_t nf = data.num_features();
  const std::vector<uint8_t> rows = binned.RowMajorBins();
  ASSERT_EQ(rows.size(), data.num_examples() * nf);
  for (size_t f = 0; f < nf; ++f) {
    const auto col = binned.feature_bins(f);
    ASSERT_EQ(col.size(), data.num_examples());
    for (size_t i = 0; i < data.num_examples(); ++i) {
      ASSERT_EQ(binned.bin(i, f), rows[i * nf + f]);
      ASSERT_EQ(col[i], rows[i * nf + f]);
    }
  }
  // Histogram slab geometry is the exact prefix sum of per-feature bins.
  size_t expected_off = 0;
  for (size_t f = 0; f < nf; ++f) {
    EXPECT_EQ(binned.hist_offset(f), expected_off);
    expected_off += binned.num_bins(f);
  }
  EXPECT_EQ(binned.total_bins(), expected_off);
}

TEST(BinnedDatasetTest, RejectsMoreThan255Bins) {
  Dataset data(1);
  ASSERT_TRUE(data.AddExample({1.0}, 0.0).ok());
  ASSERT_TRUE(data.AddExample({2.0}, 0.0).ok());
  EXPECT_DEATH(BinnedDataset(data, 256), "max_bins");
}

// --- Leaf histograms -------------------------------------------------------

TEST(HistogramSetTest, OnePassMatchesPerFeatureReference) {
  Dataset data = MakeDataset(1200, 43, NonlinearTarget);
  BinnedDataset binned(data, 64);
  std::vector<double> residuals(data.num_examples());
  Rng rng(44);
  for (auto& r : residuals) r = rng.NextGaussian();
  // A sparse leaf: every third example (strictly increasing).
  std::vector<uint32_t> indices;
  for (uint32_t i = 0; i < data.num_examples(); i += 3) indices.push_back(i);

  HistogramSet hist(binned);
  BuildLeafHistograms(binned, residuals, indices, &hist, nullptr);

  for (size_t f = 0; f < binned.num_features(); ++f) {
    std::vector<double> ref_sum(binned.num_bins(f), 0.0);
    std::vector<uint32_t> ref_cnt(binned.num_bins(f), 0);
    for (uint32_t idx : indices) {
      const uint8_t b = binned.bin(idx, f);
      ref_sum[b] += residuals[idx];
      ref_cnt[b] += 1;
    }
    const size_t off = binned.hist_offset(f);
    for (size_t b = 0; b < binned.num_bins(f); ++b) {
      ASSERT_EQ(hist.sums()[off + b], ref_sum[b]) << "f=" << f << " b=" << b;
      ASSERT_EQ(hist.counts()[off + b], ref_cnt[b]);
    }
  }
}

TEST(HistogramSetTest, BuildIsThreadCountInvariant) {
  Dataset data = MakeDataset(3000, 45, StepTarget);
  BinnedDataset binned(data);
  std::vector<double> residuals(data.num_examples());
  Rng rng(46);
  for (auto& r : residuals) r = rng.NextGaussian();
  std::vector<uint32_t> all(data.num_examples());
  std::iota(all.begin(), all.end(), 0u);

  HistogramSet sequential(binned), parallel(binned);
  BuildLeafHistograms(binned, residuals, all, &sequential, nullptr);
  ThreadPool pool(8);
  BuildLeafHistograms(binned, residuals, all, &parallel, &pool);
  for (size_t i = 0; i < sequential.size(); ++i) {
    ASSERT_EQ(sequential.sums()[i], parallel.sums()[i]);
    ASSERT_EQ(sequential.counts()[i], parallel.counts()[i]);
  }
}

TEST(HistogramSetTest, SubtractionCountsAreExact) {
  Dataset data = MakeDataset(2000, 47, NonlinearTarget);
  BinnedDataset binned(data, 128);
  std::vector<double> residuals(data.num_examples());
  Rng rng(48);
  for (auto& r : residuals) r = rng.NextGaussian();
  std::vector<uint32_t> parent(data.num_examples());
  std::iota(parent.begin(), parent.end(), 0u);
  std::vector<uint32_t> child, sibling;
  for (uint32_t i : parent) (i % 5 == 0 ? child : sibling).push_back(i);

  HistogramSet parent_hist(binned), child_hist(binned), direct(binned);
  BuildLeafHistograms(binned, residuals, parent, &parent_hist, nullptr);
  BuildLeafHistograms(binned, residuals, child, &child_hist, nullptr);
  BuildLeafHistograms(binned, residuals, sibling, &direct, nullptr);

  parent_hist.SubtractChild(child_hist);  // parent_hist is now the sibling
  double max_rel_err = 0.0;
  for (size_t i = 0; i < direct.size(); ++i) {
    // Counts are integer arithmetic: exactly equal to direct accumulation.
    ASSERT_EQ(parent_hist.counts()[i], direct.counts()[i]);
    // Sums differ from direct accumulation only by FP rounding.
    const double scale = std::max(1.0, std::abs(direct.sums()[i]));
    max_rel_err = std::max(
        max_rel_err,
        std::abs(parent_hist.sums()[i] - direct.sums()[i]) / scale);
  }
  EXPECT_LT(max_rel_err, 1e-9);
}

// The guarantee that matters for model bytes: the subtraction trick and
// plain direct accumulation fit byte-identical trees, because split search
// canonicalizes the winning feature from a direct re-accumulation before
// anything enters the tree.
TEST(TreeTest, SubtractionAndDirectHistogramsFitIdenticalModels) {
  Dataset data = MakeDataset(2500, 49, NonlinearTarget);
  MartParams params;
  params.num_trees = 25;
  params.subsample = 0.8;
  params.seed = 5;
  params.tree.force_direct_histograms = false;
  const std::string with_subtraction =
      MartModel::Train(data, params).Serialize();
  params.tree.force_direct_histograms = true;
  const std::string direct = MartModel::Train(data, params).Serialize();
  EXPECT_EQ(with_subtraction, direct);
}

// Pins the exact model a subtraction-mode fit produces. Columns 2 and 3
// equal column 1 on one `kind` each but bin differently overall, so once
// the tree splits on kind their gains can tie up to the rounding of slabs
// derived by subtraction two levels deep, in leaves with fewer rows than
// bins. Which of them is elected therefore depends on every ulp of those
// slabs, empty bins included; a sweep that skipped a subtracted slab's
// empty bins (and the rounding residue they hold) changes this hash.
// Split-search optimizations must keep models byte-identical: update the
// constant only in a change meant to change models.
TEST(TreeTest, TiedSubtractedSplitsMatchPinnedModel) {
#if defined(__FMA__) || defined(__ARM_FEATURE_FMA)
  GTEST_SKIP() << "fused multiply-add contraction changes model bits";
#endif
  Dataset data(8);
  Rng rng(17);
  std::vector<double> x(8);
  for (size_t i = 0; i < 1000; ++i) {
    const double kind = static_cast<double>(rng.NextUInt(2));
    const double card = rng.NextDouble();
    x[0] = kind;
    x[1] = card;
    x[2] = kind == 1.0 ? card : 2.0 + card;
    x[3] = kind == 0.0 ? card : 2.0 + card;
    x[4] = std::floor(rng.NextDouble() * 6.0);
    x[5] = std::floor(card * 10.0);
    x[6] = kind == 1.0 ? std::floor(card * 40.0) : 0.0;
    x[7] = std::floor(rng.NextDouble() * 3.0);
    const double y =
        std::floor((kind * 0.6 + card + 0.3 * rng.NextDouble()) * 64.0) / 64.0;
    RPE_CHECK_OK(data.AddExample(x, y));
  }
  MartParams params;
  params.num_trees = 10;
  const MartModel model = MartModel::Train(data, params);

  uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a over every node's bits
  const auto mix = [&hash](uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash = (hash ^ ((v >> (8 * byte)) & 0xFF)) * 0x100000001b3ull;
    }
  };
  for (const RegressionTree& tree : model.trees()) {
    for (const RegressionTree::Node& node : tree.nodes()) {
      mix(static_cast<uint64_t>(node.feature));
      mix(static_cast<uint64_t>(node.left));
      mix(static_cast<uint64_t>(node.right));
      mix(std::bit_cast<uint64_t>(node.threshold));
      mix(std::bit_cast<uint64_t>(node.value));
    }
  }
  EXPECT_EQ(hash, 0xa8e31fc5b64da364ull) << std::hex << hash;
}

// --- Split sweeps ---------------------------------------------------------

// The sweep as first written: every boundary, no early stop. An
// independent oracle for both the early stop and the occupied-bin sweep.
SplitCandidate NaiveSweep(const BinnedDataset& data, size_t f,
                          const double* sum, const uint32_t* cnt,
                          double total_sum, size_t n,
                          const TreeParams& params) {
  SplitCandidate best;
  const size_t nbins = data.num_bins(f);
  if (nbins < 2) return best;
  const size_t min_leaf = static_cast<size_t>(params.min_examples_per_leaf);
  const double parent_score = total_sum * total_sum / static_cast<double>(n);
  double left_sum = 0.0;
  size_t left_cnt = 0;
  for (size_t b = 0; b + 1 < nbins; ++b) {
    left_sum += sum[b];
    left_cnt += cnt[b];
    const size_t right_cnt = n - left_cnt;
    if (left_cnt < min_leaf || right_cnt < min_leaf) continue;
    const double right_sum = total_sum - left_sum;
    const double gain = left_sum * left_sum / static_cast<double>(left_cnt) +
                        right_sum * right_sum / static_cast<double>(right_cnt) -
                        parent_score;
    if (gain > best.gain && gain > params.min_gain) {
      best = {true,     f,         b,        data.bin_upper(f, b), gain,
              left_sum, right_sum, left_cnt, right_cnt};
    }
  }
  return best;
}

::testing::AssertionResult BitwiseEqual(const SplitCandidate& a,
                                        const SplitCandidate& b) {
  const auto bits = [](double d) { return std::bit_cast<uint64_t>(d); };
  if (a.valid == b.valid && a.feature == b.feature && a.bin == b.bin &&
      bits(a.threshold) == bits(b.threshold) && bits(a.gain) == bits(b.gain) &&
      bits(a.left_sum) == bits(b.left_sum) &&
      bits(a.right_sum) == bits(b.right_sum) &&
      a.left_count == b.left_count && a.right_count == b.right_count) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "valid " << a.valid << "/" << b.valid << " feature " << a.feature
         << "/" << b.feature << " bin " << a.bin << "/" << b.bin << " gain "
         << a.gain << "/" << b.gain << " counts " << a.left_count << "+"
         << a.right_count << "/" << b.left_count << "+" << b.right_count;
}

// Small leaves over a dataset whose bin ids are known by construction:
// feature 0 puts row i in bin i % 255 (255 bins, three rows per bin),
// feature 1 is discrete (7 bins), feature 2 permutes 200 bins.
class SweepTest : public ::testing::Test {
 protected:
  static constexpr size_t kRows = 3 * 255;

  SweepTest() : data_(3), residuals_(kRows, 0.0) {
    for (size_t i = 0; i < kRows; ++i) {
      RPE_CHECK_OK(data_.AddExample({static_cast<double>(i % 255),
                                     static_cast<double>(i % 7),
                                     static_cast<double>(i * 37 % 200)},
                                    0.0));
    }
    binned_ = std::make_unique<BinnedDataset>(data_);
    RPE_CHECK_EQ(binned_->num_bins(0), 255u);
  }

  /// Rows of a leaf whose feature-0 bins are `bins` (each bin at most
  /// three times), in the strictly increasing order Fit keeps.
  static std::vector<uint32_t> RowsInBins(const std::vector<size_t>& bins) {
    std::vector<uint32_t> rows;
    for (size_t b : bins) {
      size_t k = 0;
      while (std::find(rows.begin(), rows.end(), b + 255 * k) != rows.end()) {
        ++k;
      }
      RPE_CHECK_LT(k, 3u);
      rows.push_back(static_cast<uint32_t>(b + 255 * k));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  /// Builds the leaf's histograms directly, runs both sweeps and the
  /// naive oracle on every feature, and requires all three bitwise equal.
  /// Returns feature 0's candidate for case-specific checks.
  SplitCandidate ExpectSweepsAgree(const std::vector<uint32_t>& rows,
                                   const TreeParams& params,
                                   const std::string& label) {
    HistogramSet hist(*binned_);
    BuildLeafHistograms(*binned_, residuals_, rows, &hist, nullptr);
    double total = 0.0;
    for (uint32_t r : rows) total += residuals_[r];
    SplitCandidate first;
    for (size_t f = 0; f < binned_->num_features(); ++f) {
      const double* sum = hist.sums().data() + binned_->hist_offset(f);
      const uint32_t* cnt = hist.counts().data() + binned_->hist_offset(f);
      const SplitCandidate full =
          SweepFeature(*binned_, f, sum, cnt, total, rows.size(), params);
      const SplitCandidate occupied =
          SweepOccupiedBins(*binned_, f, rows, sum, cnt, total, params);
      const SplitCandidate naive =
          NaiveSweep(*binned_, f, sum, cnt, total, rows.size(), params);
      EXPECT_TRUE(BitwiseEqual(occupied, full)) << label << " f=" << f;
      EXPECT_TRUE(BitwiseEqual(full, naive)) << label << " f=" << f;
      if (f == 0) first = full;
    }
    return first;
  }

  Dataset data_;
  std::unique_ptr<BinnedDataset> binned_;
  std::vector<double> residuals_;
};

TEST_F(SweepTest, OccupiedBinSweepMatchesFullSweepOnRandomSmallLeaves) {
  Rng rng(71);
  std::vector<uint32_t> all(kRows);
  std::iota(all.begin(), all.end(), 0u);
  for (int trial = 0; trial < 400; ++trial) {
    // Gaussian residuals, then three-valued ones that make gain ties
    // likely, then constant ones (no positive gain anywhere).
    for (auto& r : residuals_) {
      r = trial % 3 == 0   ? rng.NextGaussian()
          : trial % 3 == 1 ? static_cast<double>(rng.NextInt(-1, 1))
                           : 0.5;
    }
    rng.Shuffle(&all);
    const size_t n = static_cast<size_t>(rng.NextInt(1, 254));
    std::vector<uint32_t> rows(all.begin(), all.begin() + n);
    std::sort(rows.begin(), rows.end());
    TreeParams params;
    params.min_examples_per_leaf = std::array{1, 2, 3, 8}[trial % 4];
    ExpectSweepsAgree(rows, params, "trial " + std::to_string(trial));
  }
}

TEST_F(SweepTest, LastBinOccupied) {
  TreeParams params;
  params.min_examples_per_leaf = 1;
  const auto rows = RowsInBins({0, 254});
  residuals_[rows[1]] = 1.0;
  const SplitCandidate best = ExpectSweepsAgree(rows, params, "{0,254}");
  ASSERT_TRUE(best.valid);
  EXPECT_EQ(best.bin, 0u);
  // Bins 253 and 254 both occupied: 253 is the last legal boundary.
  const auto tail = RowsInBins({100, 253, 254, 254});
  residuals_[tail[1]] = -2.0;
  residuals_[tail[3]] = 3.0;
  for (int min_leaf : {1, 2}) {
    params.min_examples_per_leaf = min_leaf;
    ExpectSweepsAgree(tail, params, "tail min " + std::to_string(min_leaf));
  }
}

TEST_F(SweepTest, SingleOccupiedBinHasNoSplit) {
  TreeParams params;
  params.min_examples_per_leaf = 1;
  for (size_t bin : {0u, 77u, 254u}) {
    const auto rows = RowsInBins({bin, bin, bin});
    residuals_[rows[0]] = 4.0;
    EXPECT_FALSE(ExpectSweepsAgree(rows, params, "bin " + std::to_string(bin))
                     .valid);
  }
}

TEST_F(SweepTest, CountsExactlyAtMinimum) {
  TreeParams params;
  params.min_examples_per_leaf = 4;
  const auto rows = RowsInBins({10, 10, 11, 12, 20, 20, 21, 22});
  for (size_t k = 0; k < rows.size(); ++k) residuals_[rows[k]] = k < 4 ? 1 : 3;
  // The only legal boundary leaves exactly four examples on each side.
  const SplitCandidate best = ExpectSweepsAgree(rows, params, "min 4");
  ASSERT_TRUE(best.valid);
  EXPECT_EQ(best.bin, 12u);
  EXPECT_EQ(best.left_count, 4u);
  EXPECT_EQ(best.right_count, 4u);
  // One more required example per side and no boundary qualifies.
  params.min_examples_per_leaf = 5;
  EXPECT_FALSE(ExpectSweepsAgree(rows, params, "min 5").valid);
}

TEST_F(SweepTest, TiedGainsKeepTheEarliestOccupiedBin) {
  TreeParams params;
  params.min_examples_per_leaf = 1;
  const auto rows = RowsInBins({30, 60, 90, 120});
  // Residuals 1, 0, 0, 1: the boundaries after bins 30 and 90 score
  // 1/1 + 1/3 and 1/3 + 1/1, an exact tie.
  residuals_[rows[0]] = 1.0;
  residuals_[rows[3]] = 1.0;
  const SplitCandidate best = ExpectSweepsAgree(rows, params, "tie");
  ASSERT_TRUE(best.valid);
  EXPECT_EQ(best.bin, 30u);
  EXPECT_EQ(best.left_count, 1u);
}

// --- Regression tree -----------------------------------------------------

TEST(TreeTest, FitsStepFunction) {
  Dataset data = MakeDataset(2000, 21, StepTarget);
  BinnedDataset binned(data);
  std::vector<double> residuals(data.num_examples());
  for (size_t i = 0; i < data.num_examples(); ++i) {
    residuals[i] = data.target(i);
  }
  TreeParams params;
  params.max_leaves = 8;
  RegressionTree tree =
      RegressionTree::Fit(binned, residuals, {}, params, nullptr);
  EXPECT_LE(tree.num_leaves(), 8u);
  EXPECT_GE(tree.num_leaves(), 3u);
  // A step function in two features is learnable nearly exactly.
  double mse = 0.0;
  for (size_t i = 0; i < data.num_examples(); ++i) {
    const double d = tree.Predict(data.ExampleFeatures(i)) - data.target(i);
    mse += d * d;
  }
  mse /= static_cast<double>(data.num_examples());
  EXPECT_LT(mse, 0.01);
}

TEST(TreeTest, RespectsMinLeafSize) {
  Dataset data = MakeDataset(100, 22, StepTarget);
  BinnedDataset binned(data);
  std::vector<double> residuals(data.num_examples(), 1.0);
  TreeParams params;
  params.max_leaves = 64;
  params.min_examples_per_leaf = 50;
  RegressionTree tree =
      RegressionTree::Fit(binned, residuals, {}, params, nullptr);
  // 100 examples with min 50 per leaf allows at most one split.
  EXPECT_LE(tree.num_leaves(), 2u);
}

TEST(TreeTest, ConstantTargetYieldsSingleLeaf) {
  Dataset data = MakeDataset(500, 23, [](const std::vector<double>&) {
    return 7.0;
  });
  BinnedDataset binned(data);
  std::vector<double> residuals(data.num_examples(), 7.0);
  TreeParams params;
  RegressionTree tree =
      RegressionTree::Fit(binned, residuals, {}, params, nullptr);
  EXPECT_EQ(tree.num_leaves(), 1u);
  EXPECT_NEAR(tree.Predict({0.1, 0.2, 0.3, 0.4}), 7.0, 1e-9);
}

// --- MART ------------------------------------------------------------------

TEST(MartTest, TrainingLossDecreases) {
  Dataset data = MakeDataset(3000, 25, NonlinearTarget);
  MartParams params;
  params.num_trees = 40;
  MartModel model = MartModel::Train(data, params);
  const auto& curve = model.training_curve();
  ASSERT_EQ(curve.size(), 40u);
  EXPECT_LT(curve.back(), curve.front() * 0.3);
}

TEST(MartTest, BeatsMeanPredictor) {
  Dataset data = MakeDataset(3000, 26, StepTarget);
  MartModel model = MartModel::Train(data, {});
  double mean = 0.0;
  for (size_t i = 0; i < data.num_examples(); ++i) mean += data.target(i);
  mean /= static_cast<double>(data.num_examples());
  double mean_mse = 0.0;
  for (size_t i = 0; i < data.num_examples(); ++i) {
    mean_mse += (data.target(i) - mean) * (data.target(i) - mean);
  }
  mean_mse /= static_cast<double>(data.num_examples());
  EXPECT_LT(model.MeanSquaredError(data), mean_mse * 0.05);
}

TEST(MartTest, GeneralizesToFreshSample) {
  Dataset train = MakeDataset(4000, 27, NonlinearTarget);
  Dataset test = MakeDataset(1000, 28, NonlinearTarget);
  MartParams params;
  params.num_trees = 100;
  MartModel model = MartModel::Train(train, params);
  EXPECT_LT(model.MeanSquaredError(test), 0.01);
}

TEST(MartTest, SubsamplingStillLearns) {
  Dataset data = MakeDataset(4000, 29, StepTarget);
  MartParams params;
  params.num_trees = 80;
  params.subsample = 0.5;
  MartModel model = MartModel::Train(data, params);
  EXPECT_LT(model.MeanSquaredError(data), 0.02);
}

TEST(MartTest, FeatureImportanceIdentifiesSignal) {
  // Target depends only on features 0 and 1; 2 and 3 are noise.
  Dataset data = MakeDataset(4000, 30, StepTarget);
  MartParams params;
  params.num_trees = 50;
  MartModel model = MartModel::Train(data, params);
  const auto& gains = model.feature_gains();
  ASSERT_EQ(gains.size(), 4u);
  EXPECT_GT(gains[0], gains[2] * 10);
  EXPECT_GT(gains[1], gains[3] * 10);
}

TEST(MartTest, EmptyDatasetProducesConstantZero) {
  Dataset data(3);
  MartModel model = MartModel::Train(data, {});
  EXPECT_DOUBLE_EQ(model.Predict({1.0, 2.0, 3.0}), 0.0);
}

// --- Linear baseline -------------------------------------------------------

TEST(LinearTest, RecoversLinearTarget) {
  Dataset data = MakeDataset(2000, 32, LinearTarget);
  LinearModel model = LinearModel::Train(data);
  EXPECT_LT(model.MeanSquaredError(data), 1e-6);
}

TEST(LinearTest, UnderfitsNonlinearTargetVsMart) {
  Dataset data = MakeDataset(3000, 33, StepTarget);
  LinearModel linear = LinearModel::Train(data);
  MartParams params;
  params.num_trees = 60;
  MartModel mart = MartModel::Train(data, params);
  // The §4.2 claim: trees handle the non-linear dependence, linear can't.
  EXPECT_LT(mart.MeanSquaredError(data),
            linear.MeanSquaredError(data) * 0.5);
}

}  // namespace
}  // namespace rpe
