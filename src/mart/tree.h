// Binary regression tree with best-first (leaf-wise) growth over binned
// features, fit to residuals with the MSE criterion — the weak learner
// inside MART (paper §4.2). Split search is histogram-based: one pass over
// a leaf's examples fills a HistogramSet (all features at once, streaming
// the column-major bin slabs), a per-feature sweep picks the best split,
// and each split derives the larger child's histograms by subtraction
// (parent − smaller child). A leaf with fewer examples than a feature has
// bins sweeps only its occupied bins when that histogram was built
// directly: an empty directly built bin adds exactly 0.0 and repeats the
// previous boundary's gain, which the strict `gain > best` never elects,
// so the split is bit-identical to the full sweep. Every sweep stops at
// the last boundary that leaves min_examples_per_leaf on the right
// (integer counts, so exact on subtracted slabs too). Histogram
// accumulation and the sweep parallelize over feature blocks on a
// ThreadPool with an ordered reduction, so the fitted tree is identical to
// the sequential result at any thread count. The full pipeline is
// documented in docs/TRAINING.md.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mart/dataset.h"

namespace rpe {

class ThreadPool;

/// Upper bound on TreeParams::max_leaves: the compiled scorer
/// (mart/flat_ensemble.h) keeps one 64-bit leaf bitvector per tree.
inline constexpr size_t kMaxTreeLeaves = 64;

/// \brief Tree-growth parameters.
struct TreeParams {
  int max_leaves = 30;        ///< paper: 30 leaf nodes; <= kMaxTreeLeaves
  int min_examples_per_leaf = 8;
  double min_gain = 1e-12;    ///< minimum variance reduction to split
  /// Test/benchmark escape hatch: build every leaf's histograms directly
  /// instead of deriving siblings by subtraction. The subtraction path
  /// canonicalizes the winning feature's statistics from a direct
  /// re-accumulation, so the threshold, gain and child sums of a chosen
  /// split are free of subtraction rounding. Which feature wins is not:
  /// when two features' gains lie within that rounding of each other
  /// (columns that split a leaf's rows the same way but bin differently
  /// overall), the subtracted sweep can elect a different feature than a
  /// direct one. On continuous fixtures the two modes fit
  /// identical trees (tests/mart_test.cpp); on real selector corpora they
  /// do not (docs/TRAINING.md §4), so the modes are not interchangeable:
  /// subtraction is what the serving layer trains with, and direct mode
  /// is only the tests' and benchmarks' no-subtraction baseline.
  bool force_direct_histograms = false;
};

/// \brief Best split of one leaf on one feature, as a sweep reports it.
struct SplitCandidate {
  bool valid = false;
  size_t feature = 0;
  size_t bin = 0;        ///< left gets bins <= bin
  double threshold = 0;  ///< raw value boundary
  double gain = 0.0;
  double left_sum = 0.0, right_sum = 0.0;
  size_t left_count = 0, right_count = 0;
};

/// Best split of feature f read off its histogram slab (`sum`/`cnt`, one
/// entry per bin) of a leaf with `n` examples summing to `total_sum`: the
/// cumulative left-to-right sweep over every bin boundary, stopping once
/// fewer than min_examples_per_leaf examples remain on the right. The
/// earliest bin wins gain ties. Valid for any slab, directly built or
/// derived by subtraction — the reference for SweepOccupiedBins.
SplitCandidate SweepFeature(const BinnedDataset& data, size_t f,
                            const double* sum, const uint32_t* cnt,
                            double total_sum, size_t n,
                            const TreeParams& params);

/// The same sweep visiting only the bins that the leaf's examples
/// (`indices`) occupy in feature f, found as a 256-bit mask in one pass
/// over the leaf. Bit-identical to SweepFeature when the slab was built
/// directly from `indices` (every empty bin holds exactly 0.0 and 0);
/// a subtracted slab may hold rounding residue in empty bins and must use
/// SweepFeature. Cheaper when the leaf has fewer examples than f has bins.
SplitCandidate SweepOccupiedBins(const BinnedDataset& data, size_t f,
                                 std::span<const uint32_t> indices,
                                 const double* sum, const uint32_t* cnt,
                                 double total_sum, const TreeParams& params);

/// Build every feature's histogram over the examples in `indices` into
/// `hist` (which must be sized for `data`, i.e. HistogramSet(data)): for
/// each feature f and bin b, the sum of `residuals[i]` and the count of
/// examples i in `indices` with bin(i, f) == b. One gather pass materializes
/// the leaf's residuals, then each feature streams its contiguous bin
/// column; when `indices` covers every example the gather and the index
/// indirection are skipped entirely (dense fast path). `indices` must be
/// strictly increasing. Accumulation parallelizes over feature blocks on
/// `pool` (nullptr = sequential); per-feature adds always run in index
/// order, so the result is bitwise identical at any thread count.
/// Exposed for tests and benchmarks; RegressionTree::Fit is the real user.
void BuildLeafHistograms(const BinnedDataset& data,
                         const std::vector<double>& residuals,
                         std::span<const uint32_t> indices,
                         HistogramSet* hist, ThreadPool* pool = nullptr);

/// One feature's histogram over a dense leaf: for i in [0, n) ascending,
/// sum[col[i]] += res[i] and cnt[col[i]] += 1. The inner kernel of the
/// dense BuildLeafHistograms/Fit paths, dispatched through common/simd.h:
/// the AVX2 variant detects uniform 32-byte runs in the bin column
/// (constant and near-sorted columns — binned monotone features — are
/// long runs) and keeps that bin's accumulator in a register across the
/// run; mixed chunks fall back to the scalar loop. Every per-bin add
/// still happens in ascending-i order, so the result is bit-identical to
/// the scalar reference on every input (tests/simd_test.cpp). Exposed for
/// the differential tests and benchmarks.
void AccumulateColumnDense(const uint8_t* col, const double* res, size_t n,
                           double* sum, uint32_t* cnt);

/// The always-compiled scalar reference for AccumulateColumnDense.
void AccumulateColumnDenseScalar(const uint8_t* col, const double* res,
                                 size_t n, double* sum, uint32_t* cnt);

/// \brief A fitted regression tree; predicts from raw feature vectors.
class RegressionTree {
 public:
  /// \brief One tree node; exposed read-only so FlatEnsembleSet can
  /// compile the ensemble into its scoring tables.
  struct Node {
    int feature = -1;      ///< -1 for leaves
    double threshold = 0;  ///< go left iff x[feature] <= threshold
    int left = -1;
    int right = -1;
    double value = 0.0;    ///< leaf prediction
  };

  /// Fit to `residuals` (one per example of `data`). Optionally restrict to
  /// `example_indices` (stochastic boosting subsample); empty = all.
  /// Accumulates per-feature split gains into `feature_gains` if non-null.
  /// Histogram accumulation and split search parallelize across feature
  /// blocks on `pool` (nullptr = the global pool); results are independent
  /// of the thread count.
  static RegressionTree Fit(const BinnedDataset& data,
                            const std::vector<double>& residuals,
                            const std::vector<uint32_t>& example_indices,
                            const TreeParams& params,
                            std::vector<double>* feature_gains,
                            ThreadPool* pool = nullptr);

  /// Reassemble a tree from its node array (binary snapshot load path).
  /// `nodes[0]` must be the root; child indices must be in range.
  static Result<RegressionTree> FromNodes(std::vector<Node> nodes);

  double Predict(std::span<const double> features) const;
  double Predict(const std::vector<double>& features) const {
    return Predict(std::span<const double>(features));
  }

  size_t num_nodes() const { return nodes_.size(); }
  size_t num_leaves() const;
  const std::vector<Node>& nodes() const { return nodes_; }

  /// Compact text form (one node per line) for model persistence.
  std::string Serialize() const;
  static Result<RegressionTree> Deserialize(const std::string& text);

 private:
  std::vector<Node> nodes_;  // nodes_[0] is the root
};

}  // namespace rpe
