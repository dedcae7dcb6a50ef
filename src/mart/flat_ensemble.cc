#include "mart/flat_ensemble.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/simd.h"

#if defined(__x86_64__)
#define RPE_BATCH_AVX2 1
#include <immintrin.h>
#endif

namespace rpe {
namespace flat_internal {

namespace {

/// One split node during QuickScorer table construction.
struct QsRawEntry {
  int32_t feature;
  double threshold;
  int32_t tree;
  uint64_t mask;
};

/// Leaf bookkeeping for one tree during QuickScorer table construction:
/// DFS left-first so leaf j is the j-th leaf in left-to-right order, and
/// each interior node's left subtree covers a contiguous leaf range.
struct QsTreeBuilder {
  const std::vector<RegressionTree::Node>* nodes;
  std::vector<QsRawEntry>* entries;
  std::vector<double>* leaf_value;
  int32_t tree_id;
  int32_t next_leaf = 0;

  /// Returns the leaf range [first, last) of the subtree at old_idx.
  std::pair<int32_t, int32_t> Walk(int old_idx, double learning_rate) {
    const RegressionTree::Node& n = (*nodes)[static_cast<size_t>(old_idx)];
    if (n.feature < 0) {
      leaf_value->push_back(learning_rate * n.value);
      const int32_t j = next_leaf++;
      return {j, j + 1};
    }
    const auto left = Walk(n.left, learning_rate);
    const auto right = Walk(n.right, learning_rate);
    // A false node (x > threshold) abandons its left subtree: the mask
    // clears that contiguous leaf range.
    const int32_t width = left.second - left.first;
    const uint64_t left_bits =
        (width >= 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1)
        << left.first;
    entries->push_back({n.feature, n.threshold, tree_id, ~left_bits});
    return {left.first, right.second};
  }
};

/// Sort raw entries into (feature, ascending threshold) order and fill
/// the parallel feat_begin/threshold/entry_tree/entry_mask tables — the
/// tail of FlatEnsembleSet::Compile.
void FillEntryTables(std::vector<QsRawEntry>* entries,
                     MergedQuickScorer* out) {
  // Threshold ties need no particular order: x > threshold fires all or
  // none, and mask ANDs commute.
  std::stable_sort(entries->begin(), entries->end(),
                   [](const QsRawEntry& a, const QsRawEntry& b) {
                     return a.feature != b.feature
                                ? a.feature < b.feature
                                : a.threshold < b.threshold;
                   });
  out->feat_begin.vec().assign(static_cast<size_t>(out->num_features) + 1, 0);
  out->threshold.vec().reserve(entries->size());
  out->entry_tree.vec().reserve(entries->size());
  out->entry_mask.vec().reserve(entries->size());
  for (const QsRawEntry& entry : *entries) {
    out->feat_begin.vec()[static_cast<size_t>(entry.feature) + 1]++;
    out->threshold.vec().push_back(entry.threshold);
    out->entry_tree.vec().push_back(entry.tree);
    out->entry_mask.vec().push_back(entry.mask);
  }
  for (size_t f = 1; f < out->feat_begin.size(); ++f) {
    out->feat_begin.vec()[f] += out->feat_begin[f - 1];
  }
}

}  // namespace

void MergedQuickScorer::ScoreAll(const double* __restrict x,
                                 std::vector<uint64_t>* bits_scratch,
                                 std::span<double> out) const {
  std::vector<uint64_t>& bits = *bits_scratch;
  bits.assign(init_mask.begin(), init_mask.end());
  const double* __restrict thr = threshold.data();
  const int32_t* __restrict tr = entry_tree.data();
  const uint64_t* __restrict mk = entry_mask.data();
  // The shared feature loop: x[f] is loaded and NaN-tested once for every
  // model of the set; the merged ascending-threshold list preserves each
  // model's early exit (a model's entries past its own cut simply never
  // satisfy xf > thr).
  for (int32_t f = 0; f < num_features; ++f) {
    const size_t end = feat_begin[static_cast<size_t>(f) + 1];
    size_t k = feat_begin[static_cast<size_t>(f)];
    const double xf = x[f];
    if (std::isnan(xf)) {
      // The tree walk sends NaN right at every node (x <= t is false),
      // so every node of this feature is a false node — in every model.
      for (; k < end; ++k) bits[static_cast<size_t>(tr[k])] &= mk[k];
      continue;
    }
    for (; k < end && xf > thr[k]; ++k) {
      bits[static_cast<size_t>(tr[k])] &= mk[k];
    }
  }
  const int32_t* __restrict lb = leaf_base.data();
  const double* __restrict lv = leaf_value.data();
  for (size_t m = 0; m + 1 < model_tree_begin.size(); ++m) {
    double f = bias[m];
    for (int32_t t = model_tree_begin[m]; t < model_tree_begin[m + 1]; ++t) {
      f += lv[lb[t] +
              std::countr_zero(bits[static_cast<size_t>(t)])];
    }
    out[m] = f;
  }
}

namespace {

/// Scalar reference for the batch path: ScoreAll row by row. The vector
/// kernel must match this bit-for-bit on every input.
void BatchScoreScalar(const MergedQuickScorer& qs,
                      std::span<const double* const> rows,
                      MergedQuickScorer::BatchScratch* scratch,
                      std::span<double> out) {
  const size_t stride = qs.bias.size();
  for (size_t r = 0; r < rows.size(); ++r) {
    qs.ScoreAll(rows[r], &scratch->row_bits,
                out.subspan(r * stride, stride));
  }
}

#ifdef RPE_BATCH_AVX2

/// One full tile of kBatchRows rows, all lanes at once: the feature tile
/// is transposed into SoA form, each tree's leaf bitvector is replicated
/// per lane (bits[t * kBatchRows + lane]), and the entry scan runs the
/// threshold compare and mask AND across all lanes per entry. Per lane
/// exactly the entries with x[f] > thr fire — NaN lanes are handled by
/// the scalar rule (every entry of the feature fires) and then parked at
/// -inf so the vector compares never fire for them — and the tile exits a
/// feature once no lane compares above the (ascending) threshold, the
/// batch form of the scalar early exit. Leaf values then accumulate per
/// lane in ScoreAll's exact order (bias first, trees ascending), so every
/// output double is bit-identical to the per-row path.
__attribute__((target("avx2"))) void ScoreTile8Avx2(
    const MergedQuickScorer& qs, const double* const* rows,
    MergedQuickScorer::BatchScratch* s, double* out) {
  constexpr size_t kRows = MergedQuickScorer::kBatchRows;
  const size_t nf = static_cast<size_t>(qs.num_features);
  const size_t num_trees = qs.init_mask.size();
  const size_t num_models = qs.bias.size();
  s->x.resize(nf * kRows);
  s->bits.resize(num_trees * kRows);
  double* __restrict x = s->x.data();
  uint64_t* __restrict bits = s->bits.data();
  for (size_t r = 0; r < kRows; ++r) {
    const double* __restrict src = rows[r];
    for (size_t f = 0; f < nf; ++f) x[f * kRows + r] = src[f];
  }
  for (size_t t = 0; t < num_trees; ++t) {
    const __m256i init =
        _mm256_set1_epi64x(static_cast<long long>(qs.init_mask[t]));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(bits + t * kRows), init);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(bits + t * kRows + 4),
                        init);
  }
  const double* __restrict thr = qs.threshold.data();
  const int32_t* __restrict tr = qs.entry_tree.data();
  const uint64_t* __restrict mk = qs.entry_mask.data();
  const __m256i ones = _mm256_set1_epi64x(-1);
  for (size_t f = 0; f < nf; ++f) {
    const size_t k0 = qs.feat_begin[f];
    const size_t k1 = qs.feat_begin[f + 1];
    if (k0 == k1) continue;
    __m256d x0 = _mm256_loadu_pd(x + f * kRows);
    __m256d x1 = _mm256_loadu_pd(x + f * kRows + 4);
    const __m256d nan0 = _mm256_cmp_pd(x0, x0, _CMP_UNORD_Q);
    const __m256d nan1 = _mm256_cmp_pd(x1, x1, _CMP_UNORD_Q);
    const unsigned nan_lanes =
        static_cast<unsigned>(_mm256_movemask_pd(nan0)) |
        static_cast<unsigned>(_mm256_movemask_pd(nan1)) << 4;
    if (nan_lanes != 0) {
      // The tree walk sends NaN right at every node, so for a NaN lane
      // every entry of this feature fires (the ScoreAll NaN rule).
      for (size_t k = k0; k < k1; ++k) {
        uint64_t* b = bits + static_cast<size_t>(tr[k]) * kRows;
        for (unsigned l = nan_lanes; l != 0; l &= l - 1) {
          b[std::countr_zero(l)] &= mk[k];
        }
      }
      if (nan_lanes == 0xFFu) continue;
      // Park NaN lanes at -inf: x > thr is false for every threshold, so
      // the entry scan below never fires them again.
      const __m256d ninf =
          _mm256_set1_pd(-std::numeric_limits<double>::infinity());
      x0 = _mm256_blendv_pd(x0, ninf, nan0);
      x1 = _mm256_blendv_pd(x1, ninf, nan1);
    }
    for (size_t k = k0; k < k1; ++k) {
      const __m256d thr_v = _mm256_set1_pd(thr[k]);
      const __m256i c0 =
          _mm256_castpd_si256(_mm256_cmp_pd(x0, thr_v, _CMP_GT_OQ));
      const __m256i c1 =
          _mm256_castpd_si256(_mm256_cmp_pd(x1, thr_v, _CMP_GT_OQ));
      // Ascending thresholds: once no lane exceeds thr[k] none exceeds
      // any later threshold of this feature — the whole tile exits, the
      // batch form of ScoreAll's early exit (validated for borrowed
      // tables by FlatEnsembleSet::FromParts).
      if (_mm256_testz_si256(c0, c0) && _mm256_testz_si256(c1, c1)) break;
      const __m256i mkv =
          _mm256_set1_epi64x(static_cast<long long>(mk[k]));
      // Fired lanes AND with the entry mask, unfired lanes with ~0 (a
      // no-op): eff = mask | ~cmp.
      const __m256i eff0 = _mm256_or_si256(mkv, _mm256_xor_si256(c0, ones));
      const __m256i eff1 = _mm256_or_si256(mkv, _mm256_xor_si256(c1, ones));
      uint64_t* b = bits + static_cast<size_t>(tr[k]) * kRows;
      const __m256i b0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
      const __m256i b1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + 4));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(b),
                          _mm256_and_si256(b0, eff0));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(b + 4),
                          _mm256_and_si256(b1, eff1));
    }
  }
  const int32_t* __restrict lb = qs.leaf_base.data();
  const double* __restrict lv = qs.leaf_value.data();
  const int32_t* __restrict mtb = qs.model_tree_begin.data();
  for (size_t m = 0; m + 1 < qs.model_tree_begin.size(); ++m) {
    double acc[kRows];
    for (size_t r = 0; r < kRows; ++r) acc[r] = qs.bias[m];
    for (int32_t t = mtb[m]; t < mtb[m + 1]; ++t) {
      const uint64_t* b = bits + static_cast<size_t>(t) * kRows;
      const int32_t base = lb[t];
      for (size_t r = 0; r < kRows; ++r) {
        acc[r] += lv[base + std::countr_zero(b[r])];
      }
    }
    for (size_t r = 0; r < kRows; ++r) out[r * num_models + m] = acc[r];
  }
}

void BatchScoreAvx2(const MergedQuickScorer& qs,
                    std::span<const double* const> rows,
                    MergedQuickScorer::BatchScratch* scratch,
                    std::span<double> out) {
  constexpr size_t kRows = MergedQuickScorer::kBatchRows;
  const size_t stride = qs.bias.size();
  size_t r = 0;
  for (; r + kRows <= rows.size(); r += kRows) {
    ScoreTile8Avx2(qs, rows.data() + r, scratch, out.data() + r * stride);
  }
  // Tail rows (< one tile) take the per-row path — same bits either way.
  for (; r < rows.size(); ++r) {
    qs.ScoreAll(rows[r], &scratch->row_bits,
                out.subspan(r * stride, stride));
  }
}

#endif  // RPE_BATCH_AVX2

using BatchScoreFn = void (*)(const MergedQuickScorer&,
                              std::span<const double* const>,
                              MergedQuickScorer::BatchScratch*,
                              std::span<double>);

std::atomic<BatchScoreFn> g_batch_score{&BatchScoreScalar};

const char* BindBatchScore(simd::Tier tier) {
#ifdef RPE_BATCH_AVX2
  if (tier >= simd::Tier::kAvx2) {
    g_batch_score.store(&BatchScoreAvx2, std::memory_order_relaxed);
    return "avx2";
  }
#else
  (void)tier;
#endif
  g_batch_score.store(&BatchScoreScalar, std::memory_order_relaxed);
  return "scalar";
}

const simd::internal::KernelRegistrar kBatchScoreRegistrar("batch_score",
                                                           &BindBatchScore);

}  // namespace

void MergedQuickScorer::PredictAllBatch(std::span<const double* const> rows,
                                        BatchScratch* scratch,
                                        std::span<double> out) const {
  RPE_CHECK_EQ(out.size(), rows.size() * bias.size());
  g_batch_score.load(std::memory_order_relaxed)(*this, rows, scratch, out);
}

}  // namespace flat_internal

FlatEnsembleSet FlatEnsembleSet::Compile(const std::vector<MartModel>& models) {
  FlatEnsembleSet set;
  flat_internal::MergedQuickScorer& qs = set.merged_;
  // Raw entries are appended model by model, each tree in DFS order, with
  // global tree ids; FillEntryTables' stable sort then orders threshold
  // ties by model, then by DFS position.
  std::vector<flat_internal::QsRawEntry> entries;
  qs.model_tree_begin.vec().push_back(0);
  for (const MartModel& model : models) {
    qs.bias.vec().push_back(model.bias());
    for (const RegressionTree& tree : model.trees()) {
      RPE_CHECK_LE(tree.num_leaves(), kMaxTreeLeaves);
      for (const auto& n : tree.nodes()) {
        qs.num_features = std::max(qs.num_features, n.feature + 1);
      }
      qs.leaf_base.vec().push_back(static_cast<int32_t>(qs.leaf_value.size()));
      flat_internal::QsTreeBuilder builder{
          &tree.nodes(), &entries, &qs.leaf_value.vec(),
          static_cast<int32_t>(qs.init_mask.size())};
      if (tree.nodes().empty()) {
        // MartModel sums lr * 0.0 for an empty tree: one constant leaf.
        qs.leaf_value.vec().push_back(model.learning_rate() * 0.0);
        builder.next_leaf = 1;
      } else {
        builder.Walk(0, model.learning_rate());
      }
      qs.init_mask.vec().push_back(
          builder.next_leaf >= 64 ? ~uint64_t{0}
                                  : (uint64_t{1} << builder.next_leaf) - 1);
    }
    qs.model_tree_begin.vec().push_back(
        static_cast<int32_t>(qs.init_mask.size()));
  }
  qs.leaf_value.vec().resize(qs.leaf_value.size() + kQsLeafGuard, 0.0);
  flat_internal::FillEntryTables(&entries, &qs);
  return set;
}

namespace {

Status FlatInvalid(const std::string& what) {
  return Status::InvalidArgument("flat snapshot section: " + what);
}

}  // namespace

Result<FlatEnsembleSet> FlatEnsembleSet::FromParts(
    flat_internal::MergedQuickScorer t, size_t num_inputs) {
  const size_t num_models = t.bias.size();
  if (t.model_tree_begin.size() != num_models + 1 ||
      t.model_tree_begin[0] != 0) {
    return FlatInvalid("model table shape");
  }
  for (size_t m = 0; m < num_models; ++m) {
    if (t.model_tree_begin[m + 1] < t.model_tree_begin[m]) {
      return FlatInvalid("model_tree_begin not nondecreasing");
    }
  }
  const int32_t num_trees = t.model_tree_begin.back();
  if (t.num_features < 0 ||
      static_cast<size_t>(t.num_features) > num_inputs) {
    return FlatInvalid("feature count out of range");
  }
  if (t.init_mask.size() != static_cast<size_t>(num_trees) ||
      t.leaf_base.size() != static_cast<size_t>(num_trees)) {
    return FlatInvalid("per-tree table sizes disagree");
  }
  if (t.feat_begin.size() != static_cast<size_t>(t.num_features) + 1 ||
      t.feat_begin[0] != 0) {
    return FlatInvalid("feat_begin shape");
  }
  for (size_t f = 1; f < t.feat_begin.size(); ++f) {
    if (t.feat_begin[f] < t.feat_begin[f - 1]) {
      return FlatInvalid("feat_begin not nondecreasing");
    }
  }
  const size_t entries = t.threshold.size();
  if (t.entry_tree.size() != entries || t.entry_mask.size() != entries ||
      t.feat_begin.back() != entries) {
    return FlatInvalid("entry table sizes disagree");
  }
  for (size_t k = 0; k < entries; ++k) {
    if (t.entry_tree[k] < 0 || t.entry_tree[k] >= num_trees) {
      return FlatInvalid("entry tree id out of range");
    }
  }
  // Both scoring paths early-exit a feature's entry list at the first
  // threshold the value does not exceed (ScoreAll per row, the batch
  // kernel per tile); that is only equivalent to scanning every entry —
  // and only tier-independent — when each feature's thresholds ascend and
  // none is NaN. Compiled tables satisfy this by construction; borrowed
  // snapshot tables must prove it here.
  for (size_t f = 0; f + 1 < t.feat_begin.size(); ++f) {
    for (size_t k = t.feat_begin[f]; k < t.feat_begin[f + 1]; ++k) {
      if (std::isnan(t.threshold[k]) ||
          (k > t.feat_begin[f] && t.threshold[k] < t.threshold[k - 1])) {
        return FlatInvalid("entry thresholds not ascending");
      }
    }
  }
  // leaf_value must carry the kQsLeafGuard tail: a hostile mask
  // set can clear a tree's whole bitvector, and countr_zero(0) == 64 then
  // indexes leaf_base + 64 — inside the guard, never past the slab.
  for (int32_t tr = 0; tr < num_trees; ++tr) {
    const int32_t lb = t.leaf_base[static_cast<size_t>(tr)];
    if (t.init_mask[static_cast<size_t>(tr)] == 0 || lb < 0 ||
        static_cast<size_t>(lb) + 65 > t.leaf_value.size()) {
      return FlatInvalid("leaf table out of range");
    }
  }
  FlatEnsembleSet set;
  set.merged_ = std::move(t);
  return set;
}

void FlatEnsembleSet::PredictAll(std::span<const double> features,
                                 std::span<double> out) const {
  RPE_CHECK_EQ(out.size(), num_models());
  // Thread-local scratch keeps the hot path allocation-free after the
  // first call on each thread.
  static thread_local std::vector<uint64_t> bits;
  merged_.ScoreAll(features.data(), &bits, out);
}

void FlatEnsembleSet::PredictAllBatch(std::span<const double* const> rows,
                                      std::span<double> out) const {
  static thread_local flat_internal::MergedQuickScorer::BatchScratch scratch;
  merged_.PredictAllBatch(rows, &scratch, out);
}

namespace {

/// First index of the smallest of `scores` (first on ties).
size_t FirstMin(const double* scores, size_t n) {
  size_t best = 0;
  for (size_t m = 1; m < n; ++m) {
    if (scores[m] < scores[best]) best = m;
  }
  return best;
}

}  // namespace

void FlatEnsembleSet::ArgMinBatch(std::span<const double* const> rows,
                                  std::span<size_t> out) const {
  RPE_CHECK_EQ(out.size(), rows.size());
  RPE_CHECK_GT(num_models(), 0u);
  if (rows.empty()) return;
  static thread_local std::vector<double> scores;
  scores.resize(rows.size() * num_models());
  PredictAllBatch(rows, scores);
  for (size_t r = 0; r < rows.size(); ++r) {
    out[r] = FirstMin(scores.data() + r * num_models(), num_models());
  }
}

size_t FlatEnsembleSet::ArgMin(std::span<const double> features) const {
  RPE_CHECK_GT(num_models(), 0u);
  static thread_local std::vector<double> scores;
  scores.resize(num_models());
  PredictAll(features, scores);
  return FirstMin(scores.data(), scores.size());
}

}  // namespace rpe
