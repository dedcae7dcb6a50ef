#include "mart/tree.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <memory>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "common/simd.h"
#include "common/thread_pool.h"

#if defined(__x86_64__)
#define RPE_ACCUM_AVX2 1
#include <immintrin.h>
#endif

namespace rpe {

namespace {

struct GrowableLeaf {
  std::vector<uint32_t> indices;
  double sum = 0.0;
  int node_id = 0;
  SplitCandidate best;
  /// This leaf's full HistogramSet, present while the leaf is a split
  /// candidate; released (recycled) as soon as the leaf is known terminal
  /// or has been split.
  std::unique_ptr<HistogramSet> hist;
};

/// Don't fan histogram work out unless the accumulation amortizes the pool
/// hand-off (leaf examples × features touched, or slab entries swept).
constexpr size_t kMinParallelWork = 1 << 14;
/// Derive a sibling by subtraction only when the direct build it replaces
/// (examples × features accumulations) clearly outweighs the elementwise
/// slab pass the subtraction costs — for small leaves (or narrow datasets
/// with many bins) the O(total_bins) subtraction plus the canonicalization
/// it forces is slower than just re-accumulating. Either path fits
/// byte-identical trees, so this is purely a throughput heuristic.
constexpr size_t kSubtractionPayoff = 2;
/// Features per parallel task: one ParallelFor index covers a block of
/// adjacent features, so the per-index atomic hand-off amortizes over
/// several full-column scans instead of costing one claim per feature.
constexpr size_t kHistFeatureBlock = 8;

size_t NumFeatureBlocks(size_t nf) {
  return (nf + kHistFeatureBlock - 1) / kHistFeatureBlock;
}

bool ShouldParallelize(ThreadPool* pool, size_t work, size_t nblocks) {
  return pool != nullptr && pool->num_threads() > 1 && nblocks > 1 &&
         work >= kMinParallelWork;
}

#ifdef RPE_ACCUM_AVX2

/// AVX2 variant of AccumulateColumnDense: one vpcmpeqb classifies each
/// 32-byte chunk of the bin column as uniform or mixed, guarded by a
/// cheap col[i] == col[i+31] probe so mixed data (where the probe almost
/// never passes) pays one predictable scalar compare per chunk instead of
/// a vector check. A uniform run keeps its single bin's accumulator in a
/// register — the adds stay in ascending-i order into the same bin, so
/// the sum is the same FP operation sequence as the scalar loop,
/// bit-identical by construction — and retires the counts in one add.
/// (The one carve-out is NaN payload bits: IEEE leaves NaN propagation
/// through `+` to the operand order the compiler emits, which no two
/// builds of even the scalar loop pin down. Training data is NaN-free;
/// tests/simd_test.cpp compares NaNs as a class.)
/// Constant columns and binned near-monotone features (long runs) go
/// 3-4x faster; uniform-random columns match the scalar loop.
__attribute__((target("avx2"))) void AccumulateColumnDenseAvx2(
    const uint8_t* __restrict col, const double* __restrict res, size_t n,
    double* __restrict sum, uint32_t* __restrict cnt) {
  size_t i = 0;
  while (i + 32 <= n) {
    if (col[i] == col[i + 31]) {
      const __m256i chunk =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + i));
      const __m256i first = _mm256_set1_epi8(static_cast<char>(col[i]));
      if (static_cast<unsigned>(_mm256_movemask_epi8(
              _mm256_cmpeq_epi8(chunk, first))) == 0xFFFFFFFFu) {
        const uint8_t b = col[i];
        size_t e = i + 32;
        while (e + 32 <= n && col[e] == col[e + 31]) {
          const __m256i next =
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + e));
          if (static_cast<unsigned>(_mm256_movemask_epi8(
                  _mm256_cmpeq_epi8(next, first))) != 0xFFFFFFFFu) {
            break;
          }
          e += 32;
        }
        double acc = sum[b];
        for (size_t k = i; k < e; ++k) acc += res[k];
        sum[b] = acc;
        cnt[b] += static_cast<uint32_t>(e - i);
        i = e;
        continue;
      }
    }
    for (size_t k = i; k < i + 32; ++k) {
      const uint8_t b = col[k];
      sum[b] += res[k];
      cnt[b] += 1;
    }
    i += 32;
  }
  for (; i < n; ++i) {
    const uint8_t b = col[i];
    sum[b] += res[i];
    cnt[b] += 1;
  }
}

#endif  // RPE_ACCUM_AVX2

using AccumulateFn = void (*)(const uint8_t*, const double*, size_t,
                              double*, uint32_t*);

std::atomic<AccumulateFn> g_accumulate{&AccumulateColumnDenseScalar};

const char* BindAccumulate(simd::Tier tier) {
#ifdef RPE_ACCUM_AVX2
  if (tier >= simd::Tier::kAvx2) {
    g_accumulate.store(&AccumulateColumnDenseAvx2,
                       std::memory_order_relaxed);
    return "avx2";
  }
#else
  (void)tier;
#endif
  g_accumulate.store(&AccumulateColumnDenseScalar,
                     std::memory_order_relaxed);
  return "scalar";
}

const simd::internal::KernelRegistrar kAccumulateRegistrar("accumulate",
                                                           &BindAccumulate);

}  // namespace

// One feature's histogram over a dense leaf (`indices` covers every
// example): both the bin column and the residuals stream sequentially.
void AccumulateColumnDenseScalar(const uint8_t* __restrict col,
                                 const double* __restrict res, size_t n,
                                 double* __restrict sum,
                                 uint32_t* __restrict cnt) {
  for (size_t i = 0; i < n; ++i) {
    const uint8_t b = col[i];
    sum[b] += res[i];
    cnt[b] += 1;
  }
}

void AccumulateColumnDense(const uint8_t* col, const double* res, size_t n,
                           double* sum, uint32_t* cnt) {
  g_accumulate.load(std::memory_order_relaxed)(col, res, n, sum, cnt);
}

namespace {

/// One feature's histogram over a sparse leaf: `ordered[k]` is the
/// (pre-gathered) residual of example `idx[k]`, so only the bin column is
/// gathered per feature.
inline void AccumulateColumnSparse(const uint8_t* __restrict col,
                                   const uint32_t* __restrict idx,
                                   const double* __restrict ordered,
                                   size_t n, double* __restrict sum,
                                   uint32_t* __restrict cnt) {
  for (size_t k = 0; k < n; ++k) {
    const uint8_t b = col[idx[k]];
    sum[b] += ordered[k];
    cnt[b] += 1;
  }
}

/// The cumulative left-to-right sweep over bin boundaries shared by both
/// public sweeps. `visit_bins(take)` calls `take(b)` for bins
/// b < num_bins(f) - 1 in ascending order until it returns false; `take`
/// moves bin b to the left side and scores the boundary after it. Both
/// sweeps therefore run the same floating-point operations on every bin
/// they both visit.
template <typename VisitBins>
SplitCandidate Sweep(const BinnedDataset& data, size_t f, const double* sum,
                     const uint32_t* cnt, double total_sum, size_t n,
                     const TreeParams& params, VisitBins visit_bins) {
  SplitCandidate best;
  if (data.num_bins(f) < 2) return best;
  const size_t min_leaf = static_cast<size_t>(params.min_examples_per_leaf);
  const double parent_score = total_sum * total_sum / static_cast<double>(n);
  double left_sum = 0.0;
  size_t left_cnt = 0;
  visit_bins([&](size_t b) {
    left_sum += sum[b];
    left_cnt += cnt[b];
    const size_t right_cnt = n - left_cnt;
    // Counts only grow left: once the right side is too small, no later
    // boundary can qualify either.
    if (right_cnt < min_leaf) return false;
    if (left_cnt < min_leaf) return true;
    const double right_sum = total_sum - left_sum;
    const double score =
        left_sum * left_sum / static_cast<double>(left_cnt) +
        right_sum * right_sum / static_cast<double>(right_cnt);
    const double gain = score - parent_score;
    if (gain > best.gain && gain > params.min_gain) {
      best.valid = true;
      best.feature = f;
      best.bin = b;
      best.threshold = data.bin_upper(f, b);
      best.gain = gain;
      best.left_sum = left_sum;
      best.right_sum = right_sum;
      best.left_count = left_cnt;
      best.right_count = right_cnt;
    }
    return true;
  });
  return best;
}

}  // namespace

// Pure function of the slab and the leaf totals, so feature sweeps can run
// concurrently and reduce in feature order afterwards.
SplitCandidate SweepFeature(const BinnedDataset& data, size_t f,
                            const double* sum, const uint32_t* cnt,
                            double total_sum, size_t n,
                            const TreeParams& params) {
  const size_t nbins = data.num_bins(f);
  return Sweep(data, f, sum, cnt, total_sum, n, params, [&](auto take) {
    for (size_t b = 0; b + 1 < nbins && take(b); ++b) {
    }
  });
}

// Exactness: in the full sweep an empty, directly built bin adds exactly
// 0.0 to left_sum (no directly accumulated sum is ever -0.0, so the add is
// the identity) and 0 to left_count, so its boundary repeats the previous
// boundary's gain — or, before the first occupied bin, fails the
// min-leaf guard (left_count 0) — and the strict `gain > best` keeps the
// earlier, occupied bin. Skipping empty bins therefore leaves the winning
// bin, threshold, gain and child sums unchanged.
SplitCandidate SweepOccupiedBins(const BinnedDataset& data, size_t f,
                                 std::span<const uint32_t> indices,
                                 const double* sum, const uint32_t* cnt,
                                 double total_sum, const TreeParams& params) {
  const size_t nbins = data.num_bins(f);
  uint64_t occupied[4] = {0, 0, 0, 0};
  const uint8_t* col = data.feature_bins(f).data();
  for (uint32_t idx : indices) {
    const uint8_t b = col[idx];
    occupied[b >> 6] |= uint64_t{1} << (b & 63);
  }
  return Sweep(data, f, sum, cnt, total_sum, indices.size(), params,
               [&](auto take) {
                 for (size_t w = 0; w < 4; ++w) {
                   for (uint64_t bits = occupied[w]; bits != 0;
                        bits &= bits - 1) {
                     const size_t b =
                         w * 64 + static_cast<size_t>(std::countr_zero(bits));
                     if (b + 1 >= nbins || !take(b)) return;
                   }
                 }
               });
}

namespace {

/// Re-accumulate feature f's histogram directly from the leaf's examples
/// and sweep it: the canonical (subtraction-free) statistics for this
/// feature. The winning split of a subtracted HistogramSet is rebased onto
/// this, so every threshold, gain and child sum entering the tree is
/// exactly what direct accumulation would produce — subtraction ulps never
/// reach the model and never compound across split levels.
SplitCandidate CanonicalFeatureSweep(const BinnedDataset& data,
                                     const std::vector<double>& residuals,
                                     const GrowableLeaf& leaf, size_t f,
                                     const TreeParams& params) {
  const size_t nbins = data.num_bins(f);
  std::vector<double> sum(nbins, 0.0);
  std::vector<uint32_t> cnt(nbins, 0);
  const uint8_t* col = data.feature_bins(f).data();
  for (uint32_t idx : leaf.indices) {
    const uint8_t b = col[idx];
    sum[b] += residuals[idx];
    cnt[b] += 1;
  }
  return SweepFeature(data, f, sum.data(), cnt.data(), leaf.sum,
                      leaf.indices.size(), params);
}

/// How a leaf's histogram contents come to exist before the sweep.
enum class HistSource {
  kBuild,      ///< zero + accumulate directly from the leaf's examples
  kSubtract,   ///< derive in place as parent − child (leaf.hist holds the
               ///< parent's slabs, `child` the already-built sibling)
  kSweepOnly,  ///< slabs already filled; just sweep
};

/// Fill (or derive) the leaf's histograms and sweep every feature for its
/// best split — fused per feature, so each histogram region is still hot
/// in cache when its sweep runs. Two storage modes: with `leaf.hist` set,
/// accumulation lands in the leaf's retained HistogramSet slabs (so a
/// child may later derive its sibling by subtraction); with `leaf.hist`
/// null, each feature reuses a compact per-block scratch sized
/// max_num_bins() — the cheap path for leaves too small for any
/// descendant to ever clear the subtraction-payoff bar. Feature blocks
/// process in parallel and the reduction runs in ascending feature order
/// with strict comparisons: the same winner as a sequential scan
/// (earliest feature and bin on gain ties), so the fitted tree is
/// thread-count invariant. When the leaf's histograms came from
/// subtraction, the winner is canonicalized via CanonicalFeatureSweep; in
/// the (ulp-tie) event that the canonical sweep no longer clears the
/// guards, the whole set is rebuilt directly once.
SplitCandidate FindBestSplit(const BinnedDataset& data,
                             const std::vector<double>& residuals,
                             GrowableLeaf& leaf, const HistogramSet* child,
                             const TreeParams& params, ThreadPool* pool) {
  const size_t n = leaf.indices.size();
  if (n < 2 * static_cast<size_t>(params.min_examples_per_leaf)) return {};
  RPE_CHECK(child == nullptr || leaf.hist != nullptr);
  const size_t nf = data.num_features();
  const bool dense = n == data.num_examples();
  // The one gather pass over the leaf's examples (direct sparse builds
  // only): every feature afterwards streams `ordered` sequentially.
  std::vector<double> ordered;
  if (child == nullptr && !dense) {
    ordered.resize(n);
    for (size_t k = 0; k < n; ++k) ordered[k] = residuals[leaf.indices[k]];
  }

  std::vector<SplitCandidate> per_feature(nf);
  const auto run = [&](HistSource source) {
    double* const sums =
        leaf.hist != nullptr ? leaf.hist->sums().data() : nullptr;
    uint32_t* const cnts =
        leaf.hist != nullptr ? leaf.hist->counts().data() : nullptr;
    const size_t work =
        source == HistSource::kBuild ? n * nf : data.total_bins();
    const size_t nblocks = NumFeatureBlocks(nf);
    const bool fan_out = ShouldParallelize(pool, work, nblocks);
    // Scratch for slab-less accumulation, reused per feature so it stays
    // L1-hot. One pair serves the whole sequential sweep; concurrent
    // blocks get their own pair inside process_block.
    std::vector<double> seq_sum;
    std::vector<uint32_t> seq_cnt;
    if (sums == nullptr && !fan_out) {
      seq_sum.resize(data.max_num_bins());
      seq_cnt.resize(data.max_num_bins());
    }
    const auto process_block = [&](size_t blk) {
      std::vector<double> blk_sum;
      std::vector<uint32_t> blk_cnt;
      double* scratch_sum = seq_sum.data();
      uint32_t* scratch_cnt = seq_cnt.data();
      if (sums == nullptr && fan_out) {
        blk_sum.resize(data.max_num_bins());
        blk_cnt.resize(data.max_num_bins());
        scratch_sum = blk_sum.data();
        scratch_cnt = blk_cnt.data();
      }
      const size_t f0 = blk * kHistFeatureBlock;
      const size_t f1 = std::min(nf, f0 + kHistFeatureBlock);
      for (size_t f = f0; f < f1; ++f) {
        const size_t off = data.hist_offset(f);
        const size_t nbins = data.num_bins(f);
        double* sum = sums != nullptr ? sums + off : scratch_sum;
        uint32_t* cnt = cnts != nullptr ? cnts + off : scratch_cnt;
        if (source == HistSource::kBuild) {
          std::fill(sum, sum + nbins, 0.0);
          std::fill(cnt, cnt + nbins, 0u);
          const uint8_t* col = data.feature_bins(f).data();
          if (dense) {
            AccumulateColumnDense(col, residuals.data(), n, sum, cnt);
          } else {
            AccumulateColumnSparse(col, leaf.indices.data(), ordered.data(),
                                   n, sum, cnt);
          }
        } else if (source == HistSource::kSubtract) {
          leaf.hist->SubtractChild(*child, off, off + nbins);
        }
        // Directly built slabs of a leaf smaller than the bin count sweep
        // only the occupied bins; subtracted slabs may carry rounding
        // residue in empty bins, so they always take the full sweep.
        per_feature[f] =
            source != HistSource::kSubtract && n < nbins
                ? SweepOccupiedBins(data, f, leaf.indices, sum, cnt,
                                    leaf.sum, params)
                : SweepFeature(data, f, sum, cnt, leaf.sum, n, params);
      }
    };
    if (fan_out) {
      pool->ParallelFor(nblocks, process_block);
    } else {
      for (size_t blk = 0; blk < nblocks; ++blk) process_block(blk);
    }
    SplitCandidate out;
    for (size_t f = 0; f < nf; ++f) {
      if (per_feature[f].valid && per_feature[f].gain > out.gain) {
        out = per_feature[f];
      }
    }
    return out;
  };

  SplitCandidate best =
      run(child != nullptr ? HistSource::kSubtract : HistSource::kBuild);
  if (child == nullptr || !best.valid) return best;
  const SplitCandidate canonical =
      CanonicalFeatureSweep(data, residuals, leaf, best.feature, params);
  if (canonical.valid) return canonical;
  // Rare: subtraction noise elected a feature whose canonical statistics
  // fail the gain or leaf-size guards. Rebuild this leaf directly once and
  // re-sweep — fully canonical, still deterministic.
  BuildLeafHistograms(data, residuals, leaf.indices, leaf.hist.get(), pool);
  return run(HistSource::kSweepOnly);
}

}  // namespace

void BuildLeafHistograms(const BinnedDataset& data,
                         const std::vector<double>& residuals,
                         std::span<const uint32_t> indices,
                         HistogramSet* hist, ThreadPool* pool) {
  RPE_CHECK_EQ(hist->size(), data.total_bins());
  const size_t nf = data.num_features();
  const size_t n = indices.size();
  // Strictly increasing indices covering n == num_examples() can only be
  // the identity, so the gather and the index indirection are skipped.
  const bool dense = n == data.num_examples();
  // The one pass over the leaf's examples: gather its residuals into a
  // compact buffer once, so every feature column afterwards streams
  // `ordered` sequentially instead of re-gathering residuals[idx] per
  // feature.
  std::vector<double> ordered;
  if (!dense) {
    ordered.resize(n);
    for (size_t k = 0; k < n; ++k) ordered[k] = residuals[indices[k]];
  }
  double* const sums = hist->sums().data();
  uint32_t* const cnts = hist->counts().data();
  const auto build_block = [&](size_t blk) {
    const size_t f0 = blk * kHistFeatureBlock;
    const size_t f1 = std::min(nf, f0 + kHistFeatureBlock);
    for (size_t f = f0; f < f1; ++f) {
      const size_t off = data.hist_offset(f);
      const size_t nbins = data.num_bins(f);
      double* sum = sums + off;
      uint32_t* cnt = cnts + off;
      std::fill(sum, sum + nbins, 0.0);
      std::fill(cnt, cnt + nbins, 0u);
      const uint8_t* col = data.feature_bins(f).data();
      if (dense) {
        AccumulateColumnDense(col, residuals.data(), n, sum, cnt);
      } else {
        AccumulateColumnSparse(col, indices.data(), ordered.data(), n, sum,
                               cnt);
      }
    }
  };
  const size_t nblocks = NumFeatureBlocks(nf);
  if (ShouldParallelize(pool, n * nf, nblocks)) {
    pool->ParallelFor(nblocks, build_block);
  } else {
    for (size_t blk = 0; blk < nblocks; ++blk) build_block(blk);
  }
}

RegressionTree RegressionTree::Fit(const BinnedDataset& data,
                                   const std::vector<double>& residuals,
                                   const std::vector<uint32_t>& example_indices,
                                   const TreeParams& params,
                                   std::vector<double>* feature_gains,
                                   ThreadPool* pool) {
  RPE_CHECK_EQ(residuals.size(), data.num_examples());
  if (pool == nullptr) pool = &ThreadPool::Global();
  RegressionTree tree;
  const size_t min_split =
      2 * static_cast<size_t>(params.min_examples_per_leaf);

  // HistogramSet free list: sets are recycled across leaves, so a tree fit
  // allocates only as many slabs as are ever live at once.
  std::vector<std::unique_ptr<HistogramSet>> spare;
  const auto acquire = [&] {
    if (spare.empty()) return std::make_unique<HistogramSet>(data);
    auto h = std::move(spare.back());
    spare.pop_back();
    return h;
  };
  const auto release = [&](std::unique_ptr<HistogramSet>* h) {
    if (*h != nullptr) spare.push_back(std::move(*h));
  };

  GrowableLeaf root;
  if (example_indices.empty()) {
    root.indices.resize(data.num_examples());
    for (size_t i = 0; i < data.num_examples(); ++i) {
      root.indices[i] = static_cast<uint32_t>(i);
    }
  } else {
    root.indices = example_indices;
  }
  for (uint32_t idx : root.indices) root.sum += residuals[idx];

  Node root_node;
  root_node.value = root.indices.empty()
                        ? 0.0
                        : root.sum / static_cast<double>(root.indices.size());
  tree.nodes_.push_back(root_node);
  root.node_id = 0;
  // A leaf's slabs are only ever consumed by a child deriving its sibling
  // via subtraction, and a child can clear the payoff bar only if the leaf
  // itself does — so leaves below it sweep through compact scratch and
  // never materialize a HistogramSet at all.
  const auto wants_hist = [&](size_t n_leaf) {
    return !params.force_direct_histograms &&
           n_leaf * data.num_features() >=
               kSubtractionPayoff * data.total_bins();
  };

  if (params.max_leaves > 1 && root.indices.size() >= min_split) {
    if (wants_hist(root.indices.size())) root.hist = acquire();
    root.best = FindBestSplit(data, residuals, root, nullptr, params, pool);
  }
  if (!root.best.valid) release(&root.hist);

  std::vector<GrowableLeaf> leaves;
  leaves.push_back(std::move(root));

  int num_leaves = 1;
  while (num_leaves < params.max_leaves) {
    // Best-first: split the growable leaf with the highest gain.
    int best_leaf = -1;
    for (size_t i = 0; i < leaves.size(); ++i) {
      if (!leaves[i].best.valid) continue;
      if (best_leaf < 0 ||
          leaves[i].best.gain >
              leaves[static_cast<size_t>(best_leaf)].best.gain) {
        best_leaf = static_cast<int>(i);
      }
    }
    if (best_leaf < 0) break;

    GrowableLeaf leaf = std::move(leaves[static_cast<size_t>(best_leaf)]);
    leaves.erase(leaves.begin() + best_leaf);
    const SplitCandidate split = leaf.best;
    if (feature_gains != nullptr) {
      (*feature_gains)[split.feature] += split.gain;
    }

    GrowableLeaf left, right;
    left.indices.reserve(split.left_count);
    right.indices.reserve(split.right_count);
    const uint8_t* col = data.feature_bins(split.feature).data();
    for (uint32_t idx : leaf.indices) {
      if (col[idx] <= split.bin) {
        left.indices.push_back(idx);
      } else {
        right.indices.push_back(idx);
      }
    }
    left.sum = split.left_sum;
    right.sum = split.right_sum;

    Node left_node, right_node;
    left_node.value = split.left_sum / static_cast<double>(split.left_count);
    right_node.value =
        split.right_sum / static_cast<double>(split.right_count);
    left.node_id = static_cast<int>(tree.nodes_.size());
    tree.nodes_.push_back(left_node);
    right.node_id = static_cast<int>(tree.nodes_.size());
    tree.nodes_.push_back(right_node);

    Node& parent = tree.nodes_[static_cast<size_t>(leaf.node_id)];
    parent.feature = static_cast<int>(split.feature);
    parent.threshold = split.threshold;
    parent.left = left.node_id;
    parent.right = right.node_id;
    ++num_leaves;

    // A child needs histograms only if the tree may still grow and the
    // child is large enough to split. The smaller child accumulates
    // directly; when it pays (kSubtractionPayoff), the larger child
    // derives its slabs as parent − smaller (O(slab) instead of
    // O(examples × features)) — per split level at most half the
    // examples are then ever re-accumulated.
    const bool may_grow = num_leaves < params.max_leaves;
    GrowableLeaf& small =
        left.indices.size() <= right.indices.size() ? left : right;
    GrowableLeaf& big = (&small == &left) ? right : left;
    const bool small_can = may_grow && small.indices.size() >= min_split;
    const bool big_can = may_grow && big.indices.size() >= min_split;
    // If the big child clears the payoff bar the parent necessarily did
    // too, so its slabs are guaranteed to be retained in leaf.hist.
    const bool subtract = big_can && wants_hist(big.indices.size());
    if (subtract) {
      small.hist = acquire();
      if (small_can) {
        small.best =
            FindBestSplit(data, residuals, small, nullptr, params, pool);
      } else {
        // Built only to serve as the subtrahend for the sibling.
        BuildLeafHistograms(data, residuals, small.indices, small.hist.get(),
                            pool);
      }
    } else if (small_can) {
      small.best =
          FindBestSplit(data, residuals, small, nullptr, params, pool);
    }
    if (big_can) {
      if (subtract) {
        big.hist = std::move(leaf.hist);
        big.best = FindBestSplit(data, residuals, big, small.hist.get(),
                                 params, pool);
      } else {
        big.best =
            FindBestSplit(data, residuals, big, nullptr, params, pool);
      }
    }
    release(&leaf.hist);  // no-op when moved into the sibling above
    if (!small.best.valid) release(&small.hist);
    if (!big.best.valid) release(&big.hist);

    leaves.push_back(std::move(left));
    leaves.push_back(std::move(right));
  }
  return tree;
}

double RegressionTree::Predict(std::span<const double> features) const {
  if (nodes_.empty()) return 0.0;
  size_t cur = 0;
  while (nodes_[cur].feature >= 0) {
    const Node& n = nodes_[cur];
    cur = static_cast<size_t>(
        features[static_cast<size_t>(n.feature)] <= n.threshold ? n.left
                                                                : n.right);
  }
  return nodes_[cur].value;
}

size_t RegressionTree::num_leaves() const {
  size_t leaves = 0;
  for (const auto& n : nodes_) {
    if (n.feature < 0) ++leaves;
  }
  return leaves;
}

std::string RegressionTree::Serialize() const {
  std::ostringstream out;
  out.precision(17);
  out << nodes_.size() << "\n";
  for (const auto& n : nodes_) {
    out << n.feature << " " << n.threshold << " " << n.left << " " << n.right
        << " " << n.value << "\n";
  }
  return out.str();
}

}  // namespace rpe
