// FlatEnsembleSet tests: bit-exact equivalence with MartModel::Predict
// across random models and inputs, the serialize → deserialize → flatten
// round trip, batch and multi-model scoring, the 64-leaf cap (a full
// 64-leaf bitvector scores exactly, a wider tree is refused), and
// thread-count invariance of training (parallel training must serialize
// byte-identically).
#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "mart/flat_ensemble.h"
#include "serving/mmap_arena.h"
#include "serving/snapshot.h"
#include "tests/test_util.h"

namespace rpe {
namespace {

/// Score one model through a one-model FlatEnsembleSet.
double PredictOne(const FlatEnsembleSet& set, std::span<const double> x) {
  double out = 0.0;
  set.PredictAll(x, std::span<double>(&out, 1));
  return out;
}

Dataset RandomDataset(size_t n, size_t nf, uint64_t seed) {
  Dataset data(nf);
  Rng rng(seed);
  std::vector<double> x(nf);
  for (size_t i = 0; i < n; ++i) {
    for (auto& v : x) v = rng.NextDouble();
    const double y = x[0] * 0.7 + (x[1 % nf] > 0.4 ? 0.5 : -0.2) +
                     x[2 % nf] * x[3 % nf] + 0.1 * rng.NextGaussian();
    RPE_CHECK_OK(data.AddExample(x, y));
  }
  return data;
}

TEST(FlatEnsembleTest, BitExactWithMartPredictAcrossRandomModels) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Dataset data = RandomDataset(800, 6, seed);
    MartParams params;
    params.num_trees = 30;
    params.subsample = seed % 2 == 0 ? 0.7 : 1.0;
    params.seed = seed;
    MartModel model = MartModel::Train(data, params);
    const FlatEnsembleSet flat = FlatEnsembleSet::Compile({model});
    ASSERT_EQ(flat.merged().init_mask.size(), model.num_trees());

    Rng rng(100 + seed);
    std::vector<double> x(6);
    for (int trial = 0; trial < 200; ++trial) {
      for (auto& v : x) v = rng.NextDouble() * 2.0 - 0.5;
      EXPECT_EQ(model.Predict(x), PredictOne(flat, x))
          << "seed " << seed << " trial " << trial;
    }
    for (size_t i = 0; i < data.num_examples(); ++i) {
      ASSERT_EQ(model.Predict(data.ExampleSpan(i)),
                PredictOne(flat, data.ExampleSpan(i)));
    }
  }
}

TEST(FlatEnsembleTest, SerializeDeserializeFlattenRoundTrip) {
  Dataset data = RandomDataset(1200, 5, 9);
  MartParams params;
  params.num_trees = 40;
  MartModel model = MartModel::Train(data, params);
  auto restored = MartModel::Deserialize(model.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  const FlatEnsembleSet flat = FlatEnsembleSet::Compile({model});
  const FlatEnsembleSet flat_restored = FlatEnsembleSet::Compile({*restored});
  ASSERT_EQ(flat.merged().threshold.size(),
            flat_restored.merged().threshold.size());
  for (size_t i = 0; i < 300; ++i) {
    const auto x = data.ExampleSpan(i);
    EXPECT_EQ(PredictOne(flat, x), PredictOne(flat_restored, x));
    EXPECT_EQ(PredictOne(flat_restored, x), model.Predict(x));
  }
}

TEST(FlatEnsembleTest, PredictBatchMatchesScalarPredict) {
  Dataset data = RandomDataset(700, 8, 17);
  MartParams params;
  params.num_trees = 25;
  MartModel model = MartModel::Train(data, params);
  const FlatEnsembleSet flat = FlatEnsembleSet::Compile({model});

  std::vector<const double*> rows(data.num_examples());
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i] = data.ExampleSpan(i).data();
  }
  std::vector<double> batch(data.num_examples());
  flat.PredictAllBatch(rows, batch);
  for (size_t i = 0; i < data.num_examples(); ++i) {
    ASSERT_EQ(batch[i], model.Predict(data.ExampleSpan(i)));
  }
}

TEST(FlatEnsembleTest, EmptyModelPredictsBias) {
  Dataset empty(3);
  MartModel model = MartModel::Train(empty, {});
  const FlatEnsembleSet flat = FlatEnsembleSet::Compile({model});
  EXPECT_EQ(PredictOne(flat, std::vector<double>{1.0, 2.0, 3.0}), 0.0);
}

TEST(FlatEnsembleSetTest, PredictAllMatchesPerModelPredict) {
  std::vector<MartModel> models;
  Dataset data = RandomDataset(600, 6, 23);
  for (int m = 0; m < 4; ++m) {
    MartParams params;
    params.num_trees = 15 + m * 5;
    params.seed = static_cast<uint64_t>(m + 1);
    models.push_back(MartModel::Train(data, params));
  }
  FlatEnsembleSet set = FlatEnsembleSet::Compile(models);
  ASSERT_EQ(set.num_models(), models.size());

  std::vector<double> out(models.size());
  for (size_t i = 0; i < 200; ++i) {
    const auto x = data.ExampleSpan(i);
    set.PredictAll(x, out);
    size_t expected_best = 0;
    for (size_t m = 0; m < models.size(); ++m) {
      ASSERT_EQ(out[m], models[m].Predict(x));
      if (out[m] < out[expected_best]) expected_best = m;
    }
    EXPECT_EQ(set.ArgMin(x), expected_best);
  }
}

TEST(FlatEnsembleSetTest, EmptySetOfModelsCompiles) {
  FlatEnsembleSet set = FlatEnsembleSet::Compile({});
  EXPECT_EQ(set.num_models(), 0u);
}

/// A hand-built chain of `leaves` leaves: interior node 2i splits feature 0
/// at i, its right child (2i + 1) is a leaf and its left child continues
/// the chain; the last interior node's left child is the final leaf.
RegressionTree ChainTree(size_t leaves) {
  std::vector<RegressionTree::Node> nodes(2 * leaves - 1);
  for (size_t i = 0; i + 1 < leaves; ++i) {
    RegressionTree::Node& n = nodes[2 * i];
    n.feature = 0;
    n.threshold = static_cast<double>(i);
    n.left = static_cast<int>(2 * i + 2);
    n.right = static_cast<int>(2 * i + 1);
    nodes[2 * i + 1].value = static_cast<double>(i);
  }
  nodes.back().value = -1.0;
  auto tree = RegressionTree::FromNodes(std::move(nodes));
  RPE_CHECK_OK(tree.status());
  return std::move(tree).ValueOrDie();
}

TEST(FlatEnsembleSetTest, FromModelsRejectsTreesBeyondTheLeafCap) {
  // Persisted models are untrusted: a tree wider than the scorer's 64-bit
  // leaf bitvector is an InvalidArgument from the snapshot decoder's gate,
  // never a compile-time abort. Exactly 64 leaves is accepted.
  for (const size_t leaves : {kMaxTreeLeaves, kMaxTreeLeaves + 1}) {
    const RegressionTree tree = ChainTree(leaves);
    ASSERT_EQ(tree.num_leaves(), leaves);
    std::vector<MartModel> models;
    for (int m = 0; m < 3; ++m) {
      models.push_back(MartModel::FromParts(0.5, 0.1, {tree}, {}));
    }
    auto selector = EstimatorSelector::FromModels(
        PoolOriginalThree(), /*use_dynamic_features=*/false,
        std::move(models));
    if (leaves <= kMaxTreeLeaves) {
      ASSERT_TRUE(selector.ok()) << selector.status().ToString();
      const std::vector<double> x(FeatureSchema::Get().num_features(), 3.5);
      EXPECT_EQ(selector->PredictErrors(x)[0],
                selector->models()[0].Predict(x));
    } else {
      ASSERT_FALSE(selector.ok());
      EXPECT_EQ(selector.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(selector.status().message().find("65 leaves"),
                std::string::npos)
          << selector.status().ToString();
    }
  }
}

TEST(FlatEnsembleSetDeathTest, TrainingBeyondTheLeafCapDies) {
  // No flag or wire field sets max_leaves, so a value past the cap is a
  // programming error.
  Dataset data = RandomDataset(200, 4, 5);
  MartParams params;
  params.num_trees = 1;
  params.tree.max_leaves = static_cast<int>(kMaxTreeLeaves) + 1;
  EXPECT_DEATH(MartModel::Train(data, params), "max_leaves");
}

TEST(FlatEnsembleSetTest, NonFiniteFeaturesMatchTreeWalkExactly) {
  // The tree walk sends NaN right at every split (x <= t is false), -inf
  // always left, +inf always right; the compiled scorers must agree.
  Dataset data = RandomDataset(800, 4, 41);
  MartParams params;
  params.num_trees = 20;
  std::vector<MartModel> models = {MartModel::Train(data, params)};
  FlatEnsembleSet set = FlatEnsembleSet::Compile(models);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<double>> probes = {
      {nan, nan, nan, nan},
      {-inf, -inf, -inf, -inf},
      {inf, inf, inf, inf},
      {nan, 0.5, -inf, inf},
      {0.2, nan, inf, 0.9},
  };
  std::vector<double> out(1);
  for (const auto& x : probes) {
    const double expected = models[0].Predict(x);
    set.PredictAll(x, out);
    EXPECT_EQ(out[0], expected);
  }
}

/// Bitwise double equality (EXPECT_EQ would let -0.0 match 0.0).
bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// Every scoring entry point of `flat` against MartModel::Predict of
/// `models`, bit for bit, on `rows`: PredictAll, ArgMin, and
/// PredictAllBatch at the scalar and the detected SIMD tier.
void ExpectScoresMatchModels(const std::vector<MartModel>& models,
                             const FlatEnsembleSet& flat,
                             const std::vector<std::vector<double>>& rows) {
  const size_t nm = models.size();
  ASSERT_EQ(flat.num_models(), nm);
  std::vector<double> want(rows.size() * nm);
  std::vector<double> out(nm);
  for (size_t r = 0; r < rows.size(); ++r) {
    size_t best = 0;
    for (size_t m = 0; m < nm; ++m) {
      want[r * nm + m] = models[m].Predict(rows[r]);
      if (want[r * nm + m] < want[r * nm + best]) best = m;
    }
    flat.PredictAll(rows[r], out);
    for (size_t m = 0; m < nm; ++m) {
      EXPECT_TRUE(SameBits(out[m], want[r * nm + m]))
          << "row " << r << " model " << m;
    }
    EXPECT_EQ(flat.ArgMin(rows[r]), best) << "row " << r;
  }
  std::vector<const double*> ptrs;
  for (const auto& row : rows) ptrs.push_back(row.data());
  const simd::Tier saved = simd::ActiveTier();
  for (const simd::Tier tier : {simd::Tier::kScalar, simd::DetectedTier()}) {
    simd::ForceTier(tier);
    std::vector<double> batch(rows.size() * nm);
    flat.PredictAllBatch(ptrs, batch);
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_TRUE(SameBits(batch[i], want[i]))
          << "tier " << simd::TierName(tier) << " output " << i;
    }
  }
  simd::ForceTier(saved);
}

TEST(FlatEnsembleSetTest, SixtyFourLeafTreesScoreBitExactly) {
  // Trees that fill all 64 bits of the leaf bitvector take the all-ones
  // init_mask branch of the compiler; they must score exactly like the
  // tree walk on every path, including after a snapshot mmap round trip.
  const auto records = ::rpe::testing::RandomRecords(600, 71);
  MartParams params;
  params.num_trees = 6;
  params.tree.max_leaves = static_cast<int>(kMaxTreeLeaves);
  params.tree.min_examples_per_leaf = 2;
  const SelectorStack stack =
      SelectorStack::Train(records, PoolOriginalThree(), params);

  std::vector<std::vector<double>> rows;
  for (size_t i = 0; i < 67; ++i) rows.push_back(records[i].features);
  rows[3][0] = std::numeric_limits<double>::quiet_NaN();
  rows[5][1] = -std::numeric_limits<double>::infinity();

  for (const EstimatorSelector* selector :
       {&stack.static_selector, &stack.dynamic_selector}) {
    size_t widest = 0;
    for (const MartModel& model : selector->models()) {
      for (const RegressionTree& tree : model.trees()) {
        widest = std::max(widest, tree.num_leaves());
      }
    }
    ASSERT_EQ(widest, kMaxTreeLeaves) << "fixture no longer fills 64 leaves";
    ExpectScoresMatchModels(selector->models(), selector->flat(), rows);
  }

  const std::string path = std::filesystem::temp_directory_path().string() +
                           "/" + std::to_string(::getpid()) +
                           "_rpe_flat_64_leaves.rpsn";
  ASSERT_TRUE(SaveSelectorStack(stack, path).ok());
  auto mapped = LoadSelectorStackMmap(path);
  std::remove(path.c_str());
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ExpectScoresMatchModels(stack.static_selector.models(),
                          mapped->stack->static_selector.flat(), rows);
  ExpectScoresMatchModels(stack.dynamic_selector.models(),
                          mapped->stack->dynamic_selector.flat(), rows);
}

/// The serving corpus's column mix at its size (about 320 records × 200
/// features): continuous columns with more distinct values than the 255
/// bins, discrete columns with a handful of levels, and exact duplicates
/// of an earlier column — the shapes whose small leaves take the
/// occupied-bin sweep and whose gains tie across features.
void ServingShapeColumns(std::vector<double>* x) {
  for (size_t f = 0; f < x->size(); ++f) {
    if (f % 4 == 1) (*x)[f] = std::floor((*x)[f] * 5.0);
    if (f % 4 == 2) (*x)[f] = (*x)[f - 2];
  }
}

Dataset ServingShapedDataset(size_t n, size_t nf, uint64_t seed) {
  Dataset data(nf);
  Rng rng(seed);
  std::vector<double> x(nf);
  for (size_t i = 0; i < n; ++i) {
    for (auto& v : x) v = rng.NextDouble();
    ServingShapeColumns(&x);
    const double y = x[0] * 0.7 + x[1] * 0.1 + (x[3] > 0.4 ? 0.5 : -0.2) +
                     0.1 * rng.NextGaussian();
    RPE_CHECK_OK(data.AddExample(x, y));
  }
  return data;
}

// Training determinism: the fitted model (and therefore its serialized
// text) must be byte-identical at any thread count — histogram
// accumulation and the split sweep parallelize over feature blocks whose
// per-feature adds always run in example order, the reduction happens in
// feature order on the caller, and the prediction update writes per-index
// slots only.
TEST(ParallelTrainingTest, SerializedModelsAreThreadCountInvariant) {
  struct Input {
    const char* name;
    Dataset data;
    double subsample;
  };
  const Input inputs[] = {
      {"3000x10 continuous", RandomDataset(3000, 10, 31), 0.8},
      {"320x200 serving-shaped", ServingShapedDataset(320, 200, 37), 1.0},
  };
  for (const Input& input : inputs) {
    MartParams params;
    params.num_trees = 30;
    params.subsample = input.subsample;

    ThreadPool sequential(1);
    params.pool = &sequential;
    const std::string blob_seq =
        MartModel::Train(input.data, params).Serialize();
    for (const int threads : {2, 4, 8}) {
      ThreadPool pool(threads);
      params.pool = &pool;
      EXPECT_EQ(blob_seq, MartModel::Train(input.data, params).Serialize())
          << input.name << " threads=" << threads;
    }
  }
}

// The same invariance one level up, on what the server publishes: both
// selectors of a six-candidate stack, trained on serving-shaped records,
// encode to the same snapshot bytes at any thread count.
TEST(ParallelTrainingTest, SelectorStackEncodesIdenticallyAtAnyThreadCount) {
  auto records = ::rpe::testing::RandomRecords(320, 41);
  for (auto& r : records) ServingShapeColumns(&r.features);
  MartParams params = EstimatorSelector::DefaultParams();
  params.num_trees = 10;

  std::string reference;
  for (const int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    params.pool = &pool;
    const std::string encoded =
        EncodeSelectorStack(SelectorStack::Train(records, PoolSix(), params));
    if (reference.empty()) {
      reference = encoded;
    } else {
      EXPECT_EQ(encoded, reference) << "threads=" << threads;
    }
  }
  ASSERT_FALSE(reference.empty());
}

}  // namespace
}  // namespace rpe
