// FlatEnsemble tests: bit-exact equivalence with MartModel::Predict across
// random models and inputs, the serialize → deserialize → flatten round
// trip, batch and multi-model scoring, and thread-count invariance of
// training (parallel training must serialize byte-identically).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "mart/flat_ensemble.h"
#include "serving/snapshot.h"
#include "tests/test_util.h"

namespace rpe {
namespace {

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
    FlatEnsemble flat = FlatEnsemble::Compile(model);
    ASSERT_EQ(flat.num_trees(), model.num_trees());

    Rng rng(100 + seed);
    std::vector<double> x(6);
    for (int trial = 0; trial < 200; ++trial) {
      for (auto& v : x) v = rng.NextDouble() * 2.0 - 0.5;
      EXPECT_EQ(model.Predict(x), flat.Predict(x))
          << "seed " << seed << " trial " << trial;
    }
    for (size_t i = 0; i < data.num_examples(); ++i) {
      ASSERT_EQ(model.Predict(data.ExampleSpan(i)),
                flat.Predict(data.ExampleSpan(i)));
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

  FlatEnsemble flat = FlatEnsemble::Compile(model);
  FlatEnsemble flat_restored = FlatEnsemble::Compile(*restored);
  ASSERT_EQ(flat.num_nodes(), flat_restored.num_nodes());
  for (size_t i = 0; i < 300; ++i) {
    const auto x = data.ExampleSpan(i);
    EXPECT_EQ(flat.Predict(x), flat_restored.Predict(x));
    EXPECT_EQ(flat_restored.Predict(x), model.Predict(x));
  }
}

TEST(FlatEnsembleTest, PredictBatchMatchesScalarPredict) {
  Dataset data = RandomDataset(700, 8, 17);
  MartParams params;
  params.num_trees = 25;
  MartModel model = MartModel::Train(data, params);
  FlatEnsemble flat = FlatEnsemble::Compile(model);

  std::vector<double> batch(data.num_examples());
  flat.PredictBatch(data, batch);
  for (size_t i = 0; i < data.num_examples(); ++i) {
    ASSERT_EQ(batch[i], model.Predict(data.ExampleSpan(i)));
  }
}

TEST(FlatEnsembleTest, EmptyModelPredictsBias) {
  Dataset empty(3);
  MartModel model = MartModel::Train(empty, {});
  FlatEnsemble flat = FlatEnsemble::Compile(model);
  EXPECT_EQ(flat.Predict(std::vector<double>{1.0, 2.0, 3.0}), 0.0);
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

TEST(FlatEnsembleSetTest, WideTreesUseWalkFallbackBitExactly) {
  // Trees over 64 leaves exceed the QuickScorer bitvector, so the set
  // must score those models through the compiled walk path instead —
  // still bit-exact, including the per-model tree-range offsets.
  Dataset data = RandomDataset(4000, 6, 57);
  std::vector<MartModel> models;
  for (int m = 0; m < 3; ++m) {
    MartParams params;
    params.num_trees = 10;
    params.tree.max_leaves = 100;
    params.tree.min_examples_per_leaf = 2;
    params.seed = static_cast<uint64_t>(m + 1);
    models.push_back(MartModel::Train(data, params));
  }
  size_t wide_leaves = 0;
  for (const auto& tree : models[0].trees()) {
    wide_leaves = std::max(wide_leaves, tree.num_leaves());
  }
  ASSERT_GT(wide_leaves, 64u) << "fixture no longer exercises the fallback";

  FlatEnsembleSet set = FlatEnsembleSet::Compile(models);
  std::vector<double> out(models.size());
  for (size_t i = 0; i < 200; ++i) {
    const auto x = data.ExampleSpan(i);
    set.PredictAll(x, out);
    for (size_t m = 0; m < models.size(); ++m) {
      ASSERT_EQ(out[m], models[m].Predict(x));
    }
  }
}

TEST(FlatEnsembleSetTest, NonFiniteFeaturesMatchTreeWalkExactly) {
  // The tree walk sends NaN right at every split (x <= t is false), -inf
  // always left, +inf always right; the compiled scorers must agree.
  Dataset data = RandomDataset(800, 4, 41);
  MartParams params;
  params.num_trees = 20;
  std::vector<MartModel> models = {MartModel::Train(data, params)};
  FlatEnsembleSet set = FlatEnsembleSet::Compile(models);
  FlatEnsemble flat = FlatEnsemble::Compile(models[0]);

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
    EXPECT_EQ(flat.Predict(x), expected);
    set.PredictAll(x, out);
    EXPECT_EQ(out[0], expected);
  }
}

TEST(FlatEnsembleSetTest, MixedWideAndNarrowModelsStayBitExact) {
  // A set mixing QuickScorer-usable models with a >64-leaf one cannot use
  // the merged shared-feature loop; it must fall back to per-model scoring
  // (narrow models via their own tables, the wide one via the walk) and
  // still match MartModel::Predict bit for bit.
  Dataset data = RandomDataset(4000, 6, 61);
  std::vector<MartModel> models;
  for (int m = 0; m < 3; ++m) {
    MartParams params;
    params.num_trees = 12;
    if (m == 1) {
      params.tree.max_leaves = 100;
      params.tree.min_examples_per_leaf = 2;
    }
    params.seed = static_cast<uint64_t>(m + 1);
    models.push_back(MartModel::Train(data, params));
  }
  size_t widest = 0;
  for (const auto& tree : models[1].trees()) {
    widest = std::max(widest, tree.num_leaves());
  }
  ASSERT_GT(widest, 64u) << "fixture no longer mixes usabilities";

  FlatEnsembleSet set = FlatEnsembleSet::Compile(models);
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
