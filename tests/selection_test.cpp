// Estimator-selection tests: feature schema/extraction, record handling,
// selector training and the candidate pools.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>

#include "common/thread_pool.h"
#include "exec/executor.h"
#include "harness/runner.h"
#include "selection/monitor.h"
#include "selection/selector.h"
#include "tests/test_util.h"

namespace rpe {
namespace {

using ::rpe::testing::MakeSmallCatalog;

/// The straightforward ExtractAllFeatures: every marker and sub-marker is
/// its own MarkerObservation scan, every feature cell its own Estimate
/// call. The one-pass extractor must match it bit for bit.
std::vector<double> ReferenceExtractAllFeatures(const PipelineView& view) {
  constexpr EstimatorKind kDivergencePairs[][2] = {
      {EstimatorKind::kDne, EstimatorKind::kTgn},
      {EstimatorKind::kDne, EstimatorKind::kTgnInt},
      {EstimatorKind::kTgn, EstimatorKind::kTgnInt},
  };
  constexpr size_t kNumPairs = 3;
  constexpr EstimatorKind kCorEstimators[] = {
      EstimatorKind::kDne,      EstimatorKind::kTgn,
      EstimatorKind::kLuo,      EstimatorKind::kBatchDne,
      EstimatorKind::kDneSeek,  EstimatorKind::kTgnInt,
  };
  constexpr size_t kNumCorEstimators = 6;

  std::vector<double> features = ExtractStaticFeatures(view);
  const FeatureSchema& schema = FeatureSchema::Get();

  // Marker observations t{x}.
  int marker_obs[kNumMarkers];
  for (size_t m = 0; m < kNumMarkers; ++m) {
    marker_obs[m] =
        MarkerObservation(view, static_cast<double>(kMarkerPercents[m]));
  }

  // Pairwise divergences at each marker.
  const ProgressEstimator* pair_ests[kNumPairs][2];
  for (size_t pi = 0; pi < kNumPairs; ++pi) {
    pair_ests[pi][0] = &GetEstimator(kDivergencePairs[pi][0]);
    pair_ests[pi][1] = &GetEstimator(kDivergencePairs[pi][1]);
  }
  for (size_t pi = 0; pi < kNumPairs; ++pi) {
    for (size_t m = 0; m < kNumMarkers; ++m) {
      double value = 0.0;
      if (marker_obs[m] >= 0) {
        const size_t oi = static_cast<size_t>(marker_obs[m]);
        value = std::abs(pair_ests[pi][0]->Estimate(view, oi) -
                         pair_ests[pi][1]->Estimate(view, oi));
      }
      features.push_back(value);
    }
  }

  // Time-correlation features Cor_{e,i,x}, i = 1..k (k = 4): how the time
  // elapsed at sub-markers i*x/k relates to the estimator's value at t{x}.
  const double start = view.pipeline->start_time;
  for (size_t e = 0; e < kNumCorEstimators; ++e) {
    const ProgressEstimator& est = GetEstimator(kCorEstimators[e]);
    for (size_t i = 1; i <= kCorSteps; ++i) {
      for (size_t m = 0; m < kNumMarkers; ++m) {
        double value = 0.0;
        const double x = static_cast<double>(kMarkerPercents[m]);
        const int t_first =
            MarkerObservation(view, x / static_cast<double>(kCorSteps));
        const int t_i = MarkerObservation(
            view, x * static_cast<double>(i) / static_cast<double>(kCorSteps));
        const int t_x = marker_obs[m];
        if (t_first >= 0 && t_i >= 0 && t_x >= 0) {
          const double denom_time =
              view.obs(static_cast<size_t>(t_first)).vtime - start;
          const double est_at_x =
              est.Estimate(view, static_cast<size_t>(t_x));
          if (denom_time > 0.0 && est_at_x > 1e-6) {
            const double num_time =
                view.obs(static_cast<size_t>(t_i)).vtime - start;
            value = (num_time / denom_time) * (1.0 / est_at_x);
            value = std::min(value, 1e4);  // keep outliers bounded
          }
        }
        features.push_back(value);
      }
    }
  }
  RPE_CHECK_EQ(features.size(), schema.num_features());
  return features;
}

/// ExtractAllFeatures and ResolveMarkers against the per-threshold
/// reference: every table entry equals its MarkerObservation scan and the
/// feature vectors are memcmp-equal.
void ExpectMatchesReference(const PipelineView& view,
                            const std::string& label) {
  const MarkerTable markers = ResolveMarkers(view);
  for (size_t m = 0; m < kNumMarkers; ++m) {
    const double x = static_cast<double>(kMarkerPercents[m]);
    for (size_t i = 1; i <= kCorSteps; ++i) {
      const double pct =
          x * static_cast<double>(i) / static_cast<double>(kCorSteps);
      EXPECT_EQ(markers.at[m][i - 1], MarkerObservation(view, pct))
          << label << " x=" << x << " i=" << i;
    }
  }
  const std::vector<double> got = ExtractAllFeatures(view);
  const std::vector<double> want = ReferenceExtractAllFeatures(view);
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t f = 0; f < got.size(); ++f) {
    if (std::memcmp(&got[f], &want[f], sizeof(double)) != 0) {
      ADD_FAILURE() << label << ": feature " << FeatureSchema::Get().name(f)
                    << " is " << got[f] << ", reference " << want[f];
      return;
    }
  }
}

/// Driver fraction at observation oi, as MarkerObservation computes it.
double DriverFractionAt(const PipelineView& view, int oi) {
  const Observation& obs = view.obs(static_cast<size_t>(oi));
  const double k = SumK(obs, view.pipeline->driver_nodes);
  const double e = SumE(obs, view.pipeline->driver_nodes);
  return e > 0.0 ? k / e : (k > 0.0 ? 1.0 : 0.0);
}

class SelectionTest : public ::testing::Test {
 protected:
  void SetUp() override { catalog_ = MakeSmallCatalog(); }

  static void AnnotateEstimates(PlanNode* node, double est) {
    node->est_rows = est;
    for (auto& c : node->children) AnnotateEstimates(c.get(), est * 0.8);
  }

  QueryRunResult Run(std::unique_ptr<PlanNode> root) {
    // Hand-built plans lack planner cardinality annotations; the static
    // features are defined over them, so fill plausible estimates.
    AnnotateEstimates(root.get(), 1000.0);
    auto plan = FinalizePlan(std::move(root), *catalog_);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    plans_.push_back(std::move(plan).ValueOrDie());
    auto result = ExecutePlan(*plans_.back(), *catalog_);
    EXPECT_TRUE(result.ok());
    return std::move(result).ValueOrDie();
  }

  std::unique_ptr<Catalog> catalog_;
  std::vector<std::unique_ptr<PhysicalPlan>> plans_;
};

TEST_F(SelectionTest, SchemaLayoutIsStable) {
  const FeatureSchema& schema = FeatureSchema::Get();
  // 12 ops x 5 encodings + 8 extras static; 3 pairs x 5 markers + 6
  // estimators x 4 steps x 5 markers dynamic.
  EXPECT_EQ(schema.num_static_features(), 12u * 5 + 8);
  EXPECT_EQ(schema.num_features(),
            schema.num_static_features() + 3 * 5 + 6 * 4 * 5);
  EXPECT_EQ(schema.name(0), "Count_TableScan");
  EXPECT_EQ(schema.name(schema.num_static_features()), "DNEvsTGN_1");
}

TEST_F(SelectionTest, StaticFeaturesEncodePlanShape) {
  auto run = Run(MakeNestedLoopJoin(MakeTableScan("t_fact"),
                                    MakeIndexSeek("t_dim", "d_id"), 1));
  PipelineView view{&run, &run.pipelines[0]};
  const auto features = ExtractStaticFeatures(view);
  const FeatureSchema& schema = FeatureSchema::Get();

  auto feature_by_name = [&](const std::string& name) {
    for (size_t i = 0; i < schema.num_features(); ++i) {
      if (schema.name(i) == name) return features[i];
    }
    ADD_FAILURE() << "no feature " << name;
    return 0.0;
  };
  EXPECT_DOUBLE_EQ(feature_by_name("Count_NestedLoopJoin"), 1.0);
  EXPECT_DOUBLE_EQ(feature_by_name("Count_IndexSeek"), 1.0);
  EXPECT_DOUBLE_EQ(feature_by_name("Count_TableScan"), 1.0);
  EXPECT_DOUBLE_EQ(feature_by_name("Count_HashJoin"), 0.0);
  EXPECT_DOUBLE_EQ(feature_by_name("HasNljInner"), 1.0);
  EXPECT_DOUBLE_EQ(feature_by_name("NumDrivers"), 1.0);
  // SelAtDN: scan E over total E, strictly between 0 and 1.
  const double sel_at_dn = feature_by_name("SelAtDN");
  EXPECT_GT(sel_at_dn, 0.0);
  EXPECT_LT(sel_at_dn, 1.0);
}

TEST_F(SelectionTest, SelAboveBelowRelations) {
  auto run = Run(MakeFilter(MakeTableScan("t_fact"), Predicate::Le(2, 25)));
  PipelineView view{&run, &run.pipelines[0]};
  const auto features = ExtractStaticFeatures(view);
  const FeatureSchema& schema = FeatureSchema::Get();
  auto idx = [&](const std::string& name) {
    for (size_t i = 0; i < schema.num_features(); ++i) {
      if (schema.name(i) == name) return i;
    }
    return static_cast<size_t>(-1);
  };
  // The filter node has a TableScan descendant -> SelAbove_TableScan
  // includes the filter's E; the scan is below a Filter ->
  // SelBelow_Filter includes the scan's E.
  EXPECT_GT(features[idx("SelAbove_TableScan")], 0.0);
  EXPECT_GT(features[idx("SelBelow_Filter")], 0.0);
  // The scan has no descendants -> nothing is "above" a Filter w.r.t. it.
  EXPECT_DOUBLE_EQ(features[idx("SelAbove_Filter")], 0.0);
}

TEST_F(SelectionTest, MarkerObservationsAreOrdered) {
  auto run = Run(MakeTableScan("t_fact"));
  PipelineView view{&run, &run.pipelines[0]};
  int prev = -1;
  for (double pct : {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0}) {
    const int obs = MarkerObservation(view, pct);
    ASSERT_GE(obs, 0) << pct;
    EXPECT_GE(obs, prev);
    prev = obs;
  }
}

TEST_F(SelectionTest, OnePassExtractionMatchesReferenceOnEdgeCases) {
  const QueryRunResult base = Run(MakeTableScan("t_fact"));
  const Pipeline& pipe = base.pipelines[0];
  ASSERT_GE(pipe.first_obs, 0);
  {
    PipelineView view{&base, &pipe};
    ExpectMatchesReference(view, "unmodified");
  }
  auto scale_drivers = [&](QueryRunResult* run, int from, int to,
                           double k_factor, double e_factor) {
    for (int oi = from; oi <= to; ++oi) {
      Observation& obs = run->observations[static_cast<size_t>(oi)];
      for (int id : pipe.driver_nodes) {
        obs.k[static_cast<size_t>(id)] *= k_factor;
        obs.e[static_cast<size_t>(id)] *= e_factor;
      }
    }
  };
  const int t2 = MarkerObservation(PipelineView{&base, &pipe}, 2.0);
  const int t20 = MarkerObservation(PipelineView{&base, &pipe}, 20.0);
  ASSERT_GE(t2, 0);
  ASSERT_GT(t20, t2 + 4);

  {
    // E revised upward right after the 2% marker: the fraction dips back
    // below 1% before climbing again, so thresholds between the dip and
    // the old fraction must keep their first crossing.
    QueryRunResult run = base;
    scale_drivers(&run, t2 + 1, t2 + 3, 1.0, 8.0);
    PipelineView view{&run, &run.pipelines[0]};
    EXPECT_LT(DriverFractionAt(view, t2 + 1), 0.01);
    ExpectMatchesReference(view, "dip after marker");
  }
  {
    // The fraction zigzags on every observation.
    QueryRunResult run = base;
    for (int oi = pipe.first_obs; oi <= pipe.last_obs; oi += 2) {
      scale_drivers(&run, oi, oi, 1.0, 3.0);
    }
    ExpectMatchesReference(PipelineView{&run, &run.pipelines[0]}, "zigzag");
  }
  {
    QueryRunResult run = base;
    scale_drivers(&run, pipe.first_obs, pipe.last_obs, 0.005, 1.0);
    PipelineView view{&run, &run.pipelines[0]};
    EXPECT_EQ(MarkerObservation(view, 1.0), -1);
    ExpectMatchesReference(view, "never reaches 1%");
  }
  {
    QueryRunResult run = base;
    run.pipelines[0].last_obs = t20 - 1;
    PipelineView view{&run, &run.pipelines[0]};
    EXPECT_GE(MarkerObservation(view, 5.0), 0);
    EXPECT_EQ(MarkerObservation(view, 20.0), -1);
    ExpectMatchesReference(view, "reaches 5% but not 20%");
  }
  {
    // All-zero driver E: the fraction is 1 as soon as K > 0.
    QueryRunResult run = base;
    scale_drivers(&run, pipe.first_obs, pipe.last_obs, 1.0, 0.0);
    PipelineView view{&run, &run.pipelines[0]};
    EXPECT_GE(MarkerObservation(view, 20.0), 0);
    ExpectMatchesReference(view, "zero driver E");
  }
  {
    QueryRunResult run = base;
    run.pipelines[0].last_obs = run.pipelines[0].first_obs;
    ExpectMatchesReference(PipelineView{&run, &run.pipelines[0]},
                           "single observation");
  }
  {
    QueryRunResult run = base;
    run.pipelines[0].first_obs = -1;
    run.pipelines[0].last_obs = -1;
    PipelineView view{&run, &run.pipelines[0]};
    const MarkerTable markers = ResolveMarkers(view);
    for (const auto& row : markers.at) {
      for (int oi : row) EXPECT_EQ(oi, -1);
    }
  }
}

/// Generated TPC-H and TPC-DS workloads with their runs kept.
class ExtractionWorkloadTest : public ::testing::TestWithParam<WorkloadKind> {
 protected:
  static WorkloadConfig Config(WorkloadKind kind) {
    WorkloadConfig config;
    config.kind = kind;
    config.name = WorkloadKindName(kind);
    config.scale = 2.0;
    config.num_queries = 40;
    config.seed = 11;
    return config;
  }
};

TEST_P(ExtractionWorkloadTest, OnePassExtractionAndDecisionsMatchReference) {
  auto workload = BuildWorkload(Config(GetParam()));
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  const WorkloadRun runs =
      PlanAndExecuteWorkload(*workload, RunOptions{}, "", /*keep_runs=*/true);
  ASSERT_GT(runs.runs.size(), 10u);
  ASSERT_GT(runs.records.size(), 10u);

  size_t started = 0;
  for (const OwnedRun& owned : runs.runs) {
    for (const Pipeline& pipeline : owned.result.pipelines) {
      if (pipeline.first_obs < 0) continue;
      ++started;
      ExpectMatchesReference(PipelineView{&owned.result, &pipeline},
                             "pipeline " + std::to_string(started));
    }
  }
  EXPECT_GT(started, runs.runs.size());

  MartParams params;
  params.num_trees = 10;
  params.tree.max_leaves = 8;
  const EstimatorSelector static_sel = EstimatorSelector::Train(
      runs.records, PoolSix(), /*use_dynamic_features=*/false, params);
  const EstimatorSelector dynamic_sel = EstimatorSelector::Train(
      runs.records, PoolSix(), /*use_dynamic_features=*/true, params);
  const ProgressMonitor monitor(&static_sel, &dynamic_sel);
  std::vector<const QueryRunResult*> ptrs;
  for (const OwnedRun& owned : runs.runs) ptrs.push_back(&owned.result);
  const auto batched = monitor.DecideForRuns(ptrs);
  ASSERT_EQ(batched.size(), ptrs.size());
  size_t revised = 0;
  for (size_t r = 0; r < ptrs.size(); ++r) {
    const QueryRunResult& run = *ptrs[r];
    const auto single = monitor.DecideForRun(run);
    ASSERT_EQ(single.size(), batched[r].size());
    for (size_t p = 0; p < single.size(); ++p) {
      const auto& a = single[p];
      const auto& b = batched[r][p];
      EXPECT_EQ(a.pipeline_id, b.pipeline_id);
      EXPECT_EQ(a.initial_choice, b.initial_choice);
      EXPECT_EQ(a.revised_choice, b.revised_choice);
      EXPECT_EQ(a.revision_obs, b.revision_obs);
      // And both equal per-row scoring of the reference features.
      const PipelineView view{&run, &run.pipelines[p]};
      EXPECT_EQ(a.revision_obs, MarkerObservation(view, 20.0));
      if (run.pipelines[p].first_obs < 0) continue;
      EXPECT_EQ(a.initial_choice,
                static_sel.Select(ExtractStaticFeatures(view)));
      if (a.revision_obs < 0) {
        EXPECT_FALSE(a.revised_choice.has_value());
        continue;
      }
      ++revised;
      EXPECT_EQ(a.revised_choice,
                dynamic_sel.Select(ReferenceExtractAllFeatures(view)));
    }
  }
  EXPECT_GT(revised, 0u);
}

INSTANTIATE_TEST_SUITE_P(Generated, ExtractionWorkloadTest,
                         ::testing::Values(WorkloadKind::kTpch,
                                           WorkloadKind::kTpcds),
                         [](const auto& info) {
                           return std::string(WorkloadKindName(info.param));
                         });

TEST_F(SelectionTest, FullFeatureVectorHasSchemaArity) {
  auto run = Run(MakeHashJoin(MakeTableScan("t_dim"), MakeTableScan("t_fact"),
                              0, 1));
  for (const auto& pipeline : run.pipelines) {
    if (pipeline.first_obs < 0) continue;
    PipelineView view{&run, &pipeline};
    const auto features = ExtractAllFeatures(view);
    EXPECT_EQ(features.size(), FeatureSchema::Get().num_features());
    for (double f : features) {
      EXPECT_TRUE(std::isfinite(f));
    }
  }
}

TEST_F(SelectionTest, RecordCapturesErrorsAndFeatures) {
  auto run = Run(MakeFilter(MakeTableScan("t_fact"), Predicate::Ge(2, 10)));
  PipelineView view{&run, &run.pipelines[0]};
  PipelineRecord record;
  ASSERT_TRUE(MakeRecord(view, "wl", "q1", "tag", &record));
  EXPECT_EQ(record.workload, "wl");
  EXPECT_EQ(record.l1.size(), static_cast<size_t>(kNumEstimatorKinds));
  EXPECT_GT(record.total_n, 0.0);
  EXPECT_LT(record.BestEstimator(),
            static_cast<size_t>(kNumSelectableEstimators));
}

TEST_F(SelectionTest, RecordSkipsShortPipelines) {
  auto run = Run(MakeTableScan("t_dim"));  // tiny: few observations
  PipelineView view{&run, &run.pipelines[0]};
  PipelineRecord record;
  EXPECT_FALSE(MakeRecord(view, "wl", "q", "", &record,
                          /*min_observations=*/100000));
}

TEST_F(SelectionTest, CsvRejectsMismatchedArityWithLineNumber) {
  auto run = Run(MakeFilter(MakeTableScan("t_fact"), Predicate::Ge(2, 10)));
  PipelineView view{&run, &run.pipelines[0]};
  PipelineRecord record;
  ASSERT_TRUE(MakeRecord(view, "wl", "q1", "tag", &record));
  const std::string csv = RecordsToCsv({record, record, record});
  ASSERT_TRUE(RecordsFromCsv(csv).ok());

  // Drop the last l2 column of the second data row: its l1/l2 arity no
  // longer matches SelectableEstimators and the row must be rejected with
  // its line number (header = line 1, so row 2 is line 3).
  std::vector<std::string> lines;
  std::istringstream in(csv);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);
  std::string truncated = lines[2].substr(0, lines[2].rfind(','));
  const std::string bad_arity =
      lines[0] + "\n" + lines[1] + "\n" + truncated + "\n" + lines[3] + "\n";
  auto result = RecordsFromCsv(bad_arity);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 3"), std::string::npos)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("columns"), std::string::npos);

  // Extra columns are equally a mismatch, not silently ignored.
  const std::string extra =
      lines[0] + "\n" + lines[1] + ",0.5\n" + lines[2] + "\n" + lines[3] +
      "\n";
  result = RecordsFromCsv(extra);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos);

  // Non-numeric cells name the offending line too.
  std::string garbled = csv;
  const size_t pos = garbled.rfind(",");
  garbled.replace(pos + 1, garbled.size() - pos - 2, "not-a-number");
  result = RecordsFromCsv(garbled);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 4"), std::string::npos)
      << result.status().ToString();

  // A fractional pipeline id is not silently truncated.
  std::string frac = csv;
  ASSERT_NE(frac.find("wl,q1,0,"), std::string::npos);
  frac.replace(frac.find("wl,q1,0,"), 8, "wl,q1,0.5,");
  result = RecordsFromCsv(frac);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("bad integer"), std::string::npos);

  // CRLF input still loads (the strict parser strips the trailing \r).
  std::string crlf;
  for (char c : csv) {
    if (c == '\n') crlf += "\r\n";
    else crlf += c;
  }
  auto crlf_result = RecordsFromCsv(crlf);
  EXPECT_TRUE(crlf_result.ok()) << crlf_result.status().ToString();
  EXPECT_EQ(crlf_result->size(), 3u);
}

TEST_F(SelectionTest, PoolsAreConsistent) {
  EXPECT_EQ(PoolOriginalThree().size(), 3u);
  EXPECT_EQ(PoolSix().size(), 6u);
  EXPECT_EQ(PoolAll().size(), static_cast<size_t>(kNumSelectableEstimators));
  for (size_t est : PoolSix()) {
    EXPECT_LT(est, static_cast<size_t>(kNumSelectableEstimators));
    EXPECT_NE(est, static_cast<size_t>(EstimatorKind::kSafe));
    EXPECT_NE(est, static_cast<size_t>(EstimatorKind::kPmax));
  }
}

namespace {

/// Synthetic records where the best estimator is a deterministic function
/// of one feature — a selector must learn this mapping.
std::vector<PipelineRecord> SyntheticRecords(size_t n, uint64_t seed) {
  const FeatureSchema& schema = FeatureSchema::Get();
  Rng rng(seed);
  std::vector<PipelineRecord> records;
  for (size_t i = 0; i < n; ++i) {
    PipelineRecord r;
    r.workload = "syn";
    r.query = "q" + std::to_string(i);
    r.features.assign(schema.num_features(), 0.0);
    const double signal = rng.NextDouble();
    r.features[0] = signal;                      // Count_TableScan as signal
    r.features[5] = rng.NextDouble();            // noise
    r.l1.assign(kNumEstimatorKinds, 0.5);
    r.l2.assign(kNumEstimatorKinds, 0.5);
    // DNE wins when signal < 0.5, TGN when >= 0.5.
    if (signal < 0.5) {
      r.l1[0] = 0.05;
      r.l1[1] = 0.4;
    } else {
      r.l1[0] = 0.4;
      r.l1[1] = 0.05;
    }
    r.l1[2] = 0.3;  // LUO mediocre everywhere
    records.push_back(std::move(r));
  }
  return records;
}

}  // namespace

TEST_F(SelectionTest, SelectorLearnsDeterministicRule) {
  const auto train = SyntheticRecords(600, 1);
  const auto test = SyntheticRecords(200, 2);
  MartParams params;
  params.num_trees = 40;
  params.tree.max_leaves = 8;
  EstimatorSelector selector = EstimatorSelector::Train(
      train, PoolOriginalThree(), /*use_dynamic=*/false, params);
  size_t correct = 0;
  for (const auto& r : test) {
    if (selector.SelectForRecord(r) == r.BestEstimator()) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / test.size(), 0.95);
}

TEST_F(SelectionTest, PredictErrorsAlignsWithPool) {
  const auto train = SyntheticRecords(300, 3);
  MartParams params;
  params.num_trees = 20;
  EstimatorSelector selector = EstimatorSelector::Train(
      train, PoolSix(), /*use_dynamic=*/true, params);
  const auto predicted = selector.PredictErrors(train[0].features);
  EXPECT_EQ(predicted.size(), 6u);
  EXPECT_TRUE(selector.uses_dynamic_features());
}

TEST_F(SelectionTest, FeatureImportanceConcentratesOnSignal) {
  const auto train = SyntheticRecords(800, 4);
  MartParams params;
  params.num_trees = 40;
  params.tree.max_leaves = 8;
  EstimatorSelector selector = EstimatorSelector::Train(
      train, PoolOriginalThree(), /*use_dynamic=*/false, params);
  const auto gains = selector.FeatureImportance();
  // Feature 0 carries all signal; feature 5 is pure noise.
  EXPECT_GT(gains[0], 10.0 * (gains[5] + 1e-12));
}

TEST_F(SelectionTest, ParallelTrainingIsByteIdenticalToSequential) {
  const auto train = SyntheticRecords(300, 5);
  MartParams params;
  params.num_trees = 15;
  params.tree.max_leaves = 8;
  ThreadPool sequential(1);
  ThreadPool parallel(4);

  params.pool = &sequential;
  const EstimatorSelector a = EstimatorSelector::Train(
      train, PoolOriginalThree(), /*use_dynamic=*/false, params);
  params.pool = &parallel;
  const EstimatorSelector b = EstimatorSelector::Train(
      train, PoolOriginalThree(), /*use_dynamic=*/false, params);

  ASSERT_EQ(a.models().size(), b.models().size());
  for (size_t i = 0; i < a.models().size(); ++i) {
    EXPECT_EQ(a.models()[i].Serialize(), b.models()[i].Serialize());
  }
  // And the compiled scoring path agrees decision-for-decision.
  for (const auto& r : train) {
    EXPECT_EQ(a.SelectForRecord(r), b.SelectForRecord(r));
    EXPECT_EQ(a.PredictErrors(r.features), b.PredictErrors(r.features));
  }
}

}  // namespace
}  // namespace rpe
