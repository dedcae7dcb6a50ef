// ProgressMonitor tests: the online select-then-revise protocol over
// recorded runs.
#include <gtest/gtest.h>

#include <cstring>

#include "common/simd.h"
#include "harness/runner.h"
#include "selection/features.h"
#include "selection/monitor.h"

namespace rpe {
namespace {

using Decisions = std::vector<ProgressMonitor::PipelineDecision>;

/// The straightforward query progress of Eq. 5: a fresh weight vector and
/// an estimator lookup per pipeline at every observation. The compiled
/// Stepper must match it bit for bit.
double ReferenceQueryProgressAt(const QueryRunResult& run,
                                const Decisions& decisions, size_t oi) {
  const Observation& obs = run.observations[oi];
  double total_e = 0.0;
  std::vector<double> weights(run.pipelines.size(), 0.0);
  for (size_t p = 0; p < run.pipelines.size(); ++p) {
    double e = 0.0;
    for (int id : run.pipelines[p].nodes) {
      e += obs.e[static_cast<size_t>(id)];
    }
    weights[p] = e;
    total_e += e;
  }
  if (total_e <= 0.0) return 0.0;
  double progress = 0.0;
  for (size_t p = 0; p < run.pipelines.size(); ++p) {
    const Pipeline& pipeline = run.pipelines[p];
    const ProgressMonitor::PipelineDecision& d = decisions[p];
    double value;
    if (pipeline.first_obs < 0 ||
        static_cast<int>(oi) < pipeline.first_obs) {
      value = 0.0;
    } else if (static_cast<int>(oi) > pipeline.last_obs) {
      value = 1.0;
    } else {
      const bool revised = d.revised_choice.has_value() &&
                           static_cast<int>(oi) >= d.revision_obs;
      const size_t choice = revised ? *d.revised_choice : d.initial_choice;
      const ProgressEstimator& estimator =
          GetEstimator(static_cast<EstimatorKind>(choice));
      value = estimator.Estimate(PipelineView{&run, &pipeline}, oi);
    }
    progress += value * (weights[p] / total_e);
  }
  return std::clamp(progress, 0.0, 1.0);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Every pipeline starts on `before` and, once it reaches t{20}, switches
/// to `after` — the decision shape DecideForRun produces, with the
/// choices forced.
Decisions ForcedDecisions(const QueryRunResult& run, size_t before,
                          size_t after) {
  Decisions decisions;
  for (const Pipeline& pipeline : run.pipelines) {
    ProgressMonitor::PipelineDecision d;
    d.pipeline_id = pipeline.id;
    d.initial_choice = before;
    if (pipeline.first_obs >= 0) {
      d.revision_obs = ResolveMarkers(PipelineView{&run, &pipeline}).revision();
      if (d.revision_obs >= 0) d.revised_choice = after;
    }
    decisions.push_back(d);
  }
  return decisions;
}

/// Steps `run` under `decisions` through a fresh Stepper and through
/// QueryProgressAt; both must equal the reference at every observation.
/// Returns the number of mismatching observations.
size_t CountStepMismatches(const ProgressMonitor& monitor,
                           const QueryRunResult& run,
                           const Decisions& decisions) {
  ProgressMonitor::Stepper stepper(run, decisions);
  size_t mismatches = 0;
  for (size_t oi = 0; oi < run.observations.size(); ++oi) {
    const double want = ReferenceQueryProgressAt(run, decisions, oi);
    if (!SameBits(stepper.ProgressAt(oi), want)) ++mismatches;
    if (!SameBits(monitor.QueryProgressAt(run, decisions, oi), want)) {
      ++mismatches;
    }
  }
  return mismatches;
}

/// Each of the 8 selectable kinds before the revision and after it, each
/// with two different partners.
std::vector<std::pair<size_t, size_t>> ForcedChoicePairs() {
  std::vector<std::pair<size_t, size_t>> pairs;
  const size_t n = static_cast<size_t>(kNumSelectableEstimators);
  for (size_t k = 0; k < n; ++k) {
    pairs.emplace_back(k, n - 1 - k);
    pairs.emplace_back(k, (k + 1) % n);
  }
  return pairs;
}

class MonitorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkloadConfig config;
    config.kind = WorkloadKind::kTpch;
    config.name = "monitor-test";
    config.scale = 2.0;
    config.zipf = 1.0;
    config.tuning = TuningLevel::kFullyTuned;
    config.num_queries = 50;
    config.seed = 55;
    auto workload = BuildWorkload(config);
    ASSERT_TRUE(workload.ok());
    workload_ = new Workload(std::move(workload).ValueOrDie());
    auto records = RunWorkload(*workload_);
    ASSERT_TRUE(records.ok());

    MartParams params;
    params.num_trees = 50;
    params.tree.max_leaves = 16;
    static_selector_ = new EstimatorSelector(EstimatorSelector::Train(
        *records, PoolSix(), /*use_dynamic=*/false, params));
    dynamic_selector_ = new EstimatorSelector(EstimatorSelector::Train(
        *records, PoolSix(), /*use_dynamic=*/true, params));
  }
  static void TearDownTestSuite() {
    delete static_selector_;
    delete dynamic_selector_;
    delete workload_;
    static_selector_ = nullptr;
    dynamic_selector_ = nullptr;
    workload_ = nullptr;
  }

  OwnedRun RunOne(size_t query_idx) {
    auto run = RunQuery(*workload_, workload_->queries[query_idx]);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    return std::move(run).ValueOrDie();
  }

  static Workload* workload_;
  static EstimatorSelector* static_selector_;
  static EstimatorSelector* dynamic_selector_;
};

Workload* MonitorTest::workload_ = nullptr;
EstimatorSelector* MonitorTest::static_selector_ = nullptr;
EstimatorSelector* MonitorTest::dynamic_selector_ = nullptr;

TEST_F(MonitorTest, RejectsMismatchedSelectors) {
  EXPECT_DEATH(ProgressMonitor(dynamic_selector_, dynamic_selector_),
               "uses_dynamic_features");
}

TEST_F(MonitorTest, DecisionsCoverAllPipelines) {
  ProgressMonitor monitor(static_selector_, dynamic_selector_);
  auto run = RunOne(0);
  const auto decisions = monitor.DecideForRun(run.result);
  EXPECT_EQ(decisions.size(), run.result.pipelines.size());
  for (const auto& d : decisions) {
    EXPECT_LT(d.initial_choice,
              static_cast<size_t>(kNumSelectableEstimators));
    if (d.revised_choice.has_value()) {
      EXPECT_GE(d.revision_obs, 0);
      EXPECT_LT(*d.revised_choice,
                static_cast<size_t>(kNumSelectableEstimators));
    }
  }
}

TEST_F(MonitorTest, BatchedDecisionsMatchPerRunDecisions) {
  // DecideForRuns is the SIMD-batched entry the serving tier uses at
  // session open; its choices must equal per-run DecideForRun exactly,
  // field for field, at every active tier.
  ProgressMonitor monitor(static_selector_, dynamic_selector_);
  std::vector<OwnedRun> owned;
  owned.reserve(6);
  for (size_t q = 0; q < 6; ++q) owned.push_back(RunOne(q));
  std::vector<const QueryRunResult*> runs;
  for (const OwnedRun& run : owned) runs.push_back(&run.result);
  for (simd::Tier tier : {simd::Tier::kScalar, simd::Tier::kAvx2}) {
    const simd::Tier prev = simd::ActiveTier();
    simd::ForceTier(tier);
    const auto batched = monitor.DecideForRuns(runs);
    simd::ForceTier(prev);
    ASSERT_EQ(batched.size(), runs.size());
    for (size_t r = 0; r < runs.size(); ++r) {
      const auto single = monitor.DecideForRun(*runs[r]);
      ASSERT_EQ(batched[r].size(), single.size());
      for (size_t p = 0; p < single.size(); ++p) {
        EXPECT_EQ(batched[r][p].pipeline_id, single[p].pipeline_id);
        EXPECT_EQ(batched[r][p].initial_choice, single[p].initial_choice);
        EXPECT_EQ(batched[r][p].revised_choice, single[p].revised_choice);
        EXPECT_EQ(batched[r][p].revision_obs, single[p].revision_obs);
      }
    }
  }
}

TEST_F(MonitorTest, ReplaySeriesIsValidProgress) {
  ProgressMonitor monitor(static_selector_, dynamic_selector_);
  for (size_t q = 0; q < 5; ++q) {
    auto run = RunOne(q);
    const auto series = monitor.ReplayQueryProgress(run.result);
    ASSERT_EQ(series.size(), run.result.observations.size());
    for (double p : series) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
    // The final report must be (close to) complete.
    EXPECT_GT(series.back(), 0.95);
  }
}

TEST_F(MonitorTest, ReplayErrorIsReasonable) {
  ProgressMonitor monitor(static_selector_, dynamic_selector_);
  double total = 0.0;
  size_t n = 0;
  for (size_t q = 0; q < 10; ++q) {
    auto run = RunOne(q);
    total += monitor.ReplayL1Error(run.result);
    ++n;
  }
  // Average query-level replay error must be far better than a constant
  // 50% reporter (L1 0.25).
  EXPECT_LT(total / static_cast<double>(n), 0.2);
}

TEST_F(MonitorTest, RevisionUsesDynamicChoiceAfterMarker) {
  ProgressMonitor monitor(static_selector_, dynamic_selector_);
  auto run = RunOne(1);
  const auto decisions = monitor.DecideForRun(run.result);
  size_t checked = 0;
  for (size_t p = 0; p < decisions.size(); ++p) {
    const auto& d = decisions[p];
    if (!d.revised_choice.has_value()) continue;
    const Pipeline& pipeline = run.result.pipelines[p];
    if (pipeline.first_obs < 0) continue;
    // From the revision on, the pipeline reports as if the revised choice
    // had been made from the start; before it, as if it were never made.
    auto revised_only = decisions;
    revised_only[p].initial_choice = *d.revised_choice;
    revised_only[p].revised_choice.reset();
    auto static_only = decisions;
    static_only[p].revised_choice.reset();
    ProgressMonitor::Stepper decided(run.result, decisions);
    ProgressMonitor::Stepper after(run.result, revised_only);
    ProgressMonitor::Stepper before(run.result, static_only);
    const size_t last = static_cast<size_t>(pipeline.last_obs);
    EXPECT_EQ(decided.ProgressAt(last), after.ProgressAt(last));
    if (d.revision_obs > pipeline.first_obs) {
      const size_t early = static_cast<size_t>(d.revision_obs - 1);
      EXPECT_EQ(decided.ProgressAt(early), before.ProgressAt(early));
    }
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST_F(MonitorTest, StepperMatchesReferenceOnEdgeCases) {
  ProgressMonitor monitor(static_selector_, dynamic_selector_);
  // A run with several pipelines, so an unstarted one still weighs.
  OwnedRun owned = RunOne(0);
  for (size_t q = 1; owned.result.pipelines.size() < 2; ++q) {
    owned = RunOne(q);
  }
  const QueryRunResult& base = owned.result;
  const auto pairs = ForcedChoicePairs();
  const auto expect_all_match = [&](const QueryRunResult& run,
                                    const std::string& label) {
    for (const auto& [before, after] : pairs) {
      const Decisions forced = ForcedDecisions(run, before, after);
      EXPECT_EQ(CountStepMismatches(monitor, run, forced), 0u)
          << label << " " << before << "->" << after;
    }
    const Decisions decided = monitor.DecideForRun(run);
    EXPECT_EQ(CountStepMismatches(monitor, run, decided), 0u) << label;
  };
  expect_all_match(base, "unchanged");
  {
    QueryRunResult run = base;
    run.pipelines.back().first_obs = -1;
    run.pipelines.back().last_obs = -1;
    expect_all_match(run, "unstarted pipeline");
  }
  {
    // ΣE = 0 at the first, a middle and the last observation.
    QueryRunResult run = base;
    const Decisions decisions = ForcedDecisions(run, 0, 1);
    const size_t n = run.observations.size();
    for (size_t oi : {size_t{0}, n / 2, n - 1}) {
      std::vector<double>& e = run.observations[oi].e;
      std::fill(e.begin(), e.end(), 0.0);
      EXPECT_EQ(ReferenceQueryProgressAt(run, decisions, oi), 0.0);
    }
    expect_all_match(run, "zero total E");
  }
  {
    // revision_obs == -1: without a revised choice the static choice
    // reports throughout; with one, the revised choice reports from the
    // first observation.
    for (const bool revised : {false, true}) {
      for (const auto& [before, after] : pairs) {
        Decisions decisions = ForcedDecisions(base, before, after);
        for (auto& d : decisions) {
          d.revision_obs = -1;
          d.revised_choice.reset();
          if (revised) d.revised_choice = after;
        }
        EXPECT_EQ(CountStepMismatches(monitor, base, decisions), 0u)
            << "revision_obs -1, revised " << revised;
      }
    }
  }
  {
    QueryRunResult run = base;
    run.observations.resize(1);
    for (Pipeline& p : run.pipelines) {
      if (p.first_obs == 0) {
        p.last_obs = 0;
      } else {
        p.first_obs = -1;
        p.last_obs = -1;
      }
    }
    expect_all_match(run, "one observation");
  }
}

/// Generated TPC-H and TPC-DS workloads with their runs kept.
class StepperWorkloadTest : public ::testing::TestWithParam<WorkloadKind> {};

TEST_P(StepperWorkloadTest, StepperMatchesReferenceOnEveryRun) {
  WorkloadConfig config;
  config.kind = GetParam();
  config.name = WorkloadKindName(GetParam());
  config.scale = 2.0;
  config.num_queries = 40;
  config.seed = 11;
  auto workload = BuildWorkload(config);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  const WorkloadRun runs =
      PlanAndExecuteWorkload(*workload, RunOptions{}, "", /*keep_runs=*/true);
  ASSERT_GT(runs.runs.size(), 10u);

  MartParams params;
  params.num_trees = 10;
  params.tree.max_leaves = 8;
  const EstimatorSelector static_sel = EstimatorSelector::Train(
      runs.records, PoolSix(), /*use_dynamic_features=*/false, params);
  const EstimatorSelector dynamic_sel = EstimatorSelector::Train(
      runs.records, PoolSix(), /*use_dynamic_features=*/true, params);
  const ProgressMonitor monitor(&static_sel, &dynamic_sel);

  const auto pairs = ForcedChoicePairs();
  size_t revised = 0;
  for (size_t r = 0; r < runs.runs.size(); ++r) {
    const QueryRunResult& run = runs.runs[r].result;
    for (const auto& [before, after] : pairs) {
      const Decisions decisions = ForcedDecisions(run, before, after);
      for (const auto& d : decisions) revised += d.revised_choice ? 1 : 0;
      EXPECT_EQ(CountStepMismatches(monitor, run, decisions), 0u)
          << "run " << r << " " << before << "->" << after;
    }
    // The selectors' own decisions, and the whole-run replay.
    const Decisions decisions = monitor.DecideForRun(run);
    EXPECT_EQ(CountStepMismatches(monitor, run, decisions), 0u) << "run " << r;
    const auto series = monitor.ReplayQueryProgress(run);
    ASSERT_EQ(series.size(), run.observations.size());
    for (size_t oi = 0; oi < series.size(); ++oi) {
      const double want = ReferenceQueryProgressAt(run, decisions, oi);
      EXPECT_TRUE(SameBits(series[oi], want)) << "run " << r << " obs " << oi;
    }
  }
  EXPECT_GT(revised, runs.runs.size());
}

INSTANTIATE_TEST_SUITE_P(Generated, StepperWorkloadTest,
                         ::testing::Values(WorkloadKind::kTpch,
                                           WorkloadKind::kTpcds),
                         [](const auto& info) {
                           return std::string(WorkloadKindName(info.param));
                         });

}  // namespace
}  // namespace rpe
