// Progress-estimator tests: closed-form checks on crafted runs, estimator
// invariants on executed queries, and error-metric semantics.
#include <gtest/gtest.h>

#include "exec/executor.h"
#include "common/stats.h"
#include "progress/error.h"
#include "tests/test_util.h"

namespace rpe {
namespace {

using ::rpe::testing::MakeSmallCatalog;

class ProgressTest : public ::testing::Test {
 protected:
  void SetUp() override { catalog_ = MakeSmallCatalog(); }

  QueryRunResult Run(std::unique_ptr<PlanNode> root,
                     ExecOptions opts = {}) {
    auto plan = FinalizePlan(std::move(root), *catalog_);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    plans_.push_back(std::move(plan).ValueOrDie());
    auto result = ExecutePlan(*plans_.back(), *catalog_, opts);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).ValueOrDie();
  }

  PipelineView View(const QueryRunResult& run, size_t p = 0) {
    return PipelineView{&run, &run.pipelines[p]};
  }

  std::unique_ptr<Catalog> catalog_;
  std::vector<std::unique_ptr<PhysicalPlan>> plans_;
};

TEST_F(ProgressTest, NamesAreStable) {
  EXPECT_STREQ(EstimatorName(EstimatorKind::kDne), "DNE");
  EXPECT_STREQ(EstimatorName(EstimatorKind::kTgnInt), "TGNINT");
  EXPECT_STREQ(EstimatorName(EstimatorKind::kOracleBytes), "ORACLE_BYTES");
  EXPECT_EQ(SelectableEstimators().size(),
            static_cast<size_t>(kNumSelectableEstimators));
}

TEST_F(ProgressTest, AllEstimatesInUnitInterval) {
  auto run = Run(MakeHashJoin(MakeTableScan("t_dim"), MakeTableScan("t_fact"),
                              0, 1));
  for (const auto& pipeline : run.pipelines) {
    if (pipeline.first_obs < 0) continue;
    PipelineView view{&run, &pipeline};
    for (int e = 0; e < kNumEstimatorKinds; ++e) {
      const auto& est = GetEstimator(static_cast<EstimatorKind>(e));
      for (int oi = pipeline.first_obs; oi <= pipeline.last_obs; ++oi) {
        const double v = est.Estimate(view, static_cast<size_t>(oi));
        EXPECT_GE(v, 0.0) << est.name();
        EXPECT_LE(v, 1.0) << est.name();
      }
    }
  }
}

TEST_F(ProgressTest, EstimatorsReachOneAtQueryEnd) {
  auto run = Run(MakeFilter(MakeTableScan("t_fact"), Predicate::Ge(2, 20)));
  PipelineView view = View(run);
  const size_t last = static_cast<size_t>(run.pipelines[0].last_obs);
  // Counter-fraction estimators must report completion at the end (their
  // drivers are fully consumed and E has been refined to N).
  EXPECT_NEAR(GetEstimator(EstimatorKind::kDne).Estimate(view, last), 1.0,
              1e-6);
  EXPECT_NEAR(GetEstimator(EstimatorKind::kTgn).Estimate(view, last), 1.0,
              0.01);
  EXPECT_NEAR(GetEstimator(EstimatorKind::kOracleGetNext).Estimate(view, last),
              1.0, 1e-6);
}

TEST_F(ProgressTest, DneEqualsDriverFraction) {
  // Plain scan: DNE = K_scan / N_scan exactly (driver size known).
  auto run = Run(MakeTableScan("t_fact"));
  PipelineView view = View(run);
  for (int oi = run.pipelines[0].first_obs; oi <= run.pipelines[0].last_obs;
       ++oi) {
    const auto& obs = run.observations[static_cast<size_t>(oi)];
    const double expected = obs.k[0] / 1000.0;
    EXPECT_NEAR(GetEstimator(EstimatorKind::kDne)
                    .Estimate(view, static_cast<size_t>(oi)),
                expected, 1e-9);
  }
}

TEST_F(ProgressTest, OracleGetNextIsExactForUniformCosts) {
  // For a single-operator pipeline the GetNext model with true N equals
  // K/N; with per-row costs constant it matches true progress closely.
  auto run = Run(MakeTableScan("t_dim"));
  PipelineView view = View(run);
  const auto errors =
      EvaluateEstimator(GetEstimator(EstimatorKind::kOracleGetNext), view);
  EXPECT_LT(errors.l1, 0.05);
}

TEST_F(ProgressTest, BatchDneIncludesBatchSortNodes) {
  auto root = MakeNestedLoopJoin(
      MakeBatchSort(MakeTableScan("t_fact"), 1, 100),
      MakeIndexSeek("t_dim", "d_id"), 1);
  auto run = Run(std::move(root));
  PipelineView view = View(run);
  EXPECT_GT(view.pipeline->batch_sort_drivers.size(),
            view.pipeline->driver_nodes.size());
  // The sets DecomposePipelines fills hold exactly the drivers, then the
  // extra-type members in node order (Eq. 6 / Eq. 7), for every pipeline.
  const auto drivers_plus = [&](const Pipeline& p, OpType extra) {
    std::vector<int> nodes = p.driver_nodes;
    for (int id : p.nodes) {
      if (run.plan->node(id)->op == extra && !p.IsDriver(id)) {
        nodes.push_back(id);
      }
    }
    return nodes;
  };
  for (const Pipeline& p : run.pipelines) {
    EXPECT_EQ(p.batch_sort_drivers, drivers_plus(p, OpType::kBatchSort));
    EXPECT_EQ(p.index_seek_drivers, drivers_plus(p, OpType::kIndexSeek));
  }
}

TEST_F(ProgressTest, DneSeekDivergesFromDneOnSeekPlans) {
  auto root = MakeNestedLoopJoin(MakeTableScan("t_fact"),
                                 MakeIndexSeek("t_dim", "d_id"), 1);
  auto run = Run(std::move(root));
  PipelineView view = View(run);
  const size_t mid = static_cast<size_t>(
      (run.pipelines[0].first_obs + run.pipelines[0].last_obs) / 2);
  const double dne = GetEstimator(EstimatorKind::kDne).Estimate(view, mid);
  const double dneseek =
      GetEstimator(EstimatorKind::kDneSeek).Estimate(view, mid);
  // Both valid progress numbers; on seek-heavy plans they must differ
  // (DNESEEK's driver set includes the seek node).
  EXPECT_NE(dne, dneseek);
}

TEST_F(ProgressTest, SafeBetweenPmaxAndOne) {
  auto run = Run(MakeHashJoin(MakeTableScan("t_dim"), MakeTableScan("t_fact"),
                              0, 1));
  PipelineView view = View(run);
  for (int oi = run.pipelines[0].first_obs; oi <= run.pipelines[0].last_obs;
       ++oi) {
    const double pmax = GetEstimator(EstimatorKind::kPmax)
                            .Estimate(view, static_cast<size_t>(oi));
    const double safe = GetEstimator(EstimatorKind::kSafe)
                            .Estimate(view, static_cast<size_t>(oi));
    // SAFE = sqrt(lo * hi) >= lo = PMAX.
    EXPECT_GE(safe, pmax - 1e-9);
  }
}

TEST_F(ProgressTest, TgnIntInterpolatesBetweenKAndE) {
  auto run = Run(MakeFilter(MakeTableScan("t_fact"), Predicate::Le(2, 25)));
  PipelineView view = View(run);
  for (int oi = run.pipelines[0].first_obs; oi <= run.pipelines[0].last_obs;
       ++oi) {
    const double v = GetEstimator(EstimatorKind::kTgnInt)
                         .Estimate(view, static_cast<size_t>(oi));
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST_F(ProgressTest, LuoFallsBackToByteFractionEarly) {
  auto run = Run(MakeTableScan("t_dim"));
  PipelineView view = View(run);
  const size_t first = static_cast<size_t>(run.pipelines[0].first_obs);
  const double v = GetEstimator(EstimatorKind::kLuo).Estimate(view, first);
  EXPECT_GE(v, 0.0);
  EXPECT_LE(v, 1.0);
}

TEST_F(ProgressTest, TrueProgressIsMonotone) {
  auto run = Run(MakeSort(MakeTableScan("t_fact"), 2));
  for (const auto& pipeline : run.pipelines) {
    if (pipeline.first_obs < 0) continue;
    PipelineView view{&run, &pipeline};
    double prev = -1.0;
    for (int oi = pipeline.first_obs; oi <= pipeline.last_obs; ++oi) {
      const double t = view.TrueProgress(static_cast<size_t>(oi));
      EXPECT_GE(t, prev);
      prev = t;
    }
    EXPECT_NEAR(prev, 1.0, 1e-9);
  }
}

// --- error metrics --------------------------------------------------------

TEST_F(ProgressTest, PerfectEstimatorHasZeroError) {
  auto run = Run(MakeTableScan("t_fact"));
  PipelineView view = View(run);
  // Compare the truth against itself via a synthetic series.
  const auto truth = TrueProgressSeries(view);
  EXPECT_GT(truth.size(), 2u);
  EXPECT_DOUBLE_EQ(LpError(truth, truth, 1.0), 0.0);
}

TEST_F(ProgressTest, EvaluateEstimatorConsistentWithSeries) {
  auto run = Run(MakeFilter(MakeTableScan("t_fact"), Predicate::Le(2, 25)));
  PipelineView view = View(run);
  const auto& est = GetEstimator(EstimatorKind::kDne);
  const auto series = EstimateSeries(est, view);
  const auto truth = TrueProgressSeries(view);
  const auto errors = EvaluateEstimator(est, view);
  EXPECT_EQ(series.size(), truth.size());
  EXPECT_NEAR(errors.l1, LpError(series, truth, 1.0), 1e-12);
  EXPECT_NEAR(errors.l2, LpError(series, truth, 2.0), 1e-12);
  EXPECT_EQ(errors.num_obs, series.size());
}

TEST_F(ProgressTest, EvaluateAllCoversAllKinds) {
  auto run = Run(MakeTableScan("t_dim"));
  PipelineView view = View(run);
  const auto all = EvaluateAllEstimators(view);
  EXPECT_EQ(all.size(), static_cast<size_t>(kNumEstimatorKinds));
}

TEST_F(ProgressTest, QueryProgressMonotoneAndComplete) {
  auto run = Run(MakeHashJoin(MakeTableScan("t_dim"), MakeTableScan("t_fact"),
                              0, 1));
  std::vector<EstimatorKind> kinds(run.pipelines.size(),
                                   EstimatorKind::kDne);
  for (size_t oi = 0; oi < run.observations.size(); ++oi) {
    const double p = QueryProgress(run, kinds, oi);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  EXPECT_NEAR(QueryProgress(run, kinds, run.observations.size() - 1), 1.0,
              0.05);
}

TEST_F(ProgressTest, SpilledJoinDegradesTgn) {
  // With a tiny memory budget, the spill's extra GetNext calls are not in
  // the optimizer estimate, so TGN's error should exceed the no-spill run.
  ExecOptions small_mem;
  small_mem.memory_limit_bytes = 2048;
  auto spill_run = Run(MakeHashJoin(MakeTableScan("t_fact"),
                                    MakeTableScan("t_dim"), 1, 0),
                       small_mem);
  auto ok_run = Run(MakeHashJoin(MakeTableScan("t_fact"),
                                 MakeTableScan("t_dim"), 1, 0));
  // Evaluate TGN on the probe pipeline (pipeline 0 contains the join).
  const auto spill_err = EvaluateEstimator(
      GetEstimator(EstimatorKind::kTgn), PipelineView{&spill_run,
                                                      &spill_run.pipelines[1]});
  const auto ok_err = EvaluateEstimator(
      GetEstimator(EstimatorKind::kTgn),
      PipelineView{&ok_run, &ok_run.pipelines[1]});
  EXPECT_GE(spill_err.l1, 0.0);
  EXPECT_GE(ok_err.l1, 0.0);
}

}  // namespace
}  // namespace rpe
