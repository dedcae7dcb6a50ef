// Property-based suites (parameterized gtest): engine-wide invariants swept
// across operator shapes, skew levels, tuning levels, memory budgets and
// seeds.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <tuple>

#include "exec/executor.h"
#include "harness/runner.h"
#include "progress/error.h"
#include "tests/test_util.h"

namespace rpe {
namespace {

using ::rpe::testing::MakeSmallCatalog;

// ---------------------------------------------------------------------------
// Invariants over plan shapes.
// ---------------------------------------------------------------------------

enum class Shape {
  kScan,
  kFilter,
  kHashJoin,
  kIndexNlj,
  kNaiveNlj,
  kMergeJoin,
  kSortAgg,
  kHashAgg,
  kBatchSortNlj,
  kTopFilter,
};

std::unique_ptr<PlanNode> BuildShape(Shape shape) {
  switch (shape) {
    case Shape::kScan:
      return MakeTableScan("t_fact");
    case Shape::kFilter:
      return MakeFilter(MakeTableScan("t_fact"), Predicate::Between(2, 5, 30));
    case Shape::kHashJoin:
      return MakeHashJoin(MakeTableScan("t_dim"), MakeTableScan("t_fact"), 0,
                          1);
    case Shape::kIndexNlj:
      return MakeNestedLoopJoin(MakeTableScan("t_fact"),
                                MakeIndexSeek("t_dim", "d_id"), 1);
    case Shape::kNaiveNlj:
      return MakeNestedLoopJoin(
          MakeTop(MakeTableScan("t_fact"), 120),
          MakeFilter(MakeTableScan("t_dim"), Predicate::EqParam(0)), 1);
    case Shape::kMergeJoin:
      return MakeMergeJoin(MakeSort(MakeTableScan("t_dim"), 0),
                           MakeSort(MakeTableScan("t_fact"), 1), 0, 1);
    case Shape::kSortAgg:
      return MakeStreamAggregate(MakeSort(MakeTableScan("t_fact"), 2), {2});
    case Shape::kHashAgg:
      return MakeHashAggregate(MakeTableScan("t_fact"), {1});
    case Shape::kBatchSortNlj:
      return MakeNestedLoopJoin(
          MakeBatchSort(MakeTableScan("t_fact"), 1, 128),
          MakeIndexSeek("t_dim", "d_id"), 1);
    case Shape::kTopFilter:
      return MakeTop(
          MakeFilter(MakeTableScan("t_fact"), Predicate::Le(2, 40)), 200);
  }
  return nullptr;
}

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kScan: return "Scan";
    case Shape::kFilter: return "Filter";
    case Shape::kHashJoin: return "HashJoin";
    case Shape::kIndexNlj: return "IndexNlj";
    case Shape::kNaiveNlj: return "NaiveNlj";
    case Shape::kMergeJoin: return "MergeJoin";
    case Shape::kSortAgg: return "SortAgg";
    case Shape::kHashAgg: return "HashAgg";
    case Shape::kBatchSortNlj: return "BatchSortNlj";
    case Shape::kTopFilter: return "TopFilter";
  }
  return "?";
}

class ShapeInvariantTest : public ::testing::TestWithParam<Shape> {
 protected:
  void SetUp() override {
    catalog_ = MakeSmallCatalog();
    auto plan = FinalizePlan(BuildShape(GetParam()), *catalog_);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    plan_ = std::move(plan).ValueOrDie();
    auto run = ExecutePlan(*plan_, *catalog_);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    run_ = std::move(run).ValueOrDie();
  }

  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<PhysicalPlan> plan_;
  QueryRunResult run_;
};

TEST_P(ShapeInvariantTest, CountersMonotone) {
  for (size_t oi = 1; oi < run_.observations.size(); ++oi) {
    for (size_t n = 0; n < run_.true_n.size(); ++n) {
      EXPECT_GE(run_.observations[oi].k[n], run_.observations[oi - 1].k[n]);
      EXPECT_GE(run_.observations[oi].bytes_read[n],
                run_.observations[oi - 1].bytes_read[n]);
    }
  }
}

TEST_P(ShapeInvariantTest, BoundsBracketTruth) {
  for (size_t oi = 0; oi < run_.observations.size(); ++oi) {
    const Observation obs = run_.observations[oi];
    for (size_t n = 0; n < run_.true_n.size(); ++n) {
      EXPECT_LE(obs.lb[n], run_.true_n[n] + 1e-9);
      EXPECT_GE(obs.ub[n], run_.true_n[n] - 1e-9);
      EXPECT_GE(obs.e[n], obs.lb[n] - 1e-9);
      EXPECT_LE(obs.e[n], obs.ub[n] + 1e-9);
    }
  }
}

TEST_P(ShapeInvariantTest, EveryNodeInExactlyOnePipeline) {
  std::map<int, int> membership;
  for (const auto& p : run_.pipelines) {
    for (int id : p.nodes) membership[id]++;
  }
  for (size_t n = 0; n < plan_->num_nodes(); ++n) {
    EXPECT_EQ(membership[static_cast<int>(n)], 1) << "node " << n;
  }
}

TEST_P(ShapeInvariantTest, DriversAreMembers) {
  for (const auto& p : run_.pipelines) {
    for (int d : p.driver_nodes) {
      EXPECT_TRUE(p.ContainsNode(d));
    }
    EXPECT_FALSE(p.driver_nodes.empty())
        << "pipeline " << p.id << " has no drivers";
  }
}

TEST_P(ShapeInvariantTest, EstimatesInUnitInterval) {
  for (const auto& p : run_.pipelines) {
    if (p.first_obs < 0) continue;
    PipelineView view{&run_, &p};
    for (int e = 0; e < kNumEstimatorKinds; ++e) {
      const auto& est = GetEstimator(static_cast<EstimatorKind>(e));
      for (int oi = p.first_obs; oi <= p.last_obs; ++oi) {
        const double v = est.Estimate(view, static_cast<size_t>(oi));
        EXPECT_GE(v, 0.0) << est.name() << " " << ShapeName(GetParam());
        EXPECT_LE(v, 1.0) << est.name() << " " << ShapeName(GetParam());
      }
    }
  }
}

TEST_P(ShapeInvariantTest, FinalCountersEqualTrueN) {
  const Observation last = run_.observations.back();
  for (size_t n = 0; n < run_.true_n.size(); ++n) {
    EXPECT_DOUBLE_EQ(last.k[n], run_.true_n[n]);
  }
}

TEST_P(ShapeInvariantTest, VirtualTimeAdvances) {
  EXPECT_GT(run_.total_time, 0.0);
  EXPECT_GE(run_.observations.back().vtime, run_.total_time - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, ShapeInvariantTest,
    ::testing::Values(Shape::kScan, Shape::kFilter, Shape::kHashJoin,
                      Shape::kIndexNlj, Shape::kNaiveNlj, Shape::kMergeJoin,
                      Shape::kSortAgg, Shape::kHashAgg, Shape::kBatchSortNlj,
                      Shape::kTopFilter),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return ShapeName(info.param);
    });

// ---------------------------------------------------------------------------
// Workload-level invariants across (kind, skew, tuning).
// ---------------------------------------------------------------------------

using WorkloadParam = std::tuple<WorkloadKind, double, TuningLevel>;

class WorkloadInvariantTest : public ::testing::TestWithParam<WorkloadParam> {
};

TEST_P(WorkloadInvariantTest, AllQueriesPlanAndRun) {
  const auto [kind, zipf, tuning] = GetParam();
  WorkloadConfig config;
  config.kind = kind;
  config.name = "prop";
  config.scale = 1.0;
  config.zipf = zipf;
  config.tuning = tuning;
  config.num_queries = 12;
  config.seed = 1234;
  auto workload = BuildWorkload(config);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  auto records = RunWorkload(*workload);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  EXPECT_GT(records->size(), 0u);
  for (const auto& r : *records) {
    for (double e : r.l1) {
      EXPECT_GE(e, 0.0);
      EXPECT_LE(e, 1.0);
    }
    for (double f : r.features) {
      EXPECT_TRUE(std::isfinite(f));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WorkloadInvariantTest,
    ::testing::Combine(
        ::testing::Values(WorkloadKind::kTpch, WorkloadKind::kTpcds,
                          WorkloadKind::kReal1, WorkloadKind::kReal2),
        ::testing::Values(0.0, 1.0, 2.0),
        ::testing::Values(TuningLevel::kUntuned, TuningLevel::kFullyTuned)),
    [](const ::testing::TestParamInfo<WorkloadParam>& info) {
      std::string name = WorkloadKindName(std::get<0>(info.param));
      name += "_z";
      name += std::to_string(static_cast<int>(std::get<1>(info.param)));
      name += std::get<2>(info.param) == TuningLevel::kUntuned ? "_untuned"
                                                               : "_tuned";
      return name;
    });

// ---------------------------------------------------------------------------
// Memory-budget sweep: spills must preserve results and invariants.
// ---------------------------------------------------------------------------

class MemoryBudgetTest : public ::testing::TestWithParam<double> {};

TEST_P(MemoryBudgetTest, SpillsPreserveJoinResults) {
  auto catalog = MakeSmallCatalog();
  ExecOptions opts;
  opts.memory_limit_bytes = GetParam();
  auto plan = FinalizePlan(
      MakeHashJoin(MakeTableScan("t_fact"), MakeTableScan("t_dim"), 1, 0),
      *catalog);
  ASSERT_TRUE(plan.ok());
  auto run = ExecutePlan(**plan, *catalog, opts);
  ASSERT_TRUE(run.ok());
  // Join output must be memory-budget independent: 1000 fact rows each
  // matching one dim row.
  EXPECT_EQ(run->rows_out, 1000u);
}

INSTANTIATE_TEST_SUITE_P(Budgets, MemoryBudgetTest,
                         ::testing::Values(512.0, 4096.0, 65536.0, 2.0e6,
                                           1.0e9));

// ---------------------------------------------------------------------------
// Determinism across seeds: same seed -> identical records.
// ---------------------------------------------------------------------------

class SeedDeterminismTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeedDeterminismTest, RecordsAreReproducible) {
  WorkloadConfig config;
  config.kind = WorkloadKind::kTpch;
  config.name = "det";
  config.scale = 1.0;
  config.zipf = 1.0;
  config.tuning = TuningLevel::kPartiallyTuned;
  config.num_queries = 6;
  config.seed = GetParam();
  auto w1 = BuildWorkload(config);
  auto w2 = BuildWorkload(config);
  ASSERT_TRUE(w1.ok() && w2.ok());
  auto r1 = RunWorkload(*w1);
  auto r2 = RunWorkload(*w2);
  ASSERT_TRUE(r1.ok() && r2.ok());
  ASSERT_EQ(r1->size(), r2->size());
  for (size_t i = 0; i < r1->size(); ++i) {
    EXPECT_EQ((*r1)[i].features, (*r2)[i].features);
    EXPECT_EQ((*r1)[i].l1, (*r2)[i].l1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedDeterminismTest,
                         ::testing::Values(1u, 7u, 42u, 31337u));

}  // namespace
}  // namespace rpe
