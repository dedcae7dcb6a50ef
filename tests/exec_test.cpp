// Execution-engine tests: operator correctness against brute-force
// reference results, counter semantics, pipeline decomposition, and the
// observation stream.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "exec/executor.h"
#include "exec/plan_resolver.h"
#include "exec/row_store.h"
#include "tests/test_util.h"

namespace rpe {
namespace {

using ::rpe::testing::MakeSmallCatalog;

class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override { catalog_ = MakeSmallCatalog(); }

  QueryRunResult Run(std::unique_ptr<PlanNode> root) {
    auto plan = FinalizePlan(std::move(root), *catalog_);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    plan_ = std::move(plan).ValueOrDie();
    auto result = ExecutePlan(*plan_, *catalog_);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).ValueOrDie();
  }

  const Table& fact() { return **catalog_->GetTable("t_fact"); }
  const Table& dim() { return **catalog_->GetTable("t_dim"); }

  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<PhysicalPlan> plan_;
};

TEST_F(ExecTest, TableScanProducesAllRows) {
  auto run = Run(MakeTableScan("t_fact"));
  EXPECT_EQ(run.rows_out, 1000u);
  EXPECT_EQ(run.true_n[0], 1000.0);
  EXPECT_GT(run.total_time, 0.0);
}

TEST_F(ExecTest, FilterMatchesBruteForce) {
  auto root = MakeFilter(MakeTableScan("t_fact"), Predicate::Le(2, 10));
  auto run = Run(std::move(root));
  uint64_t expected = 0;
  for (const auto& row : fact().rows()) {
    if (row[2] <= 10) ++expected;
  }
  EXPECT_EQ(run.rows_out, expected);
}

TEST_F(ExecTest, FilterBetween) {
  auto root =
      MakeFilter(MakeTableScan("t_fact"), Predicate::Between(2, 10, 20));
  auto run = Run(std::move(root));
  uint64_t expected = 0;
  for (const auto& row : fact().rows()) {
    if (row[2] >= 10 && row[2] <= 20) ++expected;
  }
  EXPECT_EQ(run.rows_out, expected);
}

TEST_F(ExecTest, IndexScanIsSortedAndComplete) {
  auto run = Run(MakeIndexScan("t_fact", "f_fk"));
  EXPECT_EQ(run.rows_out, 1000u);
}

TEST_F(ExecTest, HashJoinMatchesBruteForce) {
  // dim JOIN fact ON d_id = f_fk (build = dim).
  auto root = MakeHashJoin(MakeTableScan("t_dim"), MakeTableScan("t_fact"),
                           /*build_key=*/0, /*probe_key=*/1);
  auto run = Run(std::move(root));
  // Every fact row joins exactly one dim row (FK in [0,100)).
  EXPECT_EQ(run.rows_out, 1000u);
}

TEST_F(ExecTest, HashJoinDuplicateKeysCrossProduct) {
  // fact JOIN fact ON f_fk = f_fk would explode; use dim attr instead:
  // join dim with itself on d_attr (10 distinct values).
  auto root = MakeHashJoin(MakeTableScan("t_dim"), MakeTableScan("t_dim"),
                           1, 1);
  auto run = Run(std::move(root));
  std::map<int64_t, uint64_t> counts;
  for (const auto& row : dim().rows()) counts[row[1]]++;
  uint64_t expected = 0;
  for (const auto& [attr, c] : counts) expected += c * c;
  EXPECT_EQ(run.rows_out, expected);
}

TEST_F(ExecTest, NestedLoopIndexSeekMatchesHashJoin) {
  // fact NLJ seek(dim.d_id) on f_fk: same cardinality as the hash join.
  auto root = MakeNestedLoopJoin(MakeTableScan("t_fact"),
                                 MakeIndexSeek("t_dim", "d_id"),
                                 /*outer_key=*/1);
  auto run = Run(std::move(root));
  EXPECT_EQ(run.rows_out, 1000u);
}

TEST_F(ExecTest, NaiveNestedLoopWithParamFilter) {
  auto inner = MakeFilter(MakeTableScan("t_dim"), Predicate::EqParam(0));
  auto root =
      MakeNestedLoopJoin(MakeTableScan("t_fact"), std::move(inner), 1);
  auto run = Run(std::move(root));
  EXPECT_EQ(run.rows_out, 1000u);
  // The rescanned inner table-scan node must have issued 1000 * 100 calls.
  // Node ids: 0=NLJ, 1=outer scan, 2=filter, 3=inner scan.
  EXPECT_EQ(run.true_n[3], 1000.0 * 100.0);
}

TEST_F(ExecTest, MergeJoinMatchesHashJoin) {
  // Sort both sides explicitly, then merge-join on the key.
  auto left = MakeSort(MakeTableScan("t_dim"), 0);
  auto right = MakeSort(MakeTableScan("t_fact"), 1);
  auto root = MakeMergeJoin(std::move(left), std::move(right), 0, 1);
  auto run = Run(std::move(root));
  EXPECT_EQ(run.rows_out, 1000u);
}

TEST_F(ExecTest, MergeJoinManyToMany) {
  auto left = MakeSort(MakeTableScan("t_dim"), 1);
  auto right = MakeSort(MakeTableScan("t_dim"), 1);
  auto root = MakeMergeJoin(std::move(left), std::move(right), 1, 1);
  auto run = Run(std::move(root));
  std::map<int64_t, uint64_t> counts;
  for (const auto& row : dim().rows()) counts[row[1]]++;
  uint64_t expected = 0;
  for (const auto& [attr, c] : counts) expected += c * c;
  EXPECT_EQ(run.rows_out, expected);
}

TEST_F(ExecTest, SortIsOrderedAndComplete) {
  auto run = Run(MakeSort(MakeTableScan("t_fact"), 2));
  EXPECT_EQ(run.rows_out, 1000u);
}

TEST_F(ExecTest, BatchSortPreservesMultiset) {
  auto run = Run(MakeBatchSort(MakeTableScan("t_fact"), 1, 64));
  EXPECT_EQ(run.rows_out, 1000u);
}

TEST_F(ExecTest, HashAggregateCountsGroups) {
  auto root = MakeHashAggregate(MakeTableScan("t_dim"), {1});
  auto run = Run(std::move(root));
  std::set<int64_t> distinct;
  for (const auto& row : dim().rows()) distinct.insert(row[1]);
  EXPECT_EQ(run.rows_out, distinct.size());
}

TEST_F(ExecTest, StreamAggregateOverSortedInput) {
  auto root =
      MakeStreamAggregate(MakeSort(MakeTableScan("t_dim"), 1), {1});
  auto run = Run(std::move(root));
  std::set<int64_t> distinct;
  for (const auto& row : dim().rows()) distinct.insert(row[1]);
  EXPECT_EQ(run.rows_out, distinct.size());
}

TEST_F(ExecTest, StreamAggEqualsHashAggGroupCounts) {
  auto hash_run = Run(MakeHashAggregate(MakeTableScan("t_fact"), {1}));
  auto stream_run =
      Run(MakeStreamAggregate(MakeSort(MakeTableScan("t_fact"), 1), {1}));
  EXPECT_EQ(hash_run.rows_out, stream_run.rows_out);
}

TEST_F(ExecTest, TopLimitsOutput) {
  auto run = Run(MakeTop(MakeTableScan("t_fact"), 17));
  EXPECT_EQ(run.rows_out, 17u);
}

TEST_F(ExecTest, CountersMonotonicallyIncrease) {
  auto root = MakeHashJoin(MakeTableScan("t_dim"), MakeTableScan("t_fact"),
                           0, 1);
  auto run = Run(std::move(root));
  ASSERT_GE(run.observations.size(), 2u);
  for (size_t oi = 1; oi < run.observations.size(); ++oi) {
    EXPECT_GE(run.observations[oi].vtime, run.observations[oi - 1].vtime);
    for (size_t node = 0; node < run.true_n.size(); ++node) {
      EXPECT_GE(run.observations[oi].k[node],
                run.observations[oi - 1].k[node]);
    }
  }
}

TEST(ObservationStoreTest, ViewsSlabRowsAndHalvesInPlace) {
  // Two nodes; observation i holds field f of node j as 100 i + 10 f + j.
  ObservationStore store(2);
  for (int i = 0; i < 5; ++i) {
    const std::span<double> row = store.Append(0.5 * i);
    ASSERT_EQ(row.size(), ObservationStore::kFields * 2);
    for (size_t v = 0; v < row.size(); ++v) {
      row[v] = 100.0 * i + 10.0 * static_cast<double>(v / 2) +
               static_cast<double>(v % 2);
    }
  }
  const auto expect_observation = [&](size_t oi, int source) {
    const Observation obs = store[oi];
    EXPECT_EQ(obs.vtime, 0.5 * source);
    const std::span<const double> fields[] = {
        obs.k, obs.e, obs.lb, obs.ub, obs.bytes_read, obs.bytes_written};
    for (size_t f = 0; f < ObservationStore::kFields; ++f) {
      ASSERT_EQ(fields[f].size(), 2u);
      for (size_t j = 0; j < 2; ++j) {
        EXPECT_EQ(fields[f][j], 100.0 * source + 10.0 * static_cast<double>(f) +
                                    static_cast<double>(j))
            << "observation " << oi << " field " << f << " node " << j;
      }
    }
  };
  ASSERT_EQ(store.size(), 5u);
  for (size_t oi = 0; oi < 5; ++oi) {
    expect_observation(oi, static_cast<int>(oi));
  }
  store.KeepEveryOther();  // keeps 0, 2, 4
  ASSERT_EQ(store.size(), 3u);
  store.ShrinkToFit();
  for (size_t oi = 0; oi < 3; ++oi) {
    expect_observation(oi, static_cast<int>(2 * oi));
    EXPECT_EQ(store.vtimes()[oi], 1.0 * static_cast<double>(oi));
  }
  EXPECT_EQ(store.back().vtime, 2.0);
}

TEST(RowStoreTest, RowsKeepTheirValuesAndAddressesAcrossChunks) {
  // Width 3: 2048 rows per 64 KiB chunk, so 5000 rows span three chunks.
  RowStore store(3);
  std::vector<const int64_t*> addresses;
  for (int64_t i = 0; i < 5000; ++i) {
    const Row row = {i, -i, 7 * i};
    EXPECT_EQ(store.Append(row), static_cast<size_t>(i));
    addresses.push_back(store.row(static_cast<size_t>(i)).data());
  }
  ASSERT_EQ(store.size(), 5000u);
  for (int64_t i = 0; i < 5000; ++i) {
    const std::span<const int64_t> row = store.row(static_cast<size_t>(i));
    ASSERT_EQ(row.size(), 3u);
    EXPECT_EQ(row.data(), addresses[static_cast<size_t>(i)]);
    EXPECT_EQ(row[0], i);
    EXPECT_EQ(row[1], -i);
    EXPECT_EQ(row[2], 7 * i);
  }
  store.mutable_row(4999)[1] = 42;
  EXPECT_EQ(store.row(4999)[1], 42);
  // Clear keeps the chunks: new rows land at the old addresses.
  store.Clear();
  EXPECT_TRUE(store.empty());
  store.Append(Row{1, 2, 3});
  EXPECT_EQ(store.row(0).data(), addresses[0]);
  EXPECT_EQ(store.row(0)[2], 3);
}

TEST(GroupIndexTest, FindsEveryGroupAcrossGrowthAndCollisions) {
  GroupIndex index;
  std::vector<int64_t> keys;
  // Hash only the low bits, so many keys share a hash and probe past
  // each other.
  const auto hash = [](int64_t key) { return static_cast<uint64_t>(key % 7); };
  for (int64_t key = 0; key < 1000; key += 3) {
    bool inserted = false;
    const uint32_t id = index.FindOrInsert(
        hash(key), [&](uint32_t g) { return keys[g] == key; }, &inserted);
    ASSERT_TRUE(inserted);
    EXPECT_EQ(id, keys.size());
    keys.push_back(key);
  }
  for (int64_t key = 0; key < 1000; ++key) {
    const uint32_t id =
        index.Find(hash(key), [&](uint32_t g) { return keys[g] == key; });
    if (key % 3 == 0) {
      ASSERT_NE(id, GroupIndex::kNone);
      EXPECT_EQ(keys[id], key);
      bool inserted = true;
      EXPECT_EQ(index.FindOrInsert(
                    hash(key), [&](uint32_t g) { return keys[g] == key; },
                    &inserted),
                id);
      EXPECT_FALSE(inserted);
    } else {
      EXPECT_EQ(id, GroupIndex::kNone);
    }
  }
  EXPECT_EQ(index.size(), keys.size());
  index.Clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.Find(hash(0), [](uint32_t) { return true; }),
            GroupIndex::kNone);
}

TEST_F(ExecTest, FinalObservationMatchesTrueN) {
  auto root = MakeFilter(MakeTableScan("t_fact"), Predicate::Ge(2, 25));
  auto run = Run(std::move(root));
  const Observation last = run.observations.back();
  for (size_t node = 0; node < run.true_n.size(); ++node) {
    EXPECT_DOUBLE_EQ(last.k[node], run.true_n[node]);
  }
}

TEST_F(ExecTest, BoundsContainTrueN) {
  auto root = MakeFilter(MakeTableScan("t_fact"), Predicate::Le(2, 30));
  auto run = Run(std::move(root));
  for (size_t oi = 0; oi < run.observations.size(); ++oi) {
    const Observation obs = run.observations[oi];
    for (size_t node = 0; node < run.true_n.size(); ++node) {
      EXPECT_LE(obs.lb[node], run.true_n[node] + 1e-9)
          << "node " << node;
      EXPECT_GE(obs.ub[node], run.true_n[node] - 1e-9)
          << "node " << node;
    }
  }
}

TEST_F(ExecTest, EstimateWithinBounds) {
  auto root = MakeHashJoin(MakeTableScan("t_dim"), MakeTableScan("t_fact"),
                           0, 1);
  auto run = Run(std::move(root));
  for (size_t oi = 0; oi < run.observations.size(); ++oi) {
    const Observation obs = run.observations[oi];
    for (size_t node = 0; node < run.true_n.size(); ++node) {
      EXPECT_GE(obs.e[node], obs.lb[node] - 1e-9);
      EXPECT_LE(obs.e[node], obs.ub[node] + 1e-9);
    }
  }
}

// --- pipeline decomposition -------------------------------------------

TEST_F(ExecTest, ScanFilterIsOnePipeline) {
  auto root = MakeFilter(MakeTableScan("t_fact"), Predicate::Le(2, 10));
  auto plan = FinalizePlan(std::move(root), *catalog_);
  ASSERT_TRUE(plan.ok());
  auto pipelines = DecomposePipelines(**plan);
  ASSERT_EQ(pipelines.size(), 1u);
  EXPECT_EQ(pipelines[0].nodes.size(), 2u);
  ASSERT_EQ(pipelines[0].driver_nodes.size(), 1u);
  EXPECT_EQ((*plan)->node(pipelines[0].driver_nodes[0])->op,
            OpType::kTableScan);
}

TEST_F(ExecTest, HashJoinSplitsBuildPipeline) {
  auto root = MakeHashJoin(MakeTableScan("t_dim"), MakeTableScan("t_fact"),
                           0, 1);
  auto plan = FinalizePlan(std::move(root), *catalog_);
  ASSERT_TRUE(plan.ok());
  auto pipelines = DecomposePipelines(**plan);
  ASSERT_EQ(pipelines.size(), 2u);
  // Root pipeline: join + probe scan; build pipeline: build scan only.
  EXPECT_EQ(pipelines[0].nodes.size(), 2u);
  EXPECT_EQ(pipelines[1].nodes.size(), 1u);
}

TEST_F(ExecTest, SortActsAsDriverOfParentPipeline) {
  auto root = MakeStreamAggregate(MakeSort(MakeTableScan("t_fact"), 1), {1});
  auto plan = FinalizePlan(std::move(root), *catalog_);
  ASSERT_TRUE(plan.ok());
  auto pipelines = DecomposePipelines(**plan);
  ASSERT_EQ(pipelines.size(), 2u);
  // Parent pipeline: agg + sort, driver = sort node.
  ASSERT_EQ(pipelines[0].driver_nodes.size(), 1u);
  EXPECT_EQ((*plan)->node(pipelines[0].driver_nodes[0])->op, OpType::kSort);
}

TEST_F(ExecTest, NljInnerNodesAreNotDrivers) {
  auto root = MakeNestedLoopJoin(MakeTableScan("t_fact"),
                                 MakeIndexSeek("t_dim", "d_id"), 1);
  auto plan = FinalizePlan(std::move(root), *catalog_);
  ASSERT_TRUE(plan.ok());
  auto pipelines = DecomposePipelines(**plan);
  ASSERT_EQ(pipelines.size(), 1u);
  ASSERT_EQ(pipelines[0].driver_nodes.size(), 1u);
  EXPECT_EQ((*plan)->node(pipelines[0].driver_nodes[0])->op,
            OpType::kTableScan);
}

TEST_F(ExecTest, PipelineWindowsAreOrdered) {
  auto root = MakeHashJoin(MakeTableScan("t_dim"), MakeTableScan("t_fact"),
                           0, 1);
  auto run = Run(std::move(root));
  ASSERT_EQ(run.pipelines.size(), 2u);
  for (const auto& p : run.pipelines) {
    ASSERT_GE(p.first_obs, 0) << "pipeline " << p.id << " never active";
    EXPECT_LE(p.first_obs, p.last_obs);
    EXPECT_LT(p.start_time, p.end_time);
  }
  // The build pipeline must start before the probe pipeline ends.
  EXPECT_LE(run.pipelines[1].start_time, run.pipelines[0].end_time);
}

TEST_F(ExecTest, SpillChargesExtraBytesAndCalls) {
  // Force a spill with a tiny memory budget.
  ExecOptions opts;
  opts.memory_limit_bytes = 1024;
  auto root = MakeHashJoin(MakeTableScan("t_fact"), MakeTableScan("t_dim"),
                           1, 0);
  auto plan = FinalizePlan(std::move(root), *catalog_);
  ASSERT_TRUE(plan.ok());
  auto run = ExecutePlan(**plan, *catalog_, opts);
  ASSERT_TRUE(run.ok());
  // Hash join node is the root (id 0): spills surface as written bytes.
  EXPECT_GT(run->final_bytes_written[0], 0.0);
  // And as extra GetNext calls beyond the pure join output.
  EXPECT_GT(run->true_n[0], 100.0);
}

TEST_F(ExecTest, DeterministicAcrossRuns) {
  auto make = [&] {
    return MakeHashJoin(MakeTableScan("t_dim"), MakeTableScan("t_fact"), 0,
                        1);
  };
  auto run1 = Run(make());
  auto plan2 = FinalizePlan(make(), *catalog_);
  ASSERT_TRUE(plan2.ok());
  auto run2 = ExecutePlan(**plan2, *catalog_);
  ASSERT_TRUE(run2.ok());
  EXPECT_EQ(run1.total_time, run2->total_time);
  EXPECT_EQ(run1.observations.size(), run2->observations.size());
}

}  // namespace
}  // namespace rpe
