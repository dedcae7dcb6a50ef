// Edge-case execution tests: empty inputs, single-row tables, degenerate
// predicates, plan-validation failures, and unusual operator compositions.
#include <gtest/gtest.h>

#include <iomanip>

#include "exec/executor.h"
#include "storage/datagen.h"
#include "tests/test_util.h"

namespace rpe {
namespace {

using ::rpe::testing::Fnv64;
using ::rpe::testing::MakeSmallCatalog;

/// What a run shows the progress estimators, pinned exactly: rows out,
/// each node's true N and final bytes written, the end time on the
/// virtual clock, and an FNV-1a digest of the observation stream.
struct RunPin {
  uint64_t rows_out = 0;
  std::vector<double> true_n;
  std::vector<double> bytes_written;
  double total_time = 0.0;
  uint64_t observations = 0;
};

void ExpectPinned(const QueryRunResult& run, const RunPin& want) {
  Fnv64 digest;
  digest.Observations(run.observations);
  EXPECT_EQ(run.rows_out, want.rows_out);
  EXPECT_EQ(run.true_n, want.true_n);
  EXPECT_EQ(run.final_bytes_written, want.bytes_written);
  EXPECT_EQ(run.total_time, want.total_time)
      << std::setprecision(17) << run.total_time;
  EXPECT_EQ(digest.value(), want.observations)
      << "observation digest 0x" << std::hex << digest.value();
}

/// A budget of 8 KiB: the 24-byte rows of t_fact spill after 341 rows.
ExecOptions SmallMemory() {
  ExecOptions options;
  options.memory_limit_bytes = 8 * 1024;
  return options;
}

class ExecEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = MakeSmallCatalog();
    // An empty table and a single-row table for boundary cases.
    auto empty = std::make_unique<Table>("t_empty", Schema({{"e", 8}}));
    RPE_CHECK_OK(catalog_->AddTable(std::move(empty)));
    auto one = std::make_unique<Table>("t_one", Schema({{"o", 8}}));
    RPE_CHECK_OK(one->Append({42}));
    RPE_CHECK_OK(catalog_->AddTable(std::move(one)));
    RPE_CHECK_OK(catalog_->CreateIndex("t_empty", "e"));
    RPE_CHECK_OK(catalog_->CreateIndex("t_one", "o"));
  }

  QueryRunResult Run(std::unique_ptr<PlanNode> root,
                     const ExecOptions& options = {}) {
    auto plan = FinalizePlan(std::move(root), *catalog_);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    plans_.push_back(std::move(plan).ValueOrDie());
    auto result = ExecutePlan(*plans_.back(), *catalog_, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).ValueOrDie();
  }

  std::unique_ptr<Catalog> catalog_;
  std::vector<std::unique_ptr<PhysicalPlan>> plans_;
};

TEST_F(ExecEdgeTest, EmptyTableScan) {
  auto run = Run(MakeTableScan("t_empty"));
  EXPECT_EQ(run.rows_out, 0u);
  EXPECT_GE(run.observations.size(), 1u);  // the final sample
}

TEST_F(ExecEdgeTest, EmptyBuildSideHashJoin) {
  auto run = Run(MakeHashJoin(MakeTableScan("t_empty"),
                              MakeTableScan("t_fact"), 0, 0));
  EXPECT_EQ(run.rows_out, 0u);
}

TEST_F(ExecEdgeTest, EmptyProbeSideHashJoin) {
  auto run = Run(MakeHashJoin(MakeTableScan("t_dim"),
                              MakeTableScan("t_empty"), 0, 0));
  EXPECT_EQ(run.rows_out, 0u);
}

TEST_F(ExecEdgeTest, EmptyOuterNestedLoop) {
  auto run = Run(MakeNestedLoopJoin(MakeTableScan("t_empty"),
                                    MakeIndexSeek("t_dim", "d_id"), 0));
  EXPECT_EQ(run.rows_out, 0u);
}

TEST_F(ExecEdgeTest, SingleRowJoins) {
  // t_one joined with itself on its only column.
  auto run = Run(MakeHashJoin(MakeTableScan("t_one"), MakeTableScan("t_one"),
                              0, 0));
  EXPECT_EQ(run.rows_out, 1u);
}

TEST_F(ExecEdgeTest, SortOfEmptyInput) {
  auto run = Run(MakeSort(MakeTableScan("t_empty"), 0));
  EXPECT_EQ(run.rows_out, 0u);
}

TEST_F(ExecEdgeTest, AggregateOfEmptyInput) {
  auto run = Run(MakeHashAggregate(MakeTableScan("t_empty"), {0}));
  EXPECT_EQ(run.rows_out, 0u);
  auto run2 = Run(MakeStreamAggregate(MakeTableScan("t_empty"), {0}));
  EXPECT_EQ(run2.rows_out, 0u);
}

TEST_F(ExecEdgeTest, MergeJoinWithEmptySide) {
  auto run = Run(MakeMergeJoin(MakeSort(MakeTableScan("t_empty"), 0),
                               MakeSort(MakeTableScan("t_fact"), 1), 0, 1));
  EXPECT_EQ(run.rows_out, 0u);
}

TEST_F(ExecEdgeTest, FilterRejectingEverything) {
  auto run = Run(MakeFilter(MakeTableScan("t_fact"), Predicate::Eq(2, -777)));
  EXPECT_EQ(run.rows_out, 0u);
  // The scan still ran in full.
  EXPECT_EQ(run.true_n[1], 1000.0);
}

TEST_F(ExecEdgeTest, FilterAcceptingEverything) {
  auto run = Run(MakeFilter(MakeTableScan("t_fact"), Predicate::True()));
  EXPECT_EQ(run.rows_out, 1000u);
}

TEST_F(ExecEdgeTest, TopLargerThanInput) {
  auto run = Run(MakeTop(MakeTableScan("t_dim"), 100000));
  EXPECT_EQ(run.rows_out, 100u);
}

TEST_F(ExecEdgeTest, TopOverJoinStopsEarly) {
  auto run = Run(MakeTop(
      MakeHashJoin(MakeTableScan("t_dim"), MakeTableScan("t_fact"), 0, 1),
      10));
  EXPECT_EQ(run.rows_out, 10u);
  // The probe side must not have been fully consumed (early termination):
  // node ids: 0=Top, 1=HashJoin, 2=build scan, 3=probe scan.
  EXPECT_LT(run.true_n[3], 1000.0);
}

TEST_F(ExecEdgeTest, BatchSortBatchLargerThanInput) {
  auto run = Run(MakeBatchSort(MakeTableScan("t_dim"), 1, 100000));
  EXPECT_EQ(run.rows_out, 100u);
}

TEST_F(ExecEdgeTest, BatchSizeOneDegeneratesToPassThrough) {
  auto run = Run(MakeBatchSort(MakeTableScan("t_dim"), 1, 1));
  EXPECT_EQ(run.rows_out, 100u);
}

TEST_F(ExecEdgeTest, NestedBlockingOperators) {
  // Sort over hash aggregate over sort: three pipeline breakers stacked.
  auto root = MakeSort(
      MakeHashAggregate(MakeSort(MakeTableScan("t_fact"), 2), {2}), 1);
  auto run = Run(std::move(root));
  EXPECT_EQ(run.rows_out, 50u);  // 50 distinct f_val groups
  EXPECT_GE(run.pipelines.size(), 3u);
}

TEST_F(ExecEdgeTest, StreamAggregateMultiColumnGroups) {
  // Group by (f_fk, f_val) over input sorted by f_fk with full-row
  // tiebreak: hash and stream must agree since the tiebreak sorts all
  // columns after the key.
  auto hash_run = Run(MakeHashAggregate(MakeTableScan("t_fact"), {1, 2}));
  EXPECT_GT(hash_run.rows_out, 50u);
}

// --- sorts whose output nothing reads ---------------------------------------
// Such a Sort only counts its rows; every counter, byte and clock value the
// estimators see must equal what storing and sorting them gives, pinned here.

TEST_F(ExecEdgeTest, RootSortSpillingPastTheMemoryLimitIsPinned) {
  auto run = Run(MakeSort(MakeTableScan("t_fact"), 2), SmallMemory());
  ExpectPinned(run, {1000, {1000, 1000}, {15816, 0}, 7724.1600379583197,
                     0xe67a2b90431f2542ULL});
  EXPECT_GT(run.final_bytes_written[0], 0.0);  // the spill charges applied
}

TEST_F(ExecEdgeTest, RootTopOverSortIsPinned) {
  auto run = Run(MakeTop(MakeSort(MakeTableScan("t_fact"), 1), 10));
  ExpectPinned(run, {10, {10, 10, 1000}, {0, 0, 0}, 6281.6000379586203,
                     0xe554bf7a94985917ULL});
  // Below a chain of Tops the Sort's output is unread too.
  auto chain = Run(MakeTop(MakeTop(MakeSort(MakeTableScan("t_fact"), 2), 50),
                           10),
                   SmallMemory());
  ExpectPinned(chain, {10, {10, 10, 10, 1000}, {0, 0, 15816, 0},
                       6837.1600379586762, 0x1911a26ebded2510ULL});
}

TEST_F(ExecEdgeTest, SortUnderStreamAggregateIsPinned) {
  auto run = Run(
      MakeStreamAggregate(MakeSort(MakeTableScan("t_fact"), 1), {1}),
      SmallMemory());
  ExpectPinned(run, {95, {95, 1000, 1000}, {0, 15816, 0}, 8209.2600379579217,
                     0xc4dddd75c95508f4ULL});
  // The aggregate reads the sorted values: it finds every f_fk group once.
  auto hashed = Run(MakeHashAggregate(MakeTableScan("t_fact"), {1}));
  EXPECT_EQ(run.rows_out, hashed.rows_out);
}

TEST_F(ExecEdgeTest, OutputUnreadCoversTheRootAndItsChainOfTops) {
  const auto unread = [&](std::unique_ptr<PlanNode> root) {
    auto plan = FinalizePlan(std::move(root), *catalog_);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    const ExecContext ctx(plan->get(), catalog_.get(), {});
    std::vector<bool> out;
    for (const PlanNode* n : (*plan)->nodes()) {
      out.push_back(ctx.OutputUnread(n->id));
    }
    return out;
  };
  // Root Sort: ids 0=Sort, 1=scan.
  EXPECT_EQ(unread(MakeSort(MakeTableScan("t_fact"), 1)),
            (std::vector<bool>{true, false}));
  // Top, Top, Sort, scan.
  EXPECT_EQ(unread(MakeTop(MakeTop(MakeSort(MakeTableScan("t_fact"), 1), 5),
                           3)),
            (std::vector<bool>{true, true, true, false}));
  // A filter reads its input: Filter, Sort, scan.
  EXPECT_EQ(unread(MakeFilter(MakeSort(MakeTableScan("t_fact"), 1),
                              Predicate::True())),
            (std::vector<bool>{true, false, false}));
  // StreamAggregate, Sort, scan.
  EXPECT_EQ(unread(MakeStreamAggregate(MakeSort(MakeTableScan("t_fact"), 1),
                                       {1})),
            (std::vector<bool>{true, false, false}));
  // A merge join reads both sorted sides: MergeJoin, Sort, scan, Sort, scan.
  EXPECT_EQ(unread(MakeMergeJoin(MakeSort(MakeTableScan("t_dim"), 0),
                                 MakeSort(MakeTableScan("t_fact"), 1), 0, 1)),
            (std::vector<bool>{true, false, false, false, false}));
}

// --- plan validation --------------------------------------------------------

TEST_F(ExecEdgeTest, FinalizeRejectsMissingTable) {
  auto plan = FinalizePlan(MakeTableScan("nope"), *catalog_);
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kNotFound);
}

TEST_F(ExecEdgeTest, FinalizeRejectsMissingIndex) {
  auto plan = FinalizePlan(MakeIndexSeek("t_fact", "f_val"), *catalog_);
  EXPECT_FALSE(plan.ok());
}

TEST_F(ExecEdgeTest, FinalizeRejectsBadColumnRefs) {
  // Join key out of range.
  auto root = MakeHashJoin(MakeTableScan("t_dim"), MakeTableScan("t_fact"),
                           99, 1);
  EXPECT_FALSE(FinalizePlan(std::move(root), *catalog_).ok());
  // Filter column out of range.
  auto root2 = MakeFilter(MakeTableScan("t_one"), Predicate::Eq(3, 1));
  EXPECT_FALSE(FinalizePlan(std::move(root2), *catalog_).ok());
  // Aggregate without group columns.
  auto root3 = MakeHashAggregate(MakeTableScan("t_dim"), {});
  EXPECT_FALSE(FinalizePlan(std::move(root3), *catalog_).ok());
  // Top with zero limit.
  auto root4 = MakeTop(MakeTableScan("t_dim"), 0);
  EXPECT_FALSE(FinalizePlan(std::move(root4), *catalog_).ok());
  // BatchSort with zero batch size.
  auto root5 = MakeBatchSort(MakeTableScan("t_dim"), 0, 0);
  EXPECT_FALSE(FinalizePlan(std::move(root5), *catalog_).ok());
}

TEST_F(ExecEdgeTest, PlanToStringContainsOperatorsAndTables) {
  auto plan = FinalizePlan(
      MakeHashJoin(MakeTableScan("t_dim"), MakeTableScan("t_fact"), 0, 1),
      *catalog_);
  ASSERT_TRUE(plan.ok());
  const std::string s = (*plan)->ToString();
  EXPECT_NE(s.find("HashJoin"), std::string::npos);
  EXPECT_NE(s.find("t_dim"), std::string::npos);
  EXPECT_NE(s.find("t_fact"), std::string::npos);
}

TEST_F(ExecEdgeTest, SeekOnEmptyIndexYieldsNoRows) {
  auto run = Run(MakeNestedLoopJoin(MakeTableScan("t_one"),
                                    MakeIndexSeek("t_empty", "e"), 0));
  EXPECT_EQ(run.rows_out, 0u);
}

}  // namespace
}  // namespace rpe
