// Integration tests: full pipeline from workload construction through
// planning, execution, featurization, selector training and evaluation.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>

#include "harness/experiment.h"
#include "harness/runner.h"
#include "serving/snapshot.h"

namespace rpe {
namespace {

WorkloadConfig SmallTpch(uint64_t seed = 77) {
  WorkloadConfig config;
  config.kind = WorkloadKind::kTpch;
  config.name = "tpch-small";
  config.scale = 2.0;
  config.zipf = 1.0;
  config.tuning = TuningLevel::kPartiallyTuned;
  config.num_queries = 60;
  config.seed = seed;
  return config;
}

class HarnessTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto workload = BuildWorkload(SmallTpch());
    ASSERT_TRUE(workload.ok()) << workload.status().ToString();
    workload_ = new Workload(std::move(workload).ValueOrDie());
    auto records = RunWorkload(*workload_);
    ASSERT_TRUE(records.ok()) << records.status().ToString();
    records_ = new std::vector<PipelineRecord>(std::move(records).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete records_;
    delete workload_;
    records_ = nullptr;
    workload_ = nullptr;
  }

  static Workload* workload_;
  static std::vector<PipelineRecord>* records_;
};

Workload* HarnessTest::workload_ = nullptr;
std::vector<PipelineRecord>* HarnessTest::records_ = nullptr;

TEST_F(HarnessTest, WorkloadBuilds) {
  EXPECT_EQ(workload_->queries.size(), 60u);
  EXPECT_TRUE(workload_->catalog->HasTable("lineitem"));
  EXPECT_TRUE(workload_->catalog->HasTable("orders"));
  EXPECT_GT(workload_->catalog->num_indexes(), 6u);
}

TEST_F(HarnessTest, ProducesRecords) {
  ASSERT_GT(records_->size(), 40u);
  const size_t nf = FeatureSchema::Get().num_features();
  for (const auto& r : *records_) {
    EXPECT_EQ(r.features.size(), nf);
    EXPECT_EQ(r.l1.size(), static_cast<size_t>(kNumEstimatorKinds));
    for (double e : r.l1) {
      EXPECT_GE(e, 0.0);
      EXPECT_LE(e, 1.0);
    }
  }
}

TEST_F(HarnessTest, ErrorsAreNotDegenerate) {
  // At least some pipelines must have nontrivial errors, and different
  // estimators must win on different pipelines.
  size_t nontrivial = 0;
  std::set<size_t> winners;
  for (const auto& r : *records_) {
    if (r.BestL1() > 0.01) ++nontrivial;
    winners.insert(r.BestEstimator());
  }
  EXPECT_GT(nontrivial, records_->size() / 20);
  EXPECT_GE(winners.size(), 3u) << "a single estimator dominates everywhere";
}

TEST_F(HarnessTest, RunQuerySingle) {
  auto run = RunQuery(*workload_, workload_->queries[0]);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(run->result.observations.size(), 0u);
  EXPECT_GT(run->result.total_time, 0.0);
}

/// Every field of `got` equals `want`, the doubles bit for bit.
void ExpectRecordsIdentical(const std::vector<PipelineRecord>& got,
                            const std::vector<PipelineRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  auto same_bits = [](const std::vector<double>& a,
                      const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].workload, want[i].workload) << i;
    EXPECT_EQ(got[i].query, want[i].query) << i;
    EXPECT_EQ(got[i].pipeline_id, want[i].pipeline_id) << i;
    EXPECT_EQ(got[i].tag, want[i].tag) << i;
    EXPECT_TRUE(same_bits({got[i].total_n}, {want[i].total_n})) << i;
    EXPECT_TRUE(same_bits(got[i].features, want[i].features)) << i;
    EXPECT_TRUE(same_bits(got[i].l1, want[i].l1)) << i;
    EXPECT_TRUE(same_bits(got[i].l2, want[i].l2)) << i;
  }
}

TEST_F(HarnessTest, RecordBatchRoundTrip) {
  auto bytes = EncodeRecordBatch(*records_);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto loaded = DecodeRecordBatch(*bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectRecordsIdentical(*loaded, *records_);
}

TEST_F(HarnessTest, SelectorTrainsAndBeatsWorstEstimator) {
  // Split odd/even to get disjoint train/test.
  std::vector<PipelineRecord> train, test;
  for (size_t i = 0; i < records_->size(); ++i) {
    ((i % 2 == 0) ? train : test).push_back((*records_)[i]);
  }
  MartParams fast;
  fast.num_trees = 60;
  fast.tree.max_leaves = 16;
  auto eval = TrainAndEvaluate(train, test, PoolOriginalThree(),
                               /*use_dynamic=*/false, fast);
  ASSERT_GT(eval.metrics.count, 0u);

  // Selection should not be worse than the worst single estimator, and
  // should typically approach the best.
  double worst = 0.0, best = 1.0;
  for (size_t est : PoolOriginalThree()) {
    const auto m = EvaluateChoices(test, FixedChoice(test, est));
    worst = std::max(worst, m.avg_l1);
    best = std::min(best, m.avg_l1);
  }
  EXPECT_LE(eval.metrics.avg_l1, worst + 1e-9);
}

TEST_F(HarnessTest, OracleIsLowerBound) {
  const auto oracle = EvaluateChoices(*records_, OracleChoice(*records_));
  for (size_t est = 0; est < static_cast<size_t>(kNumSelectableEstimators);
       ++est) {
    const auto m = EvaluateChoices(*records_, FixedChoice(*records_, est));
    EXPECT_GE(m.avg_l1, oracle.avg_l1 - 1e-12);
  }
  EXPECT_DOUBLE_EQ(oracle.pct_optimal, 1.0);
}

TEST_F(HarnessTest, SelectivityBucketsPartition) {
  const auto buckets = SelectivityBuckets(*records_, 6);
  ASSERT_EQ(buckets.size(), records_->size());
  size_t assigned = 0;
  for (int b : buckets) {
    EXPECT_GE(b, -1);
    EXPECT_LE(b, 2);
    if (b >= 0) ++assigned;
  }
  EXPECT_GT(assigned, 0u);
}

TEST_F(HarnessTest, CachedRecordsRoundTrip) {
  setenv("RPE_CACHE_DIR", "harness_test_cache", 1);
  WorkloadConfig config = SmallTpch(123);
  config.num_queries = 10;
  std::filesystem::remove_all("harness_test_cache");
  auto first = CachedRecords("harness_test_tiny", config);  // cold
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_FALSE(first->empty());
  auto second = CachedRecords("harness_test_tiny", config);  // warm
  ASSERT_TRUE(second.ok());
  ExpectRecordsIdentical(*second, *first);

  // A cache file cut in half (a writer killed mid-file) fails its frame
  // checks, so the records are recomputed in full — never loaded short —
  // and the cache is whole again afterwards.
  const std::string path = RecordCacheDir() + "/harness_test_tiny.v3.rpsn";
  auto bytes = ReadSnapshotFile(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  {
    std::ofstream cut(path, std::ios::binary | std::ios::trunc);
    cut.write(bytes->data(),
              static_cast<std::streamsize>(bytes->size() / 2));
  }
  ASSERT_FALSE(LoadRecordBatch(path).ok());
  auto recomputed = CachedRecords("harness_test_tiny", config);
  ASSERT_TRUE(recomputed.ok()) << recomputed.status().ToString();
  ExpectRecordsIdentical(*recomputed, *first);
  auto rewritten = ReadSnapshotFile(path);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(*rewritten, *bytes);
  unsetenv("RPE_CACHE_DIR");
  std::filesystem::remove_all("harness_test_cache");
}

}  // namespace
}  // namespace rpe
