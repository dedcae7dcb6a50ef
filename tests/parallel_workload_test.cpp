// PlanAndExecuteWorkload runs a workload's queries in parallel on the
// global pool. Execution runs on a virtual clock, so its output must be
// identical to a serial RunQuery + MakeRecord loop at any pool size:
// records byte for byte through SaveRecords, kept runs observation for
// observation, and on_record in query order on the calling thread.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/thread_pool.h"
#include "harness/runner.h"

namespace rpe {
namespace {

std::string SavedBytes(const std::vector<PipelineRecord>& records,
                       const std::string& name) {
  // Per-process path: ctest runs each test of the suite in its own
  // process, concurrently under -j, so a shared name races its siblings.
  const std::string path = ::testing::TempDir() + "/" +
                           std::to_string(::getpid()) + "_" + name;
  EXPECT_TRUE(SaveRecords(records, path).ok());
  std::ifstream in(path);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  std::filesystem::remove(path);
  return bytes.str();
}

class ParallelWorkloadTest : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite() {
    WorkloadConfig config;
    config.kind = WorkloadKind::kTpch;
    config.name = "tpch-parallel";
    config.scale = 2.0;
    config.zipf = 1.0;
    config.tuning = TuningLevel::kPartiallyTuned;
    config.num_queries = 24;
    config.seed = 5;
    auto workload = BuildWorkload(config);
    ASSERT_TRUE(workload.ok()) << workload.status().ToString();
    workload_ = new Workload(std::move(workload).ValueOrDie());

    // The serial reference: one fresh estimator per query (RunQuery).
    runs_ = new std::vector<OwnedRun>();
    records_ = new std::vector<PipelineRecord>();
    const RunOptions options;
    for (const QuerySpec& spec : workload_->queries) {
      auto run = RunQuery(*workload_, spec, options);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      for (const Pipeline& pipeline : run->result.pipelines) {
        PipelineView view{&run->result, &pipeline};
        PipelineRecord record;
        if (MakeRecord(view, config.name, spec.name, "t", &record,
                       options.min_observations)) {
          records_->push_back(std::move(record));
        }
      }
      runs_->push_back(std::move(run).ValueOrDie());
    }
    ASSERT_FALSE(records_->empty());
  }
  static void TearDownTestSuite() {
    delete records_;
    delete runs_;
    delete workload_;
    records_ = nullptr;
    runs_ = nullptr;
    workload_ = nullptr;
  }

  void SetUp() override {
    saved_threads_ = ThreadPool::Global().num_threads();
    ThreadPool::SetGlobalThreads(GetParam());
  }
  void TearDown() override { ThreadPool::SetGlobalThreads(saved_threads_); }

  static Workload* workload_;
  static std::vector<OwnedRun>* runs_;
  static std::vector<PipelineRecord>* records_;
  int saved_threads_ = 0;
};

Workload* ParallelWorkloadTest::workload_ = nullptr;
std::vector<OwnedRun>* ParallelWorkloadTest::runs_ = nullptr;
std::vector<PipelineRecord>* ParallelWorkloadTest::records_ = nullptr;

TEST_P(ParallelWorkloadTest, RecordsAreByteIdenticalToTheSerialLoop) {
  const WorkloadRun run = PlanAndExecuteWorkload(*workload_, RunOptions{}, "t",
                                                 /*keep_runs=*/false);
  EXPECT_EQ(run.failed, 0u);
  EXPECT_TRUE(run.runs.empty());
  EXPECT_EQ(SavedBytes(run.records, "parallel.csv"),
            SavedBytes(*records_, "serial.csv"));
}

TEST_P(ParallelWorkloadTest, KeptRunsMatchTheSerialRuns) {
  const WorkloadRun run = PlanAndExecuteWorkload(*workload_, RunOptions{}, "t",
                                                 /*keep_runs=*/true);
  ASSERT_EQ(run.runs.size(), runs_->size());
  for (size_t q = 0; q < runs_->size(); ++q) {
    const QueryRunResult& got = run.runs[q].result;
    const QueryRunResult& want = (*runs_)[q].result;
    EXPECT_EQ(got.plan, run.runs[q].plan.get());
    EXPECT_EQ(got.true_n, want.true_n) << "query " << q;
    ASSERT_EQ(got.observations.size(), want.observations.size());
    for (size_t o = 0; o < want.observations.size(); ++o) {
      const Observation& a = got.observations[o];
      const Observation& b = want.observations[o];
      EXPECT_EQ(a.vtime, b.vtime);
      EXPECT_EQ(a.k, b.k);
      EXPECT_EQ(a.e, b.e);
      EXPECT_EQ(a.lb, b.lb);
      EXPECT_EQ(a.ub, b.ub);
      EXPECT_EQ(a.bytes_read, b.bytes_read);
      EXPECT_EQ(a.bytes_written, b.bytes_written);
    }
  }
}

TEST_P(ParallelWorkloadTest, OnRecordSeesTheRecordsInOrderOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  RunOptions options;
  std::vector<PipelineRecord> streamed;
  bool off_caller = false;
  options.on_record = [&](const PipelineRecord& record) {
    off_caller |= std::this_thread::get_id() != caller;
    streamed.push_back(record);
  };
  const WorkloadRun run = PlanAndExecuteWorkload(*workload_, options, "t",
                                                 /*keep_runs=*/false);
  EXPECT_FALSE(off_caller);
  EXPECT_EQ(SavedBytes(streamed, "streamed.csv"),
            SavedBytes(run.records, "returned.csv"));
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelWorkloadTest,
                         ::testing::Values(1, 4));

}  // namespace
}  // namespace rpe
