// Serving-layer tests: binary snapshot round-trips (bit-exact scores and
// byte-exact re-encodes), corruption/truncation rejection, and MonitorService
// concurrency — sessions stepped through Open/Advance/Close must serve
// values bit-identical to the sequential ProgressMonitor at any caller
// thread count.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/crc32.h"
#include "common/random.h"
#include "exec/executor.h"
#include "serving/monitor_service.h"
#include "serving/snapshot.h"
#include "tests/test_util.h"

namespace rpe {
namespace {

using ::rpe::testing::CounterValue;
using ::rpe::testing::DriveSessions;
using ::rpe::testing::ExpectedSessionCounts;
using ::rpe::testing::MakeSmallCatalog;
using ::rpe::testing::RandomRecords;
using ::rpe::testing::ReadSessionCounts;
using ::rpe::testing::SessionCounts;

SelectorStack TrainSmallStack(const std::vector<PipelineRecord>& records,
                              uint64_t seed) {
  MartParams params;
  params.num_trees = 10;
  params.tree.max_leaves = 8;
  params.seed = seed;
  return SelectorStack::Train(records, PoolOriginalThree(), params);
}

class SnapshotTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    records_ = new std::vector<PipelineRecord>(RandomRecords(80, 11));
    stack_ = new SelectorStack(TrainSmallStack(*records_, 7));
  }
  static void TearDownTestSuite() {
    delete records_;
    delete stack_;
    records_ = nullptr;
    stack_ = nullptr;
  }

  static std::vector<PipelineRecord>* records_;
  static SelectorStack* stack_;
};

std::vector<PipelineRecord>* SnapshotTest::records_ = nullptr;
SelectorStack* SnapshotTest::stack_ = nullptr;

TEST_F(SnapshotTest, RecordBatchRoundTripIsByteIdentical) {
  const std::string bytes = EncodeRecordBatch(*records_);
  auto decoded = DecodeRecordBatch(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), records_->size());
  for (size_t i = 0; i < records_->size(); ++i) {
    const PipelineRecord& a = (*records_)[i];
    const PipelineRecord& b = (*decoded)[i];
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.query, b.query);
    EXPECT_EQ(a.pipeline_id, b.pipeline_id);
    EXPECT_EQ(a.tag, b.tag);
    EXPECT_EQ(a.total_n, b.total_n);  // bit-exact, not approximate
    EXPECT_EQ(a.features, b.features);
    EXPECT_EQ(a.l1, b.l1);
    EXPECT_EQ(a.l2, b.l2);
  }
  // Re-encoding the decoded batch reproduces the file byte for byte.
  EXPECT_EQ(EncodeRecordBatch(*decoded), bytes);
}

TEST_F(SnapshotTest, EmptyRecordBatchRoundTrips) {
  const std::string bytes = EncodeRecordBatch({});
  auto decoded = DecodeRecordBatch(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->empty());
}

TEST_F(SnapshotTest, SelectorStackRoundTripIsBitExact) {
  const std::string bytes = EncodeSelectorStack(*stack_);
  auto decoded = DecodeSelectorStack(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const SelectorStack& stack = **decoded;

  for (const auto& pair :
       {std::make_pair(&stack_->static_selector, &stack.static_selector),
        std::make_pair(&stack_->dynamic_selector, &stack.dynamic_selector)}) {
    const EstimatorSelector& original = *pair.first;
    const EstimatorSelector& loaded = *pair.second;
    EXPECT_EQ(original.pool(), loaded.pool());
    EXPECT_EQ(original.uses_dynamic_features(),
              loaded.uses_dynamic_features());
    EXPECT_EQ(original.feature_gains(), loaded.feature_gains());
    // Scoring is bit-exact: the loaded tables are the compiled ones.
    for (const PipelineRecord& r : *records_) {
      EXPECT_EQ(original.PredictErrors(r.features),
                loaded.PredictErrors(r.features));
      EXPECT_EQ(original.SelectForRecord(r), loaded.SelectForRecord(r));
    }
  }
  // Re-encode reproduces the snapshot byte for byte.
  EXPECT_EQ(EncodeSelectorStack(stack), bytes);
}

TEST_F(SnapshotTest, CorruptedPayloadIsRejected) {
  std::string bytes = EncodeRecordBatch(*records_);
  bytes[bytes.size() / 2] ^= 0x5A;  // flip bits mid-payload
  auto decoded = DecodeRecordBatch(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("CRC"), std::string::npos)
      << decoded.status().ToString();
}

TEST_F(SnapshotTest, CorruptedModelPayloadIsRejected) {
  std::string bytes = EncodeSelectorStack(*stack_);
  bytes[bytes.size() - 9] ^= 0xFF;
  EXPECT_FALSE(DecodeSelectorStack(bytes).ok());
}

TEST_F(SnapshotTest, TruncatedSnapshotIsRejected) {
  const std::string bytes = EncodeRecordBatch(*records_);
  // Every strict prefix must be rejected — header-only, mid-payload, and
  // one-byte-short truncations alike.
  for (size_t keep : {size_t{0}, size_t{16}, size_t{31}, size_t{32},
                      bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_FALSE(DecodeRecordBatch(bytes.substr(0, keep)).ok())
        << "prefix of " << keep << " bytes decoded";
  }
}

TEST_F(SnapshotTest, BadMagicAndVersionAreRejected) {
  std::string bytes = EncodeRecordBatch(*records_);
  {
    std::string bad = bytes;
    bad[0] = 'X';
    auto decoded = DecodeRecordBatch(bad);
    ASSERT_FALSE(decoded.ok());
    EXPECT_NE(decoded.status().message().find("magic"), std::string::npos);
  }
  {
    std::string bad = bytes;
    bad[4] = 99;  // future format version
    auto decoded = DecodeRecordBatch(bad);
    ASSERT_FALSE(decoded.ok());
    EXPECT_NE(decoded.status().message().find("version"), std::string::npos);
  }
  // Earlier formats with a valid CRC under their own rule (v1 over the
  // payload only, v2 and v3 over the aux offset, then the payload): no
  // longer readable, and the error names both versions.
  const std::string stack_bytes = EncodeSelectorStack(*stack_);
  for (const uint32_t version : {1u, 2u, 3u}) {
    std::string old = stack_bytes;
    uint32_t aux_offset = 0;
    if (version >= 2) std::memcpy(&aux_offset, old.data() + 28, 4);
    std::memcpy(old.data() + 28, &aux_offset, 4);
    const uint32_t seed =
        version == 1 ? 0 : Crc32(&aux_offset, sizeof aux_offset);
    const uint32_t crc = Crc32(old.data() + 32, old.size() - 32, seed);
    std::memcpy(old.data() + 4, &version, 4);
    std::memcpy(old.data() + 24, &crc, 4);
    auto decoded = DecodeSelectorStack(old);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().message(),
              "unsupported snapshot version " + std::to_string(version) +
                  " (this build reads 4)");
  }
}

TEST_F(SnapshotTest, MismatchedKindIsRejected) {
  const std::string stack_bytes = EncodeSelectorStack(*stack_);
  EXPECT_FALSE(DecodeRecordBatch(stack_bytes).ok());
  const std::string record_bytes = EncodeRecordBatch(*records_);
  EXPECT_FALSE(DecodeSelectorStack(record_bytes).ok());
  auto kind = PeekSnapshotKind(stack_bytes);
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(*kind, SnapshotKind::kSelectorStack);
}

TEST_F(SnapshotTest, FileRoundTrip) {
  const std::string dir = std::filesystem::temp_directory_path().string();
  const std::string record_path = dir + "/rpe_snapshot_test_records.rpsn";
  const std::string stack_path = dir + "/rpe_snapshot_test_stack.rpsn";

  ASSERT_TRUE(SaveRecordBatch(*records_, record_path).ok());
  auto records = LoadRecordBatch(record_path);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  EXPECT_EQ(EncodeRecordBatch(*records), EncodeRecordBatch(*records_));

  ASSERT_TRUE(SaveSelectorStack(*stack_, stack_path).ok());
  auto stack = LoadSelectorStack(stack_path);
  ASSERT_TRUE(stack.ok()) << stack.status().ToString();
  EXPECT_EQ(EncodeSelectorStack(**stack), EncodeSelectorStack(*stack_));

  auto kind = PeekSnapshotFileKind(record_path);
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(*kind, SnapshotKind::kRecordBatch);

  std::remove(record_path.c_str());
  std::remove(stack_path.c_str());
}

// ---------------------------------------------------------------------------
// MonitorService: concurrency, sessions, hot swap.

class MonitorServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = MakeSmallCatalog().release();
    runs_ = new std::vector<QueryRunResult>();
    plans_ = new std::vector<std::unique_ptr<PhysicalPlan>>();
    AddRun(MakeTableScan("t_fact"));
    AddRun(MakeHashJoin(MakeTableScan("t_dim"), MakeTableScan("t_fact"), 0,
                        1));
    AddRun(MakeNestedLoopJoin(MakeTableScan("t_fact"),
                              MakeIndexSeek("t_dim", "d_id"), 1));
    AddRun(MakeFilter(MakeTableScan("t_fact"), Predicate::Le(2, 25)));
    stack_ = std::make_shared<const SelectorStack>(
        TrainSmallStack(RandomRecords(80, 11), 7));
  }
  static void TearDownTestSuite() {
    delete runs_;
    delete plans_;
    delete catalog_;
    stack_.reset();
    runs_ = nullptr;
    plans_ = nullptr;
    catalog_ = nullptr;
  }

  static void AnnotateEstimates(PlanNode* node, double est) {
    node->est_rows = est;
    for (auto& c : node->children) AnnotateEstimates(c.get(), est * 0.8);
  }

  static void AddRun(std::unique_ptr<PlanNode> root) {
    AnnotateEstimates(root.get(), 1000.0);
    auto plan = FinalizePlan(std::move(root), *catalog_);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    plans_->push_back(std::move(plan).ValueOrDie());
    auto result = ExecutePlan(*plans_->back(), *catalog_);
    ASSERT_TRUE(result.ok());
    runs_->push_back(std::move(result).ValueOrDie());
  }

  /// 64+ session slots cycling the recorded runs.
  static std::vector<const QueryRunResult*> SessionRuns(size_t n) {
    std::vector<const QueryRunResult*> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) out.push_back(&(*runs_)[i % runs_->size()]);
    return out;
  }

  static std::vector<std::vector<double>> SequentialSeries(
      const std::vector<const QueryRunResult*>& runs) {
    ProgressMonitor monitor(&stack_->static_selector,
                            &stack_->dynamic_selector);
    std::vector<std::vector<double>> out;
    out.reserve(runs.size());
    for (const QueryRunResult* run : runs) {
      out.push_back(monitor.ReplayQueryProgress(*run));
    }
    return out;
  }

  static Catalog* catalog_;
  static std::vector<QueryRunResult>* runs_;
  static std::vector<std::unique_ptr<PhysicalPlan>>* plans_;
  static std::shared_ptr<const SelectorStack> stack_;
};

Catalog* MonitorServiceTest::catalog_ = nullptr;
std::vector<QueryRunResult>* MonitorServiceTest::runs_ = nullptr;
std::vector<std::unique_ptr<PhysicalPlan>>* MonitorServiceTest::plans_ =
    nullptr;
std::shared_ptr<const SelectorStack> MonitorServiceTest::stack_;

TEST_F(MonitorServiceTest, ConcurrentReplayIsBitIdenticalAtAnyThreadCount) {
  const auto session_runs = SessionRuns(64);
  const auto expected = SequentialSeries(session_runs);

  const ProgressMonitor monitor(&stack_->static_selector,
                                &stack_->dynamic_selector);
  const auto want = ExpectedSessionCounts(monitor, session_runs);
  EXPECT_GT(want.decisions, 0u);

  for (int threads : {1, 4}) {
    MonitorService service(stack_);
    EXPECT_EQ(DriveSessions(
                  service, session_runs,
                  [&](size_t s) -> const std::vector<double>& {
                    return expected[s];
                  },
                  threads),
              0u)
        << threads << " threads";
    obs::MetricsRegistry& m = service.metrics();
    EXPECT_EQ(ReadSessionCounts(m), want) << threads << " threads";
    const obs::Histogram::Snapshot latency =
        m.GetHistogram("rpe_replay_latency_seconds")->Snap();
    EXPECT_GE(latency.Quantile(0.95), latency.Quantile(0.50));
  }
}

TEST_F(MonitorServiceTest, SessionAdvanceMatchesSequentialReplay) {
  MonitorService service(stack_);
  const QueryRunResult& run = (*runs_)[1];
  ProgressMonitor monitor(&stack_->static_selector,
                          &stack_->dynamic_selector);
  const auto expected = monitor.ReplayQueryProgress(run);

  auto id = service.OpenSession(&run);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(service.num_open_sessions(), 1u);
  bool done = true;
  for (size_t oi = 0; oi < expected.size(); ++oi) {
    ASSERT_TRUE(service.Progress(*id, &done).ok());
    EXPECT_FALSE(done);
    auto progress = service.Advance(*id);
    ASSERT_TRUE(progress.ok()) << progress.status().ToString();
    EXPECT_EQ(*progress, expected[oi]) << "observation " << oi;
    EXPECT_EQ(*service.Progress(*id), expected[oi]);
  }
  ASSERT_TRUE(service.Progress(*id, &done).ok());
  EXPECT_TRUE(done);
  EXPECT_FALSE(service.Advance(*id).ok());  // stream exhausted
  ASSERT_TRUE(service.CloseSession(*id).ok());
  EXPECT_EQ(service.num_open_sessions(), 0u);
  EXPECT_FALSE(service.Progress(*id).ok());  // closed sessions are gone
  EXPECT_EQ(CounterValue(service.metrics(), "rpe_sessions_completed_total"),
            1u);
  EXPECT_EQ(CounterValue(service.metrics(), "rpe_observations_scored_total"),
            expected.size());
}

TEST_F(MonitorServiceTest, SessionValuesServeWhatTheIdApiServes) {
  // The same runs through the id-keyed API on one service and through
  // Open/Step/Close session values on another: the same series bit for
  // bit and the same counter deltas. Step accrues no counter, so the
  // value path accrues rpe_observations_scored_total itself, as its
  // owner (the TCP front-end) does. The last session of each side is
  // closed half way, uncompleted.
  const auto session_runs = SessionRuns(6);
  const size_t unfinished = session_runs.size() - 1;
  const auto steps_of = [&](size_t s) {
    const size_t total = session_runs[s]->observations.size();
    return s == unfinished ? total / 2 : total;
  };

  MonitorService by_id(stack_);
  std::vector<std::vector<uint64_t>> id_series;
  for (size_t s = 0; s < session_runs.size(); ++s) {
    auto id = by_id.OpenSession(session_runs[s]);
    ASSERT_TRUE(id.ok());
    std::vector<uint64_t>& series = id_series.emplace_back();
    while (series.size() < steps_of(s)) {
      auto progress = by_id.Advance(*id);
      ASSERT_TRUE(progress.ok()) << progress.status().ToString();
      series.push_back(std::bit_cast<uint64_t>(*progress));
    }
    EXPECT_EQ(by_id.Advance(*id).ok(), s == unfinished);
    ASSERT_TRUE(by_id.CloseSession(*id).ok());
  }

  // Open every value session first, step them in two turns, and move
  // each into a new vector between the turns.
  MonitorService by_value(stack_);
  obs::Counter* value_observations =
      by_value.metrics().GetCounter("rpe_observations_scored_total");
  std::vector<MonitorService::Session> sessions;
  for (const QueryRunResult* run : session_runs) {
    auto session = by_value.Open(run);
    ASSERT_TRUE(session.ok());
    EXPECT_EQ(session->last_progress, 0.0);
    sessions.push_back(std::move(*session));
  }
  std::vector<std::vector<uint64_t>> value_series(sessions.size());
  const auto step_until = [&](size_t s, size_t end) {
    while (value_series[s].size() < end) {
      uint32_t taken = 0;
      bool done = false;
      auto progress = MonitorService::Step(&sessions[s], 1, &taken, &done);
      ASSERT_TRUE(progress.ok()) << progress.status().ToString();
      ASSERT_EQ(taken, 1u);
      value_observations->Inc(taken);
      value_series[s].push_back(std::bit_cast<uint64_t>(*progress));
      EXPECT_EQ(sessions[s].last_progress, *progress);
      EXPECT_EQ(done, value_series[s].size() ==
                          session_runs[s]->observations.size());
      EXPECT_EQ(sessions[s].done(), done);
    }
  };
  for (size_t s = 0; s < sessions.size(); ++s) {
    step_until(s, steps_of(s) / 2);
  }
  std::vector<MonitorService::Session> moved;
  for (MonitorService::Session& session : sessions) {
    moved.push_back(std::move(session));
  }
  sessions.swap(moved);
  for (size_t s = 0; s < sessions.size(); ++s) {
    step_until(s, steps_of(s));
    EXPECT_EQ(value_series[s], id_series[s]) << "session " << s;
    uint32_t taken = 7;
    EXPECT_EQ(MonitorService::Step(&sessions[s], 1, &taken, nullptr).ok(),
              s == unfinished);
    if (s == unfinished) {
      value_observations->Inc(taken);  // the id side's extra Advance
    } else {
      EXPECT_EQ(taken, 0u);
    }
  }
  for (const MonitorService::Session& session : sessions) {
    by_value.Close(session);
  }

  const SessionCounts value_counts = ReadSessionCounts(by_value.metrics());
  EXPECT_EQ(value_counts, ReadSessionCounts(by_id.metrics()));
  // Only completed sessions add a latency sample.
  EXPECT_EQ(value_counts.opened, session_runs.size());
  EXPECT_EQ(value_counts.completed, session_runs.size() - 1);
  EXPECT_EQ(value_counts.latencies, session_runs.size() - 1);
}

TEST_F(MonitorServiceTest, SwapModelsKeepsOpenSessionsPinned) {
  auto other = std::make_shared<const SelectorStack>(
      TrainSmallStack(RandomRecords(80, 23), 41));
  MonitorService service(stack_);
  const QueryRunResult& run = (*runs_)[2];

  auto id = service.OpenSession(&run);
  ASSERT_TRUE(id.ok());
  service.SwapModels(other);
  EXPECT_EQ(service.models().get(), other.get());

  // The open session still replays against the snapshot it pinned at open.
  ProgressMonitor pinned(&stack_->static_selector, &stack_->dynamic_selector);
  const auto expected = pinned.ReplayQueryProgress(run);
  for (size_t oi = 0; oi < expected.size(); ++oi) {
    EXPECT_EQ(*service.Advance(*id), expected[oi]);
  }
  ASSERT_TRUE(service.CloseSession(*id).ok());

  // New sessions decide against the swapped-in models.
  const std::vector<const QueryRunResult*> runs(4, &run);
  ProgressMonitor swapped(&other->static_selector, &other->dynamic_selector);
  const auto want = swapped.ReplayQueryProgress(run);
  for (int threads : {1, 4}) {
    EXPECT_EQ(DriveSessions(
                  service, runs,
                  [&](size_t) -> const std::vector<double>& { return want; },
                  threads),
              0u)
        << threads << " threads";
  }
}

TEST_F(MonitorServiceTest, InvalidSessionsAreErrors) {
  MonitorService service(stack_);
  EXPECT_FALSE(service.OpenSession(nullptr).ok());
  EXPECT_FALSE(service.Advance(99).ok());
  EXPECT_FALSE(service.Progress(99).ok());
  EXPECT_FALSE(service.CloseSession(99).ok());
}

}  // namespace
}  // namespace rpe
