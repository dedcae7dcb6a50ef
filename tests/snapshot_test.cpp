// Serving-layer tests: binary snapshot round-trips (bit-exact vs. the text
// serialization path), corruption/truncation rejection, and MonitorService
// concurrency — replayed progress series must be bit-identical to the
// sequential ProgressMonitor at any thread count.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/crc32.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "exec/executor.h"
#include "serving/monitor_service.h"
#include "serving/snapshot.h"
#include "tests/test_util.h"

namespace rpe {
namespace {

using ::rpe::testing::CounterValue;
using ::rpe::testing::MakeSmallCatalog;
using ::rpe::testing::RandomRecords;

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

  for (const auto& pair :
       {std::make_pair(&stack_->static_selector, &decoded->static_selector),
        std::make_pair(&stack_->dynamic_selector,
                       &decoded->dynamic_selector)}) {
    const EstimatorSelector& original = *pair.first;
    const EstimatorSelector& loaded = *pair.second;
    EXPECT_EQ(original.pool(), loaded.pool());
    EXPECT_EQ(original.uses_dynamic_features(),
              loaded.uses_dynamic_features());
    ASSERT_EQ(original.models().size(), loaded.models().size());
    for (size_t m = 0; m < original.models().size(); ++m) {
      // The text serialization is the reference persistence path; the
      // binary round-trip must agree with it exactly.
      EXPECT_EQ(original.models()[m].Serialize(),
                loaded.models()[m].Serialize());
    }
    // Scoring is bit-exact too (same models, deterministic recompile).
    for (const PipelineRecord& r : *records_) {
      EXPECT_EQ(original.PredictErrors(r.features),
                loaded.PredictErrors(r.features));
      EXPECT_EQ(original.SelectForRecord(r), loaded.SelectForRecord(r));
    }
  }
  // Re-encode reproduces the snapshot byte for byte.
  EXPECT_EQ(EncodeSelectorStack(*decoded), bytes);
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
  // payload only, v2 over the aux offset, then the payload): no longer
  // readable, and the error names both versions.
  const std::string stack_bytes = EncodeSelectorStack(*stack_);
  for (const uint32_t version : {1u, 2u}) {
    std::string old = stack_bytes;
    uint32_t aux_offset = 0;
    if (version == 2) std::memcpy(&aux_offset, old.data() + 28, 4);
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
                  " (this build reads 3)");
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

TEST_F(SnapshotTest, HostileNodeGraphsAreRejected) {
  // Self-loop at the root: valid indices, but cyclic — must be rejected
  // (FromNodes is the gate that keeps a crafted snapshot from driving
  // Predict or the flat-ensemble compiler into unbounded recursion).
  std::vector<RegressionTree::Node> self_loop(1);
  self_loop[0].feature = 0;
  self_loop[0].threshold = 0.5;
  self_loop[0].left = 0;
  self_loop[0].right = 0;
  EXPECT_FALSE(RegressionTree::FromNodes(self_loop).ok());

  // Back edge deeper in the array.
  std::vector<RegressionTree::Node> back_edge(3);
  back_edge[0].feature = 0;
  back_edge[0].threshold = 0.5;
  back_edge[0].left = 1;
  back_edge[0].right = 2;
  back_edge[1].value = 1.0;  // leaf
  back_edge[2].feature = 1;
  back_edge[2].threshold = 0.5;
  back_edge[2].left = 0;  // cycle back to the root
  back_edge[2].right = 1;
  EXPECT_FALSE(RegressionTree::FromNodes(back_edge).ok());

  // Out-of-range child.
  std::vector<RegressionTree::Node> oob = back_edge;
  oob[2].left = 7;
  EXPECT_FALSE(RegressionTree::FromNodes(oob).ok());

  // DAG chain (left == right == i+1): indices are in order, but the
  // shared children would make the flat-ensemble compiler expand 2^n
  // paths — must be rejected as not-a-tree.
  std::vector<RegressionTree::Node> dag(26);
  for (size_t i = 0; i + 1 < dag.size(); ++i) {
    dag[i].feature = 0;
    dag[i].threshold = 0.5;
    dag[i].left = static_cast<int>(i) + 1;
    dag[i].right = static_cast<int>(i) + 1;
  }
  dag.back().value = 1.0;
  EXPECT_FALSE(RegressionTree::FromNodes(dag).ok());

  // Dead (unreachable) nodes are likewise malformed.
  std::vector<RegressionTree::Node> dead(4);
  dead[0].feature = 0;
  dead[0].threshold = 0.5;
  dead[0].left = 1;
  dead[0].right = 2;
  dead[1].value = 1.0;
  dead[2].value = 2.0;
  dead[3].value = 3.0;  // referenced by nothing
  EXPECT_FALSE(RegressionTree::FromNodes(dead).ok());

  // The well-formed variant is accepted and predicts.
  std::vector<RegressionTree::Node> ok_nodes(3);
  ok_nodes[0].feature = 0;
  ok_nodes[0].threshold = 0.5;
  ok_nodes[0].left = 1;
  ok_nodes[0].right = 2;
  ok_nodes[1].value = 1.0;
  ok_nodes[2].value = 2.0;
  auto tree = RegressionTree::FromNodes(ok_nodes);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(tree->Predict(std::vector<double>{0.0}), 1.0);
  EXPECT_EQ(tree->Predict(std::vector<double>{1.0}), 2.0);
}

TEST_F(SnapshotTest, OutOfRangeSplitFeatureIsRejected) {
  // A persisted model splitting beyond the selector's input width would
  // read past the feature vector at scoring time; FromModels is the gate.
  std::vector<RegressionTree::Node> nodes(3);
  nodes[0].feature = 100000;  // far beyond any schema width
  nodes[0].threshold = 0.5;
  nodes[0].left = 1;
  nodes[0].right = 2;
  nodes[1].value = 1.0;
  nodes[2].value = 2.0;
  auto tree = RegressionTree::FromNodes(nodes);
  ASSERT_TRUE(tree.ok());
  MartModel model = MartModel::FromParts(
      0.0, 0.1, {std::move(tree).ValueOrDie()}, {});
  auto selector = EstimatorSelector::FromModels(
      {0}, /*use_dynamic_features=*/false, {std::move(model)});
  ASSERT_FALSE(selector.ok());
  EXPECT_NE(selector.status().message().find("feature"), std::string::npos)
      << selector.status().ToString();
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
  EXPECT_EQ(EncodeSelectorStack(*stack), EncodeSelectorStack(*stack_));

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

  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    MonitorService::Options options;
    options.pool = &pool;
    MonitorService service(stack_, options);
    const auto series = service.ReplayAll(session_runs);
    ASSERT_EQ(series.size(), expected.size());
    for (size_t s = 0; s < series.size(); ++s) {
      // Bit-identical, not approximately equal.
      EXPECT_EQ(series[s], expected[s])
          << "session " << s << " at " << threads << " threads";
    }
    obs::MetricsRegistry& m = service.metrics();
    EXPECT_EQ(CounterValue(m, "rpe_sessions_completed_total"),
              session_runs.size());
    EXPECT_GT(CounterValue(m, "rpe_decisions_total"), 0u);
    const obs::Histogram::Snapshot latency =
        m.GetHistogram("rpe_replay_latency_seconds")->Snap();
    EXPECT_EQ(latency.count, session_runs.size());
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
  for (size_t oi = 0; oi < expected.size(); ++oi) {
    auto done = service.Done(*id);
    ASSERT_TRUE(done.ok());
    EXPECT_FALSE(*done);
    auto progress = service.Advance(*id);
    ASSERT_TRUE(progress.ok()) << progress.status().ToString();
    EXPECT_EQ(*progress, expected[oi]) << "observation " << oi;
    EXPECT_EQ(*service.Progress(*id), expected[oi]);
  }
  EXPECT_TRUE(*service.Done(*id));
  EXPECT_FALSE(service.Advance(*id).ok());  // stream exhausted
  ASSERT_TRUE(service.CloseSession(*id).ok());
  EXPECT_EQ(service.num_open_sessions(), 0u);
  EXPECT_FALSE(service.Progress(*id).ok());  // closed sessions are gone
  EXPECT_EQ(CounterValue(service.metrics(), "rpe_sessions_completed_total"),
            1u);
  EXPECT_EQ(CounterValue(service.metrics(), "rpe_observations_scored_total"),
            expected.size());
}

TEST_F(MonitorServiceTest, TickAdvancesEverySessionOncePerCall) {
  MonitorService service(stack_);
  std::vector<MonitorService::SessionId> ids;
  size_t total_obs = 0;
  for (const QueryRunResult& run : *runs_) {
    auto id = service.OpenSession(&run);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
    total_obs += run.observations.size();
  }
  size_t ticks = 0;
  while (service.Tick() > 0) ++ticks;
  // The longest run bounds the tick count (its last tick returns 0 left).
  size_t longest = 0;
  for (const QueryRunResult& run : *runs_) {
    longest = std::max(longest, run.observations.size());
  }
  EXPECT_EQ(ticks, longest - 1);
  EXPECT_EQ(CounterValue(service.metrics(), "rpe_observations_scored_total"),
            total_obs);
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_TRUE(*service.Done(ids[i]));
    const auto expected = SequentialSeries({&(*runs_)[i]});
    EXPECT_EQ(*service.Progress(ids[i]), expected[0].back());
    ASSERT_TRUE(service.CloseSession(ids[i]).ok());
  }
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
  const std::vector<const QueryRunResult*> one{&run};
  ProgressMonitor swapped(&other->static_selector, &other->dynamic_selector);
  EXPECT_EQ(service.ReplayAll(one)[0], swapped.ReplayQueryProgress(run));
}

TEST_F(MonitorServiceTest, InvalidSessionsAreErrors) {
  MonitorService service(stack_);
  EXPECT_FALSE(service.OpenSession(nullptr).ok());
  EXPECT_FALSE(service.Advance(99).ok());
  EXPECT_FALSE(service.Progress(99).ok());
  EXPECT_FALSE(service.Done(99).ok());
  EXPECT_FALSE(service.CloseSession(99).ok());
}

}  // namespace
}  // namespace rpe
