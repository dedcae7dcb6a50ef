// End-to-end tests of the online-learning loop over the wire: a loopback
// TcpServer wired to a RecordIngestQueue + TrainerLoop, driven by real
// sockets. What must hold:
//   * ingest frames stream records into the trainer, a retrain publishes
//     mid-connection (kStats shows the generation bump), and sessions
//     pinned before the swap stay bit-identical to the old stack;
//   * saturation is answered with kStatusBusy — watermark sheds are
//     whole-frame and exact, in-flight-budget sheds keep FIFO response
//     order, and accepted + dropped + shed == offered always;
//   * an abrupt disconnect mid-frame leaves no partial record behind;
//   * a seeded chaos storm (sessions + ingest + disconnects + injected
//     ingest faults) reconciles every counter exactly. Runs under TSan in
//     CI (ServerOnline* is in the TSan job's filter).
// Synchronization is failpoint-based (FailPoints::Observe + WaitForHits
// on trainer.retrain.done / server.ingest), not sleep-based.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "exec/executor.h"
#include "serving/monitor_service.h"
#include "serving/server.h"
#include "serving/trainer_loop.h"
#include "serving/wire.h"
#include "tests/test_util.h"

namespace rpe {
namespace {

using ::rpe::testing::CounterValue;
using ::rpe::testing::MakeSmallCatalog;
using ::rpe::testing::RandomRecords;

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t EnvCount(const char* name, uint64_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  return std::strtoull(env, nullptr, 10);
}

/// Minimal blocking client (mirrors the one in wire_test.cpp; the
/// production client lives in tools/rpe_loadgen.cc).
class TestClient {
 public:
  ~TestClient() { Close(); }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) ==
           0;
  }

  bool SendRaw(std::string_view bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<size_t>(n);
    }
    return true;
  }

  Result<WireFrame> Receive() {
    while (true) {
      WireFrame frame;
      RPE_ASSIGN_OR_RETURN(bool complete, decoder_.Next(&frame));
      if (complete) return frame;
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IOError("recv failed");
      }
      if (n == 0) return Status::IOError("server closed the connection");
      decoder_.Feed(chunk, static_cast<size_t>(n));
    }
  }

  Result<WireFrame> Call(const std::string& request) {
    if (!SendRaw(request)) return Status::IOError("send failed");
    return Receive();
  }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

MartParams SmallParams() {
  MartParams params;
  params.num_trees = 6;
  params.tree.max_leaves = 8;
  params.seed = 7;
  return params;
}

TrainerLoop::Options FastTrainerOptions() {
  TrainerLoop::Options options;
  options.retrain_min_records = 32;
  options.min_corpus = 8;
  options.max_corpus = 256;
  options.poll_interval = std::chrono::milliseconds(1);
  options.pool = PoolOriginalThree();
  options.params = SmallParams();
  return options;
}

class ServerOnlineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = MakeSmallCatalog().release();
    runs_ = new std::vector<QueryRunResult>();
    plans_ = new std::vector<std::unique_ptr<PhysicalPlan>>();
    AddRun(MakeTableScan("t_fact"));
    AddRun(MakeHashJoin(MakeTableScan("t_dim"), MakeTableScan("t_fact"), 0,
                        1));
    AddRun(MakeFilter(MakeTableScan("t_fact"), Predicate::Le(2, 25)));
    stack_ = std::make_shared<const SelectorStack>(SelectorStack::Train(
        RandomRecords(80, 11), PoolOriginalThree(), SmallParams()));
    records_ = new std::vector<PipelineRecord>(RandomRecords(64, 23));
  }
  static void TearDownTestSuite() {
    delete records_;
    delete runs_;
    delete plans_;
    delete catalog_;
    stack_.reset();
    records_ = nullptr;
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

  static std::vector<const QueryRunResult*> RunPtrs() {
    std::vector<const QueryRunResult*> out;
    for (const QueryRunResult& run : *runs_) out.push_back(&run);
    return out;
  }

  /// Encode one kIngestBatch frame of `n` corpus records.
  static std::string BatchFrame(size_t n, uint64_t* rng) {
    IngestBatchRequest batch;
    for (size_t i = 0; i < n; ++i) {
      batch.records.push_back(
          (*records_)[SplitMix64(rng) % records_->size()]);
    }
    return EncodeIngestBatchRequest(batch);
  }

  static Catalog* catalog_;
  static std::vector<QueryRunResult>* runs_;
  static std::vector<std::unique_ptr<PhysicalPlan>>* plans_;
  static std::shared_ptr<const SelectorStack> stack_;
  static std::vector<PipelineRecord>* records_;
};

Catalog* ServerOnlineTest::catalog_ = nullptr;
std::vector<QueryRunResult>* ServerOnlineTest::runs_ = nullptr;
std::vector<std::unique_ptr<PhysicalPlan>>* ServerOnlineTest::plans_ =
    nullptr;
std::shared_ptr<const SelectorStack> ServerOnlineTest::stack_;
std::vector<PipelineRecord>* ServerOnlineTest::records_ = nullptr;

TEST_F(ServerOnlineTest, IngestOverTheWireRetrainsAndKeepsPinnedSessions) {
  // One registry for the whole tier, as rpe_cli wires it: kStats reads
  // the service, queue and trainer cells through it.
  obs::MetricsRegistry metrics;
  MonitorService service(stack_, MonitorService::Options{&metrics});
  RecordIngestQueue queue(256, &metrics);
  TrainerLoop::Options trainer_options = FastTrainerOptions();
  trainer_options.metrics = &metrics;
  TrainerLoop trainer(&queue, &service, trainer_options);
  FailPoints::Observe("trainer.retrain.done");
  trainer.Start();

  TcpServer::Options server_options;
  server_options.io_threads = 2;
  server_options.metrics = &metrics;
  TcpServer server(&service, RunPtrs(), &queue, server_options);
  ASSERT_TRUE(server.Start().ok());

  // Reference series with the *initial* stack — the session opened before
  // the swap pins it and must stay bit-identical across the retrain.
  ProgressMonitor sequential(&stack_->static_selector,
                             &stack_->dynamic_selector);
  const std::vector<double> expected =
      sequential.ReplayQueryProgress((*runs_)[0]);

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  auto opened_frame = client.Call(EncodeOpenRequest({0}));
  ASSERT_TRUE(opened_frame.ok() && opened_frame->ok());
  auto opened = DecodeOpenResponse(opened_frame->payload);
  ASSERT_TRUE(opened.ok());

  auto initial_frame = client.Call(EncodeStatsRequest());
  ASSERT_TRUE(initial_frame.ok() && initial_frame->ok());
  auto initial = DecodeStatsResponse(initial_frame->payload);
  ASSERT_TRUE(initial.ok());
  EXPECT_EQ(initial->retrains, 0u);

  // Walk half the replay on the pinned session before any swap.
  AdvanceRequest step;
  step.session_id = opened->session_id;
  step.max_steps = 1;
  const size_t half = expected.size() / 2;
  for (size_t obs = 0; obs < half; ++obs) {
    auto frame = client.Call(EncodeAdvanceRequest(step));
    ASSERT_TRUE(frame.ok() && frame->ok());
    auto advanced = DecodeAdvanceResponse(frame->payload);
    ASSERT_TRUE(advanced.ok());
    ASSERT_EQ(
        std::memcmp(&advanced->progress, &expected[obs], sizeof(double)), 0)
        << "observation " << obs << " diverges before the swap";
  }

  // Stream enough records to trip the row-count trigger, then block on
  // the trainer's sync failpoint until the publish happened.
  uint64_t rng = 31;
  uint64_t accepted = 0;
  for (size_t i = 0; i < 3; ++i) {
    auto frame = client.Call(BatchFrame(16, &rng));
    ASSERT_TRUE(frame.ok() && frame->ok()) << "ingest batch " << i;
    auto resp = DecodeIngestResponse(frame->payload);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->dropped, 0u);
    accepted += resp->accepted;
  }
  EXPECT_EQ(accepted, 48u);
  ASSERT_TRUE(FailPoints::WaitForHits("trainer.retrain.done", 1,
                                      std::chrono::seconds(30)));

  // The generation bump is visible over the same connection.
  auto after_frame = client.Call(EncodeStatsRequest());
  ASSERT_TRUE(after_frame.ok() && after_frame->ok());
  auto after = DecodeStatsResponse(after_frame->payload);
  ASSERT_TRUE(after.ok());
  EXPECT_GT(after->model_generation, initial->model_generation);
  EXPECT_GE(after->retrains, 1u);
  EXPECT_EQ(after->records_ingested, 48u);
  EXPECT_EQ(after->ingest_pushed, 48u);
  EXPECT_EQ(after->records_ingest_dropped, 0u);
  EXPECT_EQ(after->records_ingest_shed, 0u);

  // The pinned session finishes on the old stack, bit for bit.
  for (size_t obs = half; obs < expected.size(); ++obs) {
    auto frame = client.Call(EncodeAdvanceRequest(step));
    ASSERT_TRUE(frame.ok() && frame->ok());
    auto advanced = DecodeAdvanceResponse(frame->payload);
    ASSERT_TRUE(advanced.ok());
    ASSERT_EQ(
        std::memcmp(&advanced->progress, &expected[obs], sizeof(double)), 0)
        << "observation " << obs << " diverges after the swap";
  }
  auto closed = client.Call(EncodeCloseRequest({opened->session_id}));
  ASSERT_TRUE(closed.ok() && closed->ok());

  server.Stop();
  queue.Close();
  trainer.Stop();
  FailPoints::DisarmAll();

  EXPECT_EQ(CounterValue(metrics, "rpe_ingest_pushed_total"), 48u);
  EXPECT_EQ(CounterValue(metrics, "rpe_ingest_drained_total"), 48u);
  EXPECT_EQ(metrics.GetGauge("rpe_ingest_queue_depth")->Value(), 0);
}

TEST_F(ServerOnlineTest, WatermarkShedsAreBusyWholeFrameAndExact) {
  MonitorService service(stack_);
  // No trainer: the queue only moves when the test drains it, so every
  // admission decision below is deterministic.
  RecordIngestQueue queue(32);
  TcpServer::Options server_options;
  server_options.io_threads = 2;
  server_options.ingest_shed_watermark = 8;
  TcpServer server(&service, RunPtrs(), &queue, server_options);
  ASSERT_TRUE(server.Start().ok());

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  uint64_t rng = 5;

  // A batch bigger than the watermark is refused whole — no partial
  // acceptance — with kStatusBusy, and counted in records.
  auto busy = client.Call(BatchFrame(16, &rng));
  ASSERT_TRUE(busy.ok());
  EXPECT_FALSE(busy->ok());
  EXPECT_EQ(busy->status, kStatusBusy);
  EXPECT_EQ(busy->ToStatus().code(), StatusCode::kUnavailable);
  EXPECT_EQ(queue.pushed(), 0u);

  // Under the watermark: accepted in full.
  auto ok1 = client.Call(BatchFrame(4, &rng));
  ASSERT_TRUE(ok1.ok() && ok1->ok());
  auto resp1 = DecodeIngestResponse(ok1->payload);
  ASSERT_TRUE(resp1.ok());
  EXPECT_EQ(resp1->accepted, 4u);

  // 4 queued + 8 offered > 8: shed again, still whole-frame.
  auto busy2 = client.Call(BatchFrame(8, &rng));
  ASSERT_TRUE(busy2.ok());
  EXPECT_EQ(busy2->status, kStatusBusy);
  EXPECT_EQ(queue.pushed(), 4u);

  // Draining the queue lifts the watermark: ingest resumes, no restart.
  std::vector<PipelineRecord> drained;
  EXPECT_EQ(queue.DrainBatch(&drained, 32), 4u);
  auto ok2 = client.Call(BatchFrame(8, &rng));
  ASSERT_TRUE(ok2.ok() && ok2->ok());
  auto resp2 = DecodeIngestResponse(ok2->payload);
  ASSERT_TRUE(resp2.ok());
  EXPECT_EQ(resp2->accepted, 8u);

  // Exact shed accounting: 16 + 8 refused, 4 + 8 accepted, 0 dropped.
  const WireStats stats = server.BuildWireStats();
  EXPECT_EQ(stats.records_ingest_shed, 24u);
  EXPECT_EQ(stats.records_ingested, 12u);
  EXPECT_EQ(stats.records_ingest_dropped, 0u);
  EXPECT_EQ(stats.requests_shed, 0u);
  server.Stop();
}

TEST_F(ServerOnlineTest, InflightBudgetShedsPipelinedFramesInFifoOrder) {
  MonitorService service(stack_);
  RecordIngestQueue queue(4096);
  TcpServer::Options server_options;
  server_options.io_threads = 2;
  server_options.max_inflight_per_conn = 2;
  TcpServer server(&service, RunPtrs(), &queue, server_options);
  ASSERT_TRUE(server.Start().ok());

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  // Pipelined bursts: many single-record frames in one write, so the IO
  // thread's read loop outruns dispatch and the inbox budget trips. How
  // many frames land before the shed line depends on TCP chunking, so the
  // assertion is the exactness identity, not a fixed split; bursts repeat
  // until at least one shed is observed.
  constexpr size_t kBurst = 64;
  uint64_t rng = 17;
  uint64_t accepted_total = 0;
  uint64_t busy_total = 0;
  for (int attempt = 0; attempt < 8 && busy_total == 0; ++attempt) {
    std::string burst;
    for (size_t i = 0; i < kBurst; ++i) {
      IngestRecordRequest req;
      req.record = (*records_)[SplitMix64(&rng) % records_->size()];
      burst += EncodeIngestRecordRequest(req);
    }
    ASSERT_TRUE(client.SendRaw(burst));
    // Every frame gets exactly one response, in request order: either an
    // IngestResponse or a kStatusBusy error — never silence.
    for (size_t i = 0; i < kBurst; ++i) {
      auto frame = client.Receive();
      ASSERT_TRUE(frame.ok()) << frame.status().ToString();
      ASSERT_EQ(frame->type, MsgType::kIngestRecord) << "response " << i;
      if (frame->ok()) {
        auto resp = DecodeIngestResponse(frame->payload);
        ASSERT_TRUE(resp.ok());
        accepted_total += resp->accepted;
      } else {
        ASSERT_EQ(frame->status, kStatusBusy) << "response " << i;
        ++busy_total;
      }
    }
  }
  ASSERT_GT(busy_total, 0u) << "pipelined bursts never tripped the budget";

  const WireStats stats = server.BuildWireStats();
  EXPECT_EQ(stats.records_ingested, accepted_total);
  EXPECT_EQ(stats.records_ingest_shed, busy_total);
  EXPECT_EQ(stats.records_ingested, queue.pushed());
  // Single-record frames: shed records == shed frames; no session frames
  // were shed.
  EXPECT_EQ(stats.requests_shed, 0u);
  server.Stop();
}

TEST_F(ServerOnlineTest,
       GlobalInflightBudgetShedsExactlyAndRefundsOnDisconnect) {
  MonitorService service(stack_);
  // One IO thread makes the global count exact; the per-connection cap
  // never binds, so every busy answer below is the global budget's.
  constexpr size_t kBudget = 4;
  TcpServer::Options server_options;
  server_options.io_threads = 1;
  server_options.max_inflight_total = kBudget;
  server_options.max_inflight_per_conn = 1024;
  TcpServer server(&service, RunPtrs(), server_options);
  ASSERT_TRUE(server.Start().ok());

  ProgressMonitor sequential(&stack_->static_selector,
                             &stack_->dynamic_selector);
  struct Peer {
    TestClient client;
    uint64_t session = 0;
    std::vector<double> expected;
    size_t taken = 0;
  };
  Peer peers[2];
  for (uint32_t p = 0; p < 2; ++p) {
    ASSERT_TRUE(peers[p].client.Connect(server.port()));
    auto opened_frame = peers[p].client.Call(EncodeOpenRequest({p}));
    ASSERT_TRUE(opened_frame.ok() && opened_frame->ok());
    auto opened = DecodeOpenResponse(opened_frame->payload);
    ASSERT_TRUE(opened.ok());
    peers[p].session = opened->session_id;
    peers[p].expected = sequential.ReplayQueryProgress((*runs_)[p]);
  }

  // Pipelined Advance bursts from both connections: a read chunk holding
  // more than kBudget frames admits kBudget at most. How many land before
  // the shed line depends on TCP chunking, so the assertion is the
  // exactness identity, not a fixed split. Each admitted Advance is the
  // next value of its session's replay, so busy answers are in FIFO order.
  constexpr size_t kBurst = 16;
  uint64_t answered = 0;
  uint64_t busy_total = 0;
  for (int attempt = 0; attempt < 8 && busy_total == 0; ++attempt) {
    for (Peer& peer : peers) {
      std::string burst;
      for (size_t i = 0; i < kBurst; ++i) {
        burst += EncodeAdvanceRequest({peer.session, 1});
      }
      ASSERT_TRUE(peer.client.SendRaw(burst));
    }
    for (Peer& peer : peers) {
      for (size_t i = 0; i < kBurst; ++i) {
        auto frame = peer.client.Receive();
        ASSERT_TRUE(frame.ok()) << frame.status().ToString();
        ASSERT_EQ(frame->type, MsgType::kAdvance) << "response " << i;
        ++answered;
        if (!frame->ok()) {
          ASSERT_EQ(frame->status, kStatusBusy) << "response " << i;
          ++busy_total;
          continue;
        }
        auto advanced = DecodeAdvanceResponse(frame->payload);
        ASSERT_TRUE(advanced.ok());
        const bool stepped = peer.taken < peer.expected.size();
        ASSERT_EQ(advanced->steps, stepped ? 1u : 0u) << "response " << i;
        const double want =
            peer.expected[stepped ? peer.taken : peer.expected.size() - 1];
        ASSERT_EQ(std::memcmp(&advanced->progress, &want, sizeof(double)), 0)
            << "response " << i;
        peer.taken += stepped ? 1 : 0;
      }
    }
  }
  ASSERT_GT(busy_total, 0u) << "pipelined bursts never tripped the budget";
  obs::MetricsRegistry& m = server.metrics_registry();
  EXPECT_EQ(CounterValue(m, "rpe_server_requests_shed_total"), busy_total);
  EXPECT_EQ(CounterValue(m, "rpe_server_advance_steps_total"),
            peers[0].taken + peers[1].taken);

  {
    // Admitted frames and a hostile header in one write: the connection is
    // dropped with its frames undispatched, and their in-flight slots must
    // come back.
    TestClient hostile;
    ASSERT_TRUE(hostile.Connect(server.port()));
    std::string bytes;
    for (size_t i = 0; i + 1 < kBudget; ++i) {
      bytes += EncodeProgressRequest({peers[0].session});
    }
    bytes += std::string(kFrameHeaderBytes, '\xFF');
    ASSERT_TRUE(hostile.SendRaw(bytes));
    auto frame = hostile.Receive();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_FALSE(frame->ok());
    EXPECT_FALSE(hostile.Receive().ok()) << "hostile connection not dropped";
  }

  // A fresh connection's pipelined frames, up to the whole budget, are
  // all admitted. Session ids are scoped to their connection, so it polls
  // a session it opened itself.
  TestClient fresh;
  ASSERT_TRUE(fresh.Connect(server.port()));
  auto fresh_frame = fresh.Call(EncodeOpenRequest({1}));
  ASSERT_TRUE(fresh_frame.ok() && fresh_frame->ok());
  auto fresh_opened = DecodeOpenResponse(fresh_frame->payload);
  ASSERT_TRUE(fresh_opened.ok());
  std::string burst;
  for (size_t i = 0; i < kBudget; ++i) {
    burst += EncodeProgressRequest({fresh_opened->session_id});
  }
  ASSERT_TRUE(fresh.SendRaw(burst));
  for (size_t i = 0; i < kBudget; ++i) {
    auto frame = fresh.Receive();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->type, MsgType::kProgress);
    EXPECT_TRUE(frame->ok()) << "response " << i << ": "
                             << frame->ToStatus().ToString();
  }
  EXPECT_EQ(CounterValue(m, "rpe_server_requests_shed_total"), busy_total);
  EXPECT_EQ(CounterValue(m, "rpe_server_protocol_errors_total"), 1u);
  // 3 opens, the bursts, kBudget - 1 frames dropped with the hostile
  // connection, and the fresh burst.
  EXPECT_EQ(CounterValue(m, "rpe_server_frames_received_total"),
            3 + answered + (kBudget - 1) + kBudget);
  server.Stop();
}

TEST_F(ServerOnlineTest, AbruptDisconnectLeavesNoPartialRecords) {
  MonitorService service(stack_);
  RecordIngestQueue queue(256);
  TcpServer server(&service, RunPtrs(), &queue,
                   TcpServer::Options{.io_threads = 2});
  ASSERT_TRUE(server.Start().ok());
  FailPoints::Observe("server.ingest");

  uint64_t rng = 41;
  {
    // Half an ingest frame — a complete header promising more payload
    // than ever arrives — then an abrupt close. Nothing may reach the
    // queue: records are parsed from complete frames only.
    TestClient client;
    ASSERT_TRUE(client.Connect(server.port()));
    const std::string frame_bytes = BatchFrame(3, &rng);
    ASSERT_TRUE(client.SendRaw(
        std::string_view(frame_bytes).substr(0, frame_bytes.size() / 2)));
    client.Close();
  }
  // Wait for the server to observe the hangup (counter poll: there is no
  // failpoint on the close edge).
  obs::MetricsRegistry& m = server.metrics_registry();
  for (int i = 0;
       i < 2000 &&
       CounterValue(m, "rpe_server_connections_closed_total") < 1;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(CounterValue(m, "rpe_server_connections_closed_total"), 1u);
  EXPECT_EQ(queue.pushed(), 0u);
  EXPECT_EQ(CounterValue(m, "rpe_server_records_ingested_total"), 0u);
  EXPECT_EQ(FailPoints::Hits("server.ingest"), 0u);

  {
    // A complete frame followed by a disconnect before reading the
    // response: all-or-nothing the other way — every record lands.
    TestClient client;
    ASSERT_TRUE(client.Connect(server.port()));
    ASSERT_TRUE(client.SendRaw(BatchFrame(5, &rng)));
    ASSERT_TRUE(FailPoints::WaitForHits("server.ingest", 5,
                                        std::chrono::seconds(10)));
    client.Close();
  }
  // The 5th hit fires just before its Push; give that one store a bounded
  // moment to land.
  for (int i = 0; i < 2000 && queue.pushed() < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(queue.pushed(), 5u);

  FailPoints::DisarmAll();
  server.Stop();
  EXPECT_EQ(CounterValue(m, "rpe_server_records_ingested_total"), 5u);
  // No session was opened, over the wire or in the service, and none is
  // left open.
  EXPECT_EQ(CounterValue(service.metrics(), "rpe_sessions_opened_total"), 0u);
  EXPECT_EQ(CounterValue(m, "rpe_server_wire_sessions_opened_total"), 0u);
  EXPECT_EQ(CounterValue(m, "rpe_server_wire_sessions_closed_total"), 0u);
}

TEST_F(ServerOnlineTest, SeededIngestStormReconcilesEveryCounterExactly) {
  const uint64_t seed = EnvCount("RPE_CHAOS_SEED", 1);
  const uint64_t rounds = EnvCount("RPE_CHAOS_ROUNDS", 150);
  std::cout << "server chaos: RPE_CHAOS_SEED=" << seed
            << " RPE_CHAOS_ROUNDS=" << rounds << "\n";

  // Probabilistic record drops at the server's ingest edge, plus the
  // observe-only shed hook so busy responses can be cross-checked against
  // the failpoint hit count.
  ASSERT_TRUE(FailPoints::ArmFromSpec("server.ingest=prob:0.03:seed=" +
                                      std::to_string(seed))
                  .ok());
  FailPoints::Observe("server.shed");

  obs::MetricsRegistry metrics;
  MonitorService service(stack_, MonitorService::Options{&metrics});
  RecordIngestQueue queue(128, &metrics);
  TrainerLoop::Options trainer_options = FastTrainerOptions();
  trainer_options.retrain_min_records = 48;
  trainer_options.metrics = &metrics;
  TrainerLoop trainer(&queue, &service, trainer_options);
  trainer.Start();

  TcpServer::Options server_options;
  server_options.io_threads = 2;
  server_options.max_inflight_per_conn = 4;
  server_options.ingest_shed_watermark = 64;
  server_options.metrics = &metrics;
  TcpServer server(&service, RunPtrs(), &queue, server_options);
  ASSERT_TRUE(server.Start().ok());

  // Client-side tallies, summed across threads, reconciled at the end.
  std::atomic<uint64_t> ingest_offered{0}, ingest_accepted{0},
      ingest_dropped{0}, ingest_shed_records{0}, ingest_shed_frames{0},
      session_busy{0};

  constexpr size_t kThreads = 3;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      uint64_t rng = seed * 0x9E3779B97F4A7C15ull + t;
      std::optional<TestClient> client;
      client.emplace();
      ASSERT_TRUE(client->Connect(server.port()));
      std::vector<uint64_t> mine;  // session ids on the live connection
      for (uint64_t i = 0; i < rounds; ++i) {
        switch (SplitMix64(&rng) % 8) {
          case 0: {  // open
            auto frame = client->Call(EncodeOpenRequest(
                {static_cast<uint32_t>(SplitMix64(&rng) % runs_->size())}));
            ASSERT_TRUE(frame.ok());
            if (frame->ok()) {
              auto opened = DecodeOpenResponse(frame->payload);
              ASSERT_TRUE(opened.ok());
              mine.push_back(opened->session_id);
            } else if (frame->status == kStatusBusy) {
              session_busy.fetch_add(1);
            }
            break;
          }
          case 1:
          case 2: {  // advance a random owned session
            if (mine.empty()) break;
            AdvanceRequest step;
            step.session_id = mine[SplitMix64(&rng) % mine.size()];
            step.max_steps = 1 + static_cast<uint32_t>(SplitMix64(&rng) % 8);
            auto frame = client->Call(EncodeAdvanceRequest(step));
            ASSERT_TRUE(frame.ok());
            if (!frame->ok() && frame->status == kStatusBusy) {
              session_busy.fetch_add(1);
            }
            break;
          }
          case 3: {  // close a random owned session
            if (mine.empty()) break;
            const size_t at = SplitMix64(&rng) % mine.size();
            auto frame = client->Call(EncodeCloseRequest({mine[at]}));
            ASSERT_TRUE(frame.ok());
            if (!frame->ok() && frame->status == kStatusBusy) {
              session_busy.fetch_add(1);
              break;  // still open; retryable
            }
            mine.erase(mine.begin() + static_cast<long>(at));
            break;
          }
          case 4: {  // single-record ingest
            IngestRecordRequest req;
            req.record = (*records_)[SplitMix64(&rng) % records_->size()];
            ingest_offered.fetch_add(1);
            auto frame = client->Call(EncodeIngestRecordRequest(req));
            ASSERT_TRUE(frame.ok());
            if (frame->ok()) {
              auto resp = DecodeIngestResponse(frame->payload);
              ASSERT_TRUE(resp.ok());
              ingest_accepted.fetch_add(resp->accepted);
              ingest_dropped.fetch_add(resp->dropped);
            } else if (frame->status == kStatusBusy) {
              ingest_shed_records.fetch_add(1);
              ingest_shed_frames.fetch_add(1);
            }
            break;
          }
          case 5: {  // batch ingest
            const size_t n = 1 + SplitMix64(&rng) % 8;
            IngestBatchRequest batch;
            for (size_t r = 0; r < n; ++r) {
              batch.records.push_back(
                  (*records_)[SplitMix64(&rng) % records_->size()]);
            }
            ingest_offered.fetch_add(n);
            auto frame = client->Call(EncodeIngestBatchRequest(batch));
            ASSERT_TRUE(frame.ok());
            if (frame->ok()) {
              auto resp = DecodeIngestResponse(frame->payload);
              ASSERT_TRUE(resp.ok());
              ingest_accepted.fetch_add(resp->accepted);
              ingest_dropped.fetch_add(resp->dropped);
            } else if (frame->status == kStatusBusy) {
              ingest_shed_records.fetch_add(n);
              ingest_shed_frames.fetch_add(1);
            }
            break;
          }
          case 6: {  // pipelined progress burst: trips the inbox budget
            if (mine.empty()) break;
            const uint64_t id = mine[SplitMix64(&rng) % mine.size()];
            std::string burst;
            constexpr size_t kBurst = 8;
            for (size_t b = 0; b < kBurst; ++b) {
              burst += EncodeProgressRequest({id});
            }
            ASSERT_TRUE(client->SendRaw(burst));
            for (size_t b = 0; b < kBurst; ++b) {
              auto frame = client->Receive();
              ASSERT_TRUE(frame.ok()) << frame.status().ToString();
              if (!frame->ok() && frame->status == kStatusBusy) {
                session_busy.fetch_add(1);
              }
            }
            break;
          }
          default: {  // abrupt disconnect mid-frame, then reconnect
            IngestRecordRequest req;
            req.record = (*records_)[SplitMix64(&rng) % records_->size()];
            const std::string frame_bytes = EncodeIngestRecordRequest(req);
            // The torn frame contributes to neither side of the ledger.
            ASSERT_TRUE(client->SendRaw(std::string_view(frame_bytes)
                                            .substr(0, frame_bytes.size() / 2)));
            client.emplace();
            ASSERT_TRUE(client->Connect(server.port()));
            mine.clear();  // the old connection's sessions died with it
            break;
          }
        }
      }
      for (const uint64_t id : mine) {
        auto frame = client->Call(EncodeCloseRequest({id}));
        ASSERT_TRUE(frame.ok());
      }
    });
  }
  for (auto& w : workers) w.join();

  // All requests answered (the workers are synchronous), so the wire
  // counters are settled before Stop.
  const WireStats wire = server.BuildWireStats();
  server.Stop();
  queue.Close();
  trainer.Stop();

  EXPECT_EQ(wire.records_ingested, ingest_accepted.load());
  EXPECT_EQ(wire.records_ingest_dropped, ingest_dropped.load());
  EXPECT_EQ(wire.records_ingest_shed, ingest_shed_records.load());
  EXPECT_EQ(wire.requests_shed, session_busy.load());
  EXPECT_EQ(ingest_accepted.load() + ingest_dropped.load() +
                ingest_shed_records.load(),
            ingest_offered.load());
  // Every busy response is one server.shed hit — session or ingest alike.
  EXPECT_EQ(FailPoints::Hits("server.shed"),
            session_busy.load() + ingest_shed_frames.load());
  // Injected drops are a subset of reported drops (queue-full races may
  // add more); both stay inside the exact response-level accounting.
  EXPECT_LE(FailPoints::Trips("server.ingest"), ingest_dropped.load());

  // The wire is the queue's only producer, and Stop drained it dry.
  EXPECT_EQ(CounterValue(metrics, "rpe_ingest_pushed_total"),
            ingest_accepted.load());
  EXPECT_EQ(CounterValue(metrics, "rpe_ingest_drained_total"),
            ingest_accepted.load());
  EXPECT_EQ(metrics.GetGauge("rpe_ingest_queue_depth")->Value(), 0);

  EXPECT_EQ(CounterValue(metrics, "rpe_server_connections_accepted_total"),
            CounterValue(metrics, "rpe_server_connections_closed_total"));
  // Every session the service opened is a wire session, and every wire
  // session was closed (by its client or with its connection).
  EXPECT_EQ(CounterValue(metrics, "rpe_server_wire_sessions_opened_total"),
            CounterValue(metrics, "rpe_server_wire_sessions_closed_total"));
  EXPECT_EQ(CounterValue(metrics, "rpe_sessions_opened_total"),
            CounterValue(metrics, "rpe_server_wire_sessions_opened_total"));
  EXPECT_LE(CounterValue(metrics, "rpe_sessions_completed_total"),
            CounterValue(metrics, "rpe_server_wire_sessions_closed_total"));
  EXPECT_EQ(service.model_generation(), trainer.last_swap_generation());

  FailPoints::DisarmAll();
}

}  // namespace
}  // namespace rpe
