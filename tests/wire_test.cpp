// Wire protocol + TCP front-end tests. Codec side: every message type
// round-trips bit-exactly through encode -> frame reassembly -> decode,
// partial reads reassemble at any chunking, and hostile headers and
// payloads (oversized length, zero/trailing bytes, unknown types, nonzero
// reserved bits) are rejected with Status. Server side: a real loopback
// TcpServer must answer Advance with progress values bit-identical to the
// in-process MonitorService walking the same run, reconcile its counters
// exactly, reject garbage streams without dying, and drain cleanly. The
// Wire* suites run in the CI TSan job (the server fans out across IO
// threads).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <limits>
#include <thread>

#include "exec/executor.h"
#include "serving/server.h"
#include "serving/shard_router.h"
#include "serving/wire.h"
#include "tests/test_util.h"

namespace rpe {
namespace {

using ::rpe::testing::CounterValue;
using ::rpe::testing::MakeSmallCatalog;
using ::rpe::testing::RandomRecords;

// ---------------------------------------------------------------------------
// Codec

/// Encode -> FrameDecoder -> one complete frame, asserting exactly one
/// frame comes out and nothing is left over.
WireFrame MustDecodeOne(const std::string& encoded) {
  FrameDecoder decoder;
  decoder.Feed(encoded);
  WireFrame frame;
  auto first = decoder.Next(&frame);
  EXPECT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first.ok() && *first);
  WireFrame extra;
  auto second = decoder.Next(&extra);
  EXPECT_TRUE(second.ok() && !*second) << "trailing frame";
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  return frame;
}

TEST(WireCodecTest, OpenMessagesRoundTripBitExactly) {
  OpenRequest req;
  req.run_index = 0xDEADBEEFu;
  WireFrame frame = MustDecodeOne(EncodeOpenRequest(req));
  EXPECT_EQ(frame.type, MsgType::kOpen);
  EXPECT_TRUE(frame.ok());
  auto decoded = DecodeOpenRequest(frame.payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->run_index, req.run_index);

  OpenResponse resp;
  resp.session_id = 0x0123456789ABCDEFull;
  resp.run_index = 7;
  resp.num_observations = 4096;
  frame = MustDecodeOne(EncodeOpenResponse(resp));
  auto out = DecodeOpenResponse(frame.payload);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->session_id, resp.session_id);
  EXPECT_EQ(out->run_index, resp.run_index);
  EXPECT_EQ(out->num_observations, resp.num_observations);
}

TEST(WireCodecTest, AdvanceMessagesRoundTripBitExactly) {
  AdvanceRequest req;
  req.session_id = 42;
  req.max_steps = kMaxAdvanceSteps;
  WireFrame frame = MustDecodeOne(EncodeAdvanceRequest(req));
  EXPECT_EQ(frame.type, MsgType::kAdvance);
  auto decoded = DecodeAdvanceRequest(frame.payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->session_id, req.session_id);
  EXPECT_EQ(decoded->max_steps, req.max_steps);

  AdvanceResponse resp;
  resp.progress = 0.1234567890123456789;  // keeps all 53 mantissa bits
  resp.steps = 31;
  resp.done = 1;
  frame = MustDecodeOne(EncodeAdvanceResponse(resp));
  auto out = DecodeAdvanceResponse(frame.payload);
  ASSERT_TRUE(out.ok());
  // Bit-exact double transport: memcmp, not approximate equality.
  EXPECT_EQ(std::memcmp(&out->progress, &resp.progress, sizeof(double)), 0);
  EXPECT_EQ(out->steps, resp.steps);
  EXPECT_EQ(out->done, resp.done);
}

TEST(WireCodecTest, ProgressAndCloseMessagesRoundTripBitExactly) {
  ProgressRequest preq;
  preq.session_id = ~0ull;
  auto pr = DecodeProgressRequest(
      MustDecodeOne(EncodeProgressRequest(preq)).payload);
  ASSERT_TRUE(pr.ok());
  EXPECT_EQ(pr->session_id, preq.session_id);

  ProgressResponse presp;
  presp.progress = 87.65;
  presp.done = 0;
  auto po = DecodeProgressResponse(
      MustDecodeOne(EncodeProgressResponse(presp)).payload);
  ASSERT_TRUE(po.ok());
  EXPECT_EQ(std::memcmp(&po->progress, &presp.progress, sizeof(double)), 0);
  EXPECT_EQ(po->done, presp.done);

  CloseRequest creq;
  creq.session_id = 9;
  auto cr =
      DecodeCloseRequest(MustDecodeOne(EncodeCloseRequest(creq)).payload);
  ASSERT_TRUE(cr.ok());
  EXPECT_EQ(cr->session_id, creq.session_id);

  WireFrame closed = MustDecodeOne(EncodeCloseResponse());
  EXPECT_EQ(closed.type, MsgType::kClose);
  EXPECT_TRUE(closed.payload.empty());
}

TEST(WireCodecTest, StatsMessagesRoundTripEveryField) {
  WireFrame req = MustDecodeOne(EncodeStatsRequest());
  EXPECT_EQ(req.type, MsgType::kStats);
  EXPECT_TRUE(req.payload.empty());

  WireStats stats;
  // Distinct values per field so a swapped encode/decode order cannot
  // cancel out.
  uint64_t v = 1000;
  for (uint64_t* field :
       {&stats.sessions_opened, &stats.sessions_completed, &stats.decisions,
        &stats.observations_scored, &stats.model_generation,
        &stats.connections_accepted, &stats.connections_closed,
        &stats.frames_received, &stats.frames_sent, &stats.bytes_received,
        &stats.bytes_sent, &stats.protocol_errors, &stats.io_errors,
        &stats.wire_sessions_opened, &stats.wire_sessions_closed,
        &stats.advance_steps, &stats.records_ingested,
        &stats.records_ingest_dropped, &stats.records_ingest_shed,
        &stats.requests_shed, &stats.ingest_pushed, &stats.ingest_dropped,
        &stats.ingest_drained, &stats.ingest_queue_size, &stats.retrains}) {
    *field = v++;
  }
  stats.p50_replay_ms = 1.5;
  stats.p95_replay_ms = 9.75;
  auto out =
      DecodeStatsResponse(MustDecodeOne(EncodeStatsResponse(stats)).payload);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(std::memcmp(&*out, &stats, sizeof(WireStats)), 0);
}

TEST(WireCodecTest, ErrorFramesCarryTheStatusAcrossTheWire) {
  const Status error = Status::NotFound("no open session 17");
  WireFrame frame = MustDecodeOne(EncodeErrorFrame(MsgType::kAdvance, error));
  EXPECT_EQ(frame.type, MsgType::kAdvance);
  EXPECT_FALSE(frame.ok());
  const Status back = frame.ToStatus();
  EXPECT_EQ(back.code(), error.code());
  EXPECT_EQ(back.message(), error.message());
  // Unknown status bytes must still come back as an error, never OK.
  frame.status = 0xEE;
  EXPECT_FALSE(frame.ToStatus().ok());
}

TEST(WireCodecTest, OneByteAtATimeReassemblesEveryFrame) {
  AdvanceRequest req;
  req.session_id = 77;
  req.max_steps = 5;
  std::string stream = EncodeOpenRequest({3}) + EncodeAdvanceRequest(req) +
                       EncodeStatsRequest() + EncodeCloseRequest({77});
  FrameDecoder decoder;
  std::vector<WireFrame> frames;
  for (char byte : stream) {
    decoder.Feed(&byte, 1);
    while (true) {
      WireFrame frame;
      auto next = decoder.Next(&frame);
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      if (!*next) break;
      frames.push_back(std::move(frame));
    }
  }
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(frames[0].type, MsgType::kOpen);
  EXPECT_EQ(frames[1].type, MsgType::kAdvance);
  EXPECT_EQ(frames[2].type, MsgType::kStats);
  EXPECT_EQ(frames[3].type, MsgType::kClose);
  auto adv = DecodeAdvanceRequest(frames[1].payload);
  ASSERT_TRUE(adv.ok());
  EXPECT_EQ(adv->session_id, 77u);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(WireCodecTest, HostileHeadersAreRejectedWithStatus) {
  // Oversized length prefix: rejected at the header, before any payload
  // allocation.
  {
    FrameDecoder decoder;
    std::string hostile(kFrameHeaderBytes, '\0');
    const uint32_t huge = 0xFFFFFFFFu;
    std::memcpy(hostile.data(), &huge, 4);
    hostile[4] = 1;  // valid type
    decoder.Feed(hostile);
    WireFrame frame;
    auto next = decoder.Next(&frame);
    EXPECT_FALSE(next.ok());
  }
  // Unknown message type.
  {
    FrameDecoder decoder;
    std::string hostile(kFrameHeaderBytes, '\0');
    hostile[4] = 9;
    decoder.Feed(hostile);
    WireFrame frame;
    EXPECT_FALSE(decoder.Next(&frame).ok());
  }
  // Nonzero reserved bits.
  {
    FrameDecoder decoder;
    std::string hostile(kFrameHeaderBytes, '\0');
    hostile[4] = 2;
    hostile[6] = 1;
    decoder.Feed(hostile);
    WireFrame frame;
    EXPECT_FALSE(decoder.Next(&frame).ok());
  }
  // A length exactly at the cap is structurally fine (payload validation
  // is the typed decoder's job) — header-level rejection must not
  // off-by-one it away.
  {
    FrameDecoder decoder;
    std::string frame_bytes =
        EncodeFrame(MsgType::kStats, 0, std::string(kMaxPayloadBytes, 'x'));
    decoder.Feed(frame_bytes);
    WireFrame frame;
    auto next = decoder.Next(&frame);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    EXPECT_TRUE(*next);
    EXPECT_EQ(frame.payload.size(), kMaxPayloadBytes);
  }
}

TEST(WireCodecTest, TypedDecodersRejectWrongSizes) {
  // Truncated payload.
  EXPECT_FALSE(DecodeOpenRequest("ab").ok());
  EXPECT_FALSE(DecodeAdvanceRequest("1234567").ok());
  EXPECT_FALSE(DecodeStatsResponse(std::string(10, '\0')).ok());
  // Trailing bytes are a protocol violation, not slack.
  EXPECT_FALSE(DecodeOpenRequest(std::string(5, '\0')).ok());
  EXPECT_FALSE(DecodeProgressRequest(std::string(9, '\0')).ok());
  // Zero-length where fields are required.
  EXPECT_FALSE(DecodeOpenRequest("").ok());
  EXPECT_FALSE(DecodeCloseRequest("").ok());
  // Advance step bounds: 0 and cap+1 rejected, cap accepted.
  AdvanceRequest req;
  req.max_steps = 0;
  {
    WireFrame f = MustDecodeOne(EncodeAdvanceRequest(req));
    EXPECT_FALSE(DecodeAdvanceRequest(f.payload).ok());
  }
  req.max_steps = kMaxAdvanceSteps + 1;
  {
    WireFrame f = MustDecodeOne(EncodeAdvanceRequest(req));
    EXPECT_FALSE(DecodeAdvanceRequest(f.payload).ok());
  }
  req.max_steps = kMaxAdvanceSteps;
  {
    WireFrame f = MustDecodeOne(EncodeAdvanceRequest(req));
    EXPECT_TRUE(DecodeAdvanceRequest(f.payload).ok());
  }
}

/// Field-by-field bit-exact comparison (memcmp on the doubles) — the
/// online loop replays ingested records, so any lossy transport would
/// silently skew training.
void ExpectRecordsBitIdentical(const PipelineRecord& got,
                               const PipelineRecord& want) {
  EXPECT_EQ(got.workload, want.workload);
  EXPECT_EQ(got.query, want.query);
  EXPECT_EQ(got.pipeline_id, want.pipeline_id);
  EXPECT_EQ(got.tag, want.tag);
  EXPECT_EQ(std::memcmp(&got.total_n, &want.total_n, sizeof(double)), 0);
  ASSERT_EQ(got.features.size(), want.features.size());
  ASSERT_EQ(got.l1.size(), want.l1.size());
  ASSERT_EQ(got.l2.size(), want.l2.size());
  EXPECT_EQ(std::memcmp(got.features.data(), want.features.data(),
                        want.features.size() * sizeof(double)),
            0);
  EXPECT_EQ(
      std::memcmp(got.l1.data(), want.l1.data(), want.l1.size() * sizeof(double)),
      0);
  EXPECT_EQ(
      std::memcmp(got.l2.data(), want.l2.data(), want.l2.size() * sizeof(double)),
      0);
}

TEST(WireCodecTest, IngestMessagesRoundTripBitExactly) {
  const std::vector<PipelineRecord> records = RandomRecords(3, 21);

  IngestRecordRequest single;
  single.record = records[0];
  single.record.workload = "loopback";
  single.record.query = "q-ingest";
  single.record.tag = "odd";
  WireFrame frame = MustDecodeOne(EncodeIngestRecordRequest(single));
  EXPECT_EQ(frame.type, MsgType::kIngestRecord);
  EXPECT_TRUE(frame.ok());
  auto decoded = DecodeIngestRecordRequest(frame.payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectRecordsBitIdentical(decoded->record, single.record);

  IngestBatchRequest batch;
  batch.records = records;
  frame = MustDecodeOne(EncodeIngestBatchRequest(batch));
  EXPECT_EQ(frame.type, MsgType::kIngestBatch);
  auto out = DecodeIngestBatchRequest(frame.payload);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->records.size(), batch.records.size());
  for (size_t i = 0; i < batch.records.size(); ++i) {
    ExpectRecordsBitIdentical(out->records[i], batch.records[i]);
  }

  IngestResponse resp;
  resp.accepted = 0xAABBCCDDu;
  resp.dropped = 0x11223344u;
  frame = MustDecodeOne(EncodeIngestResponse(MsgType::kIngestBatch, resp));
  EXPECT_EQ(frame.type, MsgType::kIngestBatch);
  auto ir = DecodeIngestResponse(frame.payload);
  ASSERT_TRUE(ir.ok());
  EXPECT_EQ(ir->accepted, resp.accepted);
  EXPECT_EQ(ir->dropped, resp.dropped);
}

TEST(WireCodecTest, IngestDecodersRejectHostileRecords) {
  const PipelineRecord valid = RandomRecords(1, 33)[0];
  IngestRecordRequest req;
  req.record = valid;
  const std::string good =
      MustDecodeOne(EncodeIngestRecordRequest(req)).payload;
  ASSERT_TRUE(DecodeIngestRecordRequest(good).ok());

  // Truncation anywhere in the record rejects — never a partial record.
  for (size_t cut : {size_t{0}, size_t{1}, good.size() / 2, good.size() - 1}) {
    EXPECT_FALSE(DecodeIngestRecordRequest(good.substr(0, cut)).ok())
        << "cut at " << cut;
  }
  // Trailing bytes are a protocol violation, not slack.
  EXPECT_FALSE(DecodeIngestRecordRequest(good + '\0').ok());

  // A string field over the per-string cap.
  req.record = valid;
  req.record.workload.assign(kMaxIngestStringBytes + 1, 'w');
  EXPECT_FALSE(
      DecodeIngestRecordRequest(
          MustDecodeOne(EncodeIngestRecordRequest(req)).payload)
          .ok());

  // Feature arity must match the schema exactly.
  req.record = valid;
  req.record.features.push_back(0.5);
  EXPECT_FALSE(
      DecodeIngestRecordRequest(
          MustDecodeOne(EncodeIngestRecordRequest(req)).payload)
          .ok());

  // Level-vector arity must match the estimator table exactly.
  req.record = valid;
  req.record.l1.pop_back();
  EXPECT_FALSE(
      DecodeIngestRecordRequest(
          MustDecodeOne(EncodeIngestRecordRequest(req)).payload)
          .ok());

  // Non-finite doubles never cross the wire into the trainer.
  req.record = valid;
  req.record.total_n = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(
      DecodeIngestRecordRequest(
          MustDecodeOne(EncodeIngestRecordRequest(req)).payload)
          .ok());
  req.record = valid;
  req.record.features[0] = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(
      DecodeIngestRecordRequest(
          MustDecodeOne(EncodeIngestRecordRequest(req)).payload)
          .ok());
}

TEST(WireCodecTest, IngestBatchCountBoundsAreEnforced) {
  // count == 0: an empty batch is hostile, not a no-op.
  EXPECT_FALSE(DecodeIngestBatchRequest(std::string(4, '\0')).ok());

  // count over the batch cap rejects before any record is parsed.
  {
    std::string payload(4, '\0');
    const uint32_t over = kMaxIngestBatchRecords + 1;
    std::memcpy(payload.data(), &over, 4);
    EXPECT_FALSE(DecodeIngestBatchRequest(payload).ok());
  }

  // A count that lies about the record list in either direction rejects:
  // claiming more hits truncation, claiming fewer leaves trailing bytes.
  IngestBatchRequest batch;
  batch.records = RandomRecords(2, 5);
  std::string payload =
      MustDecodeOne(EncodeIngestBatchRequest(batch)).payload;
  ASSERT_TRUE(DecodeIngestBatchRequest(payload).ok());
  for (uint32_t lie : {3u, 1u}) {
    std::memcpy(payload.data(), &lie, 4);
    EXPECT_FALSE(DecodeIngestBatchRequest(payload).ok()) << "count " << lie;
  }
}

TEST(WireCodecTest, BusyErrorFramesMapToUnavailable) {
  WireFrame frame = MustDecodeOne(EncodeErrorFrame(
      MsgType::kIngestBatch, Status::Unavailable("server overloaded")));
  EXPECT_EQ(frame.type, MsgType::kIngestBatch);
  EXPECT_EQ(frame.status, kStatusBusy);
  EXPECT_FALSE(frame.ok());
  const Status back = frame.ToStatus();
  EXPECT_EQ(back.code(), StatusCode::kUnavailable);
  EXPECT_EQ(back.message(), "server overloaded");
}

TEST(WireCodecTest, DecoderCompactsItsBufferUnderSustainedTraffic) {
  // Push far more than the compaction threshold through one decoder; the
  // buffered tail must stay bounded by one frame, not grow with history.
  FrameDecoder decoder;
  const std::string frame_bytes = EncodeProgressRequest({123});
  for (int i = 0; i < 10000; ++i) {
    decoder.Feed(frame_bytes);
    WireFrame frame;
    auto next = decoder.Next(&frame);
    ASSERT_TRUE(next.ok() && *next);
    EXPECT_EQ(decoder.buffered_bytes(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Loopback server

/// Minimal blocking client for the loopback tests (the production client
/// lives in tools/rpe_loadgen.cc; this one is deliberately tiny).
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

SelectorStack TrainSmallStack(const std::vector<PipelineRecord>& records,
                              uint64_t seed) {
  MartParams params;
  params.num_trees = 10;
  params.tree.max_leaves = 8;
  params.seed = seed;
  return SelectorStack::Train(records, PoolOriginalThree(), params);
}

class WireLoopbackTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = MakeSmallCatalog().release();
    runs_ = new std::vector<QueryRunResult>();
    plans_ = new std::vector<std::unique_ptr<PhysicalPlan>>();
    AddRun(MakeTableScan("t_fact"));
    AddRun(MakeHashJoin(MakeTableScan("t_dim"), MakeTableScan("t_fact"), 0,
                        1));
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

  static std::vector<const QueryRunResult*> RunPtrs() {
    std::vector<const QueryRunResult*> out;
    for (const QueryRunResult& run : *runs_) out.push_back(&run);
    return out;
  }

  static Catalog* catalog_;
  static std::vector<QueryRunResult>* runs_;
  static std::vector<std::unique_ptr<PhysicalPlan>>* plans_;
  static std::shared_ptr<const SelectorStack> stack_;
};

Catalog* WireLoopbackTest::catalog_ = nullptr;
std::vector<QueryRunResult>* WireLoopbackTest::runs_ = nullptr;
std::vector<std::unique_ptr<PhysicalPlan>>* WireLoopbackTest::plans_ =
    nullptr;
std::shared_ptr<const SelectorStack> WireLoopbackTest::stack_;

TEST_F(WireLoopbackTest, AdvanceOverTheWireIsBitIdenticalToInProcess) {
  MonitorService service(stack_);
  TcpServer::Options server_options;
  server_options.io_threads = 4;
  TcpServer server(&service, RunPtrs(), server_options);
  ASSERT_TRUE(server.Start().ok());

  // In-process reference: the id-keyed router over the same stack,
  // stepped one observation at a time.
  ShardedMonitorService reference(stack_, {});

  for (size_t r = 0; r < runs_->size(); ++r) {
    TestClient client;
    ASSERT_TRUE(client.Connect(server.port()));

    auto opened_frame = client.Call(EncodeOpenRequest(
        {static_cast<uint32_t>(r)}));
    ASSERT_TRUE(opened_frame.ok()) << opened_frame.status().ToString();
    ASSERT_TRUE(opened_frame->ok()) << opened_frame->ToStatus().ToString();
    auto opened = DecodeOpenResponse(opened_frame->payload);
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(opened->run_index, r);
    EXPECT_EQ(opened->num_observations, (*runs_)[r].observations.size());

    auto ref_id = reference.OpenSession(&(*runs_)[r]);
    ASSERT_TRUE(ref_id.ok());

    // Step both walks one observation at a time; every progress value
    // must match bit for bit.
    AdvanceRequest step;
    step.session_id = opened->session_id;
    step.max_steps = 1;
    for (size_t obs = 0; obs < (*runs_)[r].observations.size(); ++obs) {
      auto frame = client.Call(EncodeAdvanceRequest(step));
      ASSERT_TRUE(frame.ok() && frame->ok());
      auto advanced = DecodeAdvanceResponse(frame->payload);
      ASSERT_TRUE(advanced.ok());
      ASSERT_EQ(advanced->steps, 1u);
      auto expected = reference.Advance(*ref_id);
      ASSERT_TRUE(expected.ok());
      ASSERT_EQ(std::memcmp(&advanced->progress, &*expected,
                            sizeof(double)),
                0)
          << "run " << r << " observation " << obs
          << " diverges over the wire";
    }

    // Both sides are now exhausted: the wire advance reports done with 0
    // steps, the in-process advance returns OutOfRange.
    auto tail = client.Call(EncodeAdvanceRequest(step));
    ASSERT_TRUE(tail.ok() && tail->ok());
    auto done = DecodeAdvanceResponse(tail->payload);
    ASSERT_TRUE(done.ok());
    EXPECT_EQ(done->steps, 0u);
    EXPECT_EQ(done->done, 1);
    EXPECT_EQ(reference.Advance(*ref_id).status().code(),
              StatusCode::kOutOfRange);

    auto closed = client.Call(EncodeCloseRequest({opened->session_id}));
    ASSERT_TRUE(closed.ok() && closed->ok());
    ASSERT_TRUE(reference.CloseSession(*ref_id).ok());
  }
  server.Stop();
}

TEST_F(WireLoopbackTest, BatchedAdvanceMatchesSingleStepsAndReconciles) {
  // kStats reads the service's cells through the registry it shares with
  // the server.
  obs::MetricsRegistry metrics;
  MonitorService service(stack_, MonitorService::Options{&metrics});
  TcpServer::Options server_options;
  server_options.io_threads = 4;
  server_options.metrics = &metrics;
  TcpServer server(&service, RunPtrs(), server_options);
  ASSERT_TRUE(server.Start().ok());

  ProgressMonitor sequential(&stack_->static_selector,
                             &stack_->dynamic_selector);
  const auto expected = sequential.ReplayQueryProgress((*runs_)[0]);

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  auto opened_frame = client.Call(EncodeOpenRequest({0}));
  ASSERT_TRUE(opened_frame.ok() && opened_frame->ok());
  auto opened = DecodeOpenResponse(opened_frame->payload);
  ASSERT_TRUE(opened.ok());

  // One big batched advance must land exactly at the end of the replay
  // with the final progress value of the sequential walk.
  AdvanceRequest big;
  big.session_id = opened->session_id;
  big.max_steps = kMaxAdvanceSteps;
  auto frame = client.Call(EncodeAdvanceRequest(big));
  ASSERT_TRUE(frame.ok() && frame->ok());
  auto advanced = DecodeAdvanceResponse(frame->payload);
  ASSERT_TRUE(advanced.ok());
  EXPECT_EQ(advanced->steps, expected.size());
  EXPECT_EQ(advanced->done, 1);
  EXPECT_EQ(std::memcmp(&advanced->progress, &expected.back(),
                        sizeof(double)),
            0);

  // Progress re-reads the resting value without stepping.
  auto progress_frame =
      client.Call(EncodeProgressRequest({opened->session_id}));
  ASSERT_TRUE(progress_frame.ok() && progress_frame->ok());
  auto progress = DecodeProgressResponse(progress_frame->payload);
  ASSERT_TRUE(progress.ok());
  EXPECT_EQ(progress->done, 1);

  auto closed = client.Call(EncodeCloseRequest({opened->session_id}));
  ASSERT_TRUE(closed.ok() && closed->ok());

  // Stats over the wire reconcile exactly with what this client did.
  auto stats_frame = client.Call(EncodeStatsRequest());
  ASSERT_TRUE(stats_frame.ok() && stats_frame->ok());
  auto stats = DecodeStatsResponse(stats_frame->payload);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->sessions_opened, 1u);
  EXPECT_EQ(stats->sessions_completed, 1u);
  EXPECT_EQ(stats->wire_sessions_opened, 1u);
  EXPECT_EQ(stats->wire_sessions_closed, 1u);
  EXPECT_EQ(stats->observations_scored, expected.size());
  EXPECT_EQ(stats->advance_steps, expected.size());
  server.Stop();
}

TEST_F(WireLoopbackTest, ConcurrentClientsAcrossShardsStayIsolated) {
  MonitorService service(stack_);
  TcpServer::Options server_options;
  server_options.io_threads = 4;
  TcpServer server(&service, RunPtrs(), server_options);
  ASSERT_TRUE(server.Start().ok());

  // Per-run reference series, computed once.
  ProgressMonitor sequential(&stack_->static_selector,
                             &stack_->dynamic_selector);
  std::vector<std::vector<double>> reference;
  for (const QueryRunResult& run : *runs_) {
    reference.push_back(sequential.ReplayQueryProgress(run));
  }

  constexpr size_t kClients = 8;
  constexpr size_t kSessionsPerClient = 4;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      TestClient client;
      if (!client.Connect(server.port())) {
        ++failures;
        return;
      }
      for (size_t s = 0; s < kSessionsPerClient; ++s) {
        const size_t r = (c + s) % runs_->size();
        auto opened_frame =
            client.Call(EncodeOpenRequest({static_cast<uint32_t>(r)}));
        if (!opened_frame.ok() || !opened_frame->ok()) {
          ++failures;
          return;
        }
        auto opened = DecodeOpenResponse(opened_frame->payload);
        AdvanceRequest step;
        step.session_id = opened->session_id;
        step.max_steps = 7;  // uneven batches interleave across clients
        size_t taken = 0;
        while (true) {
          auto frame = client.Call(EncodeAdvanceRequest(step));
          if (!frame.ok() || !frame->ok()) {
            ++failures;
            return;
          }
          auto advanced = DecodeAdvanceResponse(frame->payload);
          taken += advanced->steps;
          if (advanced->done != 0) {
            // The final progress of every interleaved session must match
            // its sequential reference bit for bit.
            if (taken != reference[r].size() ||
                std::memcmp(&advanced->progress, &reference[r].back(),
                            sizeof(double)) != 0) {
              ++failures;
            }
            break;
          }
        }
        auto closed =
            client.Call(EncodeCloseRequest({opened->session_id}));
        if (!closed.ok() || !closed->ok()) ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  obs::MetricsRegistry& m = server.metrics_registry();
  EXPECT_EQ(CounterValue(m, "rpe_server_wire_sessions_opened_total"),
            kClients * kSessionsPerClient);
  EXPECT_EQ(CounterValue(m, "rpe_server_wire_sessions_closed_total"),
            kClients * kSessionsPerClient);
  EXPECT_EQ(CounterValue(m, "rpe_server_protocol_errors_total"), 0u);
  server.Stop();
}

TEST_F(WireLoopbackTest, PipelinedAdvanceSplitAcrossReadsAnswersInOrder) {
  MonitorService service(stack_);
  TcpServer server(&service, RunPtrs(),
                   TcpServer::Options{.io_threads = 2});
  ASSERT_TRUE(server.Start().ok());

  ProgressMonitor sequential(&stack_->static_selector,
                             &stack_->dynamic_selector);
  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  std::vector<uint64_t> sessions;
  std::vector<std::vector<double>> reference;
  for (size_t r = 0; r < runs_->size(); ++r) {
    auto opened_frame =
        client.Call(EncodeOpenRequest({static_cast<uint32_t>(r)}));
    ASSERT_TRUE(opened_frame.ok() && opened_frame->ok());
    auto opened = DecodeOpenResponse(opened_frame->payload);
    ASSERT_TRUE(opened.ok());
    sessions.push_back(opened->session_id);
    reference.push_back(sequential.ReplayQueryProgress((*runs_)[r]));
  }

  // 64 single-step Advance frames round-robin over the sessions, sent as
  // one stream cut into small uneven pieces: most cuts land inside a
  // frame header, and the pauses make the server see many short reads.
  constexpr size_t kFrames = 64;
  std::string stream;
  for (size_t i = 0; i < kFrames; ++i) {
    stream += EncodeAdvanceRequest({sessions[i % sessions.size()], 1});
  }
  constexpr size_t kPieces[] = {3, 5, 9, 13, 6, 21, 2};
  size_t header_cuts = 0;
  for (size_t off = 0, k = 0; off < stream.size(); ++k) {
    const size_t n = std::min(kPieces[k % std::size(kPieces)],
                              stream.size() - off);
    ASSERT_TRUE(client.SendRaw(std::string_view(stream).substr(off, n)));
    off += n;
    const size_t frame_bytes = stream.size() / kFrames;
    if (off % frame_bytes != 0 && off % frame_bytes < kFrameHeaderBytes) {
      ++header_cuts;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  EXPECT_GT(header_cuts, kFrames / 2);

  // Answers arrive in request order; each one is the next value of its
  // session's sequential replay (or the resting value once exhausted).
  std::vector<size_t> taken(sessions.size(), 0);
  uint64_t steps = 0;
  for (size_t i = 0; i < kFrames; ++i) {
    auto frame = client.Receive();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ASSERT_TRUE(frame->ok()) << frame->ToStatus().ToString();
    ASSERT_EQ(frame->type, MsgType::kAdvance);
    auto advanced = DecodeAdvanceResponse(frame->payload);
    ASSERT_TRUE(advanced.ok());
    const size_t s = i % sessions.size();
    const std::vector<double>& expected = reference[s];
    const bool stepped = taken[s] < expected.size();
    ASSERT_EQ(advanced->steps, stepped ? 1u : 0u) << "frame " << i;
    const double want = expected[stepped ? taken[s] : expected.size() - 1];
    ASSERT_EQ(std::memcmp(&advanced->progress, &want, sizeof(double)), 0)
        << "frame " << i << " session " << s;
    taken[s] += stepped ? 1 : 0;
    steps += advanced->steps;
    EXPECT_EQ(advanced->done, taken[s] == expected.size() ? 1 : 0)
        << "frame " << i;
  }
  server.Stop();
  obs::MetricsRegistry& m = server.metrics_registry();
  EXPECT_EQ(CounterValue(m, "rpe_server_frames_received_total"),
            sessions.size() + kFrames);
  EXPECT_EQ(CounterValue(m, "rpe_server_frames_sent_total"),
            sessions.size() + kFrames);
  EXPECT_EQ(CounterValue(m, "rpe_server_advance_steps_total"), steps);
  EXPECT_EQ(CounterValue(m, "rpe_server_protocol_errors_total"), 0u);
  EXPECT_EQ(CounterValue(m, "rpe_server_io_errors_total"), 0u);
}

TEST_F(WireLoopbackTest, PipelinedMixedFramesAnswerInRequestOrder) {
  MonitorService service(stack_);
  TcpServer server(&service, RunPtrs(),
                   TcpServer::Options{.io_threads = 2});
  ASSERT_TRUE(server.Start().ok());

  ProgressMonitor sequential(&stack_->static_selector,
                             &stack_->dynamic_selector);
  const std::vector<double> ref0 = sequential.ReplayQueryProgress((*runs_)[0]);
  const std::vector<double> ref1 = sequential.ReplayQueryProgress((*runs_)[1]);
  ASSERT_GT(ref0.size(), 3u);
  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  uint64_t ids[2];
  for (uint32_t r = 0; r < 2; ++r) {
    auto opened_frame = client.Call(EncodeOpenRequest({r}));
    ASSERT_TRUE(opened_frame.ok() && opened_frame->ok());
    auto opened = DecodeOpenResponse(opened_frame->payload);
    ASSERT_TRUE(opened.ok());
    ids[r] = opened->session_id;
  }
  const uint64_t s0 = ids[0];
  const uint64_t s1 = ids[1];

  // One write: a run of Advances, then every kind of frame that must end
  // a connection's Advance run (malformed, Progress, Close, over the run
  // budget) around Advances that join one. A frame dispatched ahead of an
  // earlier deferred Advance shows up as a response out of order.
  std::string stream;
  for (int i = 0; i < 3; ++i) stream += EncodeAdvanceRequest({s0, 1});
  stream += EncodeAdvanceRequest({s0, 0});  // malformed: max_steps 0
  stream += EncodeProgressRequest({s0});
  stream += EncodeAdvanceRequest({999999, 1});  // unknown session
  stream += EncodeAdvanceRequest({s1, 1});
  stream += EncodeCloseRequest({s1});
  stream += EncodeAdvanceRequest({s0, kMaxAdvanceSteps});
  stream += EncodeAdvanceRequest({s0, 1});  // over the run budget
  ASSERT_TRUE(client.SendRaw(stream));

  const auto next = [&](MsgType type) {
    auto frame = client.Receive();
    EXPECT_TRUE(frame.ok()) << frame.status().ToString();
    if (frame.ok()) {
      EXPECT_EQ(frame->type, type);
    }
    return frame.ok() ? *frame : WireFrame{};
  };
  const auto expect_advance = [](const WireFrame& frame, uint32_t steps,
                                 double progress, uint8_t done) {
    ASSERT_TRUE(frame.ok()) << frame.ToStatus().ToString();
    auto advanced = DecodeAdvanceResponse(frame.payload);
    ASSERT_TRUE(advanced.ok());
    EXPECT_EQ(advanced->steps, steps);
    EXPECT_EQ(std::memcmp(&advanced->progress, &progress, sizeof(double)), 0);
    EXPECT_EQ(advanced->done, done);
  };
  for (size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE("advance " + std::to_string(i));
    expect_advance(next(MsgType::kAdvance), 1, ref0[i], 0);
  }
  {
    const WireFrame malformed = next(MsgType::kAdvance);
    EXPECT_EQ(malformed.ToStatus().code(), StatusCode::kInvalidArgument);
  }
  {
    const WireFrame frame = next(MsgType::kProgress);
    ASSERT_TRUE(frame.ok()) << frame.ToStatus().ToString();
    auto progress = DecodeProgressResponse(frame.payload);
    ASSERT_TRUE(progress.ok());
    EXPECT_EQ(std::memcmp(&progress->progress, &ref0[2], sizeof(double)), 0);
    EXPECT_EQ(progress->done, 0);
  }
  EXPECT_EQ(next(MsgType::kAdvance).ToStatus().code(), StatusCode::kNotFound);
  expect_advance(next(MsgType::kAdvance), 1, ref1[0], ref1.size() == 1 ? 1 : 0);
  EXPECT_TRUE(next(MsgType::kClose).ok());
  expect_advance(next(MsgType::kAdvance),
                 static_cast<uint32_t>(ref0.size() - 3), ref0.back(), 1);
  expect_advance(next(MsgType::kAdvance), 0, ref0.back(), 1);

  auto closed = client.Call(EncodeCloseRequest({s0}));
  ASSERT_TRUE(closed.ok() && closed->ok());
  server.Stop();
  obs::MetricsRegistry& m = server.metrics_registry();
  // 2 opens + 10 pipelined frames + 1 close, each answered once.
  EXPECT_EQ(CounterValue(m, "rpe_server_frames_received_total"), 13u);
  EXPECT_EQ(CounterValue(m, "rpe_server_frames_sent_total"), 13u);
  EXPECT_EQ(CounterValue(m, "rpe_server_advance_steps_total"), ref0.size() + 1);
  EXPECT_EQ(CounterValue(m, "rpe_server_protocol_errors_total"), 1u);
  EXPECT_EQ(CounterValue(m, "rpe_server_io_errors_total"), 0u);
  EXPECT_EQ(CounterValue(m, "rpe_server_requests_shed_total"), 0u);
}

TEST_F(WireLoopbackTest, IngestBatchLargerThanOneReadArrivesWhole) {
  MonitorService service(stack_);
  RecordIngestQueue queue(kMaxIngestBatchRecords);
  TcpServer server(&service, RunPtrs(), &queue, TcpServer::Options{});
  ASSERT_TRUE(server.Start().ok());

  // The server reads at most 64 KiB per read(); this frame needs several,
  // so reassembly must keep going after full reads and resume after
  // short ones.
  constexpr size_t kServerReadChunk = 64 * 1024;
  IngestBatchRequest batch;
  batch.records = RandomRecords(kMaxIngestBatchRecords, 5);
  const std::string frame = EncodeIngestBatchRequest(batch);
  ASSERT_GT(frame.size(), 2 * kServerReadChunk);

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  auto reply = client.Call(frame);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply->ok()) << reply->ToStatus().ToString();
  auto ingested = DecodeIngestResponse(reply->payload);
  ASSERT_TRUE(ingested.ok());
  EXPECT_EQ(ingested->accepted, kMaxIngestBatchRecords);
  EXPECT_EQ(ingested->dropped, 0u);
  EXPECT_EQ(queue.size(), kMaxIngestBatchRecords);
  server.Stop();

  obs::MetricsRegistry& m = server.metrics_registry();
  EXPECT_EQ(CounterValue(m, "rpe_server_frames_received_total"), 1u);
  EXPECT_EQ(CounterValue(m, "rpe_server_bytes_received_total"), frame.size());
  EXPECT_EQ(CounterValue(m, "rpe_server_records_ingested_total"),
            kMaxIngestBatchRecords);
  EXPECT_EQ(CounterValue(m, "rpe_server_records_ingest_dropped_total") +
            CounterValue(m, "rpe_server_records_ingest_shed_total"),
            0u);
  EXPECT_EQ(CounterValue(m, "rpe_server_protocol_errors_total"), 0u);

  // The queue holds exactly the records sent, in order.
  std::vector<PipelineRecord> drained;
  ASSERT_EQ(queue.DrainBatch(&drained, kMaxIngestBatchRecords),
            kMaxIngestBatchRecords);
  for (size_t i = 0; i < drained.size(); ++i) {
    ASSERT_EQ(drained[i].features, batch.records[i].features) << i;
  }
}

TEST_F(WireLoopbackTest, GarbageStreamsAreRejectedWithoutKillingTheServer) {
  MonitorService service(stack_);
  TcpServer::Options server_options;
  server_options.io_threads = 2;
  TcpServer server(&service, RunPtrs(), server_options);
  ASSERT_TRUE(server.Start().ok());

  // A stream of garbage bytes: the server answers with an error frame
  // and/or drops the connection — either way it keeps serving.
  {
    TestClient hostile;
    ASSERT_TRUE(hostile.Connect(server.port()));
    std::string garbage(256, '\xFF');
    ASSERT_TRUE(hostile.SendRaw(garbage));
    auto frame = hostile.Receive();
    // Either an error frame arrived before the drop, or the drop itself.
    if (frame.ok()) {
      EXPECT_FALSE(frame->ok());
    }
  }
  // Unknown session ids come back as clean error frames on a live
  // connection.
  {
    TestClient client;
    ASSERT_TRUE(client.Connect(server.port()));
    auto frame = client.Call(EncodeAdvanceRequest({999999, 4}));
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_FALSE(frame->ok());
    EXPECT_EQ(frame->ToStatus().code(), StatusCode::kNotFound);
    // The same connection still works for a real session afterwards.
    auto opened_frame = client.Call(EncodeOpenRequest({0}));
    ASSERT_TRUE(opened_frame.ok() && opened_frame->ok());
    auto opened = DecodeOpenResponse(opened_frame->payload);
    auto closed = client.Call(EncodeCloseRequest({opened->session_id}));
    ASSERT_TRUE(closed.ok() && closed->ok());
  }
  obs::MetricsRegistry& m = server.metrics_registry();
  EXPECT_GE(CounterValue(m, "rpe_server_protocol_errors_total"), 1u);
  server.Stop();
}

TEST_F(WireLoopbackTest, AbruptDisconnectClosesTheSessionsServerSide) {
  MonitorService service(stack_);
  TcpServer::Options server_options;
  server_options.io_threads = 2;
  TcpServer server(&service, RunPtrs(), server_options);
  ASSERT_TRUE(server.Start().ok());
  obs::MetricsRegistry& m = server.metrics_registry();
  const uint64_t completed_before =
      CounterValue(service.metrics(), "rpe_sessions_completed_total");

  {
    TestClient client;
    ASSERT_TRUE(client.Connect(server.port()));
    // One session stepped to its end, one stepped half way.
    for (uint32_t r = 0; r < 2; ++r) {
      auto opened_frame = client.Call(EncodeOpenRequest({r}));
      ASSERT_TRUE(opened_frame.ok() && opened_frame->ok());
      auto opened = DecodeOpenResponse(opened_frame->payload);
      ASSERT_TRUE(opened.ok());
      const uint32_t steps =
          r == 0 ? kMaxAdvanceSteps
                 : std::max<uint32_t>(1, opened->num_observations / 2);
      auto frame =
          client.Call(EncodeAdvanceRequest({opened->session_id, steps}));
      ASSERT_TRUE(frame.ok() && frame->ok());
      auto advanced = DecodeAdvanceResponse(frame->payload);
      ASSERT_TRUE(advanced.ok());
      ASSERT_EQ(advanced->done, r == 0 ? 1 : 0);
    }
    // Drop the connection with both sessions still open.
  }
  // The server notices the hangup and closes the orphaned sessions; poll
  // briefly (hangup delivery is asynchronous).
  for (int i = 0;
       i < 200 &&
       CounterValue(m, "rpe_server_wire_sessions_closed_total") < 2;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(CounterValue(m, "rpe_server_wire_sessions_opened_total"), 2u);
  EXPECT_EQ(CounterValue(m, "rpe_server_wire_sessions_closed_total"), 2u);
  // Only the fully stepped session completes.
  EXPECT_EQ(CounterValue(service.metrics(), "rpe_sessions_completed_total"),
            completed_before + 1);
  server.Stop();
}

TEST_F(WireLoopbackTest, SessionIdsAreScopedToTheirConnection) {
  MonitorService service(stack_);
  TcpServer::Options server_options;
  server_options.io_threads = 2;
  TcpServer server(&service, RunPtrs(), server_options);
  ASSERT_TRUE(server.Start().ok());

  TestClient a;
  TestClient b;
  ASSERT_TRUE(a.Connect(server.port()));
  ASSERT_TRUE(b.Connect(server.port()));
  auto opened_frame = a.Call(EncodeOpenRequest({1}));
  ASSERT_TRUE(opened_frame.ok() && opened_frame->ok());
  auto opened = DecodeOpenResponse(opened_frame->payload);
  ASSERT_TRUE(opened.ok());
  const uint64_t id = opened->session_id;
  EXPECT_NE(id, 0u);

  // `expected_type` answered on `client` as a NotFound error frame.
  const auto expect_not_found = [](TestClient& client,
                                   const std::string& request,
                                   MsgType expected_type) {
    auto frame = client.Call(request);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->type, expected_type);
    EXPECT_FALSE(frame->ok());
    EXPECT_EQ(frame->ToStatus().code(), StatusCode::kNotFound);
  };
  // Connection B cannot step, read or close A's session.
  expect_not_found(b, EncodeAdvanceRequest({id, 1}), MsgType::kAdvance);
  expect_not_found(b, EncodeProgressRequest({id}), MsgType::kProgress);
  expect_not_found(b, EncodeCloseRequest({id}), MsgType::kClose);

  // A still owns it, untouched: every value is the sequential replay's.
  ProgressMonitor sequential(&stack_->static_selector,
                             &stack_->dynamic_selector);
  const auto expected = sequential.ReplayQueryProgress((*runs_)[1]);
  for (size_t oi = 0; oi < expected.size(); ++oi) {
    auto frame = a.Call(EncodeAdvanceRequest({id, 1}));
    ASSERT_TRUE(frame.ok() && frame->ok());
    auto advanced = DecodeAdvanceResponse(frame->payload);
    ASSERT_TRUE(advanced.ok());
    ASSERT_EQ(advanced->steps, 1u);
    ASSERT_EQ(std::memcmp(&advanced->progress, &expected[oi],
                          sizeof(double)),
              0)
        << "observation " << oi;
    EXPECT_EQ(advanced->done, oi + 1 == expected.size() ? 1 : 0);
  }
  auto closed = a.Call(EncodeCloseRequest({id}));
  ASSERT_TRUE(closed.ok() && closed->ok());

  // Closed ids, and ids no connection is ever handed, are NotFound.
  for (const uint64_t gone : {id, uint64_t{0}, UINT64_MAX}) {
    expect_not_found(a, EncodeAdvanceRequest({gone, 1}), MsgType::kAdvance);
    expect_not_found(a, EncodeProgressRequest({gone}), MsgType::kProgress);
    expect_not_found(a, EncodeCloseRequest({gone}), MsgType::kClose);
  }
  server.Stop();
}

TEST_F(WireLoopbackTest, EveryIoThreadOpensAgainstThePublishedSnapshot) {
  // The reference series of one run under the initial stack and under a
  // replacement must differ, or the test below could pass vacuously.
  auto other = std::make_shared<const SelectorStack>(
      TrainSmallStack(RandomRecords(80, 23), 41));
  const ProgressMonitor old_monitor(&stack_->static_selector,
                                    &stack_->dynamic_selector);
  const ProgressMonitor new_monitor(&other->static_selector,
                                    &other->dynamic_selector);
  uint32_t run = 0;
  std::vector<double> old_series;
  std::vector<double> new_series;
  for (; run < runs_->size(); ++run) {
    old_series = old_monitor.ReplayQueryProgress((*runs_)[run]);
    new_series = new_monitor.ReplayQueryProgress((*runs_)[run]);
    if (old_series.size() != new_series.size() ||
        std::memcmp(old_series.data(), new_series.data(),
                    old_series.size() * sizeof(double)) != 0) {
      break;
    }
  }
  ASSERT_LT(run, runs_->size()) << "both stacks serve identical series";

  constexpr size_t kIoThreads = 4;
  MonitorService service(stack_);
  TcpServer::Options server_options;
  server_options.io_threads = kIoThreads;
  TcpServer server(&service, RunPtrs(), server_options);
  ASSERT_TRUE(server.Start().ok());

  // Connections are handed to IO threads round-robin, so two per thread.
  constexpr size_t kConnections = 2 * kIoThreads;
  std::vector<TestClient> clients(kConnections);
  const auto open = [&](TestClient& client) -> uint64_t {
    auto frame = client.Call(EncodeOpenRequest({run}));
    EXPECT_TRUE(frame.ok() && frame->ok());
    if (!frame.ok() || !frame->ok()) return 0;
    return DecodeOpenResponse(frame->payload)->session_id;
  };
  // Steps `id` to its end one observation at a time; the number of
  // values that differ from `want` bit for bit (or are missing).
  const auto mismatches = [](TestClient& client, uint64_t id,
                             const std::vector<double>& want) {
    size_t bad = 0;
    for (const double expected : want) {
      auto frame = client.Call(EncodeAdvanceRequest({id, 1}));
      if (!frame.ok() || !frame->ok()) return want.size();
      auto advanced = DecodeAdvanceResponse(frame->payload);
      if (!advanced.ok() || advanced->steps != 1 ||
          std::memcmp(&advanced->progress, &expected, sizeof(double)) != 0) {
        ++bad;
      }
    }
    return bad;
  };

  std::vector<uint64_t> before(kConnections);
  for (size_t c = 0; c < kConnections; ++c) {
    ASSERT_TRUE(clients[c].Connect(server.port()));
    before[c] = open(clients[c]);
  }
  ASSERT_EQ(service.SwapModels(other), 1u);
  for (size_t c = 0; c < kConnections; ++c) {
    const uint64_t after = open(clients[c]);
    // Opened before the swap: pinned to the old stack. After: the new.
    EXPECT_EQ(mismatches(clients[c], before[c], old_series), 0u)
        << "connection " << c << ", session opened before the swap";
    EXPECT_EQ(mismatches(clients[c], after, new_series), 0u)
        << "connection " << c << ", session opened after the swap";
  }
  server.Stop();
}

TEST_F(WireLoopbackTest, StopDrainsAndStartStopIsIdempotent) {
  MonitorService service(stack_);
  TcpServer::Options server_options;
  server_options.io_threads = 2;
  TcpServer server(&service, RunPtrs(), server_options);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_NE(server.port(), 0);
  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  auto frame = client.Call(EncodeStatsRequest());
  ASSERT_TRUE(frame.ok() && frame->ok());
  server.Stop();
  server.Stop();  // idempotent
  // After Stop, the port no longer accepts connections.
  TestClient late;
  EXPECT_FALSE(late.Connect(server.port()));
}

}  // namespace
}  // namespace rpe
