// Observability-layer tests (suites are Obs* so the CI TSan job picks
// them up). Registry side: sharded counters/gauges stay exact under
// concurrent hammering, histogram quantiles stay inside the documented
// ~12.5% bucket error against a sorted reference, Prometheus rendering
// and the registry-driven CLI table keep their contracts. Trace side:
// the lock-free ring wraps without losing the recorded-count, spans
// parent through TraceContext, and the slow-request machinery gates on
// the threshold. Scrape side: a real loopback TcpServer answers
// kMetricsDump and HTTP GET /metrics with counters that reconcile
// exactly with what the client offered (ingested + dropped + shed ==
// offered).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/table_printer.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/ingest.h"
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
// Registry: counters / gauges / ordering

TEST(ObsRegistryTest, ConcurrentIncrementsSumExactly) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("obs_test_hits_total");
  obs::Gauge* gauge = registry.GetGauge("obs_test_depth");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        counter->Inc();
        gauge->Add(1);
      }
      counter->Inc(5);
      gauge->Add(-int64_t{5});
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter->Value(), kThreads * (kPerThread + 5));
  EXPECT_EQ(gauge->Value(),
            static_cast<int64_t>(kThreads * kPerThread) - kThreads * 5);
}

TEST(ObsRegistryTest, FindOrCreateReturnsStablePointers) {
  obs::MetricsRegistry registry;
  obs::Counter* a = registry.GetCounter("obs_test_total", "first label");
  // Second registration: same object, the first table label wins.
  obs::Counter* b = registry.GetCounter("obs_test_total", "second label");
  EXPECT_EQ(a, b);
  a->Inc(3);
  const std::vector<obs::Sample> samples = registry.Collect();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].name, "obs_test_total");
  EXPECT_EQ(samples[0].table_label, "first label");
  EXPECT_EQ(samples[0].value, 3.0);
}

TEST(ObsRegistryTest, CollectOrdersOwnedMetricsBeforeCollectors) {
  obs::MetricsRegistry registry;
  // Collector registered FIRST must still render after owned metrics:
  // the CLI table regexes rely on the server-owned rows coming first.
  registry.AddCollector([](std::vector<obs::Sample>* out) {
    out->push_back(obs::Sample::GaugeSample("obs_collected", 7.0, "row b"));
  });
  registry.GetCounter("obs_owned_total", "row a")->Inc();
  const std::vector<obs::Sample> samples = registry.Collect();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].name, "obs_owned_total");
  EXPECT_EQ(samples[1].name, "obs_collected");
}

TEST(ObsRegistryTest, RemovedCollectorStopsExporting) {
  obs::MetricsRegistry registry;
  const int id = registry.AddCollector([](std::vector<obs::Sample>* out) {
    out->push_back(obs::Sample::CounterSample("obs_gone", 1.0));
  });
  EXPECT_EQ(registry.Collect().size(), 1u);
  registry.RemoveCollector(id);
  EXPECT_TRUE(registry.Collect().empty());
}

TEST(ObsRegistryTest, RenderPrometheusEmitsTypedFamilies) {
  obs::MetricsRegistry registry;
  registry.GetCounter("obs_hits_total")->Inc(42);
  registry.GetGauge("obs_depth")->Set(-3);
  registry.AddCollector([](std::vector<obs::Sample>* out) {
    out->push_back(obs::Sample::GaugeSample("obs_tier_info", 1.0, "",
                                            "tier=\"avx2\""));
  });
  registry.GetHistogram("obs_latency_seconds")->Record(1000);
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# TYPE obs_hits_total counter\nobs_hits_total 42\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE obs_depth gauge\nobs_depth -3\n"),
            std::string::npos);
  EXPECT_NE(text.find("obs_tier_info{tier=\"avx2\"} 1\n"),
            std::string::npos);
  // Histograms render natively: cumulative le buckets plus _sum/_count.
  EXPECT_NE(text.find("# TYPE obs_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("obs_latency_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("obs_latency_seconds_count 1"), std::string::npos);
}

TEST(ObsRegistryTest, RenderPrometheusGroupsInterleavedFamilies) {
  obs::MetricsRegistry registry;
  // Two families interleaved per label, the way the failpoint collector
  // emits hits and trips for every armed failpoint.
  registry.AddCollector([](std::vector<obs::Sample>* out) {
    for (const char* name : {"a", "b", "c"}) {
      const std::string label = std::string("name=\"") + name + "\"";
      out->push_back(
          obs::Sample::CounterSample("obs_hits_total", 1.0, "", label));
      out->push_back(
          obs::Sample::CounterSample("obs_trips_total", 2.0, "", label));
    }
  });
  const std::string text = registry.RenderPrometheus();
  // One TYPE line per family, the family's samples right behind it, the
  // families in first-appearance order.
  EXPECT_EQ(text,
            "# TYPE obs_hits_total counter\n"
            "obs_hits_total{name=\"a\"} 1\n"
            "obs_hits_total{name=\"b\"} 1\n"
            "obs_hits_total{name=\"c\"} 1\n"
            "# TYPE obs_trips_total counter\n"
            "obs_trips_total{name=\"a\"} 2\n"
            "obs_trips_total{name=\"b\"} 2\n"
            "obs_trips_total{name=\"c\"} 2\n");
  // Collect() keeps the collector's own order for the table.
  const std::vector<obs::Sample> samples = registry.Collect();
  ASSERT_EQ(samples.size(), 6u);
  EXPECT_EQ(samples[0].name, "obs_hits_total");
  EXPECT_EQ(samples[1].name, "obs_trips_total");
}

// ---------------------------------------------------------------------------
// Registry: the CLI stats table

TEST(ObsTableTest, MetricsTableRendersLabeledRowsOnly) {
  std::vector<obs::Sample> samples;
  samples.push_back(obs::Sample::CounterSample("a_total", 12.0, "row a"));
  samples.push_back(obs::Sample::CounterSample("hidden_total", 5.0));
  samples.push_back(
      obs::Sample::GaugeSample("b_ms", 1.23456, "latency (ms)"));
  ::testing::internal::CaptureStdout();
  MetricsTable(samples).Print();
  const std::string out = ::testing::internal::GetCapturedStdout();
  // Integral values print as integers (scripts compare them with -eq),
  // non-integral values keep 3 decimals; unlabeled samples are not rows.
  EXPECT_NE(out.find("row a"), std::string::npos);
  EXPECT_NE(out.find("| 12 "), std::string::npos);
  EXPECT_NE(out.find("1.235"), std::string::npos);
  EXPECT_EQ(out.find("hidden"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Histogram

TEST(ObsHistogramTest, QuantilesTrackSortedReferenceWithinBucketError) {
  obs::Histogram hist;
  // Deterministic LCG spanning several octaves (1..~1M ns).
  std::vector<uint64_t> values;
  uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    values.push_back(1 + x % 1000000);
  }
  for (uint64_t v : values) hist.Record(v);
  std::sort(values.begin(), values.end());
  const obs::Histogram::Snapshot snap = hist.Snap();
  EXPECT_EQ(snap.count, values.size());
  uint64_t sum = 0;
  for (uint64_t v : values) sum += v;
  EXPECT_EQ(snap.sum, sum);
  for (double q : {0.10, 0.50, 0.90, 0.99}) {
    const double exact = static_cast<double>(
        values[static_cast<size_t>(q * (values.size() - 1))]);
    const double est = snap.Quantile(q);
    // Bucket width is 1/8 of the lower bound: the estimate must stay
    // within ~12.5% (plus a hair for interpolation at the edges).
    EXPECT_NEAR(est / exact, 1.0, 0.13) << "q=" << q;
  }
}

TEST(ObsHistogramTest, SmallValuesLandInExactBuckets) {
  obs::Histogram hist;
  for (uint64_t v = 0; v < obs::Histogram::kSub; ++v) {
    EXPECT_EQ(obs::Histogram::BucketLower(obs::Histogram::BucketIndex(v)),
              v);
    hist.Record(v);
  }
  const obs::Histogram::Snapshot snap = hist.Snap();
  EXPECT_EQ(snap.count, obs::Histogram::kSub);
  // Small values get unit-width buckets: every quantile estimate lands
  // within one bucket (+1) of the exact order statistic.
  for (uint32_t i = 0; i < obs::Histogram::kSub; ++i) {
    const double q =
        static_cast<double>(i) / (obs::Histogram::kSub - 1);
    const double exact = static_cast<double>(i);
    const double est = snap.Quantile(q);
    EXPECT_GE(est, exact);
    EXPECT_LE(est, exact + 1.0) << "q=" << q;
  }
}

TEST(ObsHistogramTest, ConcurrentRecordsKeepExactCountAndSum) {
  obs::Histogram hist;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        hist.Record(static_cast<uint64_t>(t) * 1000 + i % 997);
      }
    });
  }
  for (auto& t : threads) t.join();
  const obs::Histogram::Snapshot snap = hist.Snap();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
}

// ---------------------------------------------------------------------------
// Tracer

TEST(ObsTraceTest, RingWrapsWithoutLosingTheRecordedCount) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Enable(/*capacity=*/128);
  const uint64_t before = tracer.events_recorded();
  constexpr uint64_t kSpans = 1000;
  for (uint64_t i = 0; i < kSpans; ++i) {
    tracer.Record("obs.wrap", tracer.NewSpanId(), 0, i * 10, 5, i);
  }
  EXPECT_EQ(tracer.events_recorded() - before, kSpans);
  const std::vector<obs::TraceEventView> events = tracer.Snapshot();
  // The ring holds at most its capacity; lapped slots are skipped, never
  // torn, so every surviving view is fully formed.
  EXPECT_LE(events.size(), 128u);
  EXPECT_GE(events.size(), 64u);
  for (const obs::TraceEventView& e : events) {
    ASSERT_NE(e.name, nullptr);
    EXPECT_STREQ(e.name, "obs.wrap");
    EXPECT_EQ(e.dur_ns, 5u);
  }
  tracer.Disable();
}

TEST(ObsTraceTest, ConcurrentWritersNeverTearASlot) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Enable(/*capacity=*/64);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const char* name = t % 2 == 0 ? "obs.even" : "obs.odd";
      for (uint64_t i = 0; i < 20000; ++i) {
        tracer.Record(name, tracer.NewSpanId(), 0, i, /*dur_ns=*/t + 1,
                      i);
        if (i % 4096 == 0) {
          for (const obs::TraceEventView& e : tracer.Snapshot()) {
            // A view read while writers lap the ring must still be
            // internally consistent.
            ASSERT_TRUE(std::strcmp(e.name, "obs.even") == 0 ||
                        std::strcmp(e.name, "obs.odd") == 0);
            ASSERT_GE(e.dur_ns, 1u);
            ASSERT_LE(e.dur_ns, kThreads);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  tracer.Disable();
}

TEST(ObsTraceTest, SpansParentThroughTraceContext) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Enable(/*capacity=*/64);
  const uint64_t root = tracer.NewSpanId();
  {
    obs::TraceContext::Scope scope(root);
    obs::TraceSpan child("obs.child", /*arg=*/9);
  }
  EXPECT_EQ(obs::TraceContext::Current(), 0u);
  bool found = false;
  for (const obs::TraceEventView& e : tracer.Snapshot()) {
    if (std::strcmp(e.name, "obs.child") == 0) {
      found = true;
      EXPECT_EQ(e.parent, root);
      EXPECT_EQ(e.arg, 9u);
    }
  }
  EXPECT_TRUE(found);
  tracer.Disable();
}

TEST(ObsTraceTest, DisabledTracerRecordsNothing) {
  obs::Tracer& tracer = obs::Tracer::Global();
  ASSERT_FALSE(tracer.enabled());
  const uint64_t before = tracer.events_recorded();
  { obs::TraceSpan span("obs.disabled"); }
  EXPECT_EQ(tracer.events_recorded(), before);
}

TEST(ObsTraceTest, SlowRequestThresholdGatesTheCounter) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.SetSlowThresholdNs(5000000);
  EXPECT_EQ(tracer.slow_threshold_ns(), 5000000u);
  const uint64_t before = tracer.slow_requests();
  // The serving tier counts a request only when latency >= threshold;
  // mirror its gate here.
  const uint64_t fast = 100, slow = 6000000;
  if (fast >= tracer.slow_threshold_ns()) tracer.CountSlowRequest();
  if (slow >= tracer.slow_threshold_ns()) tracer.CountSlowRequest();
  EXPECT_EQ(tracer.slow_requests() - before, 1u);
  tracer.SetSlowThresholdNs(0);
}

TEST(ObsTraceTest, SlowScratchBreakdownRendersAndResets) {
  obs::SlowScratch::BeginRequest();
  obs::SlowScratch::AddChild("frame.decode", 40000);
  obs::SlowScratch::AddChild("advance.step", 1000000);
  obs::SlowScratch::AddChild("advance.step", 2000000);
  const std::string breakdown = obs::SlowScratch::Breakdown();
  EXPECT_NE(breakdown.find("frame.decode"), std::string::npos);
  EXPECT_NE(breakdown.find("advance.step"), std::string::npos);
  // Breakdown() resets the scratch: a second render is empty.
  EXPECT_TRUE(obs::SlowScratch::Breakdown().empty());
}

// ---------------------------------------------------------------------------
// Loopback scrape: kMetricsDump + HTTP GET /metrics

/// Minimal blocking wire client (mirror of the one in wire_test.cpp).
class ScrapeClient {
 public:
  ~ScrapeClient() { Close(); }
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
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof addr) == 0;
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
  Result<WireFrame> Call(const std::string& request) {
    if (!SendRaw(request)) return Status::IOError("send failed");
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
  /// Plain HTTP/1.0 GET; returns the full response (headers + body).
  std::string HttpGet(const std::string& path) {
    if (!SendRaw("GET " + path + " HTTP/1.0\r\n\r\n")) return "";
    std::string response;
    char chunk[4096];
    while (true) {
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      response.append(chunk, static_cast<size_t>(n));
    }
    return response;
  }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

/// First value of `name` in a Prometheus text exposition (bare or
/// labeled); -1 when absent.
double PromValue(const std::string& text, const std::string& name) {
  size_t pos = 0;
  while ((pos = text.find(name, pos)) != std::string::npos) {
    // Line start, and the name ends at a space or '{'.
    const bool line_start = pos == 0 || text[pos - 1] == '\n';
    const size_t end = pos + name.size();
    if (line_start && end < text.size() &&
        (text[end] == ' ' || text[end] == '{')) {
      const size_t sp = text.find(' ', pos);
      if (sp == std::string::npos) return -1.0;
      return std::stod(text.substr(sp + 1));
    }
    pos = end;
  }
  return -1.0;
}

class ObsScrapeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = MakeSmallCatalog().release();
    auto root = MakeTableScan("t_fact");
    root->est_rows = 1000.0;
    auto plan = FinalizePlan(std::move(root), *catalog_);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    plan_ = std::move(plan).ValueOrDie().release();
    auto result = ExecutePlan(*plan_, *catalog_);
    ASSERT_TRUE(result.ok());
    run_ = new QueryRunResult(std::move(result).ValueOrDie());
    MartParams params;
    params.num_trees = 10;
    params.tree.max_leaves = 8;
    params.seed = 7;
    stack_ = std::make_shared<const SelectorStack>(SelectorStack::Train(
        RandomRecords(80, 11), PoolOriginalThree(), params));
  }
  static void TearDownTestSuite() {
    delete run_;
    delete plan_;
    delete catalog_;
    stack_.reset();
    run_ = nullptr;
    plan_ = nullptr;
    catalog_ = nullptr;
  }

  static Catalog* catalog_;
  static PhysicalPlan* plan_;
  static QueryRunResult* run_;
  static std::shared_ptr<const SelectorStack> stack_;
};

Catalog* ObsScrapeTest::catalog_ = nullptr;
PhysicalPlan* ObsScrapeTest::plan_ = nullptr;
QueryRunResult* ObsScrapeTest::run_ = nullptr;
std::shared_ptr<const SelectorStack> ObsScrapeTest::stack_;

TEST_F(ObsScrapeTest, MetricsDumpAndHttpScrapeReconcileExactly) {
  // One registry for service, queue and server, as rpe_cli wires it.
  obs::MetricsRegistry metrics;
  ShardedMonitorService::Options service_options;
  service_options.num_shards = 2;
  service_options.metrics = &metrics;
  ShardedMonitorService service(stack_, service_options);
  RecordIngestQueue queue(/*capacity=*/4, &metrics);
  TcpServer::Options server_options;
  server_options.metrics = &metrics;
  server_options.metrics_port = 0;  // ephemeral HTTP /metrics listener
  TcpServer server(&service, {run_}, &queue, server_options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.metrics_port(), 0);

  ScrapeClient client;
  ASSERT_TRUE(client.Connect(server.port()));

  // One full session so the latency histogram and session counters move.
  auto opened = client.Call(EncodeOpenRequest({0}));
  ASSERT_TRUE(opened.ok() && opened->ok());
  auto open_response = DecodeOpenResponse(opened->payload);
  ASSERT_TRUE(open_response.ok());
  AdvanceRequest step;
  step.session_id = open_response->session_id;
  step.max_steps = kMaxAdvanceSteps;
  auto advanced = client.Call(EncodeAdvanceRequest(step));
  ASSERT_TRUE(advanced.ok() && advanced->ok());
  auto closed = client.Call(EncodeCloseRequest({step.session_id}));
  ASSERT_TRUE(closed.ok() && closed->ok());

  // Offer more records than the queue fits: every record must come back
  // accepted, dropped, or shed — never silently lost.
  uint64_t offered = 0, accepted = 0, dropped = 0, shed = 0;
  const std::vector<PipelineRecord> records = RandomRecords(3, 21);
  for (int i = 0; i < 4; ++i) {
    IngestBatchRequest batch;
    batch.records = records;
    offered += records.size();
    auto response = client.Call(EncodeIngestBatchRequest(batch));
    ASSERT_TRUE(response.ok());
    if (!response->ok()) {
      // kStatusBusy: the whole frame was shed.
      shed += records.size();
      continue;
    }
    auto decoded = DecodeIngestResponse(response->payload);
    ASSERT_TRUE(decoded.ok());
    accepted += decoded->accepted;
    dropped += decoded->dropped;
  }
  EXPECT_EQ(accepted + dropped + shed, offered);

  // A quiescent cut: every request is answered and nothing drains the
  // queue, so kStats and the dump right behind it read the same cells.
  auto stats_frame = client.Call(EncodeStatsRequest());
  ASSERT_TRUE(stats_frame.ok() && stats_frame->ok());
  auto stats = DecodeStatsResponse(stats_frame->payload);
  ASSERT_TRUE(stats.ok());

  // Wire-side scrape.
  auto dump = client.Call(EncodeMetricsDumpRequest());
  ASSERT_TRUE(dump.ok() && dump->ok());
  const std::string text = dump->payload;
  EXPECT_EQ(PromValue(text, "rpe_sessions_opened_total"), 1.0);
  EXPECT_EQ(PromValue(text, "rpe_sessions_completed_total"), 1.0);
  EXPECT_EQ(PromValue(text, "rpe_ingest_pushed_total"),
            static_cast<double>(accepted));

  // Every integer kStats field is its exposition series. The four frame
  // and byte counters also count the kStats response and the dump
  // request that came between the two reads.
  const auto series = [&text](const char* name) {
    return static_cast<uint64_t>(PromValue(text, name));
  };
  const WireStats& w = *stats;
  EXPECT_EQ(w.sessions_opened, series("rpe_sessions_opened_total"));
  EXPECT_EQ(w.sessions_completed, series("rpe_sessions_completed_total"));
  EXPECT_EQ(w.decisions, series("rpe_decisions_total"));
  EXPECT_EQ(w.observations_scored, series("rpe_observations_scored_total"));
  EXPECT_EQ(w.model_generation, series("rpe_model_generation"));
  EXPECT_EQ(w.connections_accepted,
            series("rpe_server_connections_accepted_total"));
  EXPECT_EQ(w.connections_closed,
            series("rpe_server_connections_closed_total"));
  EXPECT_EQ(w.frames_received + 1,
            series("rpe_server_frames_received_total"));
  EXPECT_EQ(w.frames_sent + 1, series("rpe_server_frames_sent_total"));
  EXPECT_EQ(w.bytes_received + EncodeMetricsDumpRequest().size(),
            series("rpe_server_bytes_received_total"));
  EXPECT_EQ(w.bytes_sent + EncodeStatsResponse(w).size(),
            series("rpe_server_bytes_sent_total"));
  EXPECT_EQ(w.protocol_errors, series("rpe_server_protocol_errors_total"));
  EXPECT_EQ(w.io_errors, series("rpe_server_io_errors_total"));
  EXPECT_EQ(w.wire_sessions_opened,
            series("rpe_server_wire_sessions_opened_total"));
  EXPECT_EQ(w.wire_sessions_closed,
            series("rpe_server_wire_sessions_closed_total"));
  EXPECT_EQ(w.advance_steps, series("rpe_server_advance_steps_total"));
  EXPECT_EQ(w.records_ingested, series("rpe_server_records_ingested_total"));
  EXPECT_EQ(w.records_ingest_dropped,
            series("rpe_server_records_ingest_dropped_total"));
  EXPECT_EQ(w.records_ingest_shed,
            series("rpe_server_records_ingest_shed_total"));
  EXPECT_EQ(w.requests_shed, series("rpe_server_requests_shed_total"));
  EXPECT_EQ(w.ingest_pushed, series("rpe_ingest_pushed_total"));
  EXPECT_EQ(w.ingest_dropped, series("rpe_ingest_dropped_total"));
  EXPECT_EQ(w.ingest_drained, series("rpe_ingest_drained_total"));
  EXPECT_EQ(w.ingest_queue_size, series("rpe_ingest_queue_depth"));
  EXPECT_EQ(w.retrains, series("rpe_retrains_total"));
  // The percentiles are the same histogram quantiles, rendered %.9g.
  EXPECT_NEAR(w.p50_replay_ms, PromValue(text, "rpe_replay_latency_p50_ms"),
              1e-6 * w.p50_replay_ms);
  EXPECT_NEAR(w.p95_replay_ms, PromValue(text, "rpe_replay_latency_p95_ms"),
              1e-6 * w.p95_replay_ms);
  EXPECT_EQ(PromValue(text, "rpe_server_wire_sessions_opened_total"), 1.0);
  EXPECT_EQ(PromValue(text, "rpe_server_wire_sessions_closed_total"), 1.0);
  EXPECT_EQ(PromValue(text, "rpe_server_records_ingested_total"),
            static_cast<double>(accepted));
  EXPECT_EQ(PromValue(text, "rpe_server_records_ingest_dropped_total"),
            static_cast<double>(dropped));
  EXPECT_EQ(PromValue(text, "rpe_server_records_ingest_shed_total"),
            static_cast<double>(shed));
  EXPECT_EQ(PromValue(text, "rpe_server_protocol_errors_total"), 0.0);
  EXPECT_EQ(PromValue(text, "rpe_server_io_errors_total"), 0.0);
  // Every answered request records an end-to-end latency.
  EXPECT_GE(PromValue(text, "rpe_server_request_latency_seconds_count"),
            3.0);

  // HTTP-side scrape of the same registry.
  ScrapeClient http;
  ASSERT_TRUE(http.Connect(server.metrics_port()));
  const std::string response = http.HttpGet("/metrics");
  ASSERT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain"), std::string::npos);
  const size_t body = response.find("\r\n\r\n");
  ASSERT_NE(body, std::string::npos);
  EXPECT_EQ(
      PromValue(response.substr(body + 4), "rpe_server_wire_sessions_opened_total"),
      1.0);

  // Unknown paths 404 without disturbing the server.
  ScrapeClient other;
  ASSERT_TRUE(other.Connect(server.metrics_port()));
  EXPECT_NE(other.HttpGet("/other").find("404"), std::string::npos);

  // A nonempty kMetricsDump payload is a protocol error.
  ScrapeClient hostile;
  ASSERT_TRUE(hostile.Connect(server.port()));
  auto bad = hostile.Call(
      EncodeFrame(MsgType::kMetricsDump, 0, std::string_view("x", 1)));
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad->ok());

  server.Stop();
  const uint64_t ingested =
      CounterValue(metrics, "rpe_server_records_ingested_total");
  const uint64_t ingest_dropped =
      CounterValue(metrics, "rpe_server_records_ingest_dropped_total");
  const uint64_t ingest_shed =
      CounterValue(metrics, "rpe_server_records_ingest_shed_total");
  EXPECT_EQ(ingested + ingest_dropped + ingest_shed, offered);
  EXPECT_EQ(CounterValue(metrics, "rpe_server_protocol_errors_total"), 1u);
}

TEST_F(ObsScrapeTest, AdvanceRootSpanCarriesItsStepCountInTheChromeTrace) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Enable(/*capacity=*/256);
  ShardedMonitorService::Options service_options;
  service_options.num_shards = 1;
  ShardedMonitorService service(stack_, service_options);
  TcpServer server(&service, {run_}, TcpServer::Options{});
  ASSERT_TRUE(server.Start().ok());
  ScrapeClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  auto opened = client.Call(EncodeOpenRequest({0}));
  ASSERT_TRUE(opened.ok() && opened->ok());
  auto open_response = DecodeOpenResponse(opened->payload);
  ASSERT_TRUE(open_response.ok());
  ASSERT_GE(open_response->num_observations, 3u);
  auto advanced =
      client.Call(EncodeAdvanceRequest({open_response->session_id, 3}));
  ASSERT_TRUE(advanced.ok() && advanced->ok());
  server.Stop();

  const std::string path = std::filesystem::temp_directory_path().string() +
                           "/rpe_obs_trace_" + std::to_string(::getpid()) +
                           ".json";
  ASSERT_TRUE(tracer.WriteChromeTrace(path).ok());
  tracer.Disable();
  std::ifstream in(path);
  std::string line;
  std::string advance_event;
  while (std::getline(in, line)) {
    if (line.find("\"name\":\"request.advance\"") != std::string::npos) {
      advance_event = line;
    }
  }
  std::remove(path.c_str());
  // The root span of an answered Advance carries the steps it took.
  EXPECT_NE(advance_event.find("\"arg\":3}"), std::string::npos)
      << advance_event;
}

TEST_F(ObsScrapeTest, ServersWithoutSharedRegistryStayIsolated) {
  ShardedMonitorService::Options service_options;
  service_options.num_shards = 1;
  ShardedMonitorService service(stack_, service_options);
  // Two servers, no shared registry: each registers its counters in a
  // private one, so per-server assertions cannot bleed across tests.
  TcpServer a(&service, {run_}, TcpServer::Options{});
  TcpServer b(&service, {run_}, TcpServer::Options{});
  EXPECT_NE(&a.metrics_registry(), &b.metrics_registry());
  ASSERT_TRUE(a.Start().ok());
  ScrapeClient client;
  ASSERT_TRUE(client.Connect(a.port()));
  auto stats = client.Call(EncodeStatsRequest());
  ASSERT_TRUE(stats.ok() && stats->ok());
  a.Stop();
  EXPECT_EQ(CounterValue(a.metrics_registry(),
                         "rpe_server_frames_received_total"),
            1u);
  EXPECT_EQ(CounterValue(b.metrics_registry(),
                         "rpe_server_frames_received_total"),
            0u);
}

}  // namespace
}  // namespace rpe
