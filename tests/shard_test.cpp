// MonitorService and ShardedMonitorService tests: sessions stepped through
// the router's id-keyed Open/Advance/Close, or through MonitorService's
// Open/Step/Close values, must be bit-identical to the sequential
// ProgressMonitor at any partition/caller-thread count (50k-session
// stress), counters must be exact, routing must keep per-session
// semantics intact, and the published generation never steps back while
// sessions open concurrently. Advance reports the done flag from its own
// lookup, and the observation counter stays exact under concurrent steps.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <thread>

#include "exec/executor.h"
#include "serving/shard_router.h"
#include "serving/snapshot.h"
#include "serving/wire.h"
#include "tests/test_util.h"

namespace rpe {
namespace {

using ::rpe::testing::CounterValue;
using ::rpe::testing::DriveSessions;
using ::rpe::testing::ExpectedSessionCounts;
using ::rpe::testing::MakeSmallCatalog;
using ::rpe::testing::RandomRecords;
using ::rpe::testing::ReadSessionCounts;
using ::rpe::testing::SampleValue;
using ::rpe::testing::SessionCounts;

SelectorStack TrainSmallStack(const std::vector<PipelineRecord>& records,
                              uint64_t seed) {
  MartParams params;
  params.num_trees = 10;
  params.tree.max_leaves = 8;
  params.seed = seed;
  return SelectorStack::Train(records, PoolOriginalThree(), params);
}

class ShardedMonitorServiceTest : public ::testing::Test {
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

  static std::vector<const QueryRunResult*> SessionRuns(size_t n) {
    std::vector<const QueryRunResult*> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) out.push_back(&(*runs_)[i % runs_->size()]);
    return out;
  }

  /// Sequential reference series per distinct run (sessions cycle a small
  /// run set, so the reference is computed once per run, not per session).
  static std::vector<std::vector<double>> ReferencePerRun() {
    const ProgressMonitor monitor = Monitor();
    std::vector<std::vector<double>> out;
    out.reserve(runs_->size());
    for (const QueryRunResult& run : *runs_) {
      out.push_back(monitor.ReplayQueryProgress(run));
    }
    return out;
  }

  /// Session s of SessionRuns replays run s % runs_->size().
  static std::function<const std::vector<double>&(size_t)> Cycling(
      const std::vector<std::vector<double>>& reference) {
    return [&reference](size_t s) -> const std::vector<double>& {
      return reference[s % reference.size()];
    };
  }

  static ProgressMonitor Monitor() {
    return ProgressMonitor(&stack_->static_selector,
                           &stack_->dynamic_selector);
  }

  static Catalog* catalog_;
  static std::vector<QueryRunResult>* runs_;
  static std::vector<std::unique_ptr<PhysicalPlan>>* plans_;
  static std::shared_ptr<const SelectorStack> stack_;
};

Catalog* ShardedMonitorServiceTest::catalog_ = nullptr;
std::vector<QueryRunResult>* ShardedMonitorServiceTest::runs_ = nullptr;
std::vector<std::unique_ptr<PhysicalPlan>>*
    ShardedMonitorServiceTest::plans_ = nullptr;
std::shared_ptr<const SelectorStack> ShardedMonitorServiceTest::stack_;

TEST_F(ShardedMonitorServiceTest, StressReplay50kBitIdenticalToUnsharded) {
  // The acceptance bar: 50k sessions stepped through the router by four
  // caller threads must serve exactly the sequential monitor's values
  // with one id-map partition and with sixteen, and the counters must be
  // exact.
  const size_t kSessions = 50000;
  const auto session_runs = SessionRuns(kSessions);
  const auto reference = ReferencePerRun();
  const auto want = ExpectedSessionCounts(Monitor(), session_runs);
  for (size_t shards : {size_t{1}, size_t{16}}) {
    ShardedMonitorService::Options options;
    options.num_shards = shards;
    ShardedMonitorService service(stack_, options);
    EXPECT_EQ(DriveSessions(service, session_runs, Cycling(reference), 4),
              0u)
        << shards << " shards";
    obs::MetricsRegistry& m = service.metrics();
    EXPECT_EQ(ReadSessionCounts(m), want) << shards << " shards";
    EXPECT_EQ(service.num_open_sessions(), 0u);
    EXPECT_EQ(SampleValue(m, "rpe_model_generation"), 0.0);
    EXPECT_GE(SampleValue(m, "rpe_replay_latency_p95_ms"),
              SampleValue(m, "rpe_replay_latency_p50_ms"));
  }
}

TEST_F(ShardedMonitorServiceTest, ReplayBitIdenticalAtAnyShardThreadCount) {
  const auto session_runs = SessionRuns(512);
  const auto reference = ReferencePerRun();
  const auto want = ExpectedSessionCounts(Monitor(), session_runs);
  for (size_t shards : {size_t{1}, size_t{3}, size_t{16}}) {
    for (int threads : {1, 4}) {
      ShardedMonitorService::Options options;
      options.num_shards = shards;
      ShardedMonitorService service(stack_, options);
      EXPECT_EQ(
          DriveSessions(service, session_runs, Cycling(reference), threads),
          0u)
          << shards << " shards, " << threads << " threads";
      EXPECT_EQ(ReadSessionCounts(service.metrics()), want)
          << shards << " shards, " << threads << " threads";
    }
  }
}

TEST_F(ShardedMonitorServiceTest, RoutedSessionsMatchSequentialReplay) {
  const auto reference = ReferencePerRun();
  for (size_t shards : {size_t{1}, size_t{4}, size_t{8}}) {
    ShardedMonitorService::Options options;
    options.num_shards = shards;
    ShardedMonitorService service(stack_, options);

    const size_t kSessions = 96;
    std::vector<ShardedMonitorService::SessionId> ids;
    size_t total_obs = 0;
    for (size_t s = 0; s < kSessions; ++s) {
      auto id = service.OpenSession(&(*runs_)[s % runs_->size()]);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ids.push_back(*id);
      total_obs += reference[s % runs_->size()].size();
    }
    EXPECT_EQ(service.num_open_sessions(), kSessions);
    // Ids are globally unique even though every shard numbers locally.
    std::set<ShardedMonitorService::SessionId> unique(ids.begin(), ids.end());
    EXPECT_EQ(unique.size(), kSessions);

    // Advance each session one observation at a time through the router;
    // the progress trajectory must match the sequential monitor bit for
    // bit.
    for (size_t s = 0; s < kSessions; ++s) {
      const auto& expected = reference[s % runs_->size()];
      for (size_t oi = 0; oi < expected.size(); ++oi) {
        auto progress = service.Advance(ids[s]);
        ASSERT_TRUE(progress.ok()) << progress.status().ToString();
        ASSERT_EQ(*progress, expected[oi])
            << shards << " shards, session " << s << " obs " << oi;
      }
      EXPECT_FALSE(service.Advance(ids[s]).ok());  // stream exhausted
      bool done = false;
      EXPECT_EQ(*service.Progress(ids[s], &done), expected.back());
      EXPECT_TRUE(done);
      ASSERT_TRUE(service.CloseSession(ids[s]).ok());
    }
    EXPECT_EQ(service.num_open_sessions(), 0u);
    EXPECT_EQ(
        CounterValue(service.metrics(), "rpe_observations_scored_total"),
        total_obs)
        << shards << " shards";

    // Unknown / stale ids are routed errors, not crashes.
    EXPECT_FALSE(service.Advance(ids[0]).ok());
    EXPECT_FALSE(service.Progress(12345678).ok());
    EXPECT_FALSE(service.CloseSession(0).ok());
  }
}

TEST_F(ShardedMonitorServiceTest, AdvanceDoneFlagMatchesDoneAfterEveryStep) {
  ShardedMonitorService::Options options;
  options.num_shards = 2;
  ShardedMonitorService service(stack_, options);
  const auto reference = ReferencePerRun();
  for (size_t r = 0; r < runs_->size(); ++r) {
    auto id = service.OpenSession(&(*runs_)[r]);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    bool done = true;
    auto resting = service.Progress(*id, &done);
    ASSERT_TRUE(resting.ok());
    EXPECT_FALSE(done);
    // The flag Advance hands back with each step is the one Progress
    // reports right after it.
    for (size_t oi = 0; oi < reference[r].size(); ++oi) {
      done = !done;  // poison: Advance must overwrite it
      auto progress = service.Advance(*id, &done);
      ASSERT_TRUE(progress.ok()) << progress.status().ToString();
      ASSERT_EQ(*progress, reference[r][oi]) << "run " << r << " obs " << oi;
      ASSERT_EQ(done, oi + 1 == reference[r].size());
      bool progress_done = !done;
      ASSERT_EQ(*service.Progress(*id, &progress_done), *progress);
      ASSERT_EQ(progress_done, done);
    }
    auto exhausted = service.Advance(*id, &done);
    EXPECT_EQ(exhausted.status().code(), StatusCode::kOutOfRange);
    ASSERT_TRUE(service.Progress(*id, &done).ok());
    EXPECT_TRUE(done);
    ASSERT_TRUE(service.CloseSession(*id).ok());
  }
}

TEST_F(ShardedMonitorServiceTest, MultiStepAdvanceMatchesSingleSteps) {
  // Advance(id, k) is one lookup for up to k steps; it must answer what
  // k single steps answer: the same value bits, step count, done flag and
  // exhausted error, and the same counter totals.
  const auto reference = ReferencePerRun();
  for (const uint32_t k : {1u, 7u, kMaxAdvanceSteps}) {
    ShardedMonitorService::Options options;
    options.num_shards = 2;
    ShardedMonitorService single(stack_, options);
    ShardedMonitorService multi(stack_, options);
    for (size_t r = 0; r < runs_->size(); ++r) {
      const auto a = single.OpenSession(&(*runs_)[r]);
      const auto b = multi.OpenSession(&(*runs_)[r]);
      ASSERT_TRUE(a.ok() && b.ok());
      for (size_t request = 0;; ++request) {
        // k single steps, stopping at the first error.
        uint32_t want_taken = 0;
        bool want_done = false;
        double want = 0.0;
        Status want_status;
        while (want_taken < k) {
          const auto step = single.Advance(*a, &want_done);
          if (!step.ok()) {
            if (want_taken == 0) want_status = step.status();
            break;
          }
          want = *step;
          ++want_taken;
        }
        uint32_t taken = 12345;
        bool done = !want_done;
        const auto got = multi.Advance(*b, k, &taken, &done);
        const std::string at = "k " + std::to_string(k) + " run " +
                               std::to_string(r) + " request " +
                               std::to_string(request);
        ASSERT_EQ(got.status().code(), want_status.code()) << at;
        ASSERT_EQ(taken, want_taken) << at;
        if (!got.ok()) break;
        ASSERT_EQ(std::memcmp(&*got, &want, sizeof(double)), 0) << at;
        ASSERT_EQ(done, want_done) << at;
        bool progress_done = !done;
        ASSERT_EQ(*multi.Progress(*b, &progress_done), want) << at;
        ASSERT_EQ(progress_done, done) << at;
        const size_t end = std::min(reference[r].size(), (request + 1) * k);
        ASSERT_EQ(want, reference[r][end - 1]) << at;
      }
      ASSERT_TRUE(single.CloseSession(*a).ok());
      ASSERT_TRUE(multi.CloseSession(*b).ok());
    }
    const auto expect_same = [&](const char* name) {
      EXPECT_EQ(CounterValue(multi.metrics(), name),
                CounterValue(single.metrics(), name))
          << name << " k " << k;
    };
    expect_same("rpe_observations_scored_total");
    expect_same("rpe_sessions_opened_total");
    expect_same("rpe_sessions_completed_total");
    expect_same("rpe_decisions_total");
  }
  ShardedMonitorService service(stack_, {});
  const auto id = service.OpenSession(&(*runs_)[0]);
  uint32_t taken = 1;
  EXPECT_EQ(service.Advance(*id, 0, &taken, nullptr).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(taken, 0u);
  EXPECT_EQ(service.Advance(*id + 1, 3, &taken, nullptr).status().code(),
            StatusCode::kNotFound);
}

TEST_F(ShardedMonitorServiceTest, ConcurrentAdvanceCountsEveryStepExactly) {
  // 8 threads over 2 shards, each advancing only its own sessions to the
  // end: the relaxed observation counter must come out exact.
  ShardedMonitorService::Options options;
  options.num_shards = 2;
  ShardedMonitorService service(stack_, options);
  const auto reference = ReferencePerRun();
  constexpr size_t kThreads = 8;
  constexpr size_t kSessionsPerThread = 6;
  std::vector<uint64_t> steps(kThreads, 0);
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t k = 0; k < kSessionsPerThread; ++k) {
        const size_t r = (t + k) % runs_->size();
        auto id = service.OpenSessionOnShard(&(*runs_)[r], (t + k) % 2);
        if (!id.ok()) {
          mismatches.fetch_add(1);
          continue;
        }
        bool done = false;
        for (size_t oi = 0; !done; ++oi) {
          auto progress = service.Advance(*id, &done);
          if (!progress.ok() || oi >= reference[r].size() ||
              *progress != reference[r][oi]) {
            mismatches.fetch_add(1);
            break;
          }
          ++steps[t];
        }
        if (!service.CloseSession(*id).ok()) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
  uint64_t total = 0;
  uint64_t expected = 0;
  for (size_t t = 0; t < kThreads; ++t) {
    total += steps[t];
    for (size_t k = 0; k < kSessionsPerThread; ++k) {
      expected += reference[(t + k) % runs_->size()].size();
    }
  }
  EXPECT_EQ(total, expected);
  obs::MetricsRegistry& m = service.metrics();
  EXPECT_EQ(CounterValue(m, "rpe_observations_scored_total"), total);
  EXPECT_EQ(CounterValue(m, "rpe_sessions_completed_total"),
            kThreads * kSessionsPerThread);
  // One latency sample per completed session, pooled across partitions
  // in the one histogram; the quantiles derive from that histogram.
  const obs::Histogram::Snapshot latency =
      m.GetHistogram("rpe_replay_latency_seconds")->Snap();
  EXPECT_EQ(latency.count, kThreads * kSessionsPerThread);
  EXPECT_EQ(SampleValue(m, "rpe_replay_latency_p50_ms"),
            latency.Quantile(0.50) / 1e6);
  EXPECT_EQ(SampleValue(m, "rpe_replay_latency_p95_ms"),
            latency.Quantile(0.95) / 1e6);
}

TEST_F(ShardedMonitorServiceTest, SwapLandsOnAllShardsInOneGenerationStep) {
  auto other = std::make_shared<const SelectorStack>(
      TrainSmallStack(RandomRecords(80, 23), 41));
  ShardedMonitorService::Options options;
  options.num_shards = 8;
  ShardedMonitorService service(stack_, options);
  MonitorService& monitor = service.monitor();

  // Openers hammer every partition while swaps land; a reader asserts
  // that the generation gauge never runs ahead of the published snapshot
  // and never goes back.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> opened{0};
  std::thread opener([&] {
    while (!stop.load()) {
      auto id = service.OpenSession(&(*runs_)[opened.load() % runs_->size()]);
      ASSERT_TRUE(id.ok());
      ++opened;
      ASSERT_TRUE(service.CloseSession(*id).ok());
    }
  });
  obs::Gauge* gauge = service.metrics().GetGauge("rpe_model_generation");
  std::thread reader([&] {
    int64_t last = 0;
    while (!stop.load()) {
      const int64_t published = gauge->Value();
      ASSERT_GE(published, last);
      ASSERT_GE(monitor.model_generation(),
                static_cast<uint64_t>(published));
      last = published;
    }
  });

  const uint64_t kSwaps = 200;
  for (uint64_t g = 1; g <= kSwaps; ++g) {
    const uint64_t generation = monitor.SwapModels(g % 2 == 0 ? stack_ : other);
    ASSERT_EQ(generation, g);  // one step per publish
  }
  // On a single-core box the swap loop can finish before the opener is
  // ever scheduled; let it observe the post-swap world at least once.
  while (opened.load() == 0) std::this_thread::yield();
  stop.store(true);
  opener.join();
  reader.join();

  EXPECT_EQ(gauge->Value(), static_cast<int64_t>(kSwaps));
  EXPECT_EQ(monitor.model_generation(), kSwaps);
  EXPECT_GT(opened.load(), 0u);

  // Sessions opened after the swaps decide against the final snapshot
  // (generation kSwaps is even: stack_).
  const auto reference = ReferencePerRun();
  const auto session_runs = SessionRuns(runs_->size());
  for (int threads : {1, 4}) {
    EXPECT_EQ(
        DriveSessions(service, session_runs, Cycling(reference), threads),
        0u)
        << threads << " threads";
  }
}

// ---------------------------------------------------------------------------
// MonitorService: sessions by id (through the router) and by value.

class MonitorServiceTest : public ShardedMonitorServiceTest {};

TEST_F(MonitorServiceTest, ConcurrentReplayIsBitIdenticalAtAnyThreadCount) {
  const auto session_runs = SessionRuns(64);
  const auto reference = ReferencePerRun();
  const auto want = ExpectedSessionCounts(Monitor(), session_runs);
  EXPECT_GT(want.decisions, 0u);

  for (int threads : {1, 4}) {
    ShardedMonitorService service(stack_, {.num_shards = 1});
    EXPECT_EQ(
        DriveSessions(service, session_runs, Cycling(reference), threads),
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
  ShardedMonitorService service(stack_, {.num_shards = 1});
  const QueryRunResult& run = (*runs_)[1];
  const auto expected = Monitor().ReplayQueryProgress(run);

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
  // The same runs through the router's id-keyed API and through
  // Open/Step/Close session values on a bare MonitorService: the same
  // series bit for bit and the same counter deltas. Step accrues no
  // counter, so the value path accrues rpe_observations_scored_total
  // itself, as its owner (the TCP front-end) does. The last session of
  // each side is closed half way, uncompleted.
  const auto session_runs = SessionRuns(6);
  const size_t unfinished = session_runs.size() - 1;
  const auto steps_of = [&](size_t s) {
    const size_t total = session_runs[s]->observations.size();
    return s == unfinished ? total / 2 : total;
  };

  ShardedMonitorService by_id(stack_, {.num_shards = 1});
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
  ShardedMonitorService service(stack_, {.num_shards = 1});
  const QueryRunResult& run = (*runs_)[2];

  auto id = service.OpenSession(&run);
  ASSERT_TRUE(id.ok());
  service.monitor().SwapModels(other);
  EXPECT_EQ(service.monitor().models().get(), other.get());

  // The open session still replays against the snapshot it pinned at open.
  const auto expected = Monitor().ReplayQueryProgress(run);
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
  MonitorService monitor(stack_);
  EXPECT_FALSE(monitor.Open(nullptr).ok());
  ShardedMonitorService service(stack_, {.num_shards = 1});
  EXPECT_FALSE(service.OpenSession(nullptr).ok());
  EXPECT_FALSE(service.Advance(99).ok());
  EXPECT_FALSE(service.Progress(99).ok());
  EXPECT_FALSE(service.CloseSession(99).ok());
}

}  // namespace
}  // namespace rpe
