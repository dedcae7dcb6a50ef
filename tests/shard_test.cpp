// ShardedMonitorService tests: sharded replay must be bit-identical to a
// single unsharded MonitorService at any shard/thread count (50k-session
// stress), counter aggregation must be exact sums, routing must keep
// per-session semantics intact, and a SwapModels publish must land on
// every shard as one generation step even while sessions open
// concurrently. Advance reports the done flag from its own lookup, and
// the lock-free observation counter stays exact under concurrent steps.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>

#include "common/thread_pool.h"
#include "exec/executor.h"
#include "serving/shard_router.h"
#include "serving/snapshot.h"
#include "serving/wire.h"
#include "tests/test_util.h"

namespace rpe {
namespace {

using ::rpe::testing::CounterValue;
using ::rpe::testing::MakeSmallCatalog;
using ::rpe::testing::RandomRecords;
using ::rpe::testing::SampleValue;

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
    ProgressMonitor monitor(&stack_->static_selector,
                            &stack_->dynamic_selector);
    std::vector<std::vector<double>> out;
    out.reserve(runs_->size());
    for (const QueryRunResult& run : *runs_) {
      out.push_back(monitor.ReplayQueryProgress(run));
    }
    return out;
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
  // The acceptance bar: 50k sessions replayed through the sharded tier
  // must be bit-identical to one unsharded MonitorService replaying the
  // same slots, and the aggregated counters must be exact.
  const size_t kSessions = 50000;
  const auto session_runs = SessionRuns(kSessions);
  const auto reference = ReferencePerRun();

  MonitorService unsharded(stack_);
  const auto expected = unsharded.ReplayAll(session_runs);
  ASSERT_EQ(expected.size(), kSessions);
  for (size_t s = 0; s < kSessions; ++s) {
    ASSERT_EQ(expected[s], reference[s % runs_->size()])
        << "unsharded replay diverged from the sequential monitor";
  }

  ShardedMonitorService::Options options;
  options.num_shards = 16;
  ShardedMonitorService sharded(stack_, options);
  const auto series = sharded.ReplayAll(session_runs);
  ASSERT_EQ(series.size(), kSessions);
  for (size_t s = 0; s < kSessions; ++s) {
    // Bit-identical, not approximately equal — and in caller order.
    ASSERT_EQ(series[s], expected[s]) << "session " << s;
  }

  // Every shard accrues into the router's registry: one cell per counter.
  obs::MetricsRegistry& m = sharded.metrics();
  obs::MetricsRegistry& base = unsharded.metrics();
  EXPECT_EQ(SampleValue(m, "rpe_shards"), 16.0);
  EXPECT_EQ(CounterValue(m, "rpe_sessions_opened_total"), kSessions);
  EXPECT_EQ(CounterValue(m, "rpe_sessions_completed_total"), kSessions);
  EXPECT_EQ(CounterValue(m, "rpe_decisions_total"),
            CounterValue(base, "rpe_decisions_total"));
  EXPECT_EQ(CounterValue(m, "rpe_observations_scored_total"),
            CounterValue(base, "rpe_observations_scored_total"));
  EXPECT_EQ(SampleValue(m, "rpe_model_generation"), 0.0);
  const obs::Histogram::Snapshot latency =
      m.GetHistogram("rpe_replay_latency_seconds")->Snap();
  EXPECT_EQ(latency.count, kSessions);
  EXPECT_GE(SampleValue(m, "rpe_replay_latency_p95_ms"),
            SampleValue(m, "rpe_replay_latency_p50_ms"));
}

TEST_F(ShardedMonitorServiceTest, ReplayBitIdenticalAtAnyShardThreadCount) {
  const auto session_runs = SessionRuns(512);
  const auto reference = ReferencePerRun();
  for (size_t shards : {size_t{1}, size_t{3}, size_t{16}}) {
    for (int threads : {1, 4}) {
      ThreadPool pool(threads);
      ShardedMonitorService::Options options;
      options.num_shards = shards;
      options.pool = &pool;
      ShardedMonitorService service(stack_, options);
      const auto series = service.ReplayAll(session_runs);
      ASSERT_EQ(series.size(), session_runs.size());
      for (size_t s = 0; s < series.size(); ++s) {
        ASSERT_EQ(series[s], reference[s % runs_->size()])
            << shards << " shards, " << threads << " threads, session " << s;
      }
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
      EXPECT_TRUE(*service.Done(ids[s]));
      EXPECT_FALSE(service.Advance(ids[s]).ok());  // stream exhausted
      EXPECT_EQ(*service.Progress(ids[s]), expected.back());
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
    EXPECT_EQ(done, *service.Done(*id));
    // The flag Advance hands back with each step is the one Done()
    // reports right after it, from the same lookup.
    for (size_t oi = 0; oi < reference[r].size(); ++oi) {
      done = !done;  // poison: Advance must overwrite it
      auto progress = service.Advance(*id, &done);
      ASSERT_TRUE(progress.ok()) << progress.status().ToString();
      ASSERT_EQ(*progress, reference[r][oi]) << "run " << r << " obs " << oi;
      ASSERT_EQ(done, *service.Done(*id)) << "run " << r << " obs " << oi;
      ASSERT_EQ(done, oi + 1 == reference[r].size());
      bool progress_done = !done;
      ASSERT_EQ(*service.Progress(*id, &progress_done), *progress);
      ASSERT_EQ(progress_done, done);
    }
    auto exhausted = service.Advance(*id, &done);
    EXPECT_EQ(exhausted.status().code(), StatusCode::kOutOfRange);
    EXPECT_TRUE(*service.Done(*id));
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
        ASSERT_EQ(done, *multi.Done(*b)) << at;
        ASSERT_EQ(*multi.Progress(*b), want) << at;
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
  // One latency sample per completed session, pooled across shards in
  // the one histogram; the quantiles derive from that histogram.
  const obs::Histogram::Snapshot latency =
      m.GetHistogram("rpe_replay_latency_seconds")->Snap();
  EXPECT_EQ(latency.count, kThreads * kSessionsPerThread);
  EXPECT_EQ(SampleValue(m, "rpe_replay_latency_p50_ms"),
            latency.Quantile(0.50) / 1e6);
  EXPECT_EQ(SampleValue(m, "rpe_replay_latency_p95_ms"),
            latency.Quantile(0.95) / 1e6);
}

TEST_F(ShardedMonitorServiceTest, BatchOpenSessionsMatchesPerSessionOpens) {
  // OpenSessions makes every decision through the SIMD-batched
  // DecideForRuns pass; the sessions it opens must replay bit-identically
  // to sessions opened one at a time, and the counters must be exact.
  const auto reference = ReferencePerRun();
  const size_t kSessions = 37;  // not a tile multiple: exercises the tail
  const auto session_runs = SessionRuns(kSessions);

  MonitorService service(stack_);
  auto ids = service.OpenSessions(session_runs);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  ASSERT_EQ(ids->size(), kSessions);
  EXPECT_EQ(service.num_open_sessions(), kSessions);

  MonitorService one_by_one(stack_);
  uint64_t want_decisions = 0;
  for (size_t s = 0; s < kSessions; ++s) {
    ASSERT_TRUE(one_by_one.OpenSession(session_runs[s]).ok());
  }
  want_decisions = CounterValue(one_by_one.metrics(), "rpe_decisions_total");
  EXPECT_EQ(CounterValue(service.metrics(), "rpe_decisions_total"),
            want_decisions);
  EXPECT_EQ(CounterValue(service.metrics(), "rpe_sessions_opened_total"),
            kSessions);

  for (size_t s = 0; s < kSessions; ++s) {
    const auto& expected = reference[s % runs_->size()];
    for (size_t oi = 0; oi < expected.size(); ++oi) {
      auto progress = service.Advance((*ids)[s]);
      ASSERT_TRUE(progress.ok()) << progress.status().ToString();
      ASSERT_EQ(*progress, expected[oi]) << "session " << s << " obs " << oi;
    }
    EXPECT_TRUE(*service.Done((*ids)[s]));
  }

  // A null run poisons the whole batch before any session is opened.
  std::vector<const QueryRunResult*> with_null = SessionRuns(3);
  with_null.push_back(nullptr);
  MonitorService strict(stack_);
  EXPECT_FALSE(strict.OpenSessions(with_null).ok());
  EXPECT_EQ(strict.num_open_sessions(), 0u);

  // An empty batch is a clean no-op.
  auto empty = service.OpenSessions({});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST_F(ShardedMonitorServiceTest, SwapLandsOnAllShardsInOneGenerationStep) {
  auto other = std::make_shared<const SelectorStack>(
      TrainSmallStack(RandomRecords(80, 23), 41));
  ShardedMonitorService::Options options;
  options.num_shards = 8;
  ShardedMonitorService service(stack_, options);

  // Openers hammer every shard while swaps land; a reader asserts that
  // the generation gauge never runs ahead of any shard (it is written
  // once per fan-out, after every shard stepped) and never goes back.
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
      for (size_t sh = 0; sh < service.num_shards(); ++sh) {
        ASSERT_GE(service.shard(sh).model_generation(),
                  static_cast<uint64_t>(published));
      }
      last = published;
    }
  });

  const uint64_t kSwaps = 200;
  for (uint64_t g = 1; g <= kSwaps; ++g) {
    const uint64_t generation =
        service.SwapModels(g % 2 == 0 ? stack_ : other);
    ASSERT_EQ(generation, g);  // lockstep across all shards
  }
  // On a single-core box the swap loop can finish before the opener is
  // ever scheduled; let it observe the post-swap world at least once.
  while (opened.load() == 0) std::this_thread::yield();
  stop.store(true);
  opener.join();
  reader.join();

  // After the last swap returns, every shard reports the same generation.
  for (size_t sh = 0; sh < service.num_shards(); ++sh) {
    EXPECT_EQ(service.shard(sh).model_generation(), kSwaps);
  }
  EXPECT_EQ(gauge->Value(), static_cast<int64_t>(kSwaps));
  EXPECT_EQ(service.model_generation(), kSwaps);
  EXPECT_GT(opened.load(), 0u);

  // Sessions opened after the swaps decide against the final snapshot.
  ProgressMonitor swapped(&stack_->static_selector,
                          &stack_->dynamic_selector);
  const std::vector<const QueryRunResult*> one{&(*runs_)[0]};
  EXPECT_EQ(service.ReplayAll(one)[0],
            swapped.ReplayQueryProgress((*runs_)[0]));
}

}  // namespace
}  // namespace rpe
