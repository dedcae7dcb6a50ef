// Chaos driver for the serving tier: seeded worker threads interleave
// open/advance/close session traffic against a ShardedMonitorService
// while a TrainerLoop hot-swaps models and probabilistic failpoints
// randomly fail ingest pushes, snapshot writes, retrains, and publishes.
// Run under TSan in CI. The invariants are coarse by design — the point
// is interleaving coverage, not scenario proof:
//   * no data race / deadlock (TSan + the run completing),
//   * every opened session advances to completion or is cleanly closed,
//   * Stop() returns under active fault injection,
//   * counters stay exact: pushed == drained after Stop, failure counts
//     match the failpoint trip counts.
// Seeds are printed on entry; rerun one schedule with
//   RPE_CHAOS_SEED=<seed> ./rpe_tests --gtest_filter='Chaos*'
// (RPE_CHAOS_ROUNDS scales the per-thread operation count.)
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "exec/executor.h"
#include "serving/ingest.h"
#include "serving/shard_router.h"
#include "serving/snapshot.h"
#include "serving/trainer_loop.h"
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

class ChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = MakeSmallCatalog().release();
    plans_ = new std::vector<std::unique_ptr<PhysicalPlan>>();
    runs_ = new std::vector<QueryRunResult>();
    AddRun(MakeTableScan("t_fact"));
    AddRun(MakeHashJoin(MakeTableScan("t_dim"), MakeTableScan("t_fact"), 0,
                        1));
    MartParams params;
    params.num_trees = 6;
    params.tree.max_leaves = 8;
    params.seed = 7;
    stack_ = std::make_shared<const SelectorStack>(SelectorStack::Train(
        RandomRecords(60, 11), PoolOriginalThree(), params));
    records_ = new std::vector<PipelineRecord>(RandomRecords(32, 23));
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
    ExecOptions options;
    options.target_observations = 40;
    auto result = ExecutePlan(*plans_->back(), *catalog_, options);
    ASSERT_TRUE(result.ok());
    runs_->push_back(std::move(result).ValueOrDie());
  }

  static Catalog* catalog_;
  static std::vector<std::unique_ptr<PhysicalPlan>>* plans_;
  static std::vector<QueryRunResult>* runs_;
  static std::shared_ptr<const SelectorStack> stack_;
  static std::vector<PipelineRecord>* records_;
};

Catalog* ChaosTest::catalog_ = nullptr;
std::vector<std::unique_ptr<PhysicalPlan>>* ChaosTest::plans_ = nullptr;
std::vector<QueryRunResult>* ChaosTest::runs_ = nullptr;
std::shared_ptr<const SelectorStack> ChaosTest::stack_;
std::vector<PipelineRecord>* ChaosTest::records_ = nullptr;

TEST_F(ChaosTest, SeededFaultStormLeavesTheTierConsistent) {
  const uint64_t seed = EnvCount("RPE_CHAOS_SEED", 1);
  const uint64_t rounds = EnvCount("RPE_CHAOS_ROUNDS", 400);
  std::cout << "chaos: RPE_CHAOS_SEED=" << seed
            << " RPE_CHAOS_ROUNDS=" << rounds << "\n";

  // Probabilistic faults on every hardened edge; seeds derive from the
  // case seed, so one schedule replays one fault stream.
  ASSERT_TRUE(FailPoints::ArmFromSpec(
                  "ingest.push=prob:0.05:seed=" + std::to_string(seed) +
                  ";trainer.retrain=prob:0.2:seed=" + std::to_string(seed + 1) +
                  ";trainer.publish=prob:0.2:seed=" + std::to_string(seed + 2) +
                  ";snapshot.write=prob:0.5:seed=" + std::to_string(seed + 3))
                  .ok());

  // One registry for the whole tier, as rpe_cli wires it.
  obs::MetricsRegistry metrics;
  ShardedMonitorService::Options service_options;
  service_options.num_shards = 4;
  service_options.metrics = &metrics;
  ShardedMonitorService service(stack_, service_options);
  RecordIngestQueue queue(128, &metrics);
  TrainerLoop::Options trainer_options;
  trainer_options.retrain_min_records = 24;
  trainer_options.min_corpus = 8;
  trainer_options.max_corpus = 128;
  trainer_options.poll_interval = std::chrono::milliseconds(1);
  trainer_options.retry_backoff = std::chrono::milliseconds(0);
  trainer_options.retrain_quarantine = std::chrono::milliseconds(1);
  trainer_options.pool = PoolOriginalThree();
  trainer_options.params = [] {
    MartParams p;
    p.num_trees = 4;
    p.tree.max_leaves = 4;
    p.seed = 7;
    return p;
  }();
  trainer_options.metrics = &metrics;
  TrainerLoop trainer(&queue, &service.monitor(), trainer_options);
  trainer.Start();

  // Worker threads interleave session traffic, record pushes, and swap
  // pressure; accepted-push accounting is kept exactly so the post-Stop
  // counter check is an equality, not a bound.
  constexpr size_t kThreads = 4;
  std::atomic<uint64_t> accepted{0}, offered{0}, opened{0}, closed{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      uint64_t rng = seed * 0x9E3779B97F4A7C15ull + t;
      std::vector<ShardedMonitorService::SessionId> mine;
      for (uint64_t i = 0; i < rounds; ++i) {
        switch (SplitMix64(&rng) % 5) {
          case 0: {  // open
            auto id = service.OpenSession(
                &(*runs_)[SplitMix64(&rng) % runs_->size()]);
            if (id.ok()) {
              mine.push_back(*id);
              opened.fetch_add(1);
            }
            break;
          }
          case 1:    // advance a random owned session
          case 2: {  // (twice as likely as open/close)
            if (mine.empty()) break;
            const auto id = mine[SplitMix64(&rng) % mine.size()];
            bool done = true;
            if (service.Progress(id, &done).ok() && !done) {
              (void)service.Advance(id);
            }
            break;
          }
          case 3: {  // close a random owned session
            if (mine.empty()) break;
            const size_t at = SplitMix64(&rng) % mine.size();
            if (service.CloseSession(mine[at]).ok()) closed.fetch_add(1);
            mine.erase(mine.begin() + static_cast<long>(at));
            break;
          }
          default: {  // push a record through the (faulty) ingest edge
            offered.fetch_add(1);
            if (queue.Push(
                    (*records_)[SplitMix64(&rng) % records_->size()])) {
              accepted.fetch_add(1);
            }
            break;
          }
        }
      }
      for (const auto id : mine) {
        if (service.CloseSession(id).ok()) closed.fetch_add(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  trainer.Stop();  // must return under the active fault storm

  // Exact accounting survived the storm: every offer is accepted-or-
  // dropped, every accepted record was drained by Stop, every open
  // session was closed, and injected failures match the trip counters.
  const uint64_t pushed = CounterValue(metrics, "rpe_ingest_pushed_total");
  const uint64_t dropped = CounterValue(metrics, "rpe_ingest_dropped_total");
  EXPECT_EQ(pushed, accepted.load());
  EXPECT_EQ(pushed + dropped, offered.load());
  EXPECT_LE(FailPoints::Trips("ingest.push"), dropped);
  EXPECT_EQ(CounterValue(metrics, "rpe_ingest_drained_total"), pushed);
  EXPECT_EQ(metrics.GetGauge("rpe_ingest_queue_depth")->Value(), 0);
  EXPECT_EQ(opened.load(), closed.load());
  EXPECT_EQ(service.num_open_sessions(), 0u);
  EXPECT_EQ(service.monitor().model_generation(),
            trainer.last_swap_generation());
  EXPECT_EQ(CounterValue(metrics, "rpe_retrain_failures_total"),
            FailPoints::Trips("trainer.retrain") +
                CounterValue(metrics, "rpe_publish_failures_total"));

  FailPoints::DisarmAll();
}

}  // namespace
}  // namespace rpe
