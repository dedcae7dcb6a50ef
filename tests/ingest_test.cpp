// Online-learning loop tests: exact drop accounting on the bounded ingest
// queue, deterministic retrain-threshold triggering, swap-generation
// monotonicity through MonitorService, and the record-emission hooks.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "exec/executor.h"
#include "harness/runner.h"
#include "serving/ingest.h"
#include "serving/monitor_service.h"
#include "serving/trainer_loop.h"
#include "tests/test_util.h"

namespace rpe {
namespace {

using ::rpe::testing::CounterValue;
using ::rpe::testing::MakeSmallCatalog;
using ::rpe::testing::RandomRecords;

PipelineRecord LabeledRecord(const std::vector<PipelineRecord>& pool,
                             size_t i) {
  PipelineRecord r = pool[i % pool.size()];
  r.query = "q" + std::to_string(i);
  return r;
}

/// Observe-only failpoint armed for the scope of one test: WaitForHits
/// replaces sleep-based synchronization, and the disarm is exception- and
/// assertion-failure-safe.
class ScopedObserve {
 public:
  explicit ScopedObserve(std::string name) : name_(std::move(name)) {
    FailPoints::Observe(name_);
  }
  ~ScopedObserve() { FailPoints::Disarm(name_); }
  bool WaitForHits(uint64_t n, std::chrono::seconds timeout =
                                   std::chrono::seconds(30)) const {
    return FailPoints::WaitForHits(name_, n, timeout);
  }

 private:
  const std::string name_;
};

MartParams TinyParams() {
  MartParams params;
  params.num_trees = 6;
  params.tree.max_leaves = 8;
  params.seed = 7;
  return params;
}

TrainerLoop::Options TinyTrainerOptions() {
  TrainerLoop::Options options;
  options.retrain_min_records = 32;
  options.min_corpus = 8;
  options.max_corpus = 256;
  options.pool = PoolOriginalThree();
  options.params = TinyParams();
  return options;
}

std::shared_ptr<const SelectorStack> TinyStack(uint64_t record_seed,
                                               uint64_t train_seed) {
  MartParams params = TinyParams();
  params.seed = train_seed;
  return std::make_shared<const SelectorStack>(SelectorStack::Train(
      RandomRecords(60, record_seed), PoolOriginalThree(), params));
}

// ---------------------------------------------------------------------------
// RecordIngestQueue

TEST(RecordIngestQueueTest, DropAccountingIsExactUnderBackpressure) {
  const auto pool = RandomRecords(4, 3);
  obs::MetricsRegistry metrics;
  RecordIngestQueue queue(8, &metrics);
  size_t accepted = 0, rejected = 0;
  for (size_t i = 0; i < 20; ++i) {
    if (queue.Push(LabeledRecord(pool, i))) {
      ++accepted;
    } else {
      ++rejected;
    }
  }
  // Exactly capacity records fit; every further offer is dropped and
  // counted — nothing is lost silently.
  EXPECT_EQ(accepted, 8u);
  EXPECT_EQ(rejected, 12u);
  EXPECT_EQ(queue.pushed(), 8u);
  EXPECT_EQ(queue.dropped(), 12u);
  EXPECT_EQ(queue.size(), 8u);

  std::vector<PipelineRecord> out;
  EXPECT_EQ(queue.DrainBatch(&out, 5), 5u);
  ASSERT_EQ(out.size(), 5u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].query, "q" + std::to_string(i));  // FIFO order
  }
  EXPECT_EQ(queue.DrainBatch(&out, 100), 3u);
  EXPECT_EQ(queue.size(), 0u);

  EXPECT_EQ(CounterValue(metrics, "rpe_ingest_pushed_total"), 8u);
  EXPECT_EQ(CounterValue(metrics, "rpe_ingest_dropped_total"), 12u);
  EXPECT_EQ(CounterValue(metrics, "rpe_ingest_drained_total"), 8u);
  EXPECT_EQ(CounterValue(metrics, "rpe_ingest_batches_total"), 2u);
  EXPECT_EQ(metrics.GetGauge("rpe_ingest_queue_depth")->Value(), 0);

  // After capacity frees up, pushes are accepted again.
  EXPECT_TRUE(queue.Push(LabeledRecord(pool, 99)));
  // ... but never after Close; late offers count as dropped.
  queue.Close();
  EXPECT_FALSE(queue.Push(LabeledRecord(pool, 100)));
  EXPECT_EQ(queue.dropped(), 13u);
  // Records queued before Close stay drainable.
  out.clear();
  EXPECT_EQ(queue.DrainBatch(&out, 100), 1u);
  EXPECT_EQ(out[0].query, "q99");
}

TEST(RecordIngestQueueTest, WaitAndDrainWakesOnPushAndOnClose) {
  const auto pool = RandomRecords(2, 5);
  RecordIngestQueue queue(16);
  // The "ingest.wait" sync hook fires as the consumer enters WaitAndDrain,
  // so each producer thread acts only once the consumer is really parked —
  // the wakeup itself is what's under test, with no sleep-tuned race.
  const ScopedObserve entered("ingest.wait");

  std::thread producer([&] {
    EXPECT_TRUE(entered.WaitForHits(1));
    queue.Push(LabeledRecord(pool, 0));
  });
  std::vector<PipelineRecord> out;
  // Far below the 30s timeout: the push must wake the consumer.
  EXPECT_EQ(queue.WaitAndDrain(&out, 8, std::chrono::seconds(30)), 1u);
  producer.join();

  std::thread closer([&] {
    EXPECT_TRUE(entered.WaitForHits(2));
    queue.Close();
  });
  out.clear();
  EXPECT_EQ(queue.WaitAndDrain(&out, 8, std::chrono::seconds(30)), 0u);
  EXPECT_TRUE(queue.closed());
  closer.join();
}

// ---------------------------------------------------------------------------
// TrainerLoop

TEST(TrainerLoopTest, RetrainThresholdTriggersDeterministically) {
  const auto pool = RandomRecords(8, 11);
  auto initial = TinyStack(21, 9);
  // One registry for the service, queue and trainer, as rpe_cli wires it.
  obs::MetricsRegistry metrics;
  MonitorService::Options service_options;
  service_options.metrics = &metrics;
  MonitorService service(initial, service_options);
  RecordIngestQueue queue(256, &metrics);
  TrainerLoop::Options trainer_options = TinyTrainerOptions();
  trainer_options.metrics = &metrics;
  TrainerLoop trainer(&queue, &service, trainer_options);

  // One below the row-count threshold: drain happens, no retrain.
  for (size_t i = 0; i < 31; ++i) queue.Push(LabeledRecord(pool, i));
  EXPECT_EQ(trainer.RunOnce(), 31u);
  EXPECT_EQ(trainer.retrains(), 0u);
  EXPECT_EQ(service.model_generation(), 0u);
  EXPECT_EQ(service.models().get(), initial.get());

  // The 32nd record trips the threshold: exactly one retrain + publish.
  queue.Push(LabeledRecord(pool, 31));
  EXPECT_EQ(trainer.RunOnce(), 1u);
  EXPECT_EQ(trainer.retrains(), 1u);
  EXPECT_EQ(service.model_generation(), 1u);
  EXPECT_NE(service.models().get(), initial.get());

  // An empty step never retrains (the new-record counter was reset).
  EXPECT_EQ(trainer.RunOnce(), 0u);
  EXPECT_EQ(trainer.retrains(), 1u);

  // Exactly one more threshold's worth: exactly one more retrain.
  for (size_t i = 0; i < 32; ++i) queue.Push(LabeledRecord(pool, 100 + i));
  EXPECT_EQ(trainer.RunOnce(), 32u);
  EXPECT_EQ(trainer.retrains(), 2u);
  EXPECT_EQ(service.model_generation(), 2u);

  EXPECT_EQ(CounterValue(metrics, "rpe_retrains_total"), 2u);
  EXPECT_EQ(metrics.GetGauge("rpe_last_swap_generation")->Value(), 2);
  EXPECT_EQ(CounterValue(metrics, "rpe_ingest_pushed_total"), 64u);
  EXPECT_EQ(CounterValue(metrics, "rpe_ingest_drained_total"), 64u);
  EXPECT_EQ(CounterValue(metrics, "rpe_ingest_dropped_total"), 0u);
  EXPECT_EQ(metrics.GetGauge("rpe_training_corpus_size")->Value(), 64);
  EXPECT_GT(metrics.GetGauge("rpe_last_retrain_ms")->Value(), 0);
}

TEST(TrainerLoopTest, SameRecordStreamPublishesByteIdenticalStacks) {
  const auto pool = RandomRecords(8, 13);
  std::string encodings[2];
  for (int round = 0; round < 2; ++round) {
    MonitorService service(TinyStack(21, 9));
    RecordIngestQueue queue(256);
    TrainerLoop trainer(&queue, &service, TinyTrainerOptions());
    for (size_t i = 0; i < 48; ++i) queue.Push(LabeledRecord(pool, i));
    trainer.RunOnce();
    ASSERT_EQ(trainer.retrains(), 1u);
    encodings[round] = EncodeSelectorStack(*service.models());
  }
  // Retraining is deterministic in the drained sequence, so the published
  // snapshots agree byte for byte across runs.
  EXPECT_EQ(encodings[0], encodings[1]);
}

TEST(TrainerLoopTest, SlidingCorpusAgesOutOldestRecords) {
  const auto pool = RandomRecords(8, 17);
  MonitorService service(TinyStack(21, 9));
  RecordIngestQueue queue(512);
  obs::MetricsRegistry metrics;
  TrainerLoop::Options options = TinyTrainerOptions();
  options.max_corpus = 40;
  options.metrics = &metrics;
  TrainerLoop trainer(&queue, &service, options);
  for (size_t i = 0; i < 100; ++i) queue.Push(LabeledRecord(pool, i));
  while (trainer.RunOnce() > 0) {
  }
  EXPECT_EQ(metrics.GetGauge("rpe_training_corpus_size")->Value(), 40);
}

TEST(TrainerLoopTest, BackgroundThreadRetrainsAndStopDrainsTail) {
  const auto pool = RandomRecords(8, 19);
  MonitorService service(TinyStack(21, 9));
  obs::MetricsRegistry metrics;
  RecordIngestQueue queue(256, &metrics);
  TrainerLoop::Options options = TinyTrainerOptions();
  options.poll_interval = std::chrono::milliseconds(2);
  TrainerLoop trainer(&queue, &service, options);
  // "trainer.retrain.done" fires after each successful publish: wait on
  // the hook instead of polling retrains() on a sleep loop.
  const ScopedObserve published("trainer.retrain.done");
  trainer.Start();
  for (size_t i = 0; i < 80; ++i) queue.Push(LabeledRecord(pool, i));
  EXPECT_TRUE(published.WaitForHits(1));
  EXPECT_GE(trainer.retrains(), 1u);
  queue.Close();
  trainer.Stop();
  // Stop's final drain accounts for every accepted record.
  EXPECT_EQ(CounterValue(metrics, "rpe_ingest_pushed_total"), 80u);
  EXPECT_EQ(CounterValue(metrics, "rpe_ingest_drained_total"), 80u);
  EXPECT_EQ(metrics.GetGauge("rpe_ingest_queue_depth")->Value(), 0);
  EXPECT_EQ(service.model_generation(), trainer.last_swap_generation());
}

// ---------------------------------------------------------------------------
// Swap-generation monotonicity

TEST(MonitorServiceGenerationTest, SwapGenerationIsStrictlyMonotonic) {
  MonitorService service(TinyStack(21, 9));
  EXPECT_EQ(service.model_generation(), 0u);
  uint64_t last = 0;
  for (int i = 0; i < 5; ++i) {
    const uint64_t gen =
        service.SwapModels(TinyStack(30 + static_cast<uint64_t>(i), 9));
    EXPECT_EQ(gen, last + 1);
    EXPECT_EQ(service.model_generation(), gen);
    last = gen;
  }
}

// ---------------------------------------------------------------------------
// Record-emission hooks

TEST(EmissionHookTest, ExecutorInvokesOnRunComplete) {
  auto catalog = MakeSmallCatalog();
  auto root = MakeTableScan("t_fact");
  root->est_rows = 1000.0;
  auto plan = FinalizePlan(std::move(root), *catalog);
  ASSERT_TRUE(plan.ok());

  RecordIngestQueue queue(64);
  ExecOptions options;
  int calls = 0;
  options.on_run_complete = [&](const QueryRunResult& run) {
    ++calls;
    // The hooked run is fully assembled: featurize + enqueue its
    // pipelines exactly as a live ingest tap would.
    for (const Pipeline& pipeline : run.pipelines) {
      PipelineView view{&run, &pipeline};
      PipelineRecord record;
      if (MakeRecord(view, "hook", "q", "", &record)) {
        queue.Push(std::move(record));
      }
    }
  };
  auto result = ExecutePlan(**plan, *catalog, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(queue.pushed(), queue.size());
  EXPECT_GT(queue.pushed(), 0u);
}

TEST(EmissionHookTest, RunWorkloadStreamsEveryRecordThroughOnRecord) {
  WorkloadConfig config;
  config.kind = WorkloadKind::kTpch;
  config.name = "tpch-hook";
  config.scale = 2.0;
  config.zipf = 1.0;
  config.tuning = TuningLevel::kPartiallyTuned;
  config.num_queries = 8;
  config.seed = 77;
  auto workload = BuildWorkload(config);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();

  RunOptions options;
  std::vector<std::string> streamed;
  options.on_record = [&](const PipelineRecord& r) {
    streamed.push_back(r.query + "/" + std::to_string(r.pipeline_id));
  };
  auto records = RunWorkload(*workload, options);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(streamed.size(), records->size());
  for (size_t i = 0; i < records->size(); ++i) {
    // Streamed in execution order, one call per returned record.
    EXPECT_EQ(streamed[i], (*records)[i].query + "/" +
                               std::to_string((*records)[i].pipeline_id));
  }
}

}  // namespace
}  // namespace rpe
