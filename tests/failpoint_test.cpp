// Fault-injection tests: the failpoint registry itself (trigger modes,
// spec parsing, sync hooks), graceful degradation of the online loop
// under injected retrain/snapshot/publish faults (bounded retry +
// backoff, quarantine, exact failure/recovery counters, clean Stop), and
// the mmap load path under injected open/mmap/madvise/short-read
// failures — a load either succeeds bit-identically or returns a Status,
// never a partial stack.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "common/failpoint.h"
#include "serving/ingest.h"
#include "serving/mmap_arena.h"
#include "serving/monitor_service.h"
#include "serving/snapshot.h"
#include "serving/trainer_loop.h"
#include "tests/test_util.h"

namespace rpe {
namespace {

using ::rpe::testing::CounterValue;
using ::rpe::testing::RandomRecords;

/// Arm a failpoint for the scope of one test; the disarm is exception-
/// and assertion-failure-safe.
class ScopedFailPoint {
 public:
  ScopedFailPoint(std::string name, FailPointSpec spec)
      : name_(std::move(name)) {
    FailPoints::Arm(name_, spec);
  }
  ~ScopedFailPoint() { FailPoints::Disarm(name_); }

 private:
  const std::string name_;
};

/// Per-process path: ctest runs each test of a suite in its own process,
/// concurrently under -j, and a suite fixture that writes and removes a
/// shared file would race its siblings.
std::string TempPath(const std::string& name) {
  return std::filesystem::temp_directory_path().string() + "/" +
         std::to_string(::getpid()) + "_" + name;
}

// ---------------------------------------------------------------------------
// Registry: trigger modes

TEST(FailPointRegistryTest, UnarmedSitesNeverTrip) {
  EXPECT_FALSE(RPE_INJECT_FAULT("fp.test.unarmed"));
  EXPECT_EQ(FailPoints::Hits("fp.test.unarmed"), 0u);
  EXPECT_EQ(FailPoints::Trips("fp.test.unarmed"), 0u);
}

TEST(FailPointRegistryTest, AlwaysTripsEveryHitUntilDisarmed) {
  const ScopedFailPoint fp("fp.test.always", FailPointSpec::Always());
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(RPE_INJECT_FAULT("fp.test.always"));
  EXPECT_EQ(FailPoints::Hits("fp.test.always"), 3u);
  EXPECT_EQ(FailPoints::Trips("fp.test.always"), 3u);

  FailPoints::Disarm("fp.test.always");
  EXPECT_FALSE(RPE_INJECT_FAULT("fp.test.always"));
  // Disarm dropped the counters with the state.
  EXPECT_EQ(FailPoints::Hits("fp.test.always"), 0u);
}

TEST(FailPointRegistryTest, NthTripsExactlyTheNthHitOnce) {
  const ScopedFailPoint fp("fp.test.nth", FailPointSpec::Nth(3));
  EXPECT_FALSE(RPE_INJECT_FAULT("fp.test.nth"));
  EXPECT_FALSE(RPE_INJECT_FAULT("fp.test.nth"));
  EXPECT_TRUE(RPE_INJECT_FAULT("fp.test.nth"));
  EXPECT_FALSE(RPE_INJECT_FAULT("fp.test.nth"));
  EXPECT_EQ(FailPoints::Hits("fp.test.nth"), 4u);
  EXPECT_EQ(FailPoints::Trips("fp.test.nth"), 1u);
}

TEST(FailPointRegistryTest, ProbabilityIsDeterministicInSeed) {
  constexpr int kHits = 64;
  std::array<std::array<bool, kHits>, 2> rounds;
  for (auto& round : rounds) {
    // Re-arming resets the PRNG stream, so both rounds replay the same
    // Bernoulli sequence — the property the fuzz/chaos harnesses rely on
    // to reproduce a failing seed.
    FailPoints::Arm("fp.test.prob", FailPointSpec::Probability(0.5, 42));
    for (int i = 0; i < kHits; ++i) {
      round[static_cast<size_t>(i)] = RPE_INJECT_FAULT("fp.test.prob");
    }
  }
  EXPECT_EQ(rounds[0], rounds[1]);
  const uint64_t trips = FailPoints::Trips("fp.test.prob");
  // p=0.5 over 64 hits: all-or-nothing would mean a broken PRNG.
  EXPECT_GT(trips, 0u);
  EXPECT_LT(trips, static_cast<uint64_t>(kHits));

  FailPoints::Arm("fp.test.prob", FailPointSpec::Probability(0.5, 43));
  std::array<bool, kHits> other;
  for (int i = 0; i < kHits; ++i) {
    other[static_cast<size_t>(i)] = RPE_INJECT_FAULT("fp.test.prob");
  }
  EXPECT_NE(rounds[0], other);  // a different seed is a different stream
  FailPoints::Disarm("fp.test.prob");
}

TEST(FailPointRegistryTest, ObserveCountsHitsAndWakesWaiters) {
  const ScopedFailPoint fp("fp.test.observe", FailPointSpec::Never());
  std::thread hitter([] {
    for (int i = 0; i < 5; ++i) {
      EXPECT_FALSE(RPE_INJECT_FAULT("fp.test.observe"));  // never trips
    }
  });
  EXPECT_TRUE(FailPoints::WaitForHits("fp.test.observe", 5,
                                      std::chrono::seconds(30)));
  hitter.join();
  EXPECT_EQ(FailPoints::Hits("fp.test.observe"), 5u);
  EXPECT_EQ(FailPoints::Trips("fp.test.observe"), 0u);

  // A count that is never reached times out instead of hanging.
  EXPECT_FALSE(FailPoints::WaitForHits("fp.test.observe", 6,
                                       std::chrono::milliseconds(10)));
}

TEST(FailPointRegistryTest, ArmedListsNamesAndDisarmAllClears) {
  FailPoints::Arm("fp.test.a", FailPointSpec::Always());
  FailPoints::Arm("fp.test.b", FailPointSpec::Nth(1));
  const auto armed = FailPoints::Armed();
  EXPECT_GE(armed.size(), 2u);
  EXPECT_NE(std::find(armed.begin(), armed.end(), "fp.test.a"), armed.end());
  EXPECT_NE(std::find(armed.begin(), armed.end(), "fp.test.b"), armed.end());
  FailPoints::DisarmAll();
  EXPECT_TRUE(FailPoints::Armed().empty());
  EXPECT_FALSE(RPE_INJECT_FAULT("fp.test.a"));
}

// ---------------------------------------------------------------------------
// Registry: RPE_FAILPOINTS spec grammar

TEST(FailPointSpecTest, ParsesEveryModeFromOneList) {
  ASSERT_TRUE(FailPoints::ArmFromSpec("fp.spec.a=always;fp.spec.b=nth:2,"
                                      "fp.spec.c=prob:0.25:seed=9;"
                                      "fp.spec.d=observe")
                  .ok());
  EXPECT_TRUE(RPE_INJECT_FAULT("fp.spec.a"));
  EXPECT_FALSE(RPE_INJECT_FAULT("fp.spec.b"));
  EXPECT_TRUE(RPE_INJECT_FAULT("fp.spec.b"));
  EXPECT_FALSE(RPE_INJECT_FAULT("fp.spec.d"));
  EXPECT_EQ(FailPoints::Hits("fp.spec.d"), 1u);
  EXPECT_EQ(FailPoints::Armed().size(), 4u);
  FailPoints::DisarmAll();
}

TEST(FailPointSpecTest, MalformedSpecsAreInvalidArgument) {
  for (const char* bad :
       {"fp.bad", "=always", "fp.bad=exploded", "fp.bad=nth:0",
        "fp.bad=nth:x", "fp.bad=prob:1.5", "fp.bad=prob:0.5:seed=x",
        "fp.bad=prob:0.5:sd=1"}) {
    const Status st = FailPoints::ArmFromSpec(bad);
    EXPECT_FALSE(st.ok()) << "accepted: " << bad;
    FailPoints::DisarmAll();  // entries before the bad one may have armed
  }
}

// ---------------------------------------------------------------------------
// TrainerLoop degradation (driven deterministically through RunOnce)

MartParams FpTinyParams() {
  MartParams params;
  params.num_trees = 6;
  params.tree.max_leaves = 8;
  params.seed = 7;
  return params;
}

TrainerLoop::Options FpTrainerOptions() {
  TrainerLoop::Options options;
  options.retrain_min_records = 32;
  options.min_corpus = 8;
  options.max_corpus = 256;
  options.pool = PoolOriginalThree();
  options.params = FpTinyParams();
  options.retry_backoff = std::chrono::milliseconds(0);
  options.retrain_quarantine = std::chrono::milliseconds(0);
  return options;
}

std::shared_ptr<const SelectorStack> FpTinyStack() {
  return std::make_shared<const SelectorStack>(SelectorStack::Train(
      RandomRecords(60, 21), PoolOriginalThree(), FpTinyParams()));
}

void PushThresholdBatch(RecordIngestQueue* queue, size_t base) {
  const auto pool = RandomRecords(8, 11);
  for (size_t i = 0; i < 32; ++i) {
    PipelineRecord r = pool[i % pool.size()];
    r.query = "q" + std::to_string(base + i);
    ASSERT_TRUE(queue->Push(std::move(r)));
  }
}

TEST(TrainerLoopFaultTest, InjectedPushFailureCountsAsDrop) {
  const ScopedFailPoint fp("ingest.push", FailPointSpec::Nth(2));
  const auto pool = RandomRecords(2, 3);
  RecordIngestQueue queue(16);
  EXPECT_TRUE(queue.Push(pool[0]));
  EXPECT_FALSE(queue.Push(pool[1]));  // injected: dropped, counted
  EXPECT_TRUE(queue.Push(pool[0]));
  EXPECT_EQ(queue.pushed(), 2u);
  EXPECT_EQ(queue.dropped(), 1u);  // exact accounting, injected or real
}

TEST(TrainerLoopFaultTest, SnapshotWriteRetryRecoversAndCounts) {
  const std::string path = TempPath("rpe_fp_snapshot_retry.rpsn");
  std::remove(path.c_str());
  MonitorService service(FpTinyStack());
  RecordIngestQueue queue(256);
  obs::MetricsRegistry metrics;
  TrainerLoop::Options options = FpTrainerOptions();
  options.snapshot_path = path;
  options.metrics = &metrics;
  TrainerLoop trainer(&queue, &service, options);

  // First write attempt fails, the first backoff retry succeeds.
  const ScopedFailPoint fp("snapshot.write", FailPointSpec::Nth(1));
  PushThresholdBatch(&queue, 0);
  trainer.RunOnce();

  EXPECT_EQ(CounterValue(metrics, "rpe_retrains_total"), 1u);
  EXPECT_EQ(CounterValue(metrics, "rpe_snapshot_write_retries_total"), 1u);
  EXPECT_EQ(CounterValue(metrics, "rpe_snapshot_write_failures_total"), 0u);
  EXPECT_EQ(service.model_generation(), 1u);
  // The retried write really landed: the snapshot round-trips.
  EXPECT_TRUE(LoadSelectorStack(path).ok());
  std::remove(path.c_str());
}

TEST(TrainerLoopFaultTest, SnapshotWriteExhaustionNeverBlocksPublish) {
  const std::string path = TempPath("rpe_fp_snapshot_exhaust.rpsn");
  std::remove(path.c_str());
  MonitorService service(FpTinyStack());
  RecordIngestQueue queue(256);
  obs::MetricsRegistry metrics;
  TrainerLoop::Options options = FpTrainerOptions();
  options.snapshot_path = path;
  options.snapshot_write_retries = 2;
  options.metrics = &metrics;
  TrainerLoop trainer(&queue, &service, options);

  const ScopedFailPoint fp("snapshot.write", FailPointSpec::Always());
  PushThresholdBatch(&queue, 0);
  trainer.RunOnce();

  // Losing the on-disk copy is survivable: the publish still went out and
  // the loss is an exact counter, not a log line.
  EXPECT_EQ(CounterValue(metrics, "rpe_retrains_total"), 1u);
  EXPECT_EQ(CounterValue(metrics, "rpe_snapshot_write_failures_total"), 1u);
  EXPECT_EQ(CounterValue(metrics, "rpe_snapshot_write_retries_total"), 2u);
  EXPECT_EQ(CounterValue(metrics, "rpe_retrain_failures_total"), 0u);
  EXPECT_EQ(service.model_generation(), 1u);
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(TrainerLoopFaultTest, RetrainFailureKeepsPreviousGenerationThenHeals) {
  auto initial = FpTinyStack();
  MonitorService service(initial);
  RecordIngestQueue queue(256);
  obs::MetricsRegistry metrics;
  TrainerLoop::Options options = FpTrainerOptions();
  options.metrics = &metrics;
  TrainerLoop trainer(&queue, &service, options);

  const ScopedFailPoint fp("trainer.retrain", FailPointSpec::Nth(1));
  PushThresholdBatch(&queue, 0);
  trainer.RunOnce();

  // The failed cycle published nothing: sessions keep the previous stack.
  EXPECT_EQ(CounterValue(metrics, "rpe_retrain_failures_total"), 1u);
  EXPECT_EQ(CounterValue(metrics, "rpe_retrains_total"), 0u);
  EXPECT_EQ(service.model_generation(), 0u);
  EXPECT_EQ(service.models().get(), initial.get());

  // The pending counters survived the failure, so the very next cycle
  // (zero quarantine here) retries without fresh records and heals.
  trainer.RunOnce();
  EXPECT_EQ(CounterValue(metrics, "rpe_retrains_total"), 1u);
  EXPECT_EQ(CounterValue(metrics, "rpe_retrain_recoveries_total"), 1u);
  EXPECT_EQ(CounterValue(metrics, "rpe_retrain_failures_total"), 1u);
  EXPECT_EQ(service.model_generation(), 1u);
}

TEST(TrainerLoopFaultTest, QuarantineDefersRetryAfterFailure) {
  MonitorService service(FpTinyStack());
  RecordIngestQueue queue(256);
  obs::MetricsRegistry metrics;
  TrainerLoop::Options options = FpTrainerOptions();
  options.retrain_quarantine = std::chrono::hours(1);
  options.metrics = &metrics;
  TrainerLoop trainer(&queue, &service, options);

  const ScopedFailPoint fp("trainer.retrain", FailPointSpec::Nth(1));
  PushThresholdBatch(&queue, 0);
  trainer.RunOnce();
  EXPECT_EQ(CounterValue(metrics, "rpe_retrain_failures_total"), 1u);

  // Inside the quarantine window nothing retrains — a persistent fault
  // must not become a training hot loop — and the failure count is exact:
  // one fault, one counted failure, no matter how often the loop runs.
  for (int i = 0; i < 3; ++i) trainer.RunOnce();
  EXPECT_EQ(CounterValue(metrics, "rpe_retrains_total"), 0u);
  EXPECT_EQ(CounterValue(metrics, "rpe_retrain_failures_total"), 1u);
  EXPECT_EQ(FailPoints::Hits("trainer.retrain"), 1u);
  EXPECT_EQ(service.model_generation(), 0u);
}

TEST(TrainerLoopFaultTest, PublishRetriesThenDropsStackAndHealsLater) {
  auto initial = FpTinyStack();
  MonitorService service(initial);
  RecordIngestQueue queue(256);
  obs::MetricsRegistry metrics;
  TrainerLoop::Options options = FpTrainerOptions();
  options.publish_retries = 2;
  options.metrics = &metrics;
  TrainerLoop trainer(&queue, &service, options);

  {
    const ScopedFailPoint fp("trainer.publish", FailPointSpec::Always());
    PushThresholdBatch(&queue, 0);
    trainer.RunOnce();
    EXPECT_EQ(CounterValue(metrics, "rpe_publish_failures_total"), 1u);
    EXPECT_EQ(CounterValue(metrics, "rpe_publish_retries_total"), 2u);
    EXPECT_EQ(CounterValue(metrics, "rpe_retrain_failures_total"), 1u);
    EXPECT_EQ(CounterValue(metrics, "rpe_retrains_total"), 0u);
    EXPECT_EQ(service.model_generation(), 0u);
    EXPECT_EQ(service.models().get(), initial.get());
  }

  // Fault cleared: the retained pending counters drive a retry, the
  // publish lands, and the heal is counted.
  trainer.RunOnce();
  EXPECT_EQ(CounterValue(metrics, "rpe_retrains_total"), 1u);
  EXPECT_EQ(CounterValue(metrics, "rpe_retrain_recoveries_total"), 1u);
  EXPECT_EQ(service.model_generation(), 1u);
}

TEST(TrainerLoopFaultTest, PublishRetryBeforeExhaustionSucceeds) {
  MonitorService service(FpTinyStack());
  RecordIngestQueue queue(256);
  obs::MetricsRegistry metrics;
  TrainerLoop::Options options = FpTrainerOptions();
  options.metrics = &metrics;
  TrainerLoop trainer(&queue, &service, options);

  // Trips the first attempt only; the first retry publishes.
  const ScopedFailPoint fp("trainer.publish", FailPointSpec::Nth(1));
  PushThresholdBatch(&queue, 0);
  trainer.RunOnce();
  EXPECT_EQ(CounterValue(metrics, "rpe_retrains_total"), 1u);
  EXPECT_EQ(CounterValue(metrics, "rpe_publish_retries_total"), 1u);
  EXPECT_EQ(CounterValue(metrics, "rpe_publish_failures_total"), 0u);
  EXPECT_EQ(service.model_generation(), 1u);
}

TEST(TrainerLoopFaultTest, StopCompletesCleanlyUnderPersistentFault) {
  MonitorService service(FpTinyStack());
  obs::MetricsRegistry metrics;
  RecordIngestQueue queue(256, &metrics);
  TrainerLoop::Options options = FpTrainerOptions();
  options.poll_interval = std::chrono::milliseconds(2);
  options.retrain_quarantine = std::chrono::hours(1);
  options.metrics = &metrics;
  TrainerLoop trainer(&queue, &service, options);

  const ScopedFailPoint fp("trainer.retrain", FailPointSpec::Always());
  trainer.Start();
  const auto pool = RandomRecords(8, 19);
  for (size_t i = 0; i < 80; ++i) {
    PipelineRecord r = pool[i % pool.size()];
    r.query = "q" + std::to_string(i);
    queue.Push(std::move(r));
  }
  ASSERT_TRUE(FailPoints::WaitForHits("trainer.retrain", 1,
                                      std::chrono::seconds(30)));
  trainer.Stop();  // must return despite the wedged retrain path

  EXPECT_EQ(CounterValue(metrics, "rpe_ingest_pushed_total"), 80u);
  // Stop still drains the tail.
  EXPECT_EQ(CounterValue(metrics, "rpe_ingest_drained_total"), 80u);
  EXPECT_GE(CounterValue(metrics, "rpe_retrain_failures_total"), 1u);
  EXPECT_EQ(CounterValue(metrics, "rpe_retrains_total"), 0u);
  EXPECT_EQ(service.model_generation(), 0u);
}

// ---------------------------------------------------------------------------
// Mmap / snapshot read paths under injected failures: a load either
// returns the bit-identical stack or a clean Status — never a partial
// stack, never UB.

class MmapFaultTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    records_ = new std::vector<PipelineRecord>(RandomRecords(60, 31));
    stack_ = new SelectorStack(
        SelectorStack::Train(*records_, PoolOriginalThree(), FpTinyParams()));
    path_ = new std::string(TempPath("rpe_fp_mmap.rpsn"));
    RPE_CHECK_OK(SaveSelectorStack(*stack_, *path_));
  }
  static void TearDownTestSuite() {
    std::remove(path_->c_str());
    delete records_;
    delete stack_;
    delete path_;
    records_ = nullptr;
    stack_ = nullptr;
    path_ = nullptr;
  }

  static void ExpectScoresMatchOriginal(const SelectorStack& loaded) {
    for (const PipelineRecord& r : *records_) {
      ASSERT_EQ(stack_->static_selector.PredictErrors(r.features),
                loaded.static_selector.PredictErrors(r.features));
      ASSERT_EQ(stack_->dynamic_selector.PredictErrors(r.features),
                loaded.dynamic_selector.PredictErrors(r.features));
    }
  }

  static std::vector<PipelineRecord>* records_;
  static SelectorStack* stack_;
  static std::string* path_;
};

std::vector<PipelineRecord>* MmapFaultTest::records_ = nullptr;
SelectorStack* MmapFaultTest::stack_ = nullptr;
std::string* MmapFaultTest::path_ = nullptr;

TEST_F(MmapFaultTest, InjectedOpenFailureIsACleanStatus) {
  const ScopedFailPoint fp("arena.open", FailPointSpec::Always());
  auto loaded = LoadSelectorStackMmap(*path_);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST_F(MmapFaultTest, InjectedMmapFailureIsACleanStatus) {
  const ScopedFailPoint fp("arena.mmap", FailPointSpec::Always());
  auto loaded = LoadSelectorStackMmap(*path_);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST_F(MmapFaultTest, InjectedMadviseFailureDegradesToUnprefaultedLoad) {
  // The MADV_WILLNEED prefault hint is advisory: when it fails, the
  // mapping must come up anyway (prefaulted() == false, a warning on
  // stderr) and load the exact same stack — slower, never wronger.
  const ScopedFailPoint fp("arena.madvise", FailPointSpec::Always());
  auto arena = MmapArena::Map(*path_);
  ASSERT_TRUE(arena.ok()) << arena.status().ToString();
  EXPECT_FALSE(arena.ValueOrDie()->prefaulted());
  auto loaded = LoadSelectorStackMmap(*path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded->stack->static_selector.has_models());
  ExpectScoresMatchOriginal(*loaded->stack);
}

TEST_F(MmapFaultTest, MadviseHintIsAppliedOnTheCleanPath) {
  auto arena = MmapArena::Map(*path_);
  ASSERT_TRUE(arena.ok()) << arena.status().ToString();
  EXPECT_TRUE(arena.ValueOrDie()->prefaulted());
}

TEST_F(MmapFaultTest, InjectedShortMapIsRejectedNeverPartiallyLoaded) {
  // A mapping that comes up half-length (torn truncation under the
  // reader) must fail container validation — not decode half a stack.
  const ScopedFailPoint fp("arena.short_map", FailPointSpec::Always());
  auto loaded = LoadSelectorStackMmap(*path_);
  EXPECT_FALSE(loaded.ok());
}

TEST_F(MmapFaultTest, InjectedReadFailuresFailTheHeapLoaderCleanly) {
  {
    const ScopedFailPoint fp("snapshot.read", FailPointSpec::Always());
    auto loaded = LoadSelectorStack(*path_);
    EXPECT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  }
  {
    // A short read surfaces as corruption (size/CRC), not as IOError and
    // never as a partially-decoded stack.
    const ScopedFailPoint fp("snapshot.read.short", FailPointSpec::Always());
    EXPECT_FALSE(LoadSelectorStack(*path_).ok());
  }
  {
    const ScopedFailPoint fp("snapshot.crc", FailPointSpec::Always());
    EXPECT_FALSE(LoadSelectorStack(*path_).ok());
    EXPECT_FALSE(LoadSelectorStackMmap(*path_).ok());
  }
}

TEST_F(MmapFaultTest, TransientFaultThenRetryLoadsBitIdentically) {
  // First load fails on the injected open fault; the retry (fault spent)
  // must return the exact same scores as an untouched load — transient
  // faults leave no residue.
  const ScopedFailPoint fp("arena.open", FailPointSpec::Nth(1));
  EXPECT_FALSE(LoadSelectorStackMmap(*path_).ok());
  auto retried = LoadSelectorStackMmap(*path_);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_FALSE(retried->stack->static_selector.has_models());
  ExpectScoresMatchOriginal(*retried->stack);
}

}  // namespace
}  // namespace rpe
