// TrainerLoop: the retrain→publish half of the online-learning loop. A
// background thread drains record batches from a RecordIngestQueue, folds
// them into a bounded sliding training corpus (oldest records age out),
// and when the retrain thresholds trip it retrains the full SelectorStack
// on the ThreadPool, optionally writes an .rpsn snapshot, and publishes
// the new stack through MonitorService::SwapModels. In-flight sessions
// keep the decisions they made at open; only new sessions see the fresh
// models — the loop never stops traffic.
//
// Retrain triggers (checked after every drained batch):
//   * row count — at least `retrain_min_records` new records since the
//     last retrain (and a corpus of at least `min_corpus`), or
//   * staleness — `max_staleness` elapsed since the last retrain while at
//     least one new record is pending (0 disables the timer).
//
// Failure semantics (see docs/ROBUSTNESS.md): the loop degrades, it never
// stops serving. A failed snapshot write is retried with bounded
// exponential backoff and, when exhausted, counted — the publish still
// goes out. A failed retrain or publish quarantines the loop (exponential
// deferral of the next attempt) while sessions keep scoring on the last
// published generation; the pending-record counters stay set, so the next
// cycle out of quarantine retries, and a success is counted as a
// recovery. Every failure/retry/recovery is an exact counter in the
// obs::MetricsRegistry handed in via Options::metrics (rpe_retrain_*,
// rpe_snapshot_write_*, rpe_publish_* — docs/OBSERVABILITY.md). Stop()
// completes cleanly under any of these faults. The failure edges carry
// failpoints ("trainer.retrain", "trainer.publish", "snapshot.write" —
// see common/failpoint.h) so every path is deterministically testable.
//
// Threading contract: Start spawns the single consumer thread; Stop joins
// it and then performs one final synchronous drain + threshold check so
// every record accepted by the queue before Close/Stop is accounted for
// (pushed == drained). RunOnce is the same single step the thread
// executes, exposed publicly so tests and shutdown paths can drive the
// loop deterministically; it is serialized against the thread. The
// counters, retrains() and last_swap_generation() are thread-safe at any
// time.
//
// Determinism: training is thread-count-invariant (see MartParams), so
// for a fixed sequence of drained batches the published stacks are
// byte-identical no matter how the loop is scheduled.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serving/ingest.h"
#include "serving/monitor_service.h"

namespace rpe {

class TrainerLoop {
 public:
  struct Options {
    /// New records since the last retrain that trip the row-count trigger.
    size_t retrain_min_records = 64;
    /// Never train on fewer than this many corpus records.
    size_t min_corpus = 16;
    /// Sliding-window corpus bound; oldest records age out beyond it.
    size_t max_corpus = 4096;
    /// Max records pulled from the queue per drain.
    size_t drain_batch = 256;
    /// Consumer wake-up period when the queue is idle.
    std::chrono::milliseconds poll_interval{20};
    /// Staleness trigger: retrain after this long with pending records
    /// even if the row-count threshold has not tripped (0 = disabled).
    std::chrono::milliseconds max_staleness{0};
    /// Candidate estimator pool for the retrained selectors.
    std::vector<size_t> pool;
    /// MART training parameters (params.pool selects the worker pool).
    MartParams params;
    /// When non-empty, every retrained stack is also written here as a
    /// binary .rpsn snapshot. A failed write is retried up to
    /// `snapshot_write_retries` times with exponential backoff; exhausting
    /// the retries is counted but never blocks the publish.
    std::string snapshot_path;
    /// Retry attempts after a failed snapshot write (0 = no retries).
    size_t snapshot_write_retries = 3;
    /// Retry attempts after a failed model publish. Exhausting them drops
    /// the retrained stack and leaves the pending counters set, so a later
    /// cycle retrains and retries.
    size_t publish_retries = 3;
    /// First retry delay; doubles per attempt, capped at 64x. Applies to
    /// snapshot-write and publish retries.
    std::chrono::milliseconds retry_backoff{1};
    /// Quarantine after a failed retrain/publish cycle: the next retrain
    /// attempt is deferred by retrain_quarantine * 2^(consecutive failures
    /// - 1), capped at 64x, while the previous generation keeps serving.
    /// 0 disables the deferral (each trigger may retry immediately).
    std::chrono::milliseconds retrain_quarantine{100};
    /// Registry the loop's counters live in. nullptr = a loop-private
    /// registry, for test isolation.
    obs::MetricsRegistry* metrics = nullptr;
  };

  /// `queue` and `service` must outlive the loop. `service` is any
  /// publish target — a single MonitorService or the sharded router
  /// (serving/shard_router.h), which fans a publish out to every shard in
  /// one generation step. Nothing is trained or published until records
  /// arrive and thresholds trip.
  TrainerLoop(RecordIngestQueue* queue, ModelPublisher* service,
              Options options);
  ~TrainerLoop();  ///< calls Stop()

  TrainerLoop(const TrainerLoop&) = delete;
  TrainerLoop& operator=(const TrainerLoop&) = delete;

  /// Spawn the background consumer thread (idempotent).
  void Start();

  /// Stop the background thread (if running), Close() the queue so live
  /// producers cannot refill it, then drain whatever was accepted and
  /// run one last threshold check. Idempotent; records offered after
  /// Stop are drop-counted by the queue.
  void Stop();

  /// Seed the sliding corpus (e.g. with the records the initial stack was
  /// trained on) without counting toward the retrain threshold. Must be
  /// called before Start.
  void SeedCorpus(std::vector<PipelineRecord> records);

  /// One synchronous consumer step: drain up to drain_batch records,
  /// merge, retrain + publish if a trigger trips. Returns the number of
  /// records drained. Exposed for deterministic tests; safe to call
  /// while the thread runs (steps are serialized).
  size_t RunOnce();

  /// Completed retrain + publish cycles (rpe_retrains_total).
  uint64_t retrains() const { return retrains_->Value(); }
  /// MonitorService generation of the most recent publish (0 = none yet).
  uint64_t last_swap_generation() const {
    return static_cast<uint64_t>(last_swap_generation_->Value());
  }

 private:
  void ThreadMain();
  /// Fold a drained batch into the sliding corpus (caller holds run_mu_).
  void MergeBatchLocked(std::vector<PipelineRecord>* batch);
  /// Retrain + publish if a trigger trips (caller holds run_mu_).
  void MaybeRetrainLocked();
  /// Record a failed retrain/publish cycle and enter quarantine (caller
  /// holds run_mu_).
  void FailCycleLocked(const char* what);

  RecordIngestQueue* const queue_;
  ModelPublisher* const service_;
  const Options options_;

  /// Serializes consumer steps (background thread vs. RunOnce callers).
  mutable std::mutex run_mu_;
  std::deque<PipelineRecord> corpus_;      // guarded by run_mu_
  size_t new_since_retrain_ = 0;           // guarded by run_mu_
  std::chrono::steady_clock::time_point last_retrain_time_;  // run_mu_
  bool has_pending_since_ = false;         // guarded by run_mu_

  /// Consecutive failed retrain/publish cycles; sets the quarantine
  /// deferral and is reset (counting a recovery) by the next success.
  /// Guarded by run_mu_.
  uint64_t consecutive_failures_ = 0;
  std::chrono::steady_clock::time_point quarantine_until_;  // run_mu_

  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  obs::Counter* retrains_ = nullptr;
  /// Retrain cycles that failed before anything was published.
  obs::Counter* retrain_failures_ = nullptr;
  /// Successful cycles that ended a failure streak.
  obs::Counter* retrain_recoveries_ = nullptr;
  /// Snapshot writes that failed after every retry (publish proceeded).
  obs::Counter* snapshot_write_failures_ = nullptr;
  obs::Counter* snapshot_write_retries_ = nullptr;  ///< beyond each first try
  /// Publishes abandoned after every retry (previous generation serves).
  obs::Counter* publish_failures_ = nullptr;
  obs::Counter* publish_retries_ = nullptr;  ///< beyond each first try
  /// Corpus size after the latest merge or retrain.
  obs::Gauge* corpus_size_ = nullptr;
  obs::Gauge* last_retrain_ms_ = nullptr;  ///< whole milliseconds
  obs::Gauge* last_swap_generation_ = nullptr;

  std::atomic<bool> stop_{false};
  bool started_ = false;  // guarded by lifecycle_mu_
  std::mutex lifecycle_mu_;
  std::thread thread_;
};

}  // namespace rpe
