// MonitorService: the concurrent serving front of the deployed architecture
// (paper Figure 3). Many queries are monitored at once; each open session
// replays one recorded run through the online select-then-revise protocol
// of ProgressMonitor, and the service shards the per-observation scoring
// across the shared ThreadPool.
//
// Model ownership is an immutable-snapshot hot swap: the service holds a
// std::shared_ptr<const SelectorStack>, every session makes its estimator
// decisions against the snapshot that was current when it opened, and
// SwapModels atomically publishes a new stack for future sessions without
// stopping in-flight traffic — nothing is ever mutated after publication,
// so no scoring path takes a lock.
//
// Replay is deterministic: each session compiles its decisions at open
// into a ProgressMonitor::Stepper — the step kernel the sequential
// ProgressMonitor::ReplayQueryProgress runs — and every session writes
// only its own state, so the progress series is bit-identical at any
// thread count.
//
// The service is also the publish point of the online-learning loop
// (serving/ingest.h + serving/trainer_loop.h): SwapModels carries a
// monotonic model generation.
//
// Counters: every session, decision, observation and replay latency is
// accrued straight into cells of the obs::MetricsRegistry handed in via
// Options::metrics (docs/OBSERVABILITY.md is the catalog); there is no
// stats struct and no stats lock. A service whose registry is shared
// with the queue, the trainer and the TCP front-end describes the whole
// observe → record → retrain → publish cycle in one scrape.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "selection/monitor.h"
#include "serving/snapshot.h"

namespace rpe {

class ThreadPool;

/// \brief Publish target of the online-learning loop: anything that can
/// atomically swap in a new immutable model snapshot. MonitorService and
/// ShardedMonitorService (serving/shard_router.h) implement it; the
/// TrainerLoop publishes through it so retraining is agnostic to whether
/// the serving tier is sharded.
class ModelPublisher {
 public:
  virtual ~ModelPublisher() = default;

  /// Atomically publish a new snapshot; returns the new model generation
  /// (strictly increasing, construction-time snapshot = generation 0).
  virtual uint64_t SwapModels(
      std::shared_ptr<const SelectorStack> models) = 0;
};

/// \brief Concurrent progress-monitoring service over immutable model
/// snapshots. All public methods are thread-safe.
class MonitorService : public ModelPublisher {
 public:
  struct Options {
    /// Worker pool for ReplayAll; nullptr = the global pool.
    ThreadPool* pool = nullptr;
    /// Registry the service's counters and replay-latency histogram live
    /// in. nullptr = a service-private registry, so tests that assert
    /// exact per-service counters stay isolated from each other.
    obs::MetricsRegistry* metrics = nullptr;
  };

  using SessionId = uint64_t;

  explicit MonitorService(std::shared_ptr<const SelectorStack> models);
  MonitorService(std::shared_ptr<const SelectorStack> models,
                 Options options);

  /// Atomically publish a new model snapshot. Sessions opened before the
  /// swap keep the decisions they made at open (steps never read the
  /// models); only new sessions see the replacement. Returns the new
  /// model generation (strictly increasing; the construction-time
  /// snapshot is generation 0).
  uint64_t SwapModels(std::shared_ptr<const SelectorStack> models) override;
  std::shared_ptr<const SelectorStack> models() const;
  /// Generation of the currently published snapshot (number of swaps).
  uint64_t model_generation() const;

  /// Open a monitoring session over a recorded run. The per-pipeline
  /// estimator decisions (initial + revision) are made here, against the
  /// current snapshot — per-observation Advance work replays against
  /// these precomputed decisions and never scores a selector. `run` must
  /// outlive the session.
  Result<SessionId> OpenSession(const QueryRunResult* run);

  /// Open many sessions in one call; returns one SessionId per run, in
  /// order. The estimator decisions for every pipeline of every run score
  /// through one batched ProgressMonitor::DecideForRuns pass — full SIMD
  /// tiles across runs (common/simd.h) — and are bit-identical to opening
  /// each session individually against the same snapshot. A null run
  /// fails the whole call before any session is opened.
  Result<std::vector<SessionId>> OpenSessions(
      std::span<const QueryRunResult* const> runs);

  /// Advance the session by up to `max_steps` (>= 1) observations under
  /// one session lookup and one session lock, stopping early at the end
  /// of the run; returns the query progress reported at the last
  /// observation stepped. `taken`, when non-null, receives the number of
  /// steps; `done`, when non-null, what Done() would return right after
  /// them. OutOfRange, with no step taken, when the run's observation
  /// stream is already exhausted. Each step is its own "advance.step"
  /// span; rpe_observations_scored_total grows once, by the steps taken.
  /// Steps read no clock: a session driven by Advance accrues scoring
  /// time and replay latency for its decide pass at open only.
  Result<double> Advance(SessionId id, uint32_t max_steps, uint32_t* taken,
                         bool* done);

  /// Advance by one observation: Advance(id, 1, nullptr, done).
  Result<double> Advance(SessionId id, bool* done = nullptr);

  /// Last reported progress (0 before the first Advance); `done`, when
  /// non-null, receives Done() from the same lookup.
  Result<double> Progress(SessionId id, bool* done = nullptr) const;

  /// True once every observation of the session's run has been scored.
  Result<bool> Done(SessionId id) const;

  /// Close the session; a fully replayed session counts as completed and
  /// its replay latency enters rpe_replay_latency_seconds.
  Status CloseSession(SessionId id);

  size_t num_open_sessions() const;

  /// Replay whole runs concurrently, one session per entry; out[i] is
  /// bit-identical to ProgressMonitor::ReplayQueryProgress(*runs[i]) run
  /// sequentially against the same snapshot.
  std::vector<std::vector<double>> ReplayAll(
      std::span<const QueryRunResult* const> runs);

  /// The registry the service's counters live in (Options::metrics, or
  /// the service-private one).
  obs::MetricsRegistry& metrics() const { return *metrics_; }

 private:
  struct Session {
    const QueryRunResult* run = nullptr;
    /// The decisions made at open, compiled for stepping.
    ProgressMonitor::Stepper stepper;
    size_t next_obs = 0;
    double last_progress = 0.0;
    uint64_t elapsed_ns = 0;  ///< decide time at open (steps are untimed)
    /// Serializes calls on the same session; distinct sessions never
    /// contend.
    mutable std::mutex mu;
    Session(const QueryRunResult* r,
            std::span<const ProgressMonitor::PipelineDecision> decisions);
  };

  /// Find `id` and take its session lock. The map lock is held only until
  /// the session lock is taken (lock coupling), so a lookup pays no
  /// reference count; CloseSession unlinks under the map lock before it
  /// takes the session lock, so the session outlives `lock`. Returns
  /// nullptr, `lock` untouched, when no such session is open.
  Session* LockSession(SessionId id, std::unique_lock<std::mutex>* lock) const;
  void RecordCompletion(const Session& s);

  const Options options_;

  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* sessions_opened_ = nullptr;
  /// Fully replayed sessions (closed after the last step, or ReplayAll).
  obs::Counter* sessions_completed_ = nullptr;
  /// Estimator selections (initial + revised).
  obs::Counter* decisions_ = nullptr;
  obs::Counter* observations_scored_ = nullptr;
  /// Cumulative scoring time (decide passes and ReplayAll; Advance steps
  /// are untimed), the denominator of the rates.
  obs::Counter* scoring_ns_ = nullptr;
  /// Per-session full-replay latency, recorded at completion.
  obs::Histogram* replay_latency_ = nullptr;

  mutable std::mutex models_mu_;
  std::shared_ptr<const SelectorStack> models_;
  uint64_t model_generation_ = 0;

  mutable std::mutex sessions_mu_;
  SessionId next_id_ = 1;
  std::unordered_map<SessionId, std::shared_ptr<Session>> sessions_;
};

}  // namespace rpe
