// MonitorService: the concurrent serving front of the deployed architecture
// (paper Figure 3). Many queries are monitored at once; each open session
// replays one recorded run through the online select-then-revise protocol
// of ProgressMonitor: the estimators are chosen once at OpenSession, and
// each Advance steps one or more observations against those choices.
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
// A session is a plain movable value (MonitorService::Session). Open
// decides and returns one, Step advances it, Close records its end; none
// of the three takes a lock or looks anything up, so the owner of a
// session — a TCP connection (serving/server.h) — steps it with no shared
// state at all. The id-keyed OpenSession/Advance/Progress/CloseSession API
// is a thin wrapper over those three calls that keeps sessions in a
// mutex-guarded map, for in-process callers that share sessions across
// threads.
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
#include <unordered_map>

#include "obs/metrics.h"
#include "selection/monitor.h"
#include "serving/snapshot.h"

namespace rpe {

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
/// snapshots. All public methods are thread-safe; a Session value is
/// stepped by one thread at a time, its owner's.
class MonitorService : public ModelPublisher {
 public:
  struct Options {
    /// Registry the service's counters and replay-latency histogram live
    /// in. nullptr = a service-private registry, so tests that assert
    /// exact per-service counters stay isolated from each other.
    obs::MetricsRegistry* metrics = nullptr;
  };

  using SessionId = uint64_t;

  /// One monitoring session, owned by value by whoever opened it. Only
  /// Step writes it; moving it between owners is free of side effects.
  struct Session {
    const QueryRunResult* run = nullptr;
    /// The decisions made at open, compiled for stepping.
    ProgressMonitor::Stepper stepper;
    size_t next_obs = 0;
    double last_progress = 0.0;  ///< 0 before the first step
    uint64_t elapsed_ns = 0;     ///< decide time at open (steps are untimed)

    /// Every observation of the run has been stepped.
    bool done() const { return next_obs >= run->observations.size(); }
  };

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
  /// current snapshot — per-observation steps replay against these
  /// precomputed decisions and never score a selector. Accrues the opened,
  /// decisions and scoring-time counters. `run` must outlive the session.
  Result<Session> Open(const QueryRunResult* run);

  /// Step `session` by up to `max_steps` (>= 1) observations, stopping
  /// early at the end of the run; returns the query progress reported at
  /// the last observation stepped. `taken`, when non-null, receives the
  /// number of steps; `done`, when non-null, whether the run's observation
  /// stream is exhausted right after them. OutOfRange, with no step
  /// taken, when the stream is already exhausted. Each step is its own
  /// "advance.step" span (arg = observation index). Reads no clock and
  /// accrues no counter: the caller accrues rpe_observations_scored_total
  /// by the steps taken, at whatever grain it batches.
  static Result<double> Step(Session* session, uint32_t max_steps,
                             uint32_t* taken, bool* done);

  /// End `session`: a fully stepped one counts as completed and its
  /// replay latency (decide time at open) enters
  /// rpe_replay_latency_seconds.
  void Close(const Session& session);

  /// Open a session (Open) and keep it in the service's map under a new
  /// id, nonzero and never reused by this service.
  Result<SessionId> OpenSession(const QueryRunResult* run);

  /// Step the session `id` (Step) under one map lookup and one session
  /// lock, and accrue rpe_observations_scored_total by the steps taken.
  Result<double> Advance(SessionId id, uint32_t max_steps, uint32_t* taken,
                         bool* done);

  /// Advance by one observation: Advance(id, 1, nullptr, done).
  Result<double> Advance(SessionId id, bool* done = nullptr);

  /// Last reported progress (0 before the first Advance); `done`, when
  /// non-null, receives from the same lookup whether every observation
  /// of the session's run has been stepped.
  Result<double> Progress(SessionId id, bool* done = nullptr) const;

  /// Remove the session `id` from the map and Close it.
  Status CloseSession(SessionId id);

  size_t num_open_sessions() const;

  /// The registry the service's counters live in (Options::metrics, or
  /// the service-private one).
  obs::MetricsRegistry& metrics() const { return *metrics_; }

 private:
  /// A session of the id-keyed API: the value plus the lock that
  /// serializes calls on it (distinct sessions never contend).
  struct MappedSession {
    Session session;
    mutable std::mutex mu;
    explicit MappedSession(Session s) : session(std::move(s)) {}
  };

  /// Find `id` and take its session lock. The map lock is held only until
  /// the session lock is taken (lock coupling), so a lookup pays no
  /// reference count; CloseSession unlinks under the map lock before it
  /// takes the session lock, so the session outlives `lock`. Returns
  /// nullptr, `lock` untouched, when no such session is open.
  MappedSession* LockSession(SessionId id,
                             std::unique_lock<std::mutex>* lock) const;

  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* sessions_opened_ = nullptr;
  /// Fully replayed sessions (closed after the last step).
  obs::Counter* sessions_completed_ = nullptr;
  /// Estimator selections (initial + revised).
  obs::Counter* decisions_ = nullptr;
  obs::Counter* observations_scored_ = nullptr;
  /// Cumulative scoring time: the decide pass at open (Advance steps are
  /// untimed), the denominator of rpe_decisions_per_sec.
  obs::Counter* scoring_ns_ = nullptr;
  /// Per-session full-replay latency, recorded at completion.
  obs::Histogram* replay_latency_ = nullptr;

  mutable std::mutex models_mu_;
  std::shared_ptr<const SelectorStack> models_;
  uint64_t model_generation_ = 0;

  mutable std::mutex sessions_mu_;
  SessionId next_id_ = 1;
  std::unordered_map<SessionId, std::shared_ptr<MappedSession>> sessions_;
};

}  // namespace rpe
