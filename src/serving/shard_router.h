// ShardedMonitorService: the id-keyed session API over one MonitorService,
// for in-process callers that share sessions across threads (tests, the
// chaos drill, bench_micro, perfbench's layer timings). The TCP
// front-end does not use it: a connection owns its sessions by value.
//
// One MonitorService holds the model snapshot, its generation and the
// counters; the router adds only the id map, hash-partitioned into N
// independently locked partitions so unrelated sessions rarely contend.
// A partition's lock covers its map and every step of its sessions, so
// calls on one partition serialize; a step is a few table reads, and the
// partition count spreads callers over as many locks.
//
// Routing: OpenSession picks a partition by hashing a monotone open
// ticket (splitmix64 — uniform spread without coordination) and returns a
// global id that encodes the partition: global = local * num_shards +
// partition. Every later call derives the partition from the id alone;
// there is no central session table.
//
// Publish: monitor().SwapModels is the only publish path; every session
// decides at open against the snapshot current then, whatever its
// partition.
//
// Determinism: partitions only hold sessions; each session's replay is
// the same deterministic observation walk MonitorService performs, so a
// routed replay is bit-identical at any partition and thread count.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "serving/monitor_service.h"

namespace rpe {

/// \brief Id-keyed sessions over one MonitorService. All public methods
/// are thread-safe.
class ShardedMonitorService {
 public:
  struct Options {
    /// Number of id-map partitions; must be >= 1. Any count works.
    size_t num_shards = 4;
    /// Registry the service's counters live in. nullptr = a
    /// router-private registry, for test isolation.
    obs::MetricsRegistry* metrics = nullptr;
  };

  using SessionId = uint64_t;

  ShardedMonitorService(std::shared_ptr<const SelectorStack> models,
                        Options options);

  size_t num_shards() const { return partitions_.size(); }

  /// The one service every session opens on; publish through it.
  MonitorService& monitor() { return monitor_; }

  /// Open a session (MonitorService::Open) in a hashed partition under a
  /// new id, nonzero and never reused by this router.
  Result<SessionId> OpenSession(const QueryRunResult* run);
  /// Open in an explicit partition instead of the hashed ticket, for
  /// callers that pin their sessions themselves. The returned id routes
  /// through the normal Advance/Progress/Close calls.
  Result<SessionId> OpenSessionOnShard(const QueryRunResult* run,
                                       size_t shard);
  /// Step the session `id` (MonitorService::Step) under its partition
  /// lock, and accrue rpe_observations_scored_total by the steps taken.
  Result<double> Advance(SessionId id, uint32_t max_steps, uint32_t* taken,
                         bool* done);
  /// Advance by one observation: Advance(id, 1, nullptr, done).
  Result<double> Advance(SessionId id, bool* done = nullptr);
  /// Last reported progress (0 before the first Advance); `done`, when
  /// non-null, receives whether every observation of the session's run
  /// has been stepped.
  Result<double> Progress(SessionId id, bool* done = nullptr) const;
  /// Remove the session `id` and Close it.
  Status CloseSession(SessionId id);
  size_t num_open_sessions() const;  ///< sum over partitions

  /// The registry the service's counters live in (Options::metrics, or
  /// the router-private one).
  obs::MetricsRegistry& metrics() const { return monitor_.metrics(); }

 private:
  /// One lock-guarded slice of the id map.
  struct Partition {
    mutable std::mutex mu;
    SessionId next_local = 1;  ///< guarded by mu
    std::unordered_map<SessionId, MonitorService::Session> sessions;
  };

  size_t PartitionOf(SessionId id) const { return id % partitions_.size(); }
  SessionId LocalId(SessionId id) const { return id / partitions_.size(); }

  MonitorService monitor_;
  obs::Counter* observations_scored_ = nullptr;
  std::vector<Partition> partitions_;

  /// Monotone open ticket; hashed to pick the partition of a new session.
  std::atomic<uint64_t> open_ticket_{0};
};

}  // namespace rpe
