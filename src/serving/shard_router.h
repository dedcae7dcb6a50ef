// ShardedMonitorService: the scale-out front of the serving tier. One
// mutex-guarded session map is fine for hundreds of concurrent queries;
// at tens of thousands of open sessions every OpenSession/Advance/Close
// serializes on the same two locks. The router hash-partitions sessions
// across N fully independent MonitorService shards — each with its own
// session map and locks — so unrelated sessions never contend and the
// data-path cost of routing is two arithmetic ops on the session id.
//
// Routing: OpenSession picks a shard by hashing a monotone open ticket
// (splitmix64 — uniform spread without coordination) and returns a global
// id that encodes the shard: global = local * num_shards + shard. Every
// later call derives the shard from the id alone; there is no central
// session table.
//
// Publish: SwapModels fans out to every shard under one router lock, so a
// publish is observed by all shards as one generation step — after any
// SwapModels returns, every shard reports the same generation. The
// rpe_model_generation gauge is set once per fan-out, under the same
// lock, after every shard has stepped. The router is the TrainerLoop's
// ModelPublisher, so the online-learning loop drives all shards with one
// call.
//
// Determinism: shards only partition sessions; each session's replay is
// the same deterministic observation walk MonitorService performs, so a
// sharded replay is bit-identical to an unsharded one at any shard count
// and any thread count.
//
// Metrics: every shard accrues into the router's registry, so each
// counter is one cell shared by all shards (exact sums by construction)
// and the replay-latency histogram pools every session. The router adds
// one scrape-time collector for the values derived only when scraped:
// rpe_shards, rpe_shard_sessions_open{shard}, p50/p95 replay latency and
// the decisions-per-second rate.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "serving/monitor_service.h"

namespace rpe {

/// \brief Hash-partitioned MonitorService pool behind one service
/// interface. All public methods are thread-safe.
class ShardedMonitorService : public ModelPublisher {
 public:
  struct Options {
    /// Number of independent shards; must be >= 1. Powers of two give the
    /// cheapest routing but any count works.
    size_t num_shards = 4;
    /// Registry every shard's counters live in (see file comment).
    /// nullptr = a router-private registry, for test isolation.
    obs::MetricsRegistry* metrics = nullptr;
  };

  using SessionId = MonitorService::SessionId;

  ShardedMonitorService(std::shared_ptr<const SelectorStack> models,
                        Options options);
  ~ShardedMonitorService();  ///< removes the scrape-time collector

  /// The registry's collector holds `this`.
  ShardedMonitorService(const ShardedMonitorService&) = delete;
  ShardedMonitorService& operator=(const ShardedMonitorService&) = delete;

  size_t num_shards() const { return shards_.size(); }

  /// Fan the publish out to every shard in one generation step (see file
  /// comment). Returns the new generation, identical on every shard.
  uint64_t SwapModels(std::shared_ptr<const SelectorStack> models) override;
  /// Generation every shard has observed ("published everywhere"): the
  /// rpe_model_generation gauge, written once each fan-out completes.
  uint64_t model_generation() const;

  /// Session API, routed by id; semantics identical to MonitorService.
  Result<SessionId> OpenSession(const QueryRunResult* run);
  /// Open on an explicit shard instead of the hashed ticket. The TCP
  /// front-end (serving/server.h) pins each connection to one IO thread
  /// and opens that connection's sessions on the aligned shard, so every
  /// later Advance/Progress/Close from the connection touches only locks
  /// its own IO thread already owns. The returned id routes through the
  /// normal Advance/Progress/Close calls.
  Result<SessionId> OpenSessionOnShard(const QueryRunResult* run,
                                       size_t shard);
  Result<double> Advance(SessionId id, uint32_t max_steps, uint32_t* taken,
                         bool* done);
  Result<double> Advance(SessionId id, bool* done = nullptr);
  Result<double> Progress(SessionId id, bool* done = nullptr) const;
  Status CloseSession(SessionId id);
  size_t num_open_sessions() const;  ///< sum over shards

  /// The registry every shard's counters live in (Options::metrics, or
  /// the router-private one).
  obs::MetricsRegistry& metrics() const { return *metrics_; }

  /// Direct shard access for tests/benches (shards are owned; do not swap
  /// models through a shard directly or the one-step generation invariant
  /// breaks).
  MonitorService& shard(size_t i) { return *shards_[i]; }

 private:
  size_t ShardOf(SessionId id) const { return id % shards_.size(); }
  SessionId LocalId(SessionId id) const { return id / shards_.size(); }
  /// The scrape-time samples (see file comment).
  void AppendDerivedSamples(std::vector<obs::Sample>* out) const;

  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::vector<std::unique_ptr<MonitorService>> shards_;
  obs::Gauge* generation_ = nullptr;  ///< set under swap_mu_
  /// The shards' shared cells the collector derives its samples from.
  obs::Counter* decisions_ = nullptr;
  obs::Counter* scoring_ns_ = nullptr;
  obs::Histogram* replay_latency_ = nullptr;
  int collector_id_ = 0;

  /// Monotone open ticket; hashed to pick the shard of a new session.
  std::atomic<uint64_t> open_ticket_{0};

  /// Serializes SwapModels fan-outs so a publish lands on every shard as
  /// one step and generations advance in lockstep.
  std::mutex swap_mu_;
};

}  // namespace rpe
