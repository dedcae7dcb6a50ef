#include "serving/shard_router.h"

#include <algorithm>

#include "common/logging.h"
#include "common/stats.h"
#include "common/thread_pool.h"

namespace rpe {
namespace {

/// splitmix64 finalizer: uniform shard spread from a monotone ticket
/// without any cross-session coordination.
uint64_t HashTicket(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

ShardedMonitorService::ShardedMonitorService(
    std::shared_ptr<const SelectorStack> models, Options options)
    : options_(options) {
  RPE_CHECK_GE(options_.num_shards, 1u);
  RPE_CHECK(models != nullptr);
  MonitorService::Options shard_options;
  shard_options.revision_marker_pct = options_.revision_marker_pct;
  shard_options.pool = options_.pool;
  shards_.reserve(options_.num_shards);
  for (size_t s = 0; s < options_.num_shards; ++s) {
    shards_.push_back(
        std::make_unique<MonitorService>(models, shard_options));
  }
}

ThreadPool* ShardedMonitorService::Pool() const {
  return options_.pool != nullptr ? options_.pool : &ThreadPool::Global();
}

uint64_t ShardedMonitorService::SwapModels(
    std::shared_ptr<const SelectorStack> models) {
  RPE_CHECK(models != nullptr);
  // One router lock serializes publishes: every shard steps to the same
  // new generation before any other publish can interleave.
  std::lock_guard<std::mutex> lock(swap_mu_);
  uint64_t generation = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const uint64_t g = shards_[s]->SwapModels(models);
    if (s == 0) {
      generation = g;
    } else {
      // All shards are constructed together and only swapped here, so
      // their generation counters move in lockstep.
      RPE_CHECK_EQ(g, generation);
    }
  }
  return generation;
}

uint64_t ShardedMonitorService::model_generation() const {
  uint64_t min_gen = shards_[0]->model_generation();
  for (size_t s = 1; s < shards_.size(); ++s) {
    min_gen = std::min(min_gen, shards_[s]->model_generation());
  }
  return min_gen;
}

Result<ShardedMonitorService::SessionId> ShardedMonitorService::OpenSession(
    const QueryRunResult* run) {
  return OpenSessionOnShard(
      run, HashTicket(open_ticket_.fetch_add(1)) % shards_.size());
}

Result<ShardedMonitorService::SessionId>
ShardedMonitorService::OpenSessionOnShard(const QueryRunResult* run,
                                          size_t shard) {
  if (shard >= shards_.size()) {
    return Status::InvalidArgument(
        "OpenSessionOnShard: shard " + std::to_string(shard) +
        " out of range (have " + std::to_string(shards_.size()) + ")");
  }
  RPE_ASSIGN_OR_RETURN(SessionId local, shards_[shard]->OpenSession(run));
  // local >= 1, so global ids never collide across shards and id 0 stays
  // invalid. ShardOf/LocalId invert this encoding.
  return local * shards_.size() + shard;
}

Result<double> ShardedMonitorService::Advance(SessionId id, bool* done) {
  return shards_[ShardOf(id)]->Advance(LocalId(id), done);
}

Result<double> ShardedMonitorService::Progress(SessionId id, bool* done) const {
  return shards_[ShardOf(id)]->Progress(LocalId(id), done);
}

Result<bool> ShardedMonitorService::Done(SessionId id) const {
  return shards_[ShardOf(id)]->Done(LocalId(id));
}

Status ShardedMonitorService::CloseSession(SessionId id) {
  return shards_[ShardOf(id)]->CloseSession(LocalId(id));
}

size_t ShardedMonitorService::num_open_sessions() const {
  size_t n = 0;
  for (const auto& shard : shards_) n += shard->num_open_sessions();
  return n;
}

size_t ShardedMonitorService::Tick(size_t max_steps) {
  const size_t n = shards_.size();
  // Split the budget across shards; remainder to the lowest indices. A
  // positive budget smaller than the shard count rounds up to one step
  // per shard — a shard can never be handed "0 = unbudgeted" by accident,
  // and the returned remaining count always covers every shard.
  std::vector<size_t> budget(n, 0);
  if (max_steps > 0) {
    for (size_t s = 0; s < n; ++s) {
      const size_t share = max_steps / n + (s < max_steps % n ? 1 : 0);
      budget[s] = std::max<size_t>(1, share);
    }
  }
  std::vector<size_t> remaining(n, 0);
  Pool()->ParallelFor(n, [&](size_t s) {
    remaining[s] = shards_[s]->Tick(budget[s]);
  });
  size_t total = 0;
  for (size_t r : remaining) total += r;
  return total;
}

std::vector<std::vector<double>> ShardedMonitorService::ReplayAll(
    std::span<const QueryRunResult* const> runs) {
  const size_t n = shards_.size();
  // Round-robin partition; each shard replays its share concurrently and
  // results scatter back to the caller's order. Each series depends only
  // on its own run + snapshot, so the partition never changes a result.
  std::vector<std::vector<const QueryRunResult*>> shard_runs(n);
  std::vector<std::vector<size_t>> shard_indices(n);
  for (size_t i = 0; i < runs.size(); ++i) {
    shard_runs[i % n].push_back(runs[i]);
    shard_indices[i % n].push_back(i);
  }
  std::vector<std::vector<double>> out(runs.size());
  Pool()->ParallelFor(n, [&](size_t s) {
    auto series = shards_[s]->ReplayAll(shard_runs[s]);
    for (size_t k = 0; k < series.size(); ++k) {
      out[shard_indices[s][k]] = std::move(series[k]);
    }
  });
  return out;
}

ShardedMonitorService::Stats ShardedMonitorService::GetStats() const {
  // Provider called outside any router lock (it reaches the TrainerLoop,
  // which publishes back through SwapModels).
  std::function<IngestStats()> provider;
  {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    provider = ingest_provider_;
  }
  Stats stats;
  stats.shards = shards_.size();
  if (provider) stats.total.ingest = provider();

  // Exclude publishes while scanning: a swap fan-out can never interleave
  // with the per-shard reads, so the reported generations are a consistent
  // cut (min == max always; both are kept as an interface-level check).
  std::lock_guard<std::mutex> swap_lock(swap_mu_);
  std::vector<double> latencies;
  std::vector<double> samples;
  bool first = true;
  for (const auto& shard : shards_) {
    // Counters and reservoir come from one lock hold per shard, so each
    // shard's contribution is internally consistent.
    const MonitorService::Stats s = shard->GetStats(&samples);
    stats.total.sessions_opened += s.sessions_opened;
    stats.total.sessions_completed += s.sessions_completed;
    stats.total.decisions += s.decisions;
    stats.total.observations_scored += s.observations_scored;
    stats.total.scoring_time_sec += s.scoring_time_sec;
    if (first) {
      stats.min_model_generation = s.model_generation;
      stats.max_model_generation = s.model_generation;
      first = false;
    } else {
      stats.min_model_generation =
          std::min(stats.min_model_generation, s.model_generation);
      stats.max_model_generation =
          std::max(stats.max_model_generation, s.model_generation);
    }
    // Each shard hands back its reservoir sorted, so the union stays
    // sorted with a linear merge instead of a sort.
    const size_t merged = latencies.size();
    latencies.insert(latencies.end(), samples.begin(), samples.end());
    std::inplace_merge(latencies.begin(), latencies.begin() + merged,
                       latencies.end());
  }
  // Consistent-cut generation (the swap lock is held): min == max.
  stats.total.model_generation = stats.min_model_generation;
  // Pooled percentiles over the union of the shard reservoirs — exact,
  // not an average of per-shard percentiles.
  stats.total.p50_replay_ms = PercentileSorted(latencies, 50.0);
  stats.total.p95_replay_ms = PercentileSorted(latencies, 95.0);
  if (stats.total.scoring_time_sec > 0.0) {
    stats.total.decisions_per_sec =
        static_cast<double>(stats.total.decisions) /
        stats.total.scoring_time_sec;
    stats.total.observations_per_sec =
        static_cast<double>(stats.total.observations_scored) /
        stats.total.scoring_time_sec;
  }
  return stats;
}

void ShardedMonitorService::SetIngestStatsProvider(
    std::function<IngestStats()> provider) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  ingest_provider_ = std::move(provider);
}

}  // namespace rpe
