#include "serving/shard_router.h"

#include "common/logging.h"

namespace rpe {
namespace {

/// splitmix64 finalizer: uniform partition spread from a monotone ticket
/// without any cross-session coordination.
uint64_t HashTicket(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

Status NoSession(uint64_t id) {
  return Status::NotFound("no open session " + std::to_string(id));
}

}  // namespace

ShardedMonitorService::ShardedMonitorService(
    std::shared_ptr<const SelectorStack> models, Options options)
    : monitor_(std::move(models), MonitorService::Options{options.metrics}),
      observations_scored_(
          monitor_.metrics().GetCounter("rpe_observations_scored_total")),
      partitions_(options.num_shards) {
  RPE_CHECK_GE(options.num_shards, 1u);
}

Result<ShardedMonitorService::SessionId> ShardedMonitorService::OpenSession(
    const QueryRunResult* run) {
  return OpenSessionOnShard(
      run, HashTicket(open_ticket_.fetch_add(1)) % partitions_.size());
}

Result<ShardedMonitorService::SessionId>
ShardedMonitorService::OpenSessionOnShard(const QueryRunResult* run,
                                          size_t shard) {
  if (shard >= partitions_.size()) {
    return Status::InvalidArgument(
        "OpenSessionOnShard: shard " + std::to_string(shard) +
        " out of range (have " + std::to_string(partitions_.size()) + ")");
  }
  RPE_ASSIGN_OR_RETURN(MonitorService::Session session, monitor_.Open(run));
  Partition& p = partitions_[shard];
  std::lock_guard<std::mutex> lock(p.mu);
  const SessionId local = p.next_local++;
  p.sessions.emplace(local, std::move(session));
  // local >= 1, so global ids never collide across partitions and id 0
  // stays invalid. PartitionOf/LocalId invert this encoding.
  return local * partitions_.size() + shard;
}

Result<double> ShardedMonitorService::Advance(SessionId id, uint32_t max_steps,
                                              uint32_t* taken, bool* done) {
  uint32_t steps = 0;
  Result<double> progress = 0.0;
  {
    Partition& p = partitions_[PartitionOf(id)];
    std::lock_guard<std::mutex> lock(p.mu);
    auto it = p.sessions.find(LocalId(id));
    if (it == p.sessions.end()) {
      if (taken != nullptr) *taken = 0;
      return NoSession(id);
    }
    progress = MonitorService::Step(&it->second, max_steps, &steps, done);
  }
  observations_scored_->Inc(steps);
  if (taken != nullptr) *taken = steps;
  return progress;
}

Result<double> ShardedMonitorService::Advance(SessionId id, bool* done) {
  return Advance(id, 1, nullptr, done);
}

Result<double> ShardedMonitorService::Progress(SessionId id, bool* done) const {
  const Partition& p = partitions_[PartitionOf(id)];
  std::lock_guard<std::mutex> lock(p.mu);
  auto it = p.sessions.find(LocalId(id));
  if (it == p.sessions.end()) return NoSession(id);
  if (done != nullptr) *done = it->second.done();
  return it->second.last_progress;
}

Status ShardedMonitorService::CloseSession(SessionId id) {
  Partition& p = partitions_[PartitionOf(id)];
  std::lock_guard<std::mutex> lock(p.mu);
  auto it = p.sessions.find(LocalId(id));
  if (it == p.sessions.end()) return NoSession(id);
  monitor_.Close(it->second);
  p.sessions.erase(it);
  return Status::OK();
}

size_t ShardedMonitorService::num_open_sessions() const {
  size_t n = 0;
  for (const Partition& p : partitions_) {
    std::lock_guard<std::mutex> lock(p.mu);
    n += p.sessions.size();
  }
  return n;
}

}  // namespace rpe
