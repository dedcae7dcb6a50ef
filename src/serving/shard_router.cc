#include "serving/shard_router.h"

#include "common/logging.h"

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
    : metrics_(options.metrics) {
  RPE_CHECK_GE(options.num_shards, 1u);
  RPE_CHECK(models != nullptr);
  if (metrics_ == nullptr) {
    own_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = own_metrics_.get();
  }
  MonitorService::Options shard_options;
  shard_options.metrics = metrics_;
  shards_.reserve(options.num_shards);
  for (size_t s = 0; s < options.num_shards; ++s) {
    shards_.push_back(
        std::make_unique<MonitorService>(models, shard_options));
  }
  // Registered after the shards' cells, so the table keeps its row
  // order; the shards already registered the cells looked up below.
  generation_ = metrics_->GetGauge("rpe_model_generation", "model generation");
  generation_->Set(0);
  decisions_ = metrics_->GetCounter("rpe_decisions_total");
  scoring_ns_ = metrics_->GetCounter("rpe_scoring_time_nanoseconds_total");
  replay_latency_ = metrics_->GetHistogram("rpe_replay_latency_seconds");
  collector_id_ = metrics_->AddCollector(
      [this](std::vector<obs::Sample>* out) { AppendDerivedSamples(out); });
}

ShardedMonitorService::~ShardedMonitorService() {
  metrics_->RemoveCollector(collector_id_);
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
  // One gauge write per fan-out, after every shard has stepped: a scrape
  // never sees a generation that some shard does not serve yet.
  generation_->Set(static_cast<int64_t>(generation));
  return generation;
}

uint64_t ShardedMonitorService::model_generation() const {
  return static_cast<uint64_t>(generation_->Value());
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

Result<double> ShardedMonitorService::Advance(SessionId id, uint32_t max_steps,
                                              uint32_t* taken, bool* done) {
  return shards_[ShardOf(id)]->Advance(LocalId(id), max_steps, taken, done);
}

Result<double> ShardedMonitorService::Advance(SessionId id, bool* done) {
  return shards_[ShardOf(id)]->Advance(LocalId(id), done);
}

Result<double> ShardedMonitorService::Progress(SessionId id, bool* done) const {
  return shards_[ShardOf(id)]->Progress(LocalId(id), done);
}

Status ShardedMonitorService::CloseSession(SessionId id) {
  return shards_[ShardOf(id)]->CloseSession(LocalId(id));
}

size_t ShardedMonitorService::num_open_sessions() const {
  size_t n = 0;
  for (const auto& shard : shards_) n += shard->num_open_sessions();
  return n;
}

void ShardedMonitorService::AppendDerivedSamples(
    std::vector<obs::Sample>* out) const {
  // Runs under the registry mutex: read the cells through pointers taken
  // at construction, never through Get* (which takes that mutex).
  const obs::Histogram::Snapshot latency = replay_latency_->Snap();
  // Scoring time is the decide pass at open (steps read no clock), so
  // only decisions have a rate over it.
  const double scoring_sec = static_cast<double>(scoring_ns_->Value()) / 1e9;
  const double decisions_per_sec =
      scoring_sec > 0.0 ? static_cast<double>(decisions_->Value()) / scoring_sec
                        : 0.0;
  // table_value() in the smoke/exit scripts takes the FIRST row whose
  // label matches, so "decisions/sec" must render after the registered
  // "decisions" row, which every collector does.
  out->push_back(obs::Sample::GaugeSample(
      "rpe_shards", static_cast<double>(shards_.size()), "shards"));
  out->push_back(obs::Sample::GaugeSample("rpe_replay_latency_p50_ms",
                                          latency.Quantile(0.50) / 1e6,
                                          "p50 replay latency (ms)"));
  out->push_back(obs::Sample::GaugeSample("rpe_replay_latency_p95_ms",
                                          latency.Quantile(0.95) / 1e6,
                                          "p95 replay latency (ms)"));
  out->push_back(obs::Sample::GaugeSample(
      "rpe_decisions_per_sec", decisions_per_sec, "decisions/sec"));
  for (size_t i = 0; i < shards_.size(); ++i) {
    out->push_back(obs::Sample::GaugeSample(
        "rpe_shard_sessions_open",
        static_cast<double>(shards_[i]->num_open_sessions()), "",
        "shard=\"" + std::to_string(i) + "\""));
  }
}

}  // namespace rpe
