#include "serving/monitor_service.h"

#include <chrono>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/trace.h"

namespace rpe {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t NanosSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

uint64_t CountDecisions(
    const std::vector<ProgressMonitor::PipelineDecision>& decisions) {
  uint64_t n = 0;
  for (const auto& d : decisions) {
    n += 1 + (d.revised_choice.has_value() ? 1 : 0);
  }
  return n;
}

Status NoSession(uint64_t id) {
  return Status::NotFound("no open session " + std::to_string(id));
}

}  // namespace

MonitorService::Session::Session(std::shared_ptr<const SelectorStack> stack,
                                 const QueryRunResult* r, double marker_pct)
    : pinned(std::move(stack)),
      monitor(&pinned->static_selector, &pinned->dynamic_selector, marker_pct),
      run(r) {}

MonitorService::MonitorService(std::shared_ptr<const SelectorStack> models)
    : MonitorService(std::move(models), Options()) {}

MonitorService::MonitorService(std::shared_ptr<const SelectorStack> models,
                               Options options)
    : options_(options), metrics_(options.metrics), models_(std::move(models)) {
  RPE_CHECK(models_ != nullptr);
  if (metrics_ == nullptr) {
    own_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = own_metrics_.get();
  }
  // Table labels are the exact rows the serve-* exit tables print
  // (parsed by scripts/server_smoke_test.sh and cli_exit_test.sh).
  sessions_opened_ =
      metrics_->GetCounter("rpe_sessions_opened_total", "sessions opened");
  sessions_completed_ = metrics_->GetCounter("rpe_sessions_completed_total",
                                             "sessions completed");
  decisions_ = metrics_->GetCounter("rpe_decisions_total", "decisions");
  observations_scored_ = metrics_->GetCounter(
      "rpe_observations_scored_total", "observations scored");
  scoring_ns_ = metrics_->GetCounter("rpe_scoring_time_nanoseconds_total");
  replay_latency_ = metrics_->GetHistogram("rpe_replay_latency_seconds");
}

uint64_t MonitorService::SwapModels(
    std::shared_ptr<const SelectorStack> models) {
  RPE_CHECK(models != nullptr);
  std::lock_guard<std::mutex> lock(models_mu_);
  models_ = std::move(models);
  return ++model_generation_;
}

std::shared_ptr<const SelectorStack> MonitorService::models() const {
  std::lock_guard<std::mutex> lock(models_mu_);
  return models_;
}

uint64_t MonitorService::model_generation() const {
  std::lock_guard<std::mutex> lock(models_mu_);
  return model_generation_;
}

Result<MonitorService::SessionId> MonitorService::OpenSession(
    const QueryRunResult* run) {
  if (run == nullptr) {
    return Status::InvalidArgument("OpenSession: null run");
  }
  const auto start = Clock::now();
  auto session = std::make_shared<Session>(models(), run,
                                           options_.revision_marker_pct);
  // The estimator decisions — the selector scoring — happen at open, once,
  // exactly as a live monitor decides when the query is admitted.
  session->decisions = session->monitor.DecideForRun(*run);
  session->elapsed_ns = NanosSince(start);
  sessions_opened_->Inc();
  decisions_->Inc(CountDecisions(session->decisions));
  scoring_ns_->Inc(session->elapsed_ns);
  std::lock_guard<std::mutex> lock(sessions_mu_);
  const SessionId id = next_id_++;
  sessions_.emplace(id, std::move(session));
  return id;
}

Result<std::vector<MonitorService::SessionId>> MonitorService::OpenSessions(
    std::span<const QueryRunResult* const> runs) {
  for (const QueryRunResult* run : runs) {
    if (run == nullptr) {
      return Status::InvalidArgument("OpenSessions: null run");
    }
  }
  std::vector<SessionId> ids(runs.size());
  if (runs.empty()) return ids;
  const auto start = Clock::now();
  const std::shared_ptr<const SelectorStack> stack = models();
  std::vector<std::shared_ptr<Session>> opened;
  opened.reserve(runs.size());
  for (const QueryRunResult* run : runs) {
    opened.push_back(
        std::make_shared<Session>(stack, run, options_.revision_marker_pct));
  }
  // One batched decision pass across every pipeline of every run — the
  // same choices OpenSession makes per run, scored in full SIMD tiles.
  auto decided = opened.front()->monitor.DecideForRuns(runs);
  const uint64_t elapsed = NanosSince(start);
  const uint64_t per_session = elapsed / runs.size();
  uint64_t total_decisions = 0;
  for (size_t i = 0; i < runs.size(); ++i) {
    total_decisions += CountDecisions(decided[i]);
    opened[i]->decisions = std::move(decided[i]);
    opened[i]->elapsed_ns = per_session;
  }
  sessions_opened_->Inc(runs.size());
  decisions_->Inc(total_decisions);
  scoring_ns_->Inc(elapsed);
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (size_t i = 0; i < runs.size(); ++i) {
    ids[i] = next_id_++;
    sessions_.emplace(ids[i], std::move(opened[i]));
  }
  return ids;
}

MonitorService::Session* MonitorService::LockSession(
    SessionId id, std::unique_lock<std::mutex>* lock) const {
  std::lock_guard<std::mutex> map_lock(sessions_mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return nullptr;
  *lock = std::unique_lock<std::mutex>(it->second->mu);
  return it->second.get();
}

Result<double> MonitorService::Advance(SessionId id, bool* done) {
  // Parents to the wire request being advanced when the TCP front-end
  // set a TraceContext; one relaxed load when tracing is off.
  obs::TraceSpan span("advance.step", /*arg=*/id);
  double progress = 0.0;
  {
    std::unique_lock<std::mutex> lock;
    Session* s = LockSession(id, &lock);
    if (s == nullptr) return NoSession(id);
    const size_t total = s->run->observations.size();
    if (s->next_obs >= total) {
      return Status::OutOfRange("session " + std::to_string(id) +
                                " replay complete");
    }
    progress = s->monitor.QueryProgressAt(*s->run, s->decisions, s->next_obs);
    s->last_progress = progress;
    ++s->next_obs;
    if (done != nullptr) *done = s->next_obs >= total;
  }
  observations_scored_->Inc();
  return progress;
}

Result<double> MonitorService::Progress(SessionId id, bool* done) const {
  std::unique_lock<std::mutex> lock;
  const Session* s = LockSession(id, &lock);
  if (s == nullptr) return NoSession(id);
  if (done != nullptr) *done = s->next_obs >= s->run->observations.size();
  return s->last_progress;
}

Result<bool> MonitorService::Done(SessionId id) const {
  bool done = false;
  RPE_RETURN_NOT_OK(Progress(id, &done).status());
  return done;
}

void MonitorService::RecordCompletion(const Session& s) {
  // Scoring time already accrued live (at open and per step); only the
  // completion latency sample and count are recorded here.
  sessions_completed_->Inc();
  replay_latency_->Record(s.elapsed_ns);
}

Status MonitorService::CloseSession(SessionId id) {
  std::shared_ptr<Session> s;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return NoSession(id);
    s = std::move(it->second);
    sessions_.erase(it);
  }
  std::lock_guard<std::mutex> lock(s->mu);
  if (s->next_obs >= s->run->observations.size()) RecordCompletion(*s);
  return Status::OK();
}

size_t MonitorService::num_open_sessions() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return sessions_.size();
}

std::vector<std::vector<double>> MonitorService::ReplayAll(
    std::span<const QueryRunResult* const> runs) {
  const std::shared_ptr<const SelectorStack> stack = models();
  ThreadPool* pool =
      options_.pool != nullptr ? options_.pool : &ThreadPool::Global();
  std::vector<std::vector<double>> out(runs.size());
  if (runs.empty()) return out;
  // Decisions for every run score in one batched pass (full SIMD tiles
  // across runs) before the per-observation replay shards across the
  // pool. DecideForRuns is bit-identical to per-run DecideForRun, so each
  // series stays bit-identical to the sequential
  // ProgressMonitor::ReplayQueryProgress regardless of sharding.
  const auto decide_start = Clock::now();
  ProgressMonitor monitor(&stack->static_selector, &stack->dynamic_selector,
                          options_.revision_marker_pct);
  const auto decided = monitor.DecideForRuns(runs);
  const uint64_t decide_ns_per_run = NanosSince(decide_start) / runs.size();
  sessions_opened_->Inc(runs.size());
  // Each worker accrues its own session's counters: the cells are
  // per-thread sharded, so the parallel pass shares no lock.
  pool->ParallelFor(runs.size(), [&](size_t i) {
    const QueryRunResult& run = *runs[i];
    const auto start = Clock::now();
    std::vector<double>& series = out[i];
    series.reserve(run.observations.size());
    for (size_t oi = 0; oi < run.observations.size(); ++oi) {
      series.push_back(monitor.QueryProgressAt(run, decided[i], oi));
    }
    const uint64_t latency_ns = decide_ns_per_run + NanosSince(start);
    decisions_->Inc(CountDecisions(decided[i]));
    observations_scored_->Inc(run.observations.size());
    scoring_ns_->Inc(latency_ns);
    replay_latency_->Record(latency_ns);
    sessions_completed_->Inc();
  });
  return out;
}

}  // namespace rpe
