#include "serving/monitor_service.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
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

MonitorService::Session::Session(
    const QueryRunResult* r,
    std::span<const ProgressMonitor::PipelineDecision> decisions)
    : run(r), stepper(*r, decisions) {}

MonitorService::MonitorService(std::shared_ptr<const SelectorStack> models)
    : MonitorService(std::move(models), Options()) {}

MonitorService::MonitorService(std::shared_ptr<const SelectorStack> models,
                               Options options)
    : metrics_(options.metrics), models_(std::move(models)) {
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
  const std::shared_ptr<const SelectorStack> stack = models();
  // The estimator decisions — the selector scoring — happen at open, once,
  // exactly as a live monitor decides when the query is admitted.
  const ProgressMonitor monitor(&stack->static_selector,
                                &stack->dynamic_selector);
  const auto decisions = monitor.DecideForRun(*run);
  auto session = std::make_shared<Session>(run, decisions);
  session->elapsed_ns = NanosSince(start);
  sessions_opened_->Inc();
  decisions_->Inc(CountDecisions(decisions));
  scoring_ns_->Inc(session->elapsed_ns);
  std::lock_guard<std::mutex> lock(sessions_mu_);
  const SessionId id = next_id_++;
  sessions_.emplace(id, std::move(session));
  return id;
}

MonitorService::Session* MonitorService::LockSession(
    SessionId id, std::unique_lock<std::mutex>* lock) const {
  std::lock_guard<std::mutex> map_lock(sessions_mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return nullptr;
  *lock = std::unique_lock<std::mutex>(it->second->mu);
  return it->second.get();
}

Result<double> MonitorService::Advance(SessionId id, uint32_t max_steps,
                                       uint32_t* taken, bool* done) {
  if (taken != nullptr) *taken = 0;
  if (max_steps == 0) {
    return Status::InvalidArgument("Advance: max_steps must be >= 1");
  }
  double progress = 0.0;
  size_t steps = 0;
  {
    std::unique_lock<std::mutex> lock;
    Session* s = LockSession(id, &lock);
    if (s == nullptr) return NoSession(id);
    const size_t total = s->run->observations.size();
    if (s->next_obs >= total) {
      return Status::OutOfRange("session " + std::to_string(id) +
                                " replay complete");
    }
    steps = std::min<size_t>(max_steps, total - s->next_obs);
    const size_t end = s->next_obs + steps;
    for (size_t oi = s->next_obs; oi < end; ++oi) {
      // Parents to the wire request being advanced when the TCP
      // front-end set a TraceContext; one relaxed load when tracing is
      // off.
      obs::TraceSpan span("advance.step", /*arg=*/id);
      progress = s->stepper.ProgressAt(oi);
    }
    s->next_obs = end;
    s->last_progress = progress;
    if (done != nullptr) *done = end >= total;
  }
  observations_scored_->Inc(steps);
  if (taken != nullptr) *taken = static_cast<uint32_t>(steps);
  return progress;
}

Result<double> MonitorService::Advance(SessionId id, bool* done) {
  return Advance(id, 1, nullptr, done);
}

Result<double> MonitorService::Progress(SessionId id, bool* done) const {
  std::unique_lock<std::mutex> lock;
  const Session* s = LockSession(id, &lock);
  if (s == nullptr) return NoSession(id);
  if (done != nullptr) *done = s->next_obs >= s->run->observations.size();
  return s->last_progress;
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
  if (s->next_obs >= s->run->observations.size()) {
    // Scoring time already accrued at open (steps are untimed); only the
    // completion count and latency sample are recorded here.
    sessions_completed_->Inc();
    replay_latency_->Record(s->elapsed_ns);
  }
  return Status::OK();
}

size_t MonitorService::num_open_sessions() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return sessions_.size();
}

}  // namespace rpe
