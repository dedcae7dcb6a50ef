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

Result<MonitorService::Session> MonitorService::Open(
    const QueryRunResult* run) {
  if (run == nullptr) {
    return Status::InvalidArgument("Open: null run");
  }
  const auto start = Clock::now();
  const std::shared_ptr<const SelectorStack> stack = models();
  // The estimator decisions — the selector scoring — happen at open, once,
  // exactly as a live monitor decides when the query is admitted.
  const ProgressMonitor monitor(&stack->static_selector,
                                &stack->dynamic_selector);
  const auto decisions = monitor.DecideForRun(*run);
  Session session;
  session.run = run;
  session.stepper = ProgressMonitor::Stepper(*run, decisions);
  session.elapsed_ns = NanosSince(start);
  sessions_opened_->Inc();
  decisions_->Inc(CountDecisions(decisions));
  scoring_ns_->Inc(session.elapsed_ns);
  return session;
}

Result<double> MonitorService::Step(Session* session, uint32_t max_steps,
                                    uint32_t* taken, bool* done) {
  if (taken != nullptr) *taken = 0;
  if (max_steps == 0) {
    return Status::InvalidArgument("Step: max_steps must be >= 1");
  }
  const size_t total = session->run->observations.size();
  if (session->next_obs >= total) {
    return Status::OutOfRange("replay complete");
  }
  const size_t steps = std::min<size_t>(max_steps, total - session->next_obs);
  const size_t end = session->next_obs + steps;
  double progress = 0.0;
  for (size_t oi = session->next_obs; oi < end; ++oi) {
    // Parents to the wire request being advanced when the TCP front-end
    // set a TraceContext; one relaxed load when tracing is off.
    obs::TraceSpan span("advance.step", /*arg=*/oi);
    progress = session->stepper.ProgressAt(oi);
  }
  if (taken != nullptr) *taken = static_cast<uint32_t>(steps);
  session->next_obs = end;
  session->last_progress = progress;
  if (done != nullptr) *done = end >= total;
  return progress;
}

void MonitorService::Close(const Session& session) {
  if (session.done()) {
    // Scoring time already accrued at open (steps are untimed); only the
    // completion count and latency sample are recorded here.
    sessions_completed_->Inc();
    replay_latency_->Record(session.elapsed_ns);
  }
}

Result<MonitorService::SessionId> MonitorService::OpenSession(
    const QueryRunResult* run) {
  RPE_ASSIGN_OR_RETURN(Session session, Open(run));
  auto mapped = std::make_shared<MappedSession>(std::move(session));
  std::lock_guard<std::mutex> lock(sessions_mu_);
  const SessionId id = next_id_++;
  sessions_.emplace(id, std::move(mapped));
  return id;
}

MonitorService::MappedSession* MonitorService::LockSession(
    SessionId id, std::unique_lock<std::mutex>* lock) const {
  std::lock_guard<std::mutex> map_lock(sessions_mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return nullptr;
  *lock = std::unique_lock<std::mutex>(it->second->mu);
  return it->second.get();
}

Result<double> MonitorService::Advance(SessionId id, uint32_t max_steps,
                                       uint32_t* taken, bool* done) {
  uint32_t steps = 0;
  Result<double> progress = 0.0;
  {
    std::unique_lock<std::mutex> lock;
    MappedSession* s = LockSession(id, &lock);
    if (s == nullptr) {
      if (taken != nullptr) *taken = 0;
      return NoSession(id);
    }
    progress = Step(&s->session, max_steps, &steps, done);
  }
  observations_scored_->Inc(steps);
  if (taken != nullptr) *taken = steps;
  return progress;
}

Result<double> MonitorService::Advance(SessionId id, bool* done) {
  return Advance(id, 1, nullptr, done);
}

Result<double> MonitorService::Progress(SessionId id, bool* done) const {
  std::unique_lock<std::mutex> lock;
  const MappedSession* s = LockSession(id, &lock);
  if (s == nullptr) return NoSession(id);
  if (done != nullptr) *done = s->session.done();
  return s->session.last_progress;
}

Status MonitorService::CloseSession(SessionId id) {
  std::shared_ptr<MappedSession> s;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return NoSession(id);
    s = std::move(it->second);
    sessions_.erase(it);
  }
  std::lock_guard<std::mutex> lock(s->mu);
  Close(s->session);
  return Status::OK();
}

size_t MonitorService::num_open_sessions() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return sessions_.size();
}

}  // namespace rpe
