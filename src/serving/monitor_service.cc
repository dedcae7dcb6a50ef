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
  // Accrued by the owners of stepped sessions (the TCP front-end, the
  // id-keyed router); registered here so the exit table keeps its order.
  metrics_->GetCounter("rpe_observations_scored_total",
                       "observations scored");
  scoring_ns_ = metrics_->GetCounter("rpe_scoring_time_nanoseconds_total");
  replay_latency_ = metrics_->GetHistogram("rpe_replay_latency_seconds");
  generation_ = metrics_->GetGauge("rpe_model_generation", "model generation");
  generation_->Set(0);
  collector_id_ = metrics_->AddCollector(
      [this](std::vector<obs::Sample>* out) { AppendDerivedSamples(out); });
}

MonitorService::~MonitorService() { metrics_->RemoveCollector(collector_id_); }

uint64_t MonitorService::SwapModels(
    std::shared_ptr<const SelectorStack> models) {
  RPE_CHECK(models != nullptr);
  std::lock_guard<std::mutex> lock(models_mu_);
  models_ = std::move(models);
  // Stepped under the lock, so the generation never runs ahead of the
  // snapshot that Open reads nor steps back under concurrent publishes.
  const int64_t generation = generation_->Value() + 1;
  generation_->Set(generation);
  return static_cast<uint64_t>(generation);
}

std::shared_ptr<const SelectorStack> MonitorService::models() const {
  std::lock_guard<std::mutex> lock(models_mu_);
  return models_;
}

uint64_t MonitorService::model_generation() const {
  return static_cast<uint64_t>(generation_->Value());
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

void MonitorService::AppendDerivedSamples(
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
  out->push_back(obs::Sample::GaugeSample("rpe_replay_latency_p50_ms",
                                          latency.Quantile(0.50) / 1e6,
                                          "p50 replay latency (ms)"));
  out->push_back(obs::Sample::GaugeSample("rpe_replay_latency_p95_ms",
                                          latency.Quantile(0.95) / 1e6,
                                          "p95 replay latency (ms)"));
  out->push_back(obs::Sample::GaugeSample(
      "rpe_decisions_per_sec", decisions_per_sec, "decisions/sec"));
}

}  // namespace rpe
