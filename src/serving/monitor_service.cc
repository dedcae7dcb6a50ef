#include "serving/monitor_service.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "obs/trace.h"

namespace rpe {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
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
    : options_(options), models_(std::move(models)) {
  RPE_CHECK(models_ != nullptr);
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

void MonitorService::SetIngestStatsProvider(
    std::function<IngestStats()> provider) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  ingest_provider_ = std::move(provider);
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
  session->elapsed_sec = SecondsSince(start);
  const double session_elapsed = session->elapsed_sec;
  const uint64_t decisions = CountDecisions(session->decisions);
  SessionId id = 0;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    id = next_id_++;
    sessions_.emplace(id, std::move(session));
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++sessions_opened_;
    decisions_ += decisions;
    scoring_time_sec_ += session_elapsed;
  }
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
  const double elapsed = SecondsSince(start);
  const double per_session = elapsed / static_cast<double>(runs.size());
  uint64_t total_decisions = 0;
  for (size_t i = 0; i < runs.size(); ++i) {
    total_decisions += CountDecisions(decided[i]);
    opened[i]->decisions = std::move(decided[i]);
    opened[i]->elapsed_sec = per_session;
  }
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (size_t i = 0; i < runs.size(); ++i) {
      ids[i] = next_id_++;
      sessions_.emplace(ids[i], std::move(opened[i]));
    }
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    sessions_opened_ += runs.size();
    decisions_ += total_decisions;
    scoring_time_sec_ += elapsed;
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

void MonitorService::StepLocked(Session* s) {
  s->last_progress =
      s->monitor.QueryProgressAt(*s->run, s->decisions, s->next_obs);
  ++s->next_obs;
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
    StepLocked(s);
    progress = s->last_progress;
    if (done != nullptr) *done = s->next_obs >= total;
  }
  observations_scored_.fetch_add(1, std::memory_order_relaxed);
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

void MonitorService::PushLatencyLocked(double latency_ms) {
  if (replay_latency_ms_.size() < kLatencyWindow) {
    replay_latency_ms_.push_back(latency_ms);
  } else {
    replay_latency_ms_[latency_next_] = latency_ms;  // overwrite the oldest
    latency_next_ = (latency_next_ + 1) % kLatencyWindow;
  }
}

void MonitorService::RecordCompletion(const Session& s) {
  // Scoring time already accrued live (at open and per step); only the
  // completion latency sample and count are recorded here.
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++sessions_completed_;
  PushLatencyLocked(s.elapsed_sec * 1e3);
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

size_t MonitorService::Tick(size_t max_steps) {
  // One serialized scheduling pass: snapshot the active set in session-id
  // order (deterministic regardless of hash-map iteration order), pick the
  // sessions to advance, then shard the per-observation scoring. Each
  // stepped session writes only its own state, so the tick is
  // deterministic at any thread count.
  std::lock_guard<std::mutex> tick_lock(tick_mu_);
  std::vector<std::pair<SessionId, std::shared_ptr<Session>>> active;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    active.reserve(sessions_.size());
    for (auto& [id, s] : sessions_) active.emplace_back(id, s);
  }
  std::sort(active.begin(), active.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  // `selected` is the set the parallel pass steps; skipped eligible
  // sessions are unfinished by definition and enter the remaining count
  // directly, so no post-pass lock round is needed.
  std::vector<size_t> selected;  // indices into `active`
  size_t skipped_unfinished = 0;
  if (max_steps == 0) {
    // Unbudgeted: step every session (finished ones no-op inside the
    // parallel pass) — no scheduling pass, exactly the pre-budget path.
    selected.resize(active.size());
    for (size_t i = 0; i < active.size(); ++i) selected[i] = i;
  } else {
    std::vector<size_t> eligible;  // indices into `active`, id order
    eligible.reserve(active.size());
    for (size_t i = 0; i < active.size(); ++i) {
      Session* s = active[i].second.get();
      std::lock_guard<std::mutex> lock(s->mu);
      if (s->next_obs < s->run->observations.size()) eligible.push_back(i);
    }
    if (max_steps >= eligible.size()) {
      selected = eligible;
    } else {
      // Deficit round-robin: every unfinished session earns one credit,
      // the max_steps highest-credit sessions (ties by session id)
      // advance and reset. Skipped sessions keep accumulating, so the
      // serviced set rotates and no session waits more than
      // ceil(eligible / max_steps) ticks.
      for (size_t i : eligible) ++active[i].second->deficit;
      selected = eligible;
      std::stable_sort(selected.begin(), selected.end(),
                       [&](size_t a, size_t b) {
                         return active[a].second->deficit >
                                active[b].second->deficit;
                       });
      selected.resize(max_steps);
      skipped_unfinished = eligible.size() - selected.size();
    }
  }

  ThreadPool* pool =
      options_.pool != nullptr ? options_.pool : &ThreadPool::Global();
  std::vector<uint8_t> stepped(selected.size(), 0);
  std::vector<uint8_t> unfinished(selected.size(), 0);
  std::vector<double> step_sec(selected.size(), 0.0);
  pool->ParallelFor(selected.size(), [&](size_t si) {
    Session* s = active[selected[si]].second.get();
    std::lock_guard<std::mutex> lock(s->mu);
    // Re-check under the session lock: a concurrent Advance may have
    // finished the session since the scheduling pass.
    if (s->next_obs < s->run->observations.size()) {
      const auto start = Clock::now();
      StepLocked(s);
      step_sec[si] = SecondsSince(start);
      s->elapsed_sec += step_sec[si];
      stepped[si] = 1;
    }
    unfinished[si] = s->next_obs < s->run->observations.size() ? 1 : 0;
    // Serviced sessions clear their fairness credit (each worker writes
    // only its own session; tick_mu_ excludes competing schedulers).
    s->deficit = 0;
  });

  size_t scored = 0;
  size_t remaining = skipped_unfinished;
  double elapsed = 0.0;
  for (size_t si = 0; si < selected.size(); ++si) {
    scored += stepped[si];
    remaining += unfinished[si];
    elapsed += step_sec[si];
  }
  observations_scored_.fetch_add(scored, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(stats_mu_);
  scoring_time_sec_ += elapsed;
  return remaining;
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
  const double decide_ms_per_run =
      SecondsSince(decide_start) * 1e3 / static_cast<double>(runs.size());
  std::vector<double> latency_ms(runs.size(), 0.0);
  std::vector<uint64_t> decisions(runs.size(), 0);
  std::vector<uint64_t> scored(runs.size(), 0);
  pool->ParallelFor(runs.size(), [&](size_t i) {
    const QueryRunResult& run = *runs[i];
    const auto start = Clock::now();
    std::vector<double>& series = out[i];
    series.reserve(run.observations.size());
    for (size_t oi = 0; oi < run.observations.size(); ++oi) {
      series.push_back(monitor.QueryProgressAt(run, decided[i], oi));
    }
    latency_ms[i] = decide_ms_per_run + SecondsSince(start) * 1e3;
    decisions[i] = CountDecisions(decided[i]);
    scored[i] = run.observations.size();
  });
  uint64_t total_scored = 0;
  for (uint64_t n : scored) total_scored += n;
  observations_scored_.fetch_add(total_scored, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(stats_mu_);
  for (size_t i = 0; i < runs.size(); ++i) {
    ++sessions_opened_;
    ++sessions_completed_;
    decisions_ += decisions[i];
    scoring_time_sec_ += latency_ms[i] / 1e3;
    PushLatencyLocked(latency_ms[i]);
  }
  return out;
}

MonitorService::Stats MonitorService::GetStats(
    std::vector<double>* latency_samples) const {
  // The ingest provider is fetched and called outside the service locks:
  // it reaches into the TrainerLoop, which itself calls back into the
  // service (SwapModels), so holding stats_mu_ across it could deadlock.
  std::function<IngestStats()> provider;
  {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    provider = ingest_provider_;
  }
  Stats stats;
  if (provider) stats.ingest = provider();
  stats.model_generation = model_generation();
  // Copy under the lock, sort outside it: the IO thread answering kStats
  // holds stats_mu_ for a copy, not for a sort, and one sort serves both
  // cuts.
  std::vector<double> samples;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats.sessions_opened = sessions_opened_;
    stats.sessions_completed = sessions_completed_;
    stats.decisions = decisions_;
    stats.scoring_time_sec = scoring_time_sec_;
    samples = replay_latency_ms_;
  }
  stats.observations_scored =
      observations_scored_.load(std::memory_order_relaxed);
  std::sort(samples.begin(), samples.end());
  stats.p50_replay_ms = PercentileSorted(samples, 50.0);
  stats.p95_replay_ms = PercentileSorted(samples, 95.0);
  if (latency_samples != nullptr) *latency_samples = std::move(samples);
  if (stats.scoring_time_sec > 0.0) {
    // Throughput over cumulative scoring time (accrued live at every
    // decision and timed observation tick, so open or early-closed
    // sessions are counted): per-core rates comparable across thread
    // counts.
    stats.decisions_per_sec =
        static_cast<double>(stats.decisions) / stats.scoring_time_sec;
    stats.observations_per_sec =
        static_cast<double>(stats.observations_scored) /
        stats.scoring_time_sec;
  }
  return stats;
}

}  // namespace rpe
