#include "serving/trainer_loop.h"

#include <algorithm>
#include <cmath>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "obs/trace.h"

namespace rpe {

namespace {
using Clock = std::chrono::steady_clock;

/// Exponential backoff with a 64x cap: base, 2*base, 4*base, ...
std::chrono::milliseconds BackoffDelay(std::chrono::milliseconds base,
                                       uint64_t attempt) {
  const uint64_t factor = uint64_t{1} << std::min<uint64_t>(attempt, 6);
  return base * factor;
}
}  // namespace

TrainerLoop::TrainerLoop(RecordIngestQueue* queue, ModelPublisher* service,
                         Options options)
    : queue_(queue), service_(service), options_(std::move(options)) {
  RPE_CHECK(queue_ != nullptr);
  RPE_CHECK(service_ != nullptr);
  RPE_CHECK(!options_.pool.empty());
  RPE_CHECK(options_.min_corpus > 0);
  RPE_CHECK(options_.max_corpus >= options_.min_corpus);
  last_retrain_time_ = Clock::now();
  obs::MetricsRegistry* metrics = options_.metrics;
  if (metrics == nullptr) {
    own_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics = own_metrics_.get();
  }
  retrains_ =
      metrics->GetCounter("rpe_retrains_total", "retrains published");
  retrain_failures_ =
      metrics->GetCounter("rpe_retrain_failures_total", "retrain failures");
  retrain_recoveries_ = metrics->GetCounter("rpe_retrain_recoveries_total",
                                            "retrain recoveries");
  snapshot_write_failures_ = metrics->GetCounter(
      "rpe_snapshot_write_failures_total", "snapshot write failures");
  snapshot_write_retries_ = metrics->GetCounter(
      "rpe_snapshot_write_retries_total", "snapshot write retries");
  publish_failures_ =
      metrics->GetCounter("rpe_publish_failures_total", "publish failures");
  publish_retries_ =
      metrics->GetCounter("rpe_publish_retries_total", "publish retries");
  corpus_size_ =
      metrics->GetGauge("rpe_training_corpus_size", "training corpus");
  last_retrain_ms_ =
      metrics->GetGauge("rpe_last_retrain_ms", "last retrain (ms)");
  last_swap_generation_ = metrics->GetGauge("rpe_last_swap_generation");
}

TrainerLoop::~TrainerLoop() { Stop(); }

void TrainerLoop::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_) return;
  started_ = true;
  stop_.store(false);
  thread_ = std::thread([this] { ThreadMain(); });
}

void TrainerLoop::Stop() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    stop_.store(true);
    // Close before joining: it both shuts the intake (so live producers
    // cannot refill the queue and stall the final drain below) and wakes
    // a consumer thread sleeping in WaitAndDrain immediately instead of
    // after a full poll_interval.
    queue_->Close();
    if (thread_.joinable()) thread_.join();
    started_ = false;
  }
  // Drain what was accepted so pushed == drained and a pending threshold
  // can still fire.
  size_t drained;
  do {
    drained = RunOnce();
  } while (drained > 0);
}

void TrainerLoop::SeedCorpus(std::vector<PipelineRecord> records) {
  std::lock_guard<std::mutex> lock(run_mu_);
  for (auto& r : records) corpus_.push_back(std::move(r));
  while (corpus_.size() > options_.max_corpus) corpus_.pop_front();
  corpus_size_->Set(static_cast<int64_t>(corpus_.size()));
}

void TrainerLoop::ThreadMain() {
  while (!stop_.load()) {
    std::vector<PipelineRecord> batch;
    // Block on the queue outside run_mu_ so RunOnce callers never wait on
    // the poll interval.
    queue_->WaitAndDrain(&batch, options_.drain_batch,
                         options_.poll_interval);
    std::lock_guard<std::mutex> lock(run_mu_);
    MergeBatchLocked(&batch);
    MaybeRetrainLocked();
  }
}

size_t TrainerLoop::RunOnce() {
  std::vector<PipelineRecord> batch;
  const size_t n = queue_->DrainBatch(&batch, options_.drain_batch);
  std::lock_guard<std::mutex> lock(run_mu_);
  MergeBatchLocked(&batch);
  MaybeRetrainLocked();
  return n;
}

void TrainerLoop::MergeBatchLocked(std::vector<PipelineRecord>* batch) {
  if (batch->empty()) return;
  new_since_retrain_ += batch->size();
  has_pending_since_ = true;
  for (auto& r : *batch) corpus_.push_back(std::move(r));
  while (corpus_.size() > options_.max_corpus) corpus_.pop_front();
  corpus_size_->Set(static_cast<int64_t>(corpus_.size()));
}

void TrainerLoop::MaybeRetrainLocked() {
  // Both triggers require at least one new record, so a zero threshold
  // means "retrain on any new record", never an idle retrain storm.
  const bool rows_trip = new_since_retrain_ > 0 &&
                         new_since_retrain_ >= options_.retrain_min_records;
  const bool staleness_trip =
      options_.max_staleness.count() > 0 && has_pending_since_ &&
      Clock::now() - last_retrain_time_ >= options_.max_staleness;
  if (!(rows_trip || staleness_trip)) return;
  if (corpus_.size() < options_.min_corpus) return;
  // Quarantine after a failed cycle: serve the previous generation and
  // defer the next attempt — a persistent fault must not become a retrain
  // hot loop. The pending counters stay set, so leaving quarantine
  // retries without waiting for fresh records.
  if (consecutive_failures_ > 0 && Clock::now() < quarantine_until_) return;

  const auto start = Clock::now();
  // Spans the whole retrain → snapshot → publish cycle; the publish leg
  // below gets its own child span so a swap is attributable in a trace
  // dump even when the training step dominates.
  obs::TraceSpan retrain_span("trainer.retrain",
                              static_cast<uint64_t>(corpus_.size()));

  // "trainer.retrain" stands in for a failed training cycle (OOM, a bad
  // corpus, a crashed worker): nothing is published, the loop quarantines.
  if (RPE_INJECT_FAULT("trainer.retrain")) {
    FailCycleLocked("retrain failed");
    return;
  }
  const std::vector<PipelineRecord> snapshot(corpus_.begin(), corpus_.end());
  auto stack = std::make_shared<const SelectorStack>(
      SelectorStack::Train(snapshot, options_.pool, options_.params));

  if (!options_.snapshot_path.empty()) {
    Status saved;
    for (size_t attempt = 0;; ++attempt) {
      saved = SaveSelectorStack(*stack, options_.snapshot_path);
      if (saved.ok() || attempt >= options_.snapshot_write_retries) break;
      snapshot_write_retries_->Inc();
      std::this_thread::sleep_for(
          BackoffDelay(options_.retry_backoff, attempt));
    }
    if (!saved.ok()) {
      // Exhausted: losing the on-disk copy is survivable, losing the
      // publish is not — the fresh models still go out.
      RPE_LOG_WARN << "trainer_loop: snapshot write failed after "
                   << options_.snapshot_write_retries
                   << " retries: " << saved.ToString();
      snapshot_write_failures_->Inc();
    }
  }

  // "trainer.publish" stands in for a publish edge that cannot accept the
  // swap (a shard wedged mid-restart, a torn fan-out). Bounded retries,
  // then the stack is dropped and the loop quarantines.
  uint64_t generation = 0;
  bool published = false;
  {
    obs::TraceSpan publish_span("trainer.publish", retrain_span.id(),
                                /*arg=*/0);
    for (size_t attempt = 0;; ++attempt) {
      if (!RPE_INJECT_FAULT("trainer.publish")) {
        generation = service_->SwapModels(stack);
        published = true;
        break;
      }
      if (attempt >= options_.publish_retries) break;
      publish_retries_->Inc();
      std::this_thread::sleep_for(
          BackoffDelay(options_.retry_backoff, attempt));
    }
  }
  if (!published) {
    publish_failures_->Inc();
    FailCycleLocked("publish failed");
    return;
  }

  new_since_retrain_ = 0;
  has_pending_since_ = false;
  last_retrain_time_ = Clock::now();
  const double retrain_ms =
      std::chrono::duration<double, std::milli>(last_retrain_time_ - start)
          .count();
  if (consecutive_failures_ > 0) retrain_recoveries_->Inc();
  consecutive_failures_ = 0;

  last_swap_generation_->Set(static_cast<int64_t>(generation));
  corpus_size_->Set(static_cast<int64_t>(corpus_.size()));
  last_retrain_ms_->Set(std::llround(retrain_ms));
  retrains_->Inc();
  // Observe-only sync hook: tests wait for the nth successful publish
  // here (FailPoints::WaitForHits) instead of polling retrains().
  (void)RPE_INJECT_FAULT("trainer.retrain.done");
}

void TrainerLoop::FailCycleLocked(const char* what) {
  ++consecutive_failures_;
  quarantine_until_ =
      Clock::now() + BackoffDelay(options_.retrain_quarantine,
                                  consecutive_failures_ - 1);
  RPE_LOG_WARN << "trainer_loop: " << what << " (failure streak "
               << consecutive_failures_
               << "); serving the previous generation, quarantined";
  retrain_failures_->Inc();
}

}  // namespace rpe
