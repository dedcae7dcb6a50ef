#include "serving/ingest.h"

#include "common/failpoint.h"
#include "common/logging.h"

namespace rpe {

RecordIngestQueue::RecordIngestQueue(size_t capacity)
    : RecordIngestQueue(capacity, nullptr) {}

RecordIngestQueue::RecordIngestQueue(size_t capacity,
                                     obs::MetricsRegistry* metrics)
    : capacity_(capacity) {
  RPE_CHECK(capacity_ > 0);
  if (metrics == nullptr) {
    own_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics = own_metrics_.get();
  }
  pushed_ = metrics->GetCounter("rpe_ingest_pushed_total", "records pushed");
  dropped_ =
      metrics->GetCounter("rpe_ingest_dropped_total", "records dropped");
  drained_ =
      metrics->GetCounter("rpe_ingest_drained_total", "records drained");
  batches_ = metrics->GetCounter("rpe_ingest_batches_total");
  depth_ = metrics->GetGauge("rpe_ingest_queue_depth", "ingest queue");
}

bool RecordIngestQueue::Push(PipelineRecord record) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // "ingest.push": the record is rejected as if the queue were full —
    // same drop accounting, so injected losses stay exact.
    if (closed_ || queue_.size() >= capacity_ ||
        RPE_INJECT_FAULT("ingest.push")) {
      dropped_->Inc();
      return false;
    }
    queue_.push_back(std::move(record));
    pushed_->Inc();
    depth_->Set(static_cast<int64_t>(queue_.size()));
  }
  cv_.notify_one();
  return true;
}

size_t RecordIngestQueue::DrainLocked(std::vector<PipelineRecord>* out,
                                      size_t max_records) {
  const size_t n = std::min(max_records, queue_.size());
  if (n == 0) return 0;
  for (size_t i = 0; i < n; ++i) {
    out->push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  drained_->Inc(n);
  batches_->Inc();
  depth_->Set(static_cast<int64_t>(queue_.size()));
  return n;
}

size_t RecordIngestQueue::DrainBatch(std::vector<PipelineRecord>* out,
                                     size_t max_records) {
  std::lock_guard<std::mutex> lock(mu_);
  return DrainLocked(out, max_records);
}

size_t RecordIngestQueue::WaitAndDrain(std::vector<PipelineRecord>* out,
                                       size_t max_records,
                                       std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  // "ingest.wait": observe-only sync hook — tests block in WaitForHits
  // until the consumer has reached this wait instead of sleeping.
  (void)RPE_INJECT_FAULT("ingest.wait");
  cv_.wait_for(lock, timeout, [&] { return !queue_.empty() || closed_; });
  return DrainLocked(out, max_records);
}

void RecordIngestQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool RecordIngestQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

size_t RecordIngestQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace rpe
