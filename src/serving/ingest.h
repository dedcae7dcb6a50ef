// RecordIngestQueue: the observe→record tap of the online-learning loop
// (paper §6.4, "training data can be captured at low overhead in a running
// system"). Producers are running executors / workload drivers that push
// each completed, featurized PipelineRecord; the single consumer is the
// background TrainerLoop, which drains records in batches and folds them
// into the sliding training corpus.
//
// Shape: bounded multi-producer/single-consumer queue, mutex + condvar
// with batched drain. Push never blocks — when the queue is full the
// record is dropped and counted, so ingest can never apply backpressure
// to query execution (losing a training example is cheap; stalling a
// query is not). The drop counter is exact: every record offered is
// accounted as either pushed or dropped, and pushed == drained once the
// consumer has caught up.
//
// Counters live in the obs::MetricsRegistry handed to the constructor
// (rpe_ingest_pushed/dropped/drained/batches_total, the
// rpe_ingest_queue_depth gauge; nullptr = a queue-private registry), each
// bumped under the queue lock, so at any quiescent point
// pushed == drained + depth.
//
// Threading contract: all methods are thread-safe. Push may be called
// from any number of threads; DrainBatch/WaitAndDrain are intended for a
// single consumer (multiple consumers are safe but split the stream).
// Close() wakes blocked consumers; records offered after Close are
// counted as dropped.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.h"
#include "selection/record.h"

namespace rpe {

/// \brief Bounded MPSC queue of completed pipeline records. See the file
/// comment for the threading contract.
class RecordIngestQueue {
 public:
  explicit RecordIngestQueue(size_t capacity);
  RecordIngestQueue(size_t capacity, obs::MetricsRegistry* metrics);

  /// Offer one record. Returns true if accepted; false (and counts the
  /// record as dropped) when the queue is full or closed. Never blocks.
  bool Push(PipelineRecord record);

  /// Pop up to `max_records` records (FIFO) into `*out` (appended).
  /// Returns the number drained; never blocks.
  size_t DrainBatch(std::vector<PipelineRecord>* out, size_t max_records);

  /// Like DrainBatch, but blocks until at least one record is available,
  /// the queue is closed, or `timeout` elapses.
  size_t WaitAndDrain(std::vector<PipelineRecord>* out, size_t max_records,
                      std::chrono::milliseconds timeout);

  /// Reject future pushes and wake blocked consumers. Records already
  /// queued remain drainable.
  void Close();
  bool closed() const;

  size_t size() const;
  size_t capacity() const { return capacity_; }
  uint64_t pushed() const { return pushed_->Value(); }
  uint64_t dropped() const { return dropped_->Value(); }

 private:
  /// Pop up to `max_records` into `*out` (caller holds mu_).
  size_t DrainLocked(std::vector<PipelineRecord>* out, size_t max_records);

  const size_t capacity_;
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  obs::Counter* pushed_ = nullptr;   ///< records accepted into the queue
  obs::Counter* dropped_ = nullptr;  ///< rejected (queue full or closed)
  obs::Counter* drained_ = nullptr;  ///< records handed to the consumer
  obs::Counter* batches_ = nullptr;  ///< drains that returned >= 1 record
  obs::Gauge* depth_ = nullptr;      ///< records currently queued
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<PipelineRecord> queue_;
  bool closed_ = false;
};

}  // namespace rpe
