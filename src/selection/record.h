// PipelineRecord: one training/evaluation example for estimator selection —
// the features of one executed pipeline plus the measured error of every
// candidate estimator on it. Records are captured once and reused across
// experiments and by online retraining (the paper's "training data can be
// captured at low overhead in a running system", §6.4).
//
// Records have exactly one binary encoding, the record element below. Wire
// ingest frames (serving/wire.h) carry it and .rpsn record batches
// (serving/snapshot.h) store it, so files and the socket share one layout,
// one set of caps and one validation. All integers little-endian, no
// padding; every length is its own prefix and every prefix is validated
// before a byte is read behind it:
//
//   record :=  u16 len, bytes   workload   (len <= kMaxIngestStringBytes)
//              u16 len, bytes   query      (same cap)
//              u16 len, bytes   tag        (same cap)
//              i32              pipeline_id
//              f64              total_n    (must be finite)
//              u16 n, f64 * n   features   (n must equal the feature
//                                          schema arity; values finite)
//              u16 n, f64 * n   l1         (n == kNumEstimatorKinds;
//                                          values finite)
//              u16 n, f64 * n   l2         (same)
//
// Doubles travel as raw IEEE-754 bits, so a round trip is bit-exact.
#pragma once

#include <string>
#include <vector>

#include "common/byte_io.h"
#include "common/status.h"
#include "progress/error.h"
#include "selection/features.h"

namespace rpe {

/// \brief One pipeline execution, featurized and labeled.
struct PipelineRecord {
  std::string workload;   ///< source workload label
  std::string query;      ///< query/template label
  int pipeline_id = 0;
  std::string tag;        ///< experiment dimension (skew/design/size bucket)
  double total_n = 0.0;   ///< true total GetNext calls in the pipeline
  std::vector<double> features;                 ///< full feature vector
  std::vector<double> l1;                       ///< per selectable estimator
  std::vector<double> l2;

  /// Index (into SelectableEstimators order) of the estimator with the
  /// smallest L1 error.
  size_t BestEstimator() const;
  double BestL1() const;
};

/// Featurize + evaluate all selectable estimators on one pipeline.
/// Returns false (skip) for degenerate pipelines with fewer than
/// `min_observations` samples in their activity window.
bool MakeRecord(const PipelineView& view, const std::string& workload,
                const std::string& query, const std::string& tag,
                PipelineRecord* out, size_t min_observations = 5);

/// Per-field ceiling on a record's string labels (workload / query /
/// tag): a training label, not a document.
inline constexpr uint32_t kMaxIngestStringBytes = 256;

/// The element's content rules on an in-memory record: every label within
/// its cap, every double finite, features/l1/l2 at the running binary's
/// arity. InvalidArgument names the first field that breaks a rule — the
/// same verdict GetRecordElement reaches on the encoded bytes, so an
/// encoder can refuse a record its decoder would reject.
Status ValidateRecordElement(const PipelineRecord& record);

/// Bytes PutRecordElement appends for `record`.
size_t RecordElementBytes(const PipelineRecord& record);

/// Append `record` as one element, as written: no validation (callers
/// that must not write an unreadable element run ValidateRecordElement
/// first; the wire encoders send as written and the peer's decoder
/// enforces the rules).
void PutRecordElement(const PipelineRecord& record, ByteWriter* w);

/// Decode one element from untrusted bytes. Hostile lengths, truncation,
/// arity mismatches and non-finite doubles all come back as Status, never
/// UB; on error *out holds no usable record.
Status GetRecordElement(ByteReader* r, PipelineRecord* out);

}  // namespace rpe
