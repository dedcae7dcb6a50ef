#include "selection/record.h"

#include <algorithm>
#include <cmath>

namespace rpe {

size_t PipelineRecord::BestEstimator() const {
  // Only the selectable candidates compete; oracle-model entries (if
  // present at the tail) are excluded.
  const size_t n =
      std::min(l1.size(), static_cast<size_t>(kNumSelectableEstimators));
  size_t best = 0;
  for (size_t i = 1; i < n; ++i) {
    if (l1[i] < l1[best]) best = i;
  }
  return best;
}

double PipelineRecord::BestL1() const { return l1[BestEstimator()]; }

bool MakeRecord(const PipelineView& view, const std::string& workload,
                const std::string& query, const std::string& tag,
                PipelineRecord* out, size_t min_observations) {
  if (view.pipeline->first_obs < 0) return false;
  const size_t window = static_cast<size_t>(view.pipeline->last_obs -
                                            view.pipeline->first_obs) + 1;
  if (window < min_observations) return false;
  out->workload = workload;
  out->query = query;
  out->pipeline_id = view.pipeline->id;
  out->tag = tag;
  out->total_n = 0.0;
  for (int id : view.pipeline->nodes) {
    out->total_n += view.run->true_n[static_cast<size_t>(id)];
  }
  out->features = ExtractAllFeatures(view);
  const auto errors = EvaluateAllEstimators(view);
  out->l1.clear();
  out->l2.clear();
  for (const auto& e : errors) {
    out->l1.push_back(e.l1);
    out->l2.push_back(e.l2);
  }
  return true;
}

namespace {

Status CheckLabel(size_t len, const char* field) {
  if (len <= kMaxIngestStringBytes) return Status::OK();
  return Status::InvalidArgument(
      "record " + std::string(field) + " length " + std::to_string(len) +
      " exceeds the " + std::to_string(kMaxIngestStringBytes) + "-byte cap");
}

// A record whose arity disagrees with this binary's schema / estimator
// table (e.g. one captured by a binary with a different feature list) is
// rejected, not silently re-indexed: a mixed-arity corpus breaks training.
Status CheckArity(size_t n, size_t expected, const char* field) {
  if (n == expected) return Status::OK();
  return Status::InvalidArgument("record " + std::string(field) + " arity " +
                                 std::to_string(n) + " != expected " +
                                 std::to_string(expected));
}

Status NonFinite(const char* field) {
  return Status::InvalidArgument("record " + std::string(field) +
                                 " carries a non-finite value");
}

size_t NumFeatures() { return FeatureSchema::Get().num_features(); }
constexpr size_t kNumLevels = static_cast<size_t>(kNumEstimatorKinds);

/// Whether every value is finite, without a branch per value: x * 0 is 0
/// for a finite x and NaN for NaN or ±Inf, and a NaN survives any sum.
/// Two sums, so consecutive adds overlap (about twice as fast as an
/// early-exit std::isfinite loop over a feature vector).
bool AllFinite(const std::vector<double>& v) {
  double a = 0.0, b = 0.0;
  size_t i = 0;
  for (; i + 2 <= v.size(); i += 2) {
    a += v[i] * 0.0;
    b += v[i + 1] * 0.0;
  }
  if (i < v.size()) a += v[i] * 0.0;
  return a + b == 0.0;
}

Status CheckDoubles(const std::vector<double>& v, size_t expected,
                    const char* field) {
  RPE_RETURN_NOT_OK(CheckArity(v.size(), expected, field));
  return AllFinite(v) ? Status::OK() : NonFinite(field);
}

void PutString16(const std::string& s, ByteWriter* w) {
  w->Put(static_cast<uint16_t>(s.size()));
  w->PutBytes(s);
}

void PutDoubles16(const std::vector<double>& v, ByteWriter* w) {
  w->Put(static_cast<uint16_t>(v.size()));
  w->PutArray(v.data(), v.size());
}

Status GetString16(ByteReader* r, std::string* out, const char* field) {
  uint16_t len = 0;
  RPE_RETURN_NOT_OK(r->Get(&len));
  RPE_RETURN_NOT_OK(CheckLabel(len, field));
  return r->GetBytes(out, len);
}

Status GetDoubles16(ByteReader* r, std::vector<double>* out, size_t expected,
                    const char* field) {
  uint16_t n = 0;
  RPE_RETURN_NOT_OK(r->Get(&n));
  // The arity check bounds the allocation before any value is read.
  RPE_RETURN_NOT_OK(CheckArity(n, expected, field));
  out->resize(n);
  RPE_RETURN_NOT_OK(r->GetArray(out->data(), n));
  return CheckDoubles(*out, expected, field);
}

}  // namespace

Status ValidateRecordElement(const PipelineRecord& record) {
  RPE_RETURN_NOT_OK(CheckLabel(record.workload.size(), "workload"));
  RPE_RETURN_NOT_OK(CheckLabel(record.query.size(), "query"));
  RPE_RETURN_NOT_OK(CheckLabel(record.tag.size(), "tag"));
  if (!std::isfinite(record.total_n)) return NonFinite("total_n");
  RPE_RETURN_NOT_OK(CheckDoubles(record.features, NumFeatures(), "features"));
  RPE_RETURN_NOT_OK(CheckDoubles(record.l1, kNumLevels, "l1"));
  return CheckDoubles(record.l2, kNumLevels, "l2");
}

size_t RecordElementBytes(const PipelineRecord& record) {
  return 3 * 2 + record.workload.size() + record.query.size() +
         record.tag.size() + 4 + 8 + 3 * 2 +
         8 * (record.features.size() + record.l1.size() + record.l2.size());
}

void PutRecordElement(const PipelineRecord& record, ByteWriter* w) {
  PutString16(record.workload, w);
  PutString16(record.query, w);
  PutString16(record.tag, w);
  w->Put(static_cast<int32_t>(record.pipeline_id));
  w->Put(record.total_n);
  PutDoubles16(record.features, w);
  PutDoubles16(record.l1, w);
  PutDoubles16(record.l2, w);
}

Status GetRecordElement(ByteReader* r, PipelineRecord* out) {
  RPE_RETURN_NOT_OK(GetString16(r, &out->workload, "workload"));
  RPE_RETURN_NOT_OK(GetString16(r, &out->query, "query"));
  RPE_RETURN_NOT_OK(GetString16(r, &out->tag, "tag"));
  int32_t pipeline_id = 0;
  RPE_RETURN_NOT_OK(r->Get(&pipeline_id));
  out->pipeline_id = pipeline_id;
  RPE_RETURN_NOT_OK(r->Get(&out->total_n));
  if (!std::isfinite(out->total_n)) return NonFinite("total_n");
  RPE_RETURN_NOT_OK(
      GetDoubles16(r, &out->features, NumFeatures(), "features"));
  RPE_RETURN_NOT_OK(GetDoubles16(r, &out->l1, kNumLevels, "l1"));
  return GetDoubles16(r, &out->l2, kNumLevels, "l2");
}

}  // namespace rpe
