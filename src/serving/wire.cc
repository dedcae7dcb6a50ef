#include "serving/wire.h"

#include <cmath>
#include <type_traits>

#include "selection/features.h"

namespace rpe {
namespace {

/// Sequential little-endian writer. All wire integers are encoded with
/// memcpy so the codec is alignment- and strict-aliasing-safe.
class Writer {
 public:
  explicit Writer(size_t reserve) { out_.reserve(reserve); }

  template <typename T>
  void Put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    char raw[sizeof(T)];
    std::memcpy(raw, &value, sizeof(T));
    out_.append(raw, sizeof(T));
  }

  void PutBytes(const std::string& bytes) { out_.append(bytes); }

  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Sequential bounds-checked reader over an untrusted payload.
class Reader {
 public:
  explicit Reader(std::string_view payload) : payload_(payload) {}

  template <typename T>
  Status Get(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (payload_.size() - pos_ < sizeof(T)) {
      return Status::InvalidArgument("wire payload truncated");
    }
    std::memcpy(out, payload_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::OK();
  }

  Status GetBytes(std::string* out, size_t n) {
    if (payload_.size() - pos_ < n) {
      return Status::InvalidArgument("wire payload truncated");
    }
    out->assign(payload_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  /// Typed payloads are exact-size: trailing bytes are as much a protocol
  /// violation as missing ones (a lying encoder, not a storage fault).
  Status ExpectEnd() const {
    if (pos_ != payload_.size()) {
      return Status::InvalidArgument(
          "wire payload has " + std::to_string(payload_.size() - pos_) +
          " trailing byte(s)");
    }
    return Status::OK();
  }

 private:
  std::string_view payload_;
  size_t pos_ = 0;
};

std::string FinishFrame(MsgType type, uint8_t status, Writer* payload) {
  return EncodeFrame(type, status, payload->Take());
}

// --- wire record (see the layout in wire.h) --------------------------------

void PutString16(Writer* w, const std::string& s) {
  // Lengths travel as written; the decoder enforces the caps, so a lying
  // or oversized encoder is rejected by the peer rather than silently
  // truncated here.
  w->Put(static_cast<uint16_t>(s.size()));
  w->PutBytes(s);
}

void PutDoubles16(Writer* w, const std::vector<double>& v) {
  w->Put(static_cast<uint16_t>(v.size()));
  for (double d : v) w->Put(d);
}

size_t RecordWireBytes(const PipelineRecord& r) {
  return 3 * 2 + r.workload.size() + r.query.size() + r.tag.size() + 4 + 8 +
         3 * 2 + 8 * (r.features.size() + r.l1.size() + r.l2.size());
}

void PutRecord(Writer* w, const PipelineRecord& r) {
  PutString16(w, r.workload);
  PutString16(w, r.query);
  PutString16(w, r.tag);
  w->Put(static_cast<int32_t>(r.pipeline_id));
  w->Put(r.total_n);
  PutDoubles16(w, r.features);
  PutDoubles16(w, r.l1);
  PutDoubles16(w, r.l2);
}

Status GetString16(Reader* r, std::string* out, const char* field) {
  uint16_t len = 0;
  RPE_RETURN_NOT_OK(r->Get(&len));
  if (len > kMaxIngestStringBytes) {
    return Status::InvalidArgument(
        "wire record " + std::string(field) + " length " +
        std::to_string(len) + " exceeds the " +
        std::to_string(kMaxIngestStringBytes) + "-byte cap");
  }
  return r->GetBytes(out, len);
}

Status GetDoubles16(Reader* r, std::vector<double>* out, size_t expected,
                    const char* field) {
  uint16_t n = 0;
  RPE_RETURN_NOT_OK(r->Get(&n));
  if (n != expected) {
    return Status::InvalidArgument(
        "wire record " + std::string(field) + " arity " + std::to_string(n) +
        " != expected " + std::to_string(expected));
  }
  out->clear();
  out->reserve(n);
  for (uint16_t i = 0; i < n; ++i) {
    double d = 0.0;
    RPE_RETURN_NOT_OK(r->Get(&d));
    if (!std::isfinite(d)) {
      return Status::InvalidArgument("wire record " + std::string(field) +
                                     " carries a non-finite value");
    }
    out->push_back(d);
  }
  return Status::OK();
}

Status GetRecord(Reader* r, PipelineRecord* out) {
  RPE_RETURN_NOT_OK(GetString16(r, &out->workload, "workload"));
  RPE_RETURN_NOT_OK(GetString16(r, &out->query, "query"));
  RPE_RETURN_NOT_OK(GetString16(r, &out->tag, "tag"));
  int32_t pipeline_id = 0;
  RPE_RETURN_NOT_OK(r->Get(&pipeline_id));
  out->pipeline_id = pipeline_id;
  RPE_RETURN_NOT_OK(r->Get(&out->total_n));
  if (!std::isfinite(out->total_n)) {
    return Status::InvalidArgument(
        "wire record total_n carries a non-finite value");
  }
  // A record whose arity disagrees with this process's schema / estimator
  // table must be rejected at the wire, exactly as RecordsFromCsv rejects
  // it at the file boundary — a mixed-arity corpus breaks retraining.
  RPE_RETURN_NOT_OK(GetDoubles16(r, &out->features,
                                 FeatureSchema::Get().num_features(),
                                 "features"));
  RPE_RETURN_NOT_OK(GetDoubles16(
      r, &out->l1, static_cast<size_t>(kNumEstimatorKinds), "l1"));
  RPE_RETURN_NOT_OK(GetDoubles16(
      r, &out->l2, static_cast<size_t>(kNumEstimatorKinds), "l2"));
  return Status::OK();
}

}  // namespace

Status WireFrame::ToStatus() const {
  if (status == 0) return Status::OK();
  const auto code = static_cast<StatusCode>(status);
  switch (code) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kOutOfRange:
    case StatusCode::kNotImplemented:
    case StatusCode::kInternal:
    case StatusCode::kIOError:
    case StatusCode::kUnavailable:
      return Status(code, payload);
    case StatusCode::kOk:
      break;
  }
  return Status::Internal("unknown wire status code " +
                          std::to_string(int{status}) + ": " + payload);
}

std::string EncodeFrame(MsgType type, uint8_t status,
                        std::string_view payload) {
  Writer w(kFrameHeaderBytes + payload.size());
  w.Put(static_cast<uint32_t>(payload.size()));
  w.Put(static_cast<uint8_t>(type));
  w.Put(status);
  w.Put(static_cast<uint16_t>(0));  // reserved
  std::string out = w.Take();
  out.append(payload);
  return out;
}

std::string EncodeErrorFrame(MsgType type, const Status& error) {
  return EncodeFrame(type, static_cast<uint8_t>(error.code()),
                     error.message());
}

std::string EncodeOpenRequest(const OpenRequest& m) {
  Writer w(4);
  w.Put(m.run_index);
  return FinishFrame(MsgType::kOpen, 0, &w);
}

std::string EncodeOpenResponse(const OpenResponse& m) {
  Writer w(16);
  w.Put(m.session_id);
  w.Put(m.run_index);
  w.Put(m.num_observations);
  return FinishFrame(MsgType::kOpen, 0, &w);
}

std::string EncodeAdvanceRequest(const AdvanceRequest& m) {
  Writer w(12);
  w.Put(m.session_id);
  w.Put(m.max_steps);
  return FinishFrame(MsgType::kAdvance, 0, &w);
}

void AppendAdvanceResponse(const AdvanceResponse& m, std::string* out) {
  // Header and payload assembled on the stack, one append into `out`.
  constexpr uint32_t kPayloadBytes =
      sizeof m.progress + sizeof m.steps + sizeof m.done;
  char frame[kFrameHeaderBytes + kPayloadBytes];
  char* at = frame;
  const auto put = [&at](auto value) {
    std::memcpy(at, &value, sizeof value);
    at += sizeof value;
  };
  put(kPayloadBytes);
  put(static_cast<uint8_t>(MsgType::kAdvance));
  put(uint8_t{0});   // status OK
  put(uint16_t{0});  // reserved
  put(m.progress);
  put(m.steps);
  put(m.done);
  out->append(frame, sizeof frame);
}

std::string EncodeAdvanceResponse(const AdvanceResponse& m) {
  std::string out;
  AppendAdvanceResponse(m, &out);
  return out;
}

std::string EncodeProgressRequest(const ProgressRequest& m) {
  Writer w(8);
  w.Put(m.session_id);
  return FinishFrame(MsgType::kProgress, 0, &w);
}

std::string EncodeProgressResponse(const ProgressResponse& m) {
  Writer w(9);
  w.Put(m.progress);
  w.Put(m.done);
  return FinishFrame(MsgType::kProgress, 0, &w);
}

std::string EncodeCloseRequest(const CloseRequest& m) {
  Writer w(8);
  w.Put(m.session_id);
  return FinishFrame(MsgType::kClose, 0, &w);
}

std::string EncodeCloseResponse() {
  return EncodeFrame(MsgType::kClose, 0, {});
}

std::string EncodeStatsRequest() {
  return EncodeFrame(MsgType::kStats, 0, {});
}

std::string EncodeMetricsDumpRequest() {
  return EncodeFrame(MsgType::kMetricsDump, 0, {});
}

std::string EncodeMetricsDumpResponse(std::string_view text) {
  return EncodeFrame(MsgType::kMetricsDump, 0, text);
}

std::string EncodeIngestRecordRequest(const IngestRecordRequest& m) {
  Writer w(RecordWireBytes(m.record));
  PutRecord(&w, m.record);
  return FinishFrame(MsgType::kIngestRecord, 0, &w);
}

std::string EncodeIngestBatchRequest(const IngestBatchRequest& m) {
  size_t bytes = 4;
  for (const PipelineRecord& r : m.records) bytes += RecordWireBytes(r);
  Writer w(bytes);
  w.Put(static_cast<uint32_t>(m.records.size()));
  for (const PipelineRecord& r : m.records) PutRecord(&w, r);
  return FinishFrame(MsgType::kIngestBatch, 0, &w);
}

std::string EncodeIngestResponse(MsgType type, const IngestResponse& m) {
  Writer w(8);
  w.Put(m.accepted);
  w.Put(m.dropped);
  return FinishFrame(type, 0, &w);
}

std::string EncodeStatsResponse(const WireStats& m) {
  Writer w(25 * 8 + 2 * 8);
  w.Put(m.sessions_opened);
  w.Put(m.sessions_completed);
  w.Put(m.decisions);
  w.Put(m.observations_scored);
  w.Put(m.model_generation);
  w.Put(m.connections_accepted);
  w.Put(m.connections_closed);
  w.Put(m.frames_received);
  w.Put(m.frames_sent);
  w.Put(m.bytes_received);
  w.Put(m.bytes_sent);
  w.Put(m.protocol_errors);
  w.Put(m.io_errors);
  w.Put(m.wire_sessions_opened);
  w.Put(m.wire_sessions_closed);
  w.Put(m.advance_steps);
  w.Put(m.p50_replay_ms);
  w.Put(m.p95_replay_ms);
  w.Put(m.records_ingested);
  w.Put(m.records_ingest_dropped);
  w.Put(m.records_ingest_shed);
  w.Put(m.requests_shed);
  w.Put(m.ingest_pushed);
  w.Put(m.ingest_dropped);
  w.Put(m.ingest_drained);
  w.Put(m.ingest_queue_size);
  w.Put(m.retrains);
  return FinishFrame(MsgType::kStats, 0, &w);
}

Result<OpenRequest> DecodeOpenRequest(std::string_view payload) {
  Reader r(payload);
  OpenRequest m;
  RPE_RETURN_NOT_OK(r.Get(&m.run_index));
  RPE_RETURN_NOT_OK(r.ExpectEnd());
  return m;
}

Result<OpenResponse> DecodeOpenResponse(std::string_view payload) {
  Reader r(payload);
  OpenResponse m;
  RPE_RETURN_NOT_OK(r.Get(&m.session_id));
  RPE_RETURN_NOT_OK(r.Get(&m.run_index));
  RPE_RETURN_NOT_OK(r.Get(&m.num_observations));
  RPE_RETURN_NOT_OK(r.ExpectEnd());
  return m;
}

Result<AdvanceRequest> DecodeAdvanceRequest(std::string_view payload) {
  Reader r(payload);
  AdvanceRequest m;
  RPE_RETURN_NOT_OK(r.Get(&m.session_id));
  RPE_RETURN_NOT_OK(r.Get(&m.max_steps));
  RPE_RETURN_NOT_OK(r.ExpectEnd());
  if (m.max_steps == 0 || m.max_steps > kMaxAdvanceSteps) {
    return Status::InvalidArgument(
        "AdvanceRequest.max_steps " + std::to_string(m.max_steps) +
        " outside [1, " + std::to_string(kMaxAdvanceSteps) + "]");
  }
  return m;
}

Result<AdvanceResponse> DecodeAdvanceResponse(std::string_view payload) {
  Reader r(payload);
  AdvanceResponse m;
  RPE_RETURN_NOT_OK(r.Get(&m.progress));
  RPE_RETURN_NOT_OK(r.Get(&m.steps));
  RPE_RETURN_NOT_OK(r.Get(&m.done));
  RPE_RETURN_NOT_OK(r.ExpectEnd());
  return m;
}

Result<ProgressRequest> DecodeProgressRequest(std::string_view payload) {
  Reader r(payload);
  ProgressRequest m;
  RPE_RETURN_NOT_OK(r.Get(&m.session_id));
  RPE_RETURN_NOT_OK(r.ExpectEnd());
  return m;
}

Result<ProgressResponse> DecodeProgressResponse(std::string_view payload) {
  Reader r(payload);
  ProgressResponse m;
  RPE_RETURN_NOT_OK(r.Get(&m.progress));
  RPE_RETURN_NOT_OK(r.Get(&m.done));
  RPE_RETURN_NOT_OK(r.ExpectEnd());
  return m;
}

Result<CloseRequest> DecodeCloseRequest(std::string_view payload) {
  Reader r(payload);
  CloseRequest m;
  RPE_RETURN_NOT_OK(r.Get(&m.session_id));
  RPE_RETURN_NOT_OK(r.ExpectEnd());
  return m;
}

Result<WireStats> DecodeStatsResponse(std::string_view payload) {
  Reader r(payload);
  WireStats m;
  RPE_RETURN_NOT_OK(r.Get(&m.sessions_opened));
  RPE_RETURN_NOT_OK(r.Get(&m.sessions_completed));
  RPE_RETURN_NOT_OK(r.Get(&m.decisions));
  RPE_RETURN_NOT_OK(r.Get(&m.observations_scored));
  RPE_RETURN_NOT_OK(r.Get(&m.model_generation));
  RPE_RETURN_NOT_OK(r.Get(&m.connections_accepted));
  RPE_RETURN_NOT_OK(r.Get(&m.connections_closed));
  RPE_RETURN_NOT_OK(r.Get(&m.frames_received));
  RPE_RETURN_NOT_OK(r.Get(&m.frames_sent));
  RPE_RETURN_NOT_OK(r.Get(&m.bytes_received));
  RPE_RETURN_NOT_OK(r.Get(&m.bytes_sent));
  RPE_RETURN_NOT_OK(r.Get(&m.protocol_errors));
  RPE_RETURN_NOT_OK(r.Get(&m.io_errors));
  RPE_RETURN_NOT_OK(r.Get(&m.wire_sessions_opened));
  RPE_RETURN_NOT_OK(r.Get(&m.wire_sessions_closed));
  RPE_RETURN_NOT_OK(r.Get(&m.advance_steps));
  RPE_RETURN_NOT_OK(r.Get(&m.p50_replay_ms));
  RPE_RETURN_NOT_OK(r.Get(&m.p95_replay_ms));
  RPE_RETURN_NOT_OK(r.Get(&m.records_ingested));
  RPE_RETURN_NOT_OK(r.Get(&m.records_ingest_dropped));
  RPE_RETURN_NOT_OK(r.Get(&m.records_ingest_shed));
  RPE_RETURN_NOT_OK(r.Get(&m.requests_shed));
  RPE_RETURN_NOT_OK(r.Get(&m.ingest_pushed));
  RPE_RETURN_NOT_OK(r.Get(&m.ingest_dropped));
  RPE_RETURN_NOT_OK(r.Get(&m.ingest_drained));
  RPE_RETURN_NOT_OK(r.Get(&m.ingest_queue_size));
  RPE_RETURN_NOT_OK(r.Get(&m.retrains));
  RPE_RETURN_NOT_OK(r.ExpectEnd());
  return m;
}

Result<IngestRecordRequest> DecodeIngestRecordRequest(
    std::string_view payload) {
  Reader r(payload);
  IngestRecordRequest m;
  RPE_RETURN_NOT_OK(GetRecord(&r, &m.record));
  RPE_RETURN_NOT_OK(r.ExpectEnd());
  return m;
}

Result<IngestBatchRequest> DecodeIngestBatchRequest(std::string_view payload) {
  Reader r(payload);
  uint32_t count = 0;
  RPE_RETURN_NOT_OK(r.Get(&count));
  if (count == 0 || count > kMaxIngestBatchRecords) {
    return Status::InvalidArgument(
        "IngestBatchRequest count " + std::to_string(count) +
        " outside [1, " + std::to_string(kMaxIngestBatchRecords) + "]");
  }
  IngestBatchRequest m;
  m.records.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    PipelineRecord record;
    RPE_RETURN_NOT_OK(GetRecord(&r, &record));
    m.records.push_back(std::move(record));
  }
  RPE_RETURN_NOT_OK(r.ExpectEnd());
  return m;
}

Result<IngestResponse> DecodeIngestResponse(std::string_view payload) {
  Reader r(payload);
  IngestResponse m;
  RPE_RETURN_NOT_OK(r.Get(&m.accepted));
  RPE_RETURN_NOT_OK(r.Get(&m.dropped));
  RPE_RETURN_NOT_OK(r.ExpectEnd());
  return m;
}

Result<bool> FrameDecoder::Next(WireFrame* frame) {
  const size_t avail = buf_.size() - pos_;
  if (avail < kFrameHeaderBytes) {
    // Reclaim the consumed prefix while idle so a long-lived connection
    // does not grow the buffer without bound.
    if (pos_ > 0 && avail == 0) {
      buf_.clear();
      pos_ = 0;
    }
    return false;
  }
  uint32_t payload_len = 0;
  uint8_t type = 0;
  uint8_t status = 0;
  uint16_t reserved = 0;
  const char* head = buf_.data() + pos_;
  std::memcpy(&payload_len, head, 4);
  std::memcpy(&type, head + 4, 1);
  std::memcpy(&status, head + 5, 1);
  std::memcpy(&reserved, head + 6, 2);
  if (payload_len > max_payload_) {
    return Status::InvalidArgument(
        "wire frame payload length " + std::to_string(payload_len) +
        " exceeds the " + std::to_string(max_payload_) + "-byte cap");
  }
  if (type < kMinMsgType || type > kMaxMsgType) {
    return Status::InvalidArgument("unknown wire message type " +
                                   std::to_string(int{type}));
  }
  if (reserved != 0) {
    return Status::InvalidArgument(
        "wire frame reserved bits are nonzero (version mismatch?)");
  }
  if (avail < kFrameHeaderBytes + payload_len) return false;
  frame->type = static_cast<MsgType>(type);
  frame->status = status;
  frame->payload.assign(head + kFrameHeaderBytes, payload_len);
  pos_ += kFrameHeaderBytes + payload_len;
  // Compact once the consumed prefix dominates the buffer: amortized O(1)
  // per byte, keeps the resident footprint near the unread tail.
  if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  return true;
}

}  // namespace rpe
