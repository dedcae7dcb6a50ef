// Wire protocol of the TCP serving front-end (serving/server.h): a
// length-prefixed binary framing for the session messages —
// Open / Advance / Progress / Close / Stats — plus the online-ingest
// messages IngestRecord / IngestBatch that stream PipelineRecords into
// the server's RecordIngestQueue, shared by the server and the load
// generator (tools/rpe_loadgen.cc). The codec lives in its own
// translation unit, with no socket anywhere in sight, so framing and
// message encode/decode are unit-testable (tests/wire_test.cpp) and
// fuzzable (tests/wire_fuzz_test.cpp) byte-for-byte.
//
// Frame layout (all integers little-endian, no padding):
//
//   offset  size  field
//   0       4     payload_len   bytes after this 8-byte header;
//                               must be <= kMaxPayloadBytes
//   4       1     type          MsgType (1..8); anything else is rejected
//   5       1     status        StatusCode; 0 on requests and successful
//                               responses. A response with status != 0
//                               carries the error message as its payload
//                               (kStatusBusy marks an admission-control
//                               rejection — retry after backoff).
//   6       2     reserved      must be zero (rejected otherwise) — the
//                               version/extension escape hatch
//   8       *     payload       message body (below)
//
// Requests and responses share the type byte; direction is implied by
// who sent the frame. Every request gets exactly one response, in
// request order per connection (the server's batch scheduler preserves
// per-connection FIFO even while it interleaves Advance work across
// connections — see serving/server.cc).
//
// Message payloads (sizes are exact; a typed decoder rejects any other
// payload length with Status, never reads out of bounds):
//
//   OpenRequest      u32 run_index      (server resolves modulo its run set)
//   OpenResponse     u64 session_id, u32 run_index (resolved),
//                    u32 num_observations
//   AdvanceRequest   u64 session_id, u32 max_steps (1..kMaxAdvanceSteps)
//   AdvanceResponse  f64 progress, u32 steps (taken), u8 done
//   ProgressRequest  u64 session_id
//   ProgressResponse f64 progress, u8 done
//   CloseRequest     u64 session_id
//   CloseResponse    (empty)
//   StatsRequest     (empty)
//   StatsResponse    WireStats (fixed field order, see struct)
//   IngestRecordRequest  one record element (selection/record.h)
//   IngestBatchRequest   u32 count (1..kMaxIngestBatchRecords), then
//                        `count` record elements back to back
//   IngestResponse   u32 accepted, u32 dropped (both request types)
//   MetricsDumpRequest   (empty)
//   MetricsDumpResponse  Prometheus text exposition bytes (the same
//                        document /metrics serves), opaque to the codec
//
// The record element is the only variable-length payload element. It is
// also the file element: an .rpsn record batch (serving/snapshot.h)
// stores the same bytes, so its layout, caps and validation live in one
// place, selection/record.h, and a record decodes through the same checks
// whether it arrives over the socket or from disk.
//
// Threat model: the decoder consumes untrusted bytes from the socket.
// Hostile lengths, truncation, type/status garbage, payload-size lies,
// record-length lies and non-finite doubles must all come back as Status
// (or "need more bytes"), never UB and never a partial record — this is
// enforced by the seeded wire fuzz harness under ASan/UBSan in CI.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "selection/record.h"

namespace rpe {

/// Hard ceiling on a frame payload. Real payloads are tens of bytes; the
/// cap exists so a hostile 4 GiB length prefix is rejected at the header,
/// before any allocation sized by attacker-controlled input.
inline constexpr size_t kMaxPayloadBytes = 1 << 20;

/// Frame header size in bytes (see layout above).
inline constexpr size_t kFrameHeaderBytes = 8;

/// Per-request ceiling on AdvanceRequest::max_steps: bounds the work one
/// frame can demand from an IO thread.
inline constexpr uint32_t kMaxAdvanceSteps = 1 << 16;

/// Per-frame ceiling on IngestBatchRequest record count: bounds the queue
/// work (and the decode allocation) one frame can demand.
inline constexpr uint32_t kMaxIngestBatchRecords = 512;

/// \brief Message discriminator (the frame's `type` byte). Values are
/// wire format — never renumber.
enum class MsgType : uint8_t {
  kOpen = 1,
  kAdvance = 2,
  kProgress = 3,
  kClose = 4,
  kStats = 5,
  kIngestRecord = 6,
  kIngestBatch = 7,
  kMetricsDump = 8,
};

/// Smallest/largest valid MsgType values, for header validation.
inline constexpr uint8_t kMinMsgType = 1;
inline constexpr uint8_t kMaxMsgType = 8;

/// Wire status byte of an admission-control rejection
/// (StatusCode::kUnavailable): the server refused the request because a
/// budget or watermark was exceeded — nothing failed, retry after
/// backoff. Never sent for Close or Stats requests.
inline constexpr uint8_t kStatusBusy =
    static_cast<uint8_t>(StatusCode::kUnavailable);

/// \brief One complete decoded frame: header fields + owned payload.
struct WireFrame {
  MsgType type = MsgType::kOpen;
  uint8_t status = 0;  ///< StatusCode; 0 = OK
  std::string payload;

  bool ok() const { return status == 0; }
  /// Reconstruct the Status carried by an error response (OK when
  /// status == 0). Unknown code bytes map to kInternal.
  Status ToStatus() const;
};

// ---------------------------------------------------------------------------
// Typed messages

struct OpenRequest {
  uint32_t run_index = 0;
};

struct OpenResponse {
  uint64_t session_id = 0;
  uint32_t run_index = 0;  ///< resolved (modulo the server's run set)
  uint32_t num_observations = 0;
};

struct AdvanceRequest {
  uint64_t session_id = 0;
  uint32_t max_steps = 1;  ///< 1..kMaxAdvanceSteps
};

struct AdvanceResponse {
  double progress = 0.0;  ///< after the last step taken
  uint32_t steps = 0;     ///< observation steps actually taken
  uint8_t done = 0;       ///< 1 once the replay is exhausted
};

struct ProgressRequest {
  uint64_t session_id = 0;
};

struct ProgressResponse {
  double progress = 0.0;
  uint8_t done = 0;
};

struct CloseRequest {
  uint64_t session_id = 0;
};

struct IngestRecordRequest {
  PipelineRecord record;
};

struct IngestBatchRequest {
  std::vector<PipelineRecord> records;  ///< 1..kMaxIngestBatchRecords
};

/// \brief Response to either ingest request type (the frame carries the
/// request's type byte). accepted + dropped equals the records offered;
/// a shed request gets a kStatusBusy error frame instead, so a record is
/// never silently lost.
struct IngestResponse {
  uint32_t accepted = 0;  ///< enqueued for the TrainerLoop
  uint32_t dropped = 0;   ///< refused at the queue edge (full / injected)
};

/// \brief StatsResponse payload: the serving tier's counters as seen over
/// the wire, plus the front-end's own IO counters. Field order is wire
/// format — append, never reorder.
struct WireStats {
  // MonitorService counters.
  uint64_t sessions_opened = 0;
  uint64_t sessions_completed = 0;
  uint64_t decisions = 0;
  uint64_t observations_scored = 0;
  uint64_t model_generation = 0;
  // TCP front-end counters (exact sums across IO threads).
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t frames_received = 0;
  uint64_t frames_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t bytes_sent = 0;
  uint64_t protocol_errors = 0;
  uint64_t io_errors = 0;
  uint64_t wire_sessions_opened = 0;
  uint64_t wire_sessions_closed = 0;
  uint64_t advance_steps = 0;
  // Replay latency percentiles (milliseconds) from the service window.
  double p50_replay_ms = 0.0;
  double p95_replay_ms = 0.0;
  // Online ingest + admission control (appended fields — order is wire
  // format). The records_* counters are the TCP front-end's view of the
  // wire→queue edge; the ingest_* counters are the queue's own (all
  // producers), so records_ingested == ingest_pushed whenever the wire is
  // the only producer, and ingest_pushed == ingest_drained +
  // ingest_queue_size at any consistent cut.
  uint64_t records_ingested = 0;        ///< wire records accepted into the queue
  uint64_t records_ingest_dropped = 0;  ///< wire records refused at the queue edge
  uint64_t records_ingest_shed = 0;     ///< wire records answered kStatusBusy
  uint64_t requests_shed = 0;           ///< session frames answered kStatusBusy
  uint64_t ingest_pushed = 0;           ///< queue-side accepted records
  uint64_t ingest_dropped = 0;          ///< queue-side drops (full / closed)
  uint64_t ingest_drained = 0;          ///< records handed to the TrainerLoop
  uint64_t ingest_queue_size = 0;       ///< records currently queued
  uint64_t retrains = 0;                ///< published retrain cycles
};

// ---------------------------------------------------------------------------
// Encoding (always succeeds; sizes are fixed and tiny)

/// Raw frame assembly: header + payload. `status` is the StatusCode byte.
std::string EncodeFrame(MsgType type, uint8_t status,
                        std::string_view payload);

/// A response frame carrying `error` for a request of type `type` (the
/// message text is the payload; must not be OK).
std::string EncodeErrorFrame(MsgType type, const Status& error);

std::string EncodeOpenRequest(const OpenRequest& m);
std::string EncodeOpenResponse(const OpenResponse& m);
std::string EncodeAdvanceRequest(const AdvanceRequest& m);
std::string EncodeAdvanceResponse(const AdvanceResponse& m);
/// Append the EncodeAdvanceResponse frame to `out` without a temporary
/// (the server writes replies straight into a connection's buffer).
void AppendAdvanceResponse(const AdvanceResponse& m, std::string* out);
std::string EncodeProgressRequest(const ProgressRequest& m);
std::string EncodeProgressResponse(const ProgressResponse& m);
std::string EncodeCloseRequest(const CloseRequest& m);
std::string EncodeCloseResponse();
std::string EncodeStatsRequest();
std::string EncodeStatsResponse(const WireStats& m);
std::string EncodeMetricsDumpRequest();
/// `text` is the Prometheus exposition document (must fit a frame).
std::string EncodeMetricsDumpResponse(std::string_view text);
std::string EncodeIngestRecordRequest(const IngestRecordRequest& m);
std::string EncodeIngestBatchRequest(const IngestBatchRequest& m);
/// `type` must be kIngestRecord or kIngestBatch (the response echoes the
/// request's type byte).
std::string EncodeIngestResponse(MsgType type, const IngestResponse& m);

// ---------------------------------------------------------------------------
// Decoding (bounds-checked; exact payload size required)

Result<OpenRequest> DecodeOpenRequest(std::string_view payload);
Result<OpenResponse> DecodeOpenResponse(std::string_view payload);
Result<AdvanceRequest> DecodeAdvanceRequest(std::string_view payload);
Result<AdvanceResponse> DecodeAdvanceResponse(std::string_view payload);
Result<ProgressRequest> DecodeProgressRequest(std::string_view payload);
Result<ProgressResponse> DecodeProgressResponse(std::string_view payload);
Result<CloseRequest> DecodeCloseRequest(std::string_view payload);
Result<WireStats> DecodeStatsResponse(std::string_view payload);
/// The record decoders validate structure AND content: length prefixes
/// against their caps and the remaining payload, feature/l1/l2 arity
/// against the process's FeatureSchema / estimator table, and every
/// double for finiteness — a hostile frame cannot plant a NaN in the
/// training corpus.
Result<IngestRecordRequest> DecodeIngestRecordRequest(
    std::string_view payload);
Result<IngestBatchRequest> DecodeIngestBatchRequest(std::string_view payload);
Result<IngestResponse> DecodeIngestResponse(std::string_view payload);

/// \brief Incremental frame reassembly over an untrusted byte stream.
/// Feed() appends whatever the socket produced (any chunking, including
/// one byte at a time); Next() extracts complete frames. A hostile
/// header — oversized length, unknown type, nonzero reserved bits —
/// comes back as Status, after which the stream is unrecoverable and the
/// connection must be dropped.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_payload = kMaxPayloadBytes)
      : max_payload_(max_payload) {}

  void Feed(const char* data, size_t n) { buf_.append(data, n); }
  void Feed(std::string_view bytes) { buf_.append(bytes); }

  /// True: *frame holds the next complete frame. False: more bytes are
  /// needed (partial header or partial payload). Status: the header is
  /// hostile and the stream cannot be re-synchronized.
  Result<bool> Next(WireFrame* frame);

  /// Bytes buffered but not yet consumed by Next().
  size_t buffered_bytes() const { return buf_.size() - pos_; }

 private:
  size_t max_payload_;
  std::string buf_;
  size_t pos_ = 0;  ///< consumed prefix of buf_
};

}  // namespace rpe
