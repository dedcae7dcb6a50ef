// TcpServer: the epoll TCP front-end of the serving tier. Untrusted
// clients speak the length-prefixed wire protocol (serving/wire.h) —
// Open/Advance/Progress/Close/Stats — against a ShardedMonitorService;
// this file turns "traffic enters via in-process replay" into "traffic
// enters via a socket" without adding a single lock to the scoring path.
//
// Threading / pinning model: N IO threads, each owning one epoll
// instance and a disjoint set of connections. Accepted connections are
// handed out round-robin and never migrate. IO thread t opens its
// connections' sessions on monitor shard (t % num_shards) via
// ShardedMonitorService::OpenSessionOnShard, so with io_threads ==
// num_shards (the default) the event loops align 1:1 with shards and a
// request never crosses a shard lock it didn't need — the only
// contention on a session's shard comes from the one IO thread that owns
// the session, plus the service-level Tick/publish machinery.
//
// Batched decode → deficit-fair advance: an IO thread drains every
// readable connection first, decoding all complete frames, answering
// cheap requests inline and deferring Advance work into a per-iteration
// batch. The batch then runs as a deficit round-robin — one observation
// step per pending request per round, exactly the service Tick's
// fairness discipline — so a connection asking for 4096 steps cannot
// starve one asking for 1. Per-connection FIFO response order is
// preserved: a connection's later frames are not dispatched until its
// deferred Advance has been answered.
//
// Backpressure: a connection's pending responses accumulate in a bounded
// write buffer. When it exceeds Options::max_write_buffer the server
// stops reading (and stops dispatching) from that connection until the
// buffer drains below half — a slow reader throttles itself, never the
// event loop or other connections.
//
// Online ingest + admission control: kIngestRecord / kIngestBatch frames
// stream PipelineRecords into the RecordIngestQueue handed to the
// constructor (the TrainerLoop drains it, retrains, and hot-swaps —
// generation bumps are visible in kStats responses mid-connection).
// Saturation is shed, never queued unboundedly and never dropped
// silently: a frame that exceeds the per-connection or global in-flight
// budget, or an ingest frame that would push the queue past its
// watermark, is answered with a kStatusBusy error frame in FIFO order
// and counted exactly (rpe_server_requests_shed_total /
// rpe_server_records_ingest_shed_total). Shed decisions happen at read
// time — the frame's payload is released immediately, so a flood costs
// inbox slots, not payload bytes — but the busy response still goes out
// in request order.
//
// Shutdown: Stop() closes the listen socket, wakes every IO thread,
// flushes pending write buffers for up to Options::drain_timeout, closes
// every connection (closing its sessions), and joins the threads — a
// SIGTERM'd server exits 0 with reconciled counters. Failure edges are
// failpoint-instrumented (server.accept / server.read / server.write /
// server.frame — see docs/ROBUSTNESS.md) so fault drills can hit the
// wire the same way they hit snapshots and the trainer.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "serving/ingest.h"
#include "serving/shard_router.h"
#include "serving/wire.h"

namespace rpe {

/// \brief Epoll event-loop TCP server over a ShardedMonitorService.
/// Start/Stop are not thread-safe against each other; everything the IO
/// threads do internally is.
class TcpServer {
 public:
  struct Options {
    /// TCP port to bind (loopback); 0 picks an ephemeral port — read it
    /// back with port() after Start().
    uint16_t port = 0;
    /// IO threads (event loops); 0 = one per monitor shard (the 1:1
    /// pinning the header comment describes).
    size_t io_threads = 0;
    /// Per-connection write-buffer cap; beyond it the connection's reads
    /// pause until the buffer drains below half (backpressure).
    size_t max_write_buffer = 1 << 20;
    /// How long Stop() keeps flushing pending responses before closing
    /// connections that still have unread bytes.
    std::chrono::milliseconds drain_timeout{2000};
    /// Admission control: max undispatched frames per connection before
    /// new sheddable frames are answered kStatusBusy.
    size_t max_inflight_per_conn = 128;
    /// Global cap on undispatched frames across all connections.
    size_t max_inflight_total = 4096;
    /// Ingest-queue watermark: an ingest frame whose records would push
    /// the queue past this is answered kStatusBusy. 0 = the queue's
    /// capacity (shed exactly when Push would start dropping).
    size_t ingest_shed_watermark = 0;
    /// Registry the server's counters and request-latency histogram live
    /// in (also the source kStats, a kMetricsDump frame and the /metrics
    /// endpoint render). Hand the service, queue and trainer the same
    /// registry, or kStats reports zeros for their fields. nullptr = a
    /// server-private registry, so tests that assert exact per-server
    /// counters stay isolated from each other.
    obs::MetricsRegistry* metrics = nullptr;
    /// Port of the HTTP /metrics exposition listener (loopback, GET
    /// only): -1 disables it, 0 picks an ephemeral port — read it back
    /// with metrics_port() after Start().
    int metrics_port = -1;
  };

  /// `service` and the runs behind `runs` must outlive the server. `runs`
  /// is the replay corpus OpenRequest.run_index indexes into (modulo).
  /// Without an ingest queue, ingest frames are answered NotImplemented.
  TcpServer(ShardedMonitorService* service,
            std::vector<const QueryRunResult*> runs, Options options);
  /// `ingest` (may be null) must outlive the server; it is the wire →
  /// TrainerLoop edge for kIngestRecord / kIngestBatch frames.
  TcpServer(ShardedMonitorService* service,
            std::vector<const QueryRunResult*> runs,
            RecordIngestQueue* ingest, Options options);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Bind + listen + spawn the acceptor and IO threads. Fails with a
  /// Status (nothing spawned) if the socket setup fails.
  Status Start();

  /// Drain and stop everything; idempotent, called by the destructor.
  void Stop();

  /// Bound port (after a successful Start()).
  uint16_t port() const { return port_; }

  /// Bound /metrics port (after Start(), when Options::metrics_port >= 0;
  /// 0 otherwise).
  uint16_t metrics_port() const { return metrics_port_; }

  /// The registry the server's counters live in (Options::metrics, or
  /// the server-private one).
  obs::MetricsRegistry& metrics_registry() { return *registry_; }

  /// The WireStats a StatsRequest returns right now: every field read
  /// from this server's registry cells (p50/p95 from the
  /// rpe_replay_latency_seconds histogram), so tests read exactly what
  /// clients see.
  WireStats BuildWireStats() const;

 private:
  struct Connection;
  struct InboxEntry;
  struct AdvanceWork;
  struct IoThread;

  void AcceptLoop();
  void IoLoop(IoThread* io);
  /// Read until a short read (the socket is drained; epoll is
  /// level-triggered), decode frames into the connection inbox. False =
  /// the connection died (already cleaned up).
  bool ReadInto(IoThread* io, Connection* conn);
  /// Dispatch queued frames in FIFO order until an Advance defers or the
  /// write buffer fills. Appends deferred Advance work to io->batch.
  void DispatchInbox(IoThread* io, Connection* conn);
  /// Run the deferred Advance batch deficit-fairly, answer each request.
  void RunAdvanceBatch(IoThread* io);
  /// Flush the write buffer; arms EPOLLOUT on partial writes, resumes
  /// paused reads once drained. False = the connection died.
  bool FlushWrites(IoThread* io, Connection* conn);
  void SendFrame(IoThread* io, Connection* conn, const std::string& frame);
  /// Account one frame just appended to conn->wbuf and apply write
  /// backpressure.
  void FrameQueued(IoThread* io, Connection* conn);
  void CloseConnection(IoThread* io, Connection* conn);
  void HandleFrame(IoThread* io, Connection* conn, const InboxEntry& entry);
  /// Close out one request answered at `done_ns`: record its end-to-end
  /// latency (from the read() that delivered it) in the request
  /// histogram, emit the root trace span carrying `arg`, and write the
  /// slow-request log line when the latency crosses the --slow-ms
  /// threshold.
  void FinishRequest(const char* name, uint64_t trace_id, uint64_t recv_ns,
                     uint64_t done_ns, uint64_t arg);
  /// Serve one accepted /metrics HTTP connection inline (blocking with
  /// short timeouts; runs on the acceptor thread).
  void HandleMetricsConn(int fd);
  /// Answer a frame shed at read time with kStatusBusy (FIFO order) and
  /// bump the exact shed counter (records for ingest, frames otherwise).
  void AnswerShed(IoThread* io, Connection* conn, const InboxEntry& entry);
  /// Push decoded records into the ingest queue (watermark shed, per-record
  /// `server.ingest` failpoint) and answer with an IngestResponse.
  void IngestRecords(IoThread* io, Connection* conn, MsgType type,
                     std::vector<PipelineRecord> records);
  bool UpdateEpoll(IoThread* io, Connection* conn);

  ShardedMonitorService* const service_;
  const std::vector<const QueryRunResult*> runs_;
  RecordIngestQueue* const ingest_;  ///< may be null (replay-only server)
  const Options options_;

  /// The server's counters are registry-owned obs::Counters (one relaxed
  /// sharded fetch_add per accrual, summed only on scrape) — the same
  /// objects back kStats, the exit table, kMetricsDump, and /metrics.
  struct Counters {
    obs::Counter* connections_accepted = nullptr;
    obs::Counter* connections_closed = nullptr;
    obs::Counter* frames_received = nullptr;
    obs::Counter* frames_sent = nullptr;
    obs::Counter* bytes_received = nullptr;
    obs::Counter* bytes_sent = nullptr;
    obs::Counter* protocol_errors = nullptr;
    obs::Counter* io_errors = nullptr;
    obs::Counter* wire_sessions_opened = nullptr;
    obs::Counter* wire_sessions_closed = nullptr;
    obs::Counter* advance_steps = nullptr;
    obs::Counter* requests_shed = nullptr;
    obs::Counter* records_ingested = nullptr;
    obs::Counter* records_ingest_dropped = nullptr;
    obs::Counter* records_ingest_shed = nullptr;
  };

  std::unique_ptr<obs::MetricsRegistry> own_registry_;
  obs::MetricsRegistry* registry_ = nullptr;
  Counters c_;
  obs::Histogram* request_latency_ = nullptr;  ///< end-to-end, ns
  /// The service / ingest / trainer cells kStats reads (see BuildWireStats).
  struct WireCells {
    obs::Counter* sessions_opened = nullptr;
    obs::Counter* sessions_completed = nullptr;
    obs::Counter* decisions = nullptr;
    obs::Counter* observations_scored = nullptr;
    obs::Gauge* model_generation = nullptr;
    obs::Histogram* replay_latency = nullptr;
    obs::Counter* ingest_pushed = nullptr;
    obs::Counter* ingest_dropped = nullptr;
    obs::Counter* ingest_drained = nullptr;
    obs::Gauge* ingest_queue_depth = nullptr;
    obs::Counter* retrains = nullptr;
  };
  WireCells w_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  int metrics_fd_ = -1;  ///< /metrics HTTP listener (-1 = disabled)
  uint16_t metrics_port_ = 0;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  bool joined_ = false;

  std::vector<std::unique_ptr<IoThread>> io_threads_;
  std::thread acceptor_;
  int acceptor_wake_fd_ = -1;  ///< eventfd that interrupts the acceptor
  std::atomic<uint64_t> next_io_thread_{0};
  /// Undispatched (non-shed) frames across all connections — the global
  /// in-flight budget admission control checks at read time.
  std::atomic<uint64_t> inflight_total_{0};
};

}  // namespace rpe
