#include "serving/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <unordered_map>

#include "common/failpoint.h"
#include "common/logging.h"
#include "obs/trace.h"

namespace rpe {
namespace {

/// Read-side scratch: one syscall's worth of bytes before they enter the
/// frame decoder.
constexpr size_t kReadChunk = 64 * 1024;

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

/// Frames admission control may refuse. kClose is exempt (it frees
/// resources — shedding it would pin sessions under the very overload
/// shedding exists to survive) and so are kStats and kMetricsDump
/// (observability must work when the server is saturated, or the
/// saturation is undebuggable).
bool Sheddable(MsgType type) {
  switch (type) {
    case MsgType::kOpen:
    case MsgType::kAdvance:
    case MsgType::kProgress:
    case MsgType::kIngestRecord:
    case MsgType::kIngestBatch:
      return true;
    case MsgType::kClose:
    case MsgType::kStats:
    case MsgType::kMetricsDump:
      return false;
  }
  return true;
}

/// Root-span name of a request, by frame type (static literals — the
/// trace ring stores pointers, not copies).
const char* SpanNameFor(MsgType type) {
  switch (type) {
    case MsgType::kOpen: return "request.open";
    case MsgType::kAdvance: return "request.advance";
    case MsgType::kProgress: return "request.progress";
    case MsgType::kClose: return "request.close";
    case MsgType::kStats: return "request.stats";
    case MsgType::kIngestRecord: return "request.ingest";
    case MsgType::kIngestBatch: return "request.ingest_batch";
    case MsgType::kMetricsDump: return "request.metrics_dump";
  }
  return "request";
}

/// Records an ingest frame offers, counted without decoding it (the frame
/// may be shed before decode): 1 for kIngestRecord; for kIngestBatch the
/// leading u32 count, clamped to the protocol bound so a lying prefix
/// cannot inflate the shed counter. A batch too short to carry its count
/// is counted as 0 offered — dispatch would reject it as a protocol
/// error, not shed it, so nothing is miscounted.
uint32_t IngestFrameRecords(const WireFrame& frame) {
  if (frame.type == MsgType::kIngestRecord) return 1;
  if (frame.payload.size() < 4) return 0;
  uint32_t count = 0;
  std::memcpy(&count, frame.payload.data(), 4);
  return std::min(count, kMaxIngestBatchRecords);
}

}  // namespace

/// \brief One accepted socket: frame reassembly state, the FIFO of
/// decoded-but-undispatched frames, the bounded write buffer, and the
/// sessions it opened (closed with the connection). Owned by exactly one
/// IO thread; nothing here is shared.
/// \brief One decoded frame awaiting dispatch. A frame shed by admission
/// control keeps its inbox slot (the busy response must leave in FIFO
/// order) but its payload is released at shed time and `shed` marks it
/// so dispatch answers without handling.
struct TcpServer::InboxEntry {
  WireFrame frame;
  /// Root span id of this request, minted at frame decode when tracing
  /// is enabled (0 otherwise). Child spans (shard route, advance steps,
  /// a swap's retrain/publish) parent to it through TraceContext.
  uint64_t trace_id = 0;
  /// Time of the read() that delivered the frame — the start of the
  /// request's end-to-end latency (always captured; the latency histogram
  /// records every request).
  uint64_t recv_ns = 0;
  /// Records the frame offered, captured before the payload was released
  /// (nonzero only for shed ingest frames).
  uint32_t shed_records = 0;
  bool shed = false;
};

struct TcpServer::Connection {
  int fd = -1;
  size_t shard = 0;  ///< every session of this connection opens here
  FrameDecoder decoder;
  /// Frames decoded but not yet dispatched. Dispatch stops at a deferred
  /// Advance (response order is per-connection FIFO) and while reads are
  /// paused by backpressure.
  std::deque<InboxEntry> inbox;
  /// True while this connection has an Advance in the IO thread's batch;
  /// later frames wait so responses keep request order.
  bool advancing = false;
  std::string wbuf;
  size_t woff = 0;  ///< flushed prefix of wbuf
  bool want_write = false;   ///< EPOLLOUT armed
  bool paused_read = false;  ///< EPOLLIN disarmed by backpressure
  bool dead = false;
  std::vector<uint64_t> sessions;  ///< open session ids (global)

  size_t pending_write() const { return wbuf.size() - woff; }
};

/// \brief One deferred Advance request inside an IO thread's per-iteration
/// batch (see RunAdvanceBatch).
struct TcpServer::AdvanceWork {
  Connection* conn = nullptr;
  uint64_t session = 0;
  uint64_t trace_id = 0;  ///< root span carried from the inbox entry
  uint64_t recv_ns = 0;   ///< read timestamp carried from the entry
  uint32_t budget = 0;
  uint32_t taken = 0;
  double progress = 0.0;
  bool done = false;
  bool retired = false;
  Status error;  ///< non-OK: answered as an error frame
};

/// \brief Per-IO-thread state: the epoll instance, an eventfd for
/// accept handoff + shutdown wakeup, and the owned connections. The
/// per-thread counters that used to live here are registry-owned
/// obs::Counters now (TcpServer::Counters) — same relaxed-increment hot
/// path (each thread writes its own shard cell), one source of truth for
/// kStats, the exit table, and the metrics scrape.
struct TcpServer::IoThread {
  size_t index = 0;
  int epoll_fd = -1;
  int wake_fd = -1;
  std::thread thread;

  std::mutex handoff_mu;
  std::vector<int> handoff;  ///< accepted fds awaiting adoption

  std::unordered_map<int, std::unique_ptr<Connection>> conns;
  std::vector<AdvanceWork> batch;
};

TcpServer::TcpServer(ShardedMonitorService* service,
                     std::vector<const QueryRunResult*> runs, Options options)
    : TcpServer(service, std::move(runs), nullptr, options) {}

TcpServer::TcpServer(ShardedMonitorService* service,
                     std::vector<const QueryRunResult*> runs,
                     RecordIngestQueue* ingest, Options options)
    : service_(service),
      runs_(std::move(runs)),
      ingest_(ingest),
      options_(options) {
  RPE_CHECK(service_ != nullptr);
  RPE_CHECK(!runs_.empty());
  RPE_CHECK(options_.max_inflight_per_conn > 0);
  RPE_CHECK(options_.max_inflight_total > 0);
  if (options_.metrics != nullptr) {
    registry_ = options_.metrics;
  } else {
    own_registry_ = std::make_unique<obs::MetricsRegistry>();
    registry_ = own_registry_.get();
  }
  // Table labels are the exact rows the serve-tcp exit table has always
  // printed (parsed by scripts/server_smoke_test.sh); the wire-session
  // counters carry none so the bare "sessions opened/completed" rows
  // keep matching the service-level counters first.
  c_.connections_accepted = registry_->GetCounter(
      "rpe_server_connections_accepted_total", "connections accepted");
  c_.connections_closed = registry_->GetCounter(
      "rpe_server_connections_closed_total", "connections closed");
  c_.frames_received = registry_->GetCounter(
      "rpe_server_frames_received_total", "frames received");
  c_.frames_sent =
      registry_->GetCounter("rpe_server_frames_sent_total", "frames sent");
  c_.bytes_received = registry_->GetCounter(
      "rpe_server_bytes_received_total", "bytes received");
  c_.bytes_sent =
      registry_->GetCounter("rpe_server_bytes_sent_total", "bytes sent");
  c_.protocol_errors = registry_->GetCounter(
      "rpe_server_protocol_errors_total", "protocol errors");
  c_.io_errors =
      registry_->GetCounter("rpe_server_io_errors_total", "io errors");
  c_.wire_sessions_opened =
      registry_->GetCounter("rpe_server_wire_sessions_opened_total");
  c_.wire_sessions_closed =
      registry_->GetCounter("rpe_server_wire_sessions_closed_total");
  c_.advance_steps = registry_->GetCounter(
      "rpe_server_advance_steps_total", "advance steps");
  c_.requests_shed = registry_->GetCounter(
      "rpe_server_requests_shed_total", "session requests shed");
  c_.records_ingested = registry_->GetCounter(
      "rpe_server_records_ingested_total", "wire records ingested");
  c_.records_ingest_dropped = registry_->GetCounter(
      "rpe_server_records_ingest_dropped_total", "wire records dropped");
  c_.records_ingest_shed = registry_->GetCounter(
      "rpe_server_records_ingest_shed_total", "wire records shed");
  request_latency_ =
      registry_->GetHistogram("rpe_server_request_latency_seconds");
  // The cells the service, queue and trainer accrue into when they share
  // this registry (find-or-create: the owners' table labels still win).
  w_.sessions_opened = registry_->GetCounter("rpe_sessions_opened_total");
  w_.sessions_completed =
      registry_->GetCounter("rpe_sessions_completed_total");
  w_.decisions = registry_->GetCounter("rpe_decisions_total");
  w_.observations_scored =
      registry_->GetCounter("rpe_observations_scored_total");
  w_.model_generation = registry_->GetGauge("rpe_model_generation");
  w_.replay_latency = registry_->GetHistogram("rpe_replay_latency_seconds");
  w_.ingest_pushed = registry_->GetCounter("rpe_ingest_pushed_total");
  w_.ingest_dropped = registry_->GetCounter("rpe_ingest_dropped_total");
  w_.ingest_drained = registry_->GetCounter("rpe_ingest_drained_total");
  w_.ingest_queue_depth = registry_->GetGauge("rpe_ingest_queue_depth");
  w_.retrains = registry_->GetCounter("rpe_retrains_total");
}

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start() {
  RPE_CHECK(!started_);
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
      0) {
    const Status st = Errno("bind");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, SOMAXCONN) < 0) {
    const Status st = Errno("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    const Status st = Errno("getsockname");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  port_ = ntohs(addr.sin_port);

  if (options_.metrics_port >= 0) {
    // The /metrics exposition listener: same loopback bind discipline as
    // the wire port, polled by the acceptor and served inline (it is an
    // operator endpoint, not a data path — see HandleMetricsConn).
    metrics_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK |
                                        SOCK_CLOEXEC, 0);
    if (metrics_fd_ < 0) {
      const Status st = Errno("metrics socket");
      ::close(listen_fd_);
      listen_fd_ = -1;
      return st;
    }
    ::setsockopt(metrics_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in maddr{};
    maddr.sin_family = AF_INET;
    maddr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    maddr.sin_port = htons(static_cast<uint16_t>(options_.metrics_port));
    socklen_t mlen = sizeof maddr;
    if (::bind(metrics_fd_, reinterpret_cast<sockaddr*>(&maddr),
               sizeof maddr) < 0 ||
        ::listen(metrics_fd_, 16) < 0 ||
        ::getsockname(metrics_fd_, reinterpret_cast<sockaddr*>(&maddr),
                      &mlen) < 0) {
      const Status st = Errno("metrics bind/listen");
      ::close(metrics_fd_);
      ::close(listen_fd_);
      metrics_fd_ = listen_fd_ = -1;
      return st;
    }
    metrics_port_ = ntohs(maddr.sin_port);
  }

  acceptor_wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (acceptor_wake_fd_ < 0) {
    const Status st = Errno("eventfd");
    if (metrics_fd_ >= 0) ::close(metrics_fd_);
    metrics_fd_ = -1;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }

  const size_t n_threads = options_.io_threads > 0 ? options_.io_threads
                                                   : service_->num_shards();
  for (size_t t = 0; t < n_threads; ++t) {
    auto io = std::make_unique<IoThread>();
    io->index = t;
    io->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    io->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (io->epoll_fd < 0 || io->wake_fd < 0) {
      const Status st = Errno("epoll_create1/eventfd");
      if (io->epoll_fd >= 0) ::close(io->epoll_fd);
      if (io->wake_fd >= 0) ::close(io->wake_fd);
      // No thread has been spawned yet (they all start below, after every
      // IoThread exists), so cleanup is just releasing fds.
      for (auto& prev : io_threads_) {
        ::close(prev->epoll_fd);
        ::close(prev->wake_fd);
      }
      io_threads_.clear();
      ::close(acceptor_wake_fd_);
      ::close(listen_fd_);
      if (metrics_fd_ >= 0) ::close(metrics_fd_);
      acceptor_wake_fd_ = listen_fd_ = metrics_fd_ = -1;
      return st;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = io->wake_fd;
    RPE_CHECK_EQ(
        ::epoll_ctl(io->epoll_fd, EPOLL_CTL_ADD, io->wake_fd, &ev), 0);
    io_threads_.push_back(std::move(io));
  }
  for (auto& io : io_threads_) {
    IoThread* raw = io.get();
    raw->thread = std::thread([this, raw] { IoLoop(raw); });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  started_ = true;
  return Status::OK();
}

void TcpServer::Stop() {
  if (!started_ || joined_) return;
  stop_.store(true);
  uint64_t one = 1;
  // Wake everyone: the acceptor out of poll(), each IO loop out of
  // epoll_wait. Writes to eventfds cannot fail here short of fd loss.
  [[maybe_unused]] ssize_t n =
      ::write(acceptor_wake_fd_, &one, sizeof one);
  for (auto& io : io_threads_) n = ::write(io->wake_fd, &one, sizeof one);
  acceptor_.join();
  for (auto& io : io_threads_) io->thread.join();
  for (auto& io : io_threads_) {
    // Accepted just before the stop, but the IO loop exited before
    // adopting them: close them here so no fd leaks and every accepted
    // connection is counted closed.
    for (const int fd : io->handoff) {
      ::close(fd);
      c_.connections_closed->Inc();
    }
    io->handoff.clear();
    ::close(io->epoll_fd);
    ::close(io->wake_fd);
  }
  ::close(acceptor_wake_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (metrics_fd_ >= 0) ::close(metrics_fd_);
  acceptor_wake_fd_ = listen_fd_ = metrics_fd_ = -1;
  joined_ = true;
}

void TcpServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd fds[3] = {{listen_fd_, POLLIN, 0},
                     {acceptor_wake_fd_, POLLIN, 0},
                     {metrics_fd_, POLLIN, 0}};  // -1 fd: kernel ignores it
    const int rc = ::poll(fds, 3, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (stop_.load(std::memory_order_relaxed)) break;
    if (metrics_fd_ >= 0 && (fds[2].revents & POLLIN) != 0) {
      while (true) {
        const int mfd = ::accept4(metrics_fd_, nullptr, nullptr,
                                  SOCK_CLOEXEC);
        if (mfd < 0) break;
        HandleMetricsConn(mfd);
      }
    }
    if ((fds[0].revents & POLLIN) == 0) continue;
    while (true) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) break;  // EAGAIN or transient error; poll again
      IoThread* io =
          io_threads_[next_io_thread_.fetch_add(1) % io_threads_.size()]
              .get();
      if (RPE_INJECT_FAULT("server.accept")) {
        // Injected accept failure: the connection is refused, the server
        // keeps serving (counted as an IO error on the target thread).
        ::close(fd);
        c_.io_errors->Inc();
        continue;
      }
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      c_.connections_accepted->Inc();
      {
        std::lock_guard<std::mutex> lock(io->handoff_mu);
        io->handoff.push_back(fd);
      }
      uint64_t note = 1;
      [[maybe_unused]] ssize_t n = ::write(io->wake_fd, &note, sizeof note);
    }
  }
}

void TcpServer::HandleMetricsConn(int fd) {
  // Deliberately minimal: a loopback operator endpoint serving one GET
  // per connection, blocking with short timeouts so a stuck scraper
  // cannot wedge the acceptor for more than ~a second. The data path
  // (wire port) is untouched by whatever happens here.
  timeval tv{};
  tv.tv_sec = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  char req[4096];
  size_t used = 0;
  while (used < sizeof req - 1) {
    const ssize_t n = ::read(fd, req + used, sizeof req - 1 - used);
    if (n <= 0) break;
    used += static_cast<size_t>(n);
    req[used] = '\0';
    if (std::strstr(req, "\r\n\r\n") != nullptr ||
        std::strstr(req, "\n\n") != nullptr) {
      break;
    }
  }
  req[used] = '\0';
  std::string response;
  if (std::strncmp(req, "GET /metrics", 12) == 0) {
    const std::string body = registry_->RenderPrometheus();
    response = "HTTP/1.1 200 OK\r\nContent-Type: text/plain; "
               "version=0.0.4; charset=utf-8\r\nContent-Length: " +
               std::to_string(body.size()) +
               "\r\nConnection: close\r\n\r\n" + body;
  } else {
    static constexpr char kBody[] = "only GET /metrics is served\n";
    response = "HTTP/1.1 404 Not Found\r\nContent-Type: text/plain\r\n"
               "Content-Length: " +
               std::to_string(sizeof kBody - 1) +
               "\r\nConnection: close\r\n\r\n" + kBody;
  }
  size_t off = 0;
  while (off < response.size()) {
    const ssize_t n =
        ::write(fd, response.data() + off, response.size() - off);
    if (n <= 0) break;
    off += static_cast<size_t>(n);
  }
  ::close(fd);
}

bool TcpServer::UpdateEpoll(IoThread* io, Connection* conn) {
  epoll_event ev{};
  ev.events = (conn->paused_read ? 0u : static_cast<uint32_t>(EPOLLIN)) |
              (conn->want_write ? static_cast<uint32_t>(EPOLLOUT) : 0u);
  ev.data.fd = conn->fd;
  return ::epoll_ctl(io->epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev) == 0;
}

void TcpServer::CloseConnection(IoThread* io, Connection* conn) {
  if (conn->dead) return;
  conn->dead = true;
  // A dropped connection closes its sessions server-side — dangling
  // sessions would otherwise pin run state and skew open-session counts.
  for (uint64_t id : conn->sessions) {
    service_->CloseSession(id);  // best effort; may already be closed
    c_.wire_sessions_closed->Inc();
  }
  conn->sessions.clear();
  // Undispatched frames die with the connection; give their in-flight
  // slots back so the global budget cannot leak under disconnect storms.
  for (const InboxEntry& entry : conn->inbox) {
    if (!entry.shed) {
      inflight_total_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  conn->inbox.clear();
  ::epoll_ctl(io->epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  c_.connections_closed->Inc();
  io->conns.erase(conn->fd);  // frees *conn
}

void TcpServer::SendFrame(IoThread* io, Connection* conn,
                          const std::string& frame) {
  conn->wbuf.append(frame);
  FrameQueued(io, conn);
}

void TcpServer::FrameQueued(IoThread* io, Connection* conn) {
  c_.frames_sent->Inc();
  if (conn->pending_write() > options_.max_write_buffer &&
      !conn->paused_read) {
    // Backpressure: stop reading (and thus dispatching) until the buffer
    // drains below half — see FlushWrites.
    conn->paused_read = true;
    UpdateEpoll(io, conn);
  }
}

bool TcpServer::FlushWrites(IoThread* io, Connection* conn) {
  while (conn->pending_write() > 0) {
    // MSG_NOSIGNAL: a peer that hung up with requests in flight is an
    // EPIPE on this connection, not a SIGPIPE for the process.
    ssize_t n = ::send(conn->fd, conn->wbuf.data() + conn->woff,
                       conn->pending_write(), MSG_NOSIGNAL);
    if (RPE_INJECT_FAULT("server.write")) {
      n = -1;
      errno = ECONNRESET;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!conn->want_write) {
          conn->want_write = true;
          UpdateEpoll(io, conn);
        }
        return true;
      }
      if (errno == EINTR) continue;
      c_.io_errors->Inc();
      CloseConnection(io, conn);
      return false;
    }
    conn->woff += static_cast<size_t>(n);
    c_.bytes_sent->Inc(static_cast<uint64_t>(n));
  }
  conn->wbuf.clear();
  conn->woff = 0;
  bool dirty = false;
  if (conn->want_write) {
    conn->want_write = false;
    dirty = true;
  }
  if (conn->paused_read &&
      conn->pending_write() < options_.max_write_buffer / 2) {
    conn->paused_read = false;
    dirty = true;
  }
  if (dirty) UpdateEpoll(io, conn);
  return true;
}

void TcpServer::HandleFrame(IoThread* io, Connection* conn,
                            const InboxEntry& entry) {
  const WireFrame& frame = entry.frame;
  obs::TraceSpan route_span("shard.route", conn->shard);
  switch (frame.type) {
    case MsgType::kOpen: {
      const auto req = DecodeOpenRequest(frame.payload);
      if (!req.ok()) {
        c_.protocol_errors->Inc();
        SendFrame(io, conn, EncodeErrorFrame(MsgType::kOpen, req.status()));
        return;
      }
      const uint32_t resolved =
          static_cast<uint32_t>(req->run_index % runs_.size());
      const QueryRunResult* run = runs_[resolved];
      const auto id = service_->OpenSessionOnShard(run, conn->shard);
      if (!id.ok()) {
        SendFrame(io, conn, EncodeErrorFrame(MsgType::kOpen, id.status()));
        return;
      }
      conn->sessions.push_back(*id);
      c_.wire_sessions_opened->Inc();
      OpenResponse resp;
      resp.session_id = *id;
      resp.run_index = resolved;
      resp.num_observations =
          static_cast<uint32_t>(run->observations.size());
      SendFrame(io, conn, EncodeOpenResponse(resp));
      return;
    }
    case MsgType::kAdvance: {
      const auto req = DecodeAdvanceRequest(frame.payload);
      if (!req.ok()) {
        c_.protocol_errors->Inc();
        SendFrame(io, conn,
                  EncodeErrorFrame(MsgType::kAdvance, req.status()));
        return;
      }
      AdvanceWork work;
      work.conn = conn;
      work.session = req->session_id;
      work.trace_id = entry.trace_id;
      work.recv_ns = entry.recv_ns;
      work.budget = req->max_steps;
      conn->advancing = true;  // holds later frames until answered
      io->batch.push_back(work);
      return;
    }
    case MsgType::kProgress: {
      const auto req = DecodeProgressRequest(frame.payload);
      if (!req.ok()) {
        c_.protocol_errors->Inc();
        SendFrame(io, conn,
                  EncodeErrorFrame(MsgType::kProgress, req.status()));
        return;
      }
      bool done = false;
      const auto progress = service_->Progress(req->session_id, &done);
      if (!progress.ok()) {
        SendFrame(io, conn,
                  EncodeErrorFrame(MsgType::kProgress, progress.status()));
        return;
      }
      ProgressResponse resp;
      resp.progress = *progress;
      resp.done = done ? 1 : 0;
      SendFrame(io, conn, EncodeProgressResponse(resp));
      return;
    }
    case MsgType::kClose: {
      const auto req = DecodeCloseRequest(frame.payload);
      if (!req.ok()) {
        c_.protocol_errors->Inc();
        SendFrame(io, conn, EncodeErrorFrame(MsgType::kClose, req.status()));
        return;
      }
      const Status closed = service_->CloseSession(req->session_id);
      if (!closed.ok()) {
        SendFrame(io, conn, EncodeErrorFrame(MsgType::kClose, closed));
        return;
      }
      auto it = std::find(conn->sessions.begin(), conn->sessions.end(),
                          req->session_id);
      if (it != conn->sessions.end()) conn->sessions.erase(it);
      c_.wire_sessions_closed->Inc();
      SendFrame(io, conn, EncodeCloseResponse());
      return;
    }
    case MsgType::kStats: {
      if (!frame.payload.empty()) {
        c_.protocol_errors->Inc();
        SendFrame(io, conn,
                  EncodeErrorFrame(
                      MsgType::kStats,
                      Status::InvalidArgument(
                          "StatsRequest carries a nonempty payload")));
        return;
      }
      SendFrame(io, conn, EncodeStatsResponse(BuildWireStats()));
      return;
    }
    case MsgType::kMetricsDump: {
      if (!frame.payload.empty()) {
        c_.protocol_errors->Inc();
        SendFrame(io, conn,
                  EncodeErrorFrame(
                      MsgType::kMetricsDump,
                      Status::InvalidArgument(
                          "MetricsDumpRequest carries a nonempty payload")));
        return;
      }
      // The wire twin of GET /metrics: the same RenderPrometheus text,
      // reachable through the protocol the load generator already speaks
      // (and, like kStats, never shed — see Sheddable).
      SendFrame(io, conn,
                EncodeMetricsDumpResponse(registry_->RenderPrometheus()));
      return;
    }
    case MsgType::kIngestRecord: {
      auto req = DecodeIngestRecordRequest(frame.payload);
      if (!req.ok()) {
        c_.protocol_errors->Inc();
        SendFrame(io, conn,
                  EncodeErrorFrame(MsgType::kIngestRecord, req.status()));
        return;
      }
      std::vector<PipelineRecord> records;
      records.push_back(std::move(req->record));
      IngestRecords(io, conn, MsgType::kIngestRecord, std::move(records));
      return;
    }
    case MsgType::kIngestBatch: {
      auto req = DecodeIngestBatchRequest(frame.payload);
      if (!req.ok()) {
        c_.protocol_errors->Inc();
        SendFrame(io, conn,
                  EncodeErrorFrame(MsgType::kIngestBatch, req.status()));
        return;
      }
      IngestRecords(io, conn, MsgType::kIngestBatch,
                    std::move(req->records));
      return;
    }
  }
  // Unreachable: FrameDecoder rejects unknown type bytes.
  c_.protocol_errors->Inc();
}

void TcpServer::AnswerShed(IoThread* io, Connection* conn,
                           const InboxEntry& entry) {
  (void)RPE_INJECT_FAULT("server.shed");  // sync hook: a shed was answered
  if (entry.shed_records > 0) {
    c_.records_ingest_shed->Inc(entry.shed_records);
  } else {
    c_.requests_shed->Inc();
  }
  SendFrame(io, conn,
            EncodeErrorFrame(
                entry.frame.type,
                Status::Unavailable(
                    "server overloaded: in-flight budget exceeded, retry "
                    "after backoff")));
}

void TcpServer::IngestRecords(IoThread* io, Connection* conn, MsgType type,
                              std::vector<PipelineRecord> records) {
  if (ingest_ == nullptr) {
    // Replay-only server: a well-formed ingest frame is not a protocol
    // error, the deployment just has no online loop to feed.
    SendFrame(io, conn,
              EncodeErrorFrame(type, Status::NotImplemented(
                                         "server has no ingest queue")));
    return;
  }
  const size_t watermark = options_.ingest_shed_watermark > 0
                               ? options_.ingest_shed_watermark
                               : ingest_->capacity();
  if (ingest_->size() + records.size() > watermark) {
    // Watermark shed: the whole frame is refused with busy before any
    // record is enqueued — partial acceptance would make client-side
    // reconciliation ambiguous. Queue-full drops below can then only
    // happen when another producer races us past the watermark.
    (void)RPE_INJECT_FAULT("server.shed");
    c_.records_ingest_shed->Inc(records.size());
    SendFrame(io, conn,
              EncodeErrorFrame(
                  type, Status::Unavailable(
                            "server overloaded: ingest queue at watermark, "
                            "retry after backoff")));
    return;
  }
  IngestResponse resp;
  for (PipelineRecord& record : records) {
    if (RPE_INJECT_FAULT("server.ingest")) {
      // Injected drop at the wire→queue edge: accounted exactly like a
      // queue-full drop, visible in the response and the counters.
      ++resp.dropped;
      continue;
    }
    if (ingest_->Push(std::move(record))) {
      ++resp.accepted;
    } else {
      ++resp.dropped;
    }
  }
  c_.records_ingested->Inc(resp.accepted);
  c_.records_ingest_dropped->Inc(resp.dropped);
  SendFrame(io, conn, EncodeIngestResponse(type, resp));
}

void TcpServer::DispatchInbox(IoThread* io, Connection* conn) {
  while (!conn->inbox.empty() && !conn->advancing && !conn->paused_read &&
         !conn->dead) {
    const InboxEntry entry = std::move(conn->inbox.front());
    conn->inbox.pop_front();
    if (entry.shed) {
      AnswerShed(io, conn, entry);
      FinishRequest("request.shed", entry.trace_id, entry.recv_ns,
                    MonotonicNanos(), 0);
      continue;
    }
    inflight_total_.fetch_sub(1, std::memory_order_relaxed);
    const MsgType type = entry.frame.type;
    obs::SlowScratch::BeginRequest();
    {
      // Child spans opened while handling (shard route, service calls)
      // parent to this request without threading ids through signatures.
      obs::TraceContext::Scope scope(entry.trace_id);
      HandleFrame(io, conn, entry);
    }
    // A kAdvance defers into the batch; its root span and latency sample
    // are recorded when RunAdvanceBatch answers it.
    if (!conn->advancing) {
      FinishRequest(SpanNameFor(type), entry.trace_id, entry.recv_ns,
                    MonotonicNanos(), 0);
    }
  }
}

void TcpServer::FinishRequest(const char* name, uint64_t trace_id,
                              uint64_t recv_ns, uint64_t done_ns,
                              uint64_t arg) {
  const uint64_t latency = done_ns > recv_ns ? done_ns - recv_ns : 0;
  request_latency_->Record(latency);
  obs::Tracer& tracer = obs::Tracer::Global();
  if (trace_id != 0) {
    tracer.Record(name, trace_id, 0, recv_ns, latency, arg);
  }
  const uint64_t threshold = tracer.slow_threshold_ns();
  if (threshold != 0 && latency >= threshold) {
    tracer.CountSlowRequest();
    RPE_LOG_WARN << "slow request " << name << ": "
                 << static_cast<double>(latency) / 1e6 << " ms ["
                 << obs::SlowScratch::Breakdown() << "]";
  }
}

void TcpServer::RunAdvanceBatch(IoThread* io) {
  // Deficit round-robin over the batch: one observation step per pending
  // request per round, so budgets interleave fairly (the front-end mirror
  // of MonitorService::Tick's discipline). Bounded by the per-request
  // kMaxAdvanceSteps cap the decoder enforces.
  std::vector<AdvanceWork>& batch = io->batch;
  size_t active = batch.size();
  while (active > 0) {
    for (AdvanceWork& w : batch) {
      if (w.retired) continue;
      // Each step's "advance.step" span (opened inside the service)
      // parents to the request whose budget it came from, even though the
      // batch interleaves requests deficit-fairly.
      obs::TraceContext::Scope scope(w.trace_id);
      const auto step = service_->Advance(w.session, &w.done);
      if (step.ok()) {
        w.progress = *step;
        ++w.taken;
        c_.advance_steps->Inc();
        if (w.taken >= w.budget) {
          w.retired = true;
          --active;
        }
        continue;
      }
      if (step.status().code() == StatusCode::kOutOfRange) {
        // Replay exhausted. If no step was taken this request, report the
        // resting progress so the response is still well-formed.
        if (w.taken == 0) {
          const auto progress = service_->Progress(w.session);
          if (progress.ok()) w.progress = *progress;
        }
        w.done = true;
      } else {
        w.error = step.status();
      }
      w.retired = true;
      --active;
    }
  }
  // Every request of the batch is answered at once: one clock read
  // closes all their latencies.
  const uint64_t answered_ns = MonotonicNanos();
  for (AdvanceWork& w : batch) {
    Connection* conn = w.conn;
    if (conn->dead) continue;
    if (!w.error.ok()) {
      SendFrame(io, conn, EncodeErrorFrame(MsgType::kAdvance, w.error));
    } else {
      AdvanceResponse resp;
      resp.progress = w.progress;
      resp.steps = w.taken;
      resp.done = w.done ? 1 : 0;
      AppendAdvanceResponse(resp, &conn->wbuf);
      FrameQueued(io, conn);
    }
    FinishRequest("request.advance", w.trace_id, w.recv_ns, answered_ns,
                  w.taken);
    conn->advancing = false;
  }
  batch.clear();
}

bool TcpServer::ReadInto(IoThread* io, Connection* conn) {
  char chunk[kReadChunk];
  obs::Tracer& tracer = obs::Tracer::Global();
  while (!conn->paused_read) {
    ssize_t n = ::read(conn->fd, chunk, sizeof chunk);
    if (RPE_INJECT_FAULT("server.read")) {
      n = -1;
      errno = ECONNRESET;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      c_.io_errors->Inc();
      CloseConnection(io, conn);
      return false;
    }
    if (n == 0) {  // peer closed
      CloseConnection(io, conn);
      return false;
    }
    c_.bytes_received->Inc(static_cast<uint64_t>(n));
    // One clock read per read(): every request this chunk completes
    // starts its end-to-end latency here.
    const uint64_t read_ns = MonotonicNanos();
    conn->decoder.Feed(chunk, static_cast<size_t>(n));
    const bool tracing = tracer.enabled();
    while (true) {
      const uint64_t decode_start = tracing ? MonotonicNanos() : 0;
      WireFrame frame;
      auto next = conn->decoder.Next(&frame);
      bool forced = false;
      if (next.ok() && *next && RPE_INJECT_FAULT("server.frame")) {
        // Injected framing fault: treat the frame as hostile.
        next = Status::IOError("injected failure: server.frame");
        forced = true;
      }
      if (!next.ok()) {
        // Hostile header (or injected framing fault): the stream cannot
        // be re-synchronized. Answer with the error, flush, drop.
        c_.protocol_errors->Inc(forced ? 0 : 1);
        if (forced) c_.io_errors->Inc();
        SendFrame(io, conn,
                  EncodeErrorFrame(MsgType::kStats, next.status()));
        FlushWrites(io, conn);
        if (!conn->dead) CloseConnection(io, conn);
        return false;
      }
      if (!*next) break;
      c_.frames_received->Inc();
      InboxEntry entry;
      entry.frame = std::move(frame);
      entry.recv_ns = read_ns;
      if (tracing) {
        // The root span id is minted here so every downstream child
        // (decode, route, advance steps, a swap's retrain) can parent to
        // it.
        entry.trace_id = tracer.NewSpanId();
        tracer.Record("frame.decode", tracer.NewSpanId(), entry.trace_id,
                      decode_start, MonotonicNanos() - decode_start,
                      static_cast<uint64_t>(entry.frame.type));
      }
      // Admission control happens here, at read time: a frame over the
      // per-connection or global in-flight budget is marked shed and its
      // payload released immediately (a flood costs inbox slots, not
      // payload bytes), but it keeps its slot so the busy response leaves
      // in FIFO order at dispatch.
      if (Sheddable(entry.frame.type) &&
          (conn->inbox.size() >= options_.max_inflight_per_conn ||
           inflight_total_.load(std::memory_order_relaxed) >=
               options_.max_inflight_total)) {
        entry.shed = true;
        if (entry.frame.type == MsgType::kIngestRecord ||
            entry.frame.type == MsgType::kIngestBatch) {
          entry.shed_records = IngestFrameRecords(entry.frame);
        }
        entry.frame.payload.clear();
        entry.frame.payload.shrink_to_fit();
      } else {
        inflight_total_.fetch_add(1, std::memory_order_relaxed);
      }
      conn->inbox.push_back(std::move(entry));
    }
    // epoll is level-triggered: a short read drained the socket, and
    // bytes arriving later raise EPOLLIN again, so the read() that would
    // only return EAGAIN is skipped.
    if (static_cast<size_t>(n) < sizeof chunk) return true;
  }
  return true;
}

void TcpServer::IoLoop(IoThread* io) {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (true) {
    const bool stopping = stop_.load(std::memory_order_relaxed);
    if (stopping) break;
    const int n = ::epoll_wait(io->epoll_fd, events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == io->wake_fd) {
        uint64_t drained = 0;
        [[maybe_unused]] ssize_t r =
            ::read(io->wake_fd, &drained, sizeof drained);
        // Adopt handed-off connections.
        std::vector<int> adopted;
        {
          std::lock_guard<std::mutex> lock(io->handoff_mu);
          adopted.swap(io->handoff);
        }
        for (int cfd : adopted) {
          auto conn = std::make_unique<Connection>();
          conn->fd = cfd;
          conn->shard = io->index % service_->num_shards();
          epoll_event ev{};
          ev.events = EPOLLIN;
          ev.data.fd = cfd;
          if (::epoll_ctl(io->epoll_fd, EPOLL_CTL_ADD, cfd, &ev) != 0) {
            ::close(cfd);
            c_.io_errors->Inc();
            continue;
          }
          io->conns.emplace(cfd, std::move(conn));
        }
        continue;
      }
      auto it = io->conns.find(fd);
      if (it == io->conns.end()) continue;
      Connection* conn = it->second.get();
      const uint32_t ev = events[i].events;
      if ((ev & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConnection(io, conn);
        continue;
      }
      if ((ev & EPOLLOUT) != 0 && !FlushWrites(io, conn)) continue;
      if ((ev & EPOLLIN) != 0 && !ReadInto(io, conn)) continue;
    }
    // Batched dispatch: every readable connection has decoded its frames;
    // answer cheap requests inline and interleave the Advance work
    // deficit-fairly, repeating until all frames decoded this iteration
    // are answered (each pass consumes at least one frame). Flushing can
    // lift a backpressure pause, which re-enables dispatch for frames the
    // pause was holding — hence the outer loop.
    bool dispatchable = true;
    while (dispatchable) {
      while (true) {
        for (auto& [fd, conn] : io->conns) DispatchInbox(io, conn.get());
        if (io->batch.empty()) break;
        RunAdvanceBatch(io);
      }
      // One flush per touched connection: responses for a whole batch
      // leave in as few write() calls as the kernel allows.
      for (auto it2 = io->conns.begin(); it2 != io->conns.end();) {
        Connection* conn = (it2++)->second.get();
        if (conn->pending_write() > 0) FlushWrites(io, conn);
      }
      dispatchable = false;
      for (auto& [fd, conn] : io->conns) {
        if (!conn->inbox.empty() && !conn->advancing &&
            !conn->paused_read) {
          dispatchable = true;
          break;
        }
      }
    }
  }

  // Drain: stop reading, flush what is already queued (bounded by
  // drain_timeout), then close everything — sessions included.
  const auto deadline =
      std::chrono::steady_clock::now() + options_.drain_timeout;
  // Answer frames already decoded before the stop landed.
  while (true) {
    for (auto& [fd, conn] : io->conns) DispatchInbox(io, conn.get());
    if (io->batch.empty()) break;
    RunAdvanceBatch(io);
  }
  bool pending = true;
  while (pending && std::chrono::steady_clock::now() < deadline) {
    pending = false;
    for (auto it = io->conns.begin(); it != io->conns.end();) {
      Connection* conn = (it++)->second.get();
      if (conn->pending_write() == 0) continue;
      if (!FlushWrites(io, conn)) continue;  // conn died and was erased
      if (!conn->dead && conn->pending_write() > 0) pending = true;
    }
    if (pending) {
      ::epoll_wait(io->epoll_fd, events, kMaxEvents, 10);
    }
  }
  while (!io->conns.empty()) {
    CloseConnection(io, io->conns.begin()->second.get());
  }
}

WireStats TcpServer::BuildWireStats() const {
  // A fixed view of registry cells: the same values /metrics,
  // kMetricsDump and the exit table render.
  const obs::Histogram::Snapshot latency = w_.replay_latency->Snap();
  WireStats w;
  w.sessions_opened = w_.sessions_opened->Value();
  w.sessions_completed = w_.sessions_completed->Value();
  w.decisions = w_.decisions->Value();
  w.observations_scored = w_.observations_scored->Value();
  w.model_generation = static_cast<uint64_t>(w_.model_generation->Value());
  w.connections_accepted = c_.connections_accepted->Value();
  w.connections_closed = c_.connections_closed->Value();
  w.frames_received = c_.frames_received->Value();
  w.frames_sent = c_.frames_sent->Value();
  w.bytes_received = c_.bytes_received->Value();
  w.bytes_sent = c_.bytes_sent->Value();
  w.protocol_errors = c_.protocol_errors->Value();
  w.io_errors = c_.io_errors->Value();
  w.wire_sessions_opened = c_.wire_sessions_opened->Value();
  w.wire_sessions_closed = c_.wire_sessions_closed->Value();
  w.advance_steps = c_.advance_steps->Value();
  w.p50_replay_ms = latency.Quantile(0.50) / 1e6;
  w.p95_replay_ms = latency.Quantile(0.95) / 1e6;
  w.records_ingested = c_.records_ingested->Value();
  w.records_ingest_dropped = c_.records_ingest_dropped->Value();
  w.records_ingest_shed = c_.records_ingest_shed->Value();
  w.requests_shed = c_.requests_shed->Value();
  w.ingest_pushed = w_.ingest_pushed->Value();
  w.ingest_dropped = w_.ingest_dropped->Value();
  w.ingest_drained = w_.ingest_drained->Value();
  w.ingest_queue_size = static_cast<uint64_t>(w_.ingest_queue_depth->Value());
  w.retrains = w_.retrains->Value();
  return w;
}

}  // namespace rpe
