// bench_client: the load-driving half of the end-to-end benchmark
// (perfbench/run.py starts `rpe_cli serve-tcp` and then this program).
//
// It rebuilds, in process, the exact serving state the server built at
// start-up (same workload, same records, same trained selector stack) and
// uses it as the reference every served value is checked against. Then it
// drives one workload over loopback:
//
//   poll     closed loop; each connection keeps 64 sessions open in two
//            groups of 32; a group's round is one Advance(max_steps=1)
//            per open session in a single write, and both groups' rounds
//            are in flight.
//   open     open loop; seeded Poisson session arrivals at --rate, each
//            session Open -> Advance(kMaxAdvanceSteps) -> Close, timed
//            from its due time.
//   ingest   the open loop at --rate plus a third connection that streams
//            real PipelineRecords at --ingest-rate and polls kStats for
//            the model generation (publish lag).
//
// Every run starts with a verification sweep (each of the server's runs
// polled once, step by step, and compared bit for bit with
// ProgressMonitor::ReplayQueryProgress), then --warmup seconds of untimed
// traffic, then the --seconds timed window. The poll and open workloads
// end with --probes unloaded ingest -> retrain -> publish probes. The
// program writes raw results into --out (result.json, latency samples as
// little-endian doubles, Prometheus scrapes taken before traffic, at both
// window edges and after traffic); run.py turns them into metrics.
//
// With --trace 1 the calls into each library layer are also timed in
// process (shard router, monitor, selector scoring, ingest queue, wire
// codec, snapshot encode) and the client records its own spans into
// client_trace.json.
#include <arpa/inet.h>
#include <sched.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <dirent.h>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "harness/runner.h"
#include "obs/trace.h"
#include "schedule.h"
#include "selection/monitor.h"
#include "serving/ingest.h"
#include "serving/shard_router.h"
#include "serving/snapshot.h"
#include "serving/wire.h"

namespace perfbench {
namespace {

using rpe::Status;
using rpe::WireFrame;

uint64_t Now() { return rpe::MonotonicNanos(); }
double Secs(uint64_t ns) { return static_cast<double>(ns) / 1e9; }
double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

// ---------------------------------------------------------------------------
// Configuration

/// \brief One running server: wire port, /metrics port, process id.
struct Target {
  uint16_t port = 0;
  uint16_t metrics_port = 0;
  int pid = 0;
};

struct Config {
  std::string mode;  ///< poll | open | ingest
  std::vector<Target> targets;  ///< servers, driven one after another
  uint64_t seed = 1;
  double seconds = 10.0;
  double warmup = 2.0;
  bool trace = false;
  std::string out;
  // Server workload (must match the serve-tcp flags).
  size_t queries = 200;
  double scale = 10.0;
  size_t trees = 50;
  size_t retrain_every = 64;  ///< must match the server's --retrain-every
  // Traffic shape.
  double rate = 0.0;         ///< open-loop session arrivals per second
  double ingest_rate = 0.0;  ///< records per second (ingest mode)
  size_t probes = 0;         ///< unloaded publish probes after the window
};

// Fixed traffic shape: two session connections (one per server IO
// thread); in poll mode each keeps 64 sessions open in two groups of 32
// with both groups' rounds in flight.
constexpr size_t kConns = 2;
constexpr size_t kSlots = 64;
constexpr size_t kDepth = 2;
constexpr size_t kIngestBatch = 16;  ///< records per ingest frame
/// kStats poll period while a publish is pending. A kStats reply costs the
/// IO thread about 2 ms (BuildWireStats), so polling faster would stall
/// the sessions that share the thread; 20 ms quantizes a lag of about a
/// second by 2%.
constexpr uint64_t kStatsPollNs = 20'000'000;

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) flags[key.substr(2)] = argv[i + 1];
  }
  return flags;
}

Config ParseConfig(const std::map<std::string, std::string>& f) {
  Config c;
  auto get = [&](const char* k, const std::string& d) {
    auto it = f.find(k);
    return it == f.end() ? d : it->second;
  };
  c.mode = get("mode", "poll");
  // --servers port:metrics_port:pid[,port:metrics_port:pid...]
  std::istringstream servers(get("servers", ""));
  std::string item;
  while (std::getline(servers, item, ',')) {
    Target t;
    char sep1 = 0, sep2 = 0;
    std::istringstream fields(item);
    if (fields >> t.port >> sep1 >> t.metrics_port >> sep2 >> t.pid &&
        sep1 == ':' && sep2 == ':') {
      c.targets.push_back(t);
    }
  }
  c.seed = std::stoull(get("seed", "1"));
  c.seconds = std::stod(get("seconds", "10"));
  c.warmup = std::stod(get("warmup", "2"));
  c.trace = get("trace", "0") == "1";
  c.out = get("out", ".");
  c.queries = std::stoul(get("queries", "200"));
  c.scale = std::stod(get("scale", "10"));
  c.trees = std::stoul(get("trees", "50"));
  c.rate = std::stod(get("rate", "0"));
  c.ingest_rate = std::stod(get("ingest-rate", "0"));
  c.retrain_every = std::stoul(get("retrain-every", "64"));
  c.probes = std::stoul(get("probes", "0"));
  return c;
}

// ---------------------------------------------------------------------------
// Reference: the server's start-up state, rebuilt in process

struct Reference {
  std::vector<rpe::OwnedRun> runs;
  std::vector<rpe::PipelineRecord> records;
  std::shared_ptr<const rpe::SelectorStack> stack;
  std::vector<std::vector<double>> series;  ///< per run, one per observation
  std::vector<rpe::PipelineRecord> ingest_records;
  double build_s = 0.0;
  double run_s = 0.0;
  double train_s = 0.0;
  size_t queries = 0;
  size_t failed = 0;
};

/// Build + execute a workload the way `rpe_cli serve-tcp` does (keep every
/// successful run and its MakeRecord-accepted records).
Status ExecuteWorkload(const rpe::WorkloadConfig& config,
                       std::vector<rpe::OwnedRun>* runs,
                       std::vector<rpe::PipelineRecord>* records,
                       Reference* timing) {
  const uint64_t t0 = Now();
  RPE_ASSIGN_OR_RETURN(rpe::Workload workload, rpe::BuildWorkload(config));
  const uint64_t t1 = Now();
  rpe::RunOptions options;
  size_t failed = 0;
  for (const rpe::QuerySpec& spec : workload.queries) {
    auto run = rpe::RunQuery(workload, spec, options);
    if (!run.ok()) {
      ++failed;
      continue;
    }
    for (const rpe::Pipeline& pipeline : run->result.pipelines) {
      rpe::PipelineView view{&run->result, &pipeline};
      rpe::PipelineRecord record;
      if (rpe::MakeRecord(view, config.name, spec.name, "", &record,
                          options.min_observations)) {
        records->push_back(std::move(record));
      }
    }
    if (runs != nullptr) runs->push_back(std::move(run).ValueOrDie());
  }
  if (timing != nullptr) {
    timing->build_s = Secs(t1 - t0);
    timing->run_s = Secs(Now() - t1);
    timing->queries = workload.queries.size();
    timing->failed = failed;
  }
  if (records->empty()) return Status::Internal("workload produced no records");
  return Status::OK();
}

Status BuildReference(const Config& c, Reference* ref) {
  rpe::WorkloadConfig server;
  server.kind = rpe::WorkloadKind::kTpch;
  server.name = "tpch";
  server.scale = c.scale;
  server.num_queries = c.queries;
  server.seed = 1;
  RPE_RETURN_NOT_OK(ExecuteWorkload(server, &ref->runs, &ref->records, ref));
  rpe::MartParams params = rpe::EstimatorSelector::DefaultParams();
  params.num_trees = static_cast<int>(c.trees);
  const uint64_t t0 = Now();
  ref->stack = std::make_shared<const rpe::SelectorStack>(
      rpe::SelectorStack::Train(ref->records, rpe::PoolSix(), params));
  ref->train_s = Secs(Now() - t0);
  rpe::ProgressMonitor monitor(&ref->stack->static_selector,
                               &ref->stack->dynamic_selector);
  for (const rpe::OwnedRun& run : ref->runs) {
    ref->series.push_back(monitor.ReplayQueryProgress(run.result));
  }
  if (c.mode == "ingest") {
    // A second workload, so the stream's feature distributions differ
    // from the seed corpus the way a live system's would.
    rpe::WorkloadConfig second;
    second.kind = rpe::WorkloadKind::kTpcds;
    second.name = "tpcds";
    second.scale = 2.0;
    second.num_queries = 60;
    second.seed = 2;
    RPE_RETURN_NOT_OK(
        ExecuteWorkload(second, nullptr, &ref->ingest_records, nullptr));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Sockets

/// \brief One blocking loopback connection with an outgoing frame buffer
/// (frames are queued, then leave in one send) and incremental reassembly
/// of replies.
class Conn {
 public:
  Conn() = default;
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  Status Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return Status::IOError("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      return Status::IOError(std::string("connect: ") + std::strerror(errno));
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return Status::OK();
  }

  void Queue(const std::string& frame) {
    out_ += frame;
    ++frames_sent_;
  }

  Status Flush() {
    size_t off = 0;
    while (off < out_.size()) {
      const ssize_t n = ::send(fd_, out_.data() + off, out_.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(std::string("send: ") + std::strerror(errno));
      }
      off += static_cast<size_t>(n);
    }
    out_.clear();
    return Status::OK();
  }

  /// Next complete reply; blocks on the socket until one is available.
  rpe::Result<WireFrame> Read() {
    while (true) {
      WireFrame frame;
      RPE_ASSIGN_OR_RETURN(bool complete, decoder_.Next(&frame));
      if (complete) {
        ++frames_received_;
        return frame;
      }
      RPE_RETURN_NOT_OK(Fill());
    }
  }

  /// Already-buffered reply, if any (never blocks).
  rpe::Result<bool> TryRead(WireFrame* frame) {
    RPE_ASSIGN_OR_RETURN(bool complete, decoder_.Next(frame));
    if (complete) ++frames_received_;
    return complete;
  }

  /// One recv into the decoder. A spinning connection polls the socket
  /// without sleeping, so its CPU never idles between replies and the
  /// wake-up latency of an idle CPU (large and load-dependent on a
  /// virtual machine) stays out of the measurement; it yields between
  /// polls, so a server thread wanting that CPU still gets it.
  Status Fill() {
    char chunk[64 * 1024];
    while (true) {
      const ssize_t n =
          ::recv(fd_, chunk, sizeof chunk, spin_ ? MSG_DONTWAIT : 0);
      if (n > 0) {
        decoder_.Feed(chunk, static_cast<size_t>(n));
        return Status::OK();
      }
      if (n == 0) return Status::IOError("server closed the connection");
      if (errno != EINTR && !(spin_ && errno == EAGAIN)) {
        return Status::IOError(std::string("recv: ") + std::strerror(errno));
      }
      if (spin_) ::sched_yield();
    }
  }

  void set_spin(bool spin) { spin_ = spin; }

  /// One non-blocking recv into the decoder; false when nothing arrived.
  rpe::Result<bool> Poll() {
    char chunk[64 * 1024];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
    if (n > 0) {
      decoder_.Feed(chunk, static_cast<size_t>(n));
      return true;
    }
    if (n == 0) return Status::IOError("server closed the connection");
    if (errno == EAGAIN || errno == EINTR) return false;
    return Status::IOError(std::string("recv: ") + std::strerror(errno));
  }

  rpe::Result<WireFrame> Call(const std::string& frame) {
    Queue(frame);
    RPE_RETURN_NOT_OK(Flush());
    return Read();
  }

  int fd() const { return fd_; }
  uint64_t frames_sent() const { return frames_sent_; }
  uint64_t frames_received() const { return frames_received_; }

 private:
  int fd_ = -1;
  bool spin_ = false;
  std::string out_;
  rpe::FrameDecoder decoder_;
  uint64_t frames_sent_ = 0;
  uint64_t frames_received_ = 0;
};

/// GET /metrics over the server's HTTP listener (body only).
std::string Scrape(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string response;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
    const char req[] = "GET /metrics HTTP/1.0\r\n\r\n";
    if (::send(fd, req, sizeof req - 1, MSG_NOSIGNAL) > 0) {
      char buf[16 * 1024];
      ssize_t n;
      while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
        response.append(buf, static_cast<size_t>(n));
      }
    }
  }
  ::close(fd);
  const size_t body = response.find("\r\n\r\n");
  return body == std::string::npos ? "" : response.substr(body + 4);
}

// ---------------------------------------------------------------------------
// /proc CPU accounting

double ClockTick() { return static_cast<double>(::sysconf(_SC_CLK_TCK)); }

/// utime + stime (seconds) from a /proc .../stat file.
double StatCpu(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  const size_t close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(line.substr(close + 2));
  std::string field;
  double utime = 0.0, stime = 0.0;
  // Fields after the comm: state is field 3; utime and stime are 14, 15.
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) / ClockTick();
}

/// CPU seconds per thread of process `pid` (tid -> seconds).
std::map<int, double> ThreadCpu(int pid) {
  std::map<int, double> out;
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (dirent* e = ::readdir(d)) {
    if (e->d_name[0] == '.') continue;
    out[std::atoi(e->d_name)] = StatCpu(dir + "/" + e->d_name + "/stat");
  }
  ::closedir(d);
  return out;
}

/// Mean busy fraction of the two busiest threads between two snapshots:
/// the server's IO threads whenever they are the limit.
double BusiestPairBusy(const std::map<int, double>& a,
                       const std::map<int, double>& b, double wall_s) {
  std::vector<double> deltas;
  for (const auto& [tid, cpu] : b) {
    auto it = a.find(tid);
    deltas.push_back(cpu - (it == a.end() ? 0.0 : it->second));
  }
  std::sort(deltas.rbegin(), deltas.rend());
  if (deltas.empty() || wall_s <= 0.0) return 0.0;
  const size_t n = std::min<size_t>(2, deltas.size());
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += deltas[i];
  return sum / static_cast<double>(n) / wall_s;
}

double SelfCpu() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// ---------------------------------------------------------------------------
// Shared run state

/// \brief What one session thread observed; merged after the join.
struct Tally {
  uint64_t frames_sent = 0;
  uint64_t frames_received = 0;
  uint64_t opens = 0;
  uint64_t closes = 0;
  uint64_t completed = 0;  ///< closes of fully replayed sessions
  uint64_t advance_replies = 0;
  uint64_t steps = 0;
  uint64_t busy = 0;
  uint64_t error_frames = 0;
  uint64_t conn_errors = 0;
  uint64_t mismatches = 0;
  uint64_t window_polls = 0;  ///< Advance replies of rounds in the window
  uint64_t window_last_ns = 0;  ///< end of the last round in the window
  uint64_t ingest_offered = 0;
  uint64_t ingest_accepted = 0;
  uint64_t ingest_dropped = 0;
  uint64_t ingest_shed = 0;
  uint64_t queue_depth_max = 0;
  std::vector<double> round_ms;
  std::vector<double> session_ms;
  std::vector<double> late_ms;
  std::vector<double> lag_s;
  std::vector<std::string> problems;

  void Problem(const std::string& what) {
    if (problems.size() < 8) problems.push_back(what);
  }
  void Merge(const Tally& o) {
    frames_sent += o.frames_sent;
    frames_received += o.frames_received;
    opens += o.opens;
    closes += o.closes;
    completed += o.completed;
    advance_replies += o.advance_replies;
    steps += o.steps;
    busy += o.busy;
    error_frames += o.error_frames;
    conn_errors += o.conn_errors;
    mismatches += o.mismatches;
    window_polls += o.window_polls;
    window_last_ns = std::max(window_last_ns, o.window_last_ns);
    ingest_offered += o.ingest_offered;
    ingest_accepted += o.ingest_accepted;
    ingest_dropped += o.ingest_dropped;
    ingest_shed += o.ingest_shed;
    queue_depth_max = std::max(queue_depth_max, o.queue_depth_max);
    auto append = [](std::vector<double>* dst, const std::vector<double>& src) {
      dst->insert(dst->end(), src.begin(), src.end());
    };
    append(&round_ms, o.round_ms);
    append(&session_ms, o.session_ms);
    append(&late_ms, o.late_ms);
    append(&lag_s, o.lag_s);
    for (const auto& p : o.problems) Problem(p);
  }
};

struct Window {
  uint64_t origin = 0;  ///< traffic start (open-loop schedule origin)
  uint64_t w0 = 0;      ///< timed window start
  uint64_t w1 = 0;      ///< timed window end
  bool in(uint64_t t) const { return t >= w0 && t < w1; }
};

/// Count a non-OK reply: busy refusals separately from errors.
void CountBad(const WireFrame& f, Tally* t, const char* what) {
  if (f.status == rpe::kStatusBusy) {
    ++t->busy;
  } else {
    ++t->error_frames;
    t->Problem(std::string(what) + ": " + f.ToStatus().ToString());
  }
}

void RecordSpan(const char* name, uint64_t id, uint64_t parent,
                uint64_t start, uint64_t end) {
  rpe::obs::Tracer::Global().Record(name, id, parent, start,
                                    end > start ? end - start : 0);
}

// ---------------------------------------------------------------------------
// Closed-loop pipelined polling

struct RunSource {
  // Sweep: every run once, from a shared cursor over a permutation.
  const std::vector<uint32_t>* sweep = nullptr;
  std::atomic<size_t>* cursor = nullptr;
  // Traffic: an endless seeded cycle owned by the thread.
  Cycle* cycle = nullptr;
  bool Next(uint32_t* run) {
    if (cycle != nullptr) {
      *run = cycle->Next();
      return true;
    }
    const size_t i = cursor->fetch_add(1);
    if (i >= sweep->size()) return false;
    *run = (*sweep)[i];
    return true;
  }
};

/// Poll sessions over one connection with `depth` rounds in flight: the
/// slots are split into `depth` groups, and a group's next round is sent
/// as soon as its previous round is answered, so the server's IO thread
/// always has the other group's frames queued instead of waiting on the
/// client. In sweep mode (`served` non-null) every run of the source is
/// polled once and its served series stored; otherwise rounds are sent
/// until `stop_ns`, then every open session is closed.
void PollSessions(uint16_t port, const Reference& ref, size_t slots,
                size_t depth, RunSource source, const Window& win,
                uint64_t stop_ns, std::vector<std::vector<double>>* served,
                std::mutex* served_mu, Tally* out) {
  Conn conn;
  const Status connected = conn.Connect(port);
  if (!connected.ok()) {
    ++out->conn_errors;
    out->Problem(connected.ToString());
    return;
  }
  conn.set_spin(true);
  struct Slot {
    uint64_t sid = 0;
    uint32_t run = 0;   ///< run of the open session
    uint32_t want = 0;  ///< run of the Open in flight
    uint32_t step = 0;
    uint32_t n = 0;
    bool open = false;
    bool finished = false;
    bool idle = false;  ///< source exhausted (sweep)
    uint64_t opened_ns = 0;
    std::vector<double> values;
  };
  enum Kind : uint8_t { kOpen, kAdvance, kClose };
  struct Pending {
    Kind kind;
    uint32_t slot;
  };
  struct Group {
    std::vector<Slot> slots;
    std::vector<Pending> pending;
    uint64_t sent_ns = 0;
    uint64_t span = 0;
  };
  std::vector<Group> groups(depth);
  for (size_t g = 0; g < depth; ++g) groups[g].slots.resize(slots / depth);
  const uint32_t num_runs = static_cast<uint32_t>(ref.runs.size());
  const bool tracing = rpe::obs::Tracer::Global().enabled();
  rpe::obs::Tracer& tracer = rpe::obs::Tracer::Global();

  // Queue one round for the group; false when it has nothing left to send.
  auto send_round = [&](Group& grp) -> bool {
    const uint64_t t0 = Now();
    const bool stopping = served == nullptr && t0 >= stop_ns;
    grp.pending.clear();
    for (uint32_t i = 0; i < grp.slots.size(); ++i) {
      Slot& slot = grp.slots[i];
      if (slot.open && (slot.finished || stopping)) {
        rpe::CloseRequest req;
        req.session_id = slot.sid;
        conn.Queue(rpe::EncodeCloseRequest(req));
        grp.pending.push_back({kClose, i});
      } else if (slot.open) {
        rpe::AdvanceRequest req;
        req.session_id = slot.sid;
        req.max_steps = 1;
        conn.Queue(rpe::EncodeAdvanceRequest(req));
        grp.pending.push_back({kAdvance, i});
        continue;
      }
      if (stopping || slot.idle) continue;
      uint32_t run = 0;
      if (!source.Next(&run)) {
        slot.idle = true;
        continue;
      }
      slot.want = run;
      rpe::OpenRequest req;
      req.run_index = run;
      conn.Queue(rpe::EncodeOpenRequest(req));
      grp.pending.push_back({kOpen, i});
    }
    grp.sent_ns = t0;
    if (tracing && !grp.pending.empty()) {
      grp.span = tracer.NewSpanId();
      RecordSpan("client.encode", tracer.NewSpanId(), grp.span, t0, Now());
    }
    return !grp.pending.empty();
  };

  // Read and check every reply of the group's round in flight.
  auto read_round = [&](Group& grp) -> Status {
    uint64_t polls = 0;
    for (const Pending& p : grp.pending) {
      RPE_ASSIGN_OR_RETURN(WireFrame frame, conn.Read());
      Slot& slot = grp.slots[p.slot];
      if (!frame.ok()) {
        CountBad(frame, out, "poll");
        continue;
      }
      if (p.kind == kOpen) {
        auto r = rpe::DecodeOpenResponse(frame.payload);
        if (!r.ok() || r->run_index != slot.want % num_runs ||
            r->num_observations != ref.series[r->run_index].size()) {
          ++out->mismatches;
          out->Problem("open reply disagrees with the reference run");
          continue;
        }
        ++out->opens;
        slot.sid = r->session_id;
        slot.run = r->run_index;
        slot.n = r->num_observations;
        slot.step = 0;
        slot.open = true;
        slot.finished = false;
        slot.opened_ns = grp.sent_ns;
        slot.values.clear();
      } else if (p.kind == kAdvance) {
        auto r = rpe::DecodeAdvanceResponse(frame.payload);
        ++out->advance_replies;
        ++polls;
        if (!r.ok()) {
          ++out->mismatches;
          continue;
        }
        out->steps += r->steps;
        bool good;
        if (slot.n == 0) {
          good = r->steps == 0 && r->done == 1;
        } else {
          good = r->steps == 1 && slot.step < slot.n &&
                 r->progress == ref.series[slot.run][slot.step];
          ++slot.step;
          good = good && (r->done == 1) == (slot.step == slot.n);
        }
        if (!good) {
          ++out->mismatches;
          out->Problem("served progress of run " + std::to_string(slot.run) +
                       " step " + std::to_string(slot.step) +
                       " differs from ReplayQueryProgress");
        }
        if (served != nullptr) slot.values.push_back(r->progress);
        if (r->done == 1) slot.finished = true;
      } else {
        ++out->closes;
        slot.open = false;
        if (slot.step == slot.n) ++out->completed;
        if (served != nullptr && slot.step == slot.n) {
          std::lock_guard<std::mutex> lock(*served_mu);
          (*served)[slot.run] = slot.values;
        }
        if (win.in(slot.opened_ns) && slot.finished) {
          out->session_ms.push_back(Ms(Now() - slot.opened_ns));
        }
        slot.finished = false;
      }
    }
    const uint64_t t1 = Now();
    if (served == nullptr && win.in(grp.sent_ns)) {
      out->round_ms.push_back(Ms(t1 - grp.sent_ns));
      out->window_polls += polls;
      out->window_last_ns = t1;
    }
    if (tracing) RecordSpan("client.round", grp.span, 0, grp.sent_ns, t1);
    return Status::OK();
  };

  std::deque<Group*> inflight;
  Status st;
  for (Group& grp : groups) {
    if (send_round(grp)) {
      st = conn.Flush();
      inflight.push_back(&grp);
    }
  }
  while (st.ok() && !inflight.empty()) {
    Group* grp = inflight.front();
    inflight.pop_front();
    st = read_round(*grp);
    if (st.ok() && send_round(*grp)) {
      st = conn.Flush();
      inflight.push_back(grp);
    }
  }
  if (!st.ok()) {
    ++out->conn_errors;
    out->Problem(st.ToString());
  }
  out->frames_sent += conn.frames_sent();
  out->frames_received += conn.frames_received();
}

// ---------------------------------------------------------------------------
// Open-loop sessions

/// Sessions of one connection's slice of the schedule, overlapped on the
/// connection (replies are FIFO per connection, so a queue of expected
/// replies pairs each reply with its session).
void OpenLoopSessions(uint16_t port, const Reference& ref,
                    const std::vector<Arrival>* schedule, size_t first,
                    size_t stride, bool check_values, const Window& win,
                    Tally* out) {
  Conn conn;
  const Status connected = conn.Connect(port);
  if (!connected.ok()) {
    ++out->conn_errors;
    out->Problem(connected.ToString());
    return;
  }
  struct Session {
    uint64_t due_ns = 0;
    uint64_t sid = 0;
    uint32_t run = 0;
    uint32_t n = 0;
    uint64_t span = 0;
  };
  enum Kind : uint8_t { kOpen, kAdvance, kClose };
  struct Pending {
    Kind kind;
    size_t session;
    uint64_t sent_ns;
  };
  const bool tracing = rpe::obs::Tracer::Global().enabled();
  rpe::obs::Tracer& tracer = rpe::obs::Tracer::Global();
  std::vector<Session> sessions;
  std::deque<Pending> pending;
  DueQueue due(schedule, first, stride);
  const uint32_t num_runs = static_cast<uint32_t>(ref.runs.size());
  Status st;
  while (st.ok()) {
    const uint64_t now = Now();
    due.PopDue(Secs(now - win.origin),
               [&](const Arrival& a, double late_s) {
                 Session sess;
                 sess.due_ns = win.origin + static_cast<uint64_t>(a.due_s * 1e9);
                 sess.run = a.run;
                 if (tracing) sess.span = tracer.NewSpanId();
                 if (win.in(sess.due_ns)) out->late_ms.push_back(late_s * 1e3);
                 rpe::OpenRequest req;
                 req.run_index = a.run;
                 conn.Queue(rpe::EncodeOpenRequest(req));
                 pending.push_back({kOpen, sessions.size(), now});
                 sessions.push_back(sess);
               });
    st = conn.Flush();
    if (!st.ok()) break;
    if (due.exhausted() && pending.empty()) break;
    // Spin: release arrivals the moment they fall due and take replies
    // the moment they land, with no sleep for an idle CPU to wake from.
    auto polled = conn.Poll();
    if (!polled.ok()) {
      st = polled.status();
      break;
    }
    if (!*polled) {
      ::sched_yield();
      continue;
    }
    WireFrame frame;
    while (st.ok()) {
      auto got = conn.TryRead(&frame);
      if (!got.ok()) {
        st = got.status();
        break;
      }
      if (!*got) break;
      if (pending.empty()) {
        st = Status::Internal("reply without a request");
        break;
      }
      const Pending p = pending.front();
      pending.pop_front();
      Session& sess = sessions[p.session];
      const uint64_t t = Now();
      static constexpr const char* kNames[] = {"client.open", "client.advance",
                                               "client.close"};
      if (tracing) RecordSpan(kNames[p.kind], tracer.NewSpanId(), sess.span,
                              p.sent_ns, t);
      if (win.in(sess.due_ns)) out->round_ms.push_back(Ms(t - p.sent_ns));
      if (!frame.ok()) {
        CountBad(frame, out, "session");
        if (p.kind == kAdvance) {
          rpe::CloseRequest req;
          req.session_id = sess.sid;
          conn.Queue(rpe::EncodeCloseRequest(req));
          pending.push_back({kClose, p.session, t});
        }
        continue;
      }
      if (p.kind == kOpen) {
        auto r = rpe::DecodeOpenResponse(frame.payload);
        if (!r.ok() || r->run_index != sess.run % num_runs ||
            r->num_observations != ref.series[r->run_index].size()) {
          ++out->mismatches;
          out->Problem("open reply disagrees with the reference run");
          continue;
        }
        ++out->opens;
        sess.sid = r->session_id;
        sess.run = r->run_index;
        sess.n = r->num_observations;
        rpe::AdvanceRequest req;
        req.session_id = sess.sid;
        req.max_steps = rpe::kMaxAdvanceSteps;
        conn.Queue(rpe::EncodeAdvanceRequest(req));
        pending.push_back({kAdvance, p.session, t});
      } else if (p.kind == kAdvance) {
        auto r = rpe::DecodeAdvanceResponse(frame.payload);
        ++out->advance_replies;
        bool good = r.ok() && r->steps == sess.n && r->done == 1;
        if (good) {
          out->steps += r->steps;
          const std::vector<double>& expect = ref.series[sess.run];
          if (check_values && sess.n > 0) good = r->progress == expect.back();
          if (!check_values) {
            good = std::isfinite(r->progress) && r->progress >= 0.0 &&
                   r->progress <= 1.0;
          }
        }
        if (!good) {
          ++out->mismatches;
          out->Problem("final progress/steps of run " +
                       std::to_string(sess.run) + " differ from the reference");
        }
        rpe::CloseRequest req;
        req.session_id = sess.sid;
        conn.Queue(rpe::EncodeCloseRequest(req));
        pending.push_back({kClose, p.session, t});
      } else {
        ++out->closes;
        ++out->completed;
        if (win.in(sess.due_ns)) out->session_ms.push_back(Ms(t - sess.due_ns));
        if (tracing) RecordSpan("client.session", sess.span, 0, sess.due_ns, t);
      }
    }
    if (st.ok()) st = conn.Flush();
  }
  if (!st.ok()) {
    ++out->conn_errors;
    out->Problem(st.ToString());
  }
  out->frames_sent += conn.frames_sent();
  out->frames_received += conn.frames_received();
}

// ---------------------------------------------------------------------------
// Ingest stream + publish lag

struct StatsReading {
  uint64_t generation = 0;
  uint64_t retrains = 0;
  uint64_t queue = 0;
};

rpe::Result<StatsReading> FetchStats(Conn* conn, Tally* out) {
  RPE_ASSIGN_OR_RETURN(WireFrame f, conn->Call(rpe::EncodeStatsRequest()));
  if (!f.ok()) return f.ToStatus();
  RPE_ASSIGN_OR_RETURN(rpe::WireStats s, rpe::DecodeStatsResponse(f.payload));
  out->queue_depth_max = std::max(out->queue_depth_max, s.ingest_queue_size);
  return StatsReading{s.model_generation, s.retrains, s.ingest_queue_size};
}

/// \brief The ingest connection: streams records in batched frames from a
/// seeded cycle over the second workload's records and measures publish
/// lag — from the ingest reply that brought the accepted total to
/// k * retrain_every until the first kStats reporting generation >= k.
class Ingestor {
 public:
  /// Streams `records` (which must outlive the Ingestor).
  Ingestor(const Config& c, const std::vector<rpe::PipelineRecord>* records,
           Tally* out, uint64_t seed)
      : c_(c),
        records_(records),
        out_(out),
        cycle_(static_cast<uint32_t>(records->size()), seed ^ 0x1ec0ULL) {}

  Status Connect(uint16_t port) {
    RPE_RETURN_NOT_OK(conn_.Connect(port));
    RPE_ASSIGN_OR_RETURN(StatsReading s, FetchStats(&conn_, out_));
    base_generation_ = s.generation;
    return Status::OK();
  }

  /// Send one batch of `n` records; lag timers start when the accepted
  /// total crosses a multiple of retrain_every.
  Status SendBatch(size_t n, bool timed) {
    rpe::IngestBatchRequest req;
    for (size_t i = 0; i < n; ++i) {
      req.records.push_back((*records_)[cycle_.Next()]);
    }
    RPE_ASSIGN_OR_RETURN(WireFrame f,
                         conn_.Call(rpe::EncodeIngestBatchRequest(req)));
    out_->ingest_offered += n;
    if (!f.ok()) {
      if (f.status == rpe::kStatusBusy) {
        out_->ingest_shed += n;
        return Status::OK();
      }
      ++out_->error_frames;
      return f.ToStatus();
    }
    RPE_ASSIGN_OR_RETURN(rpe::IngestResponse r,
                         rpe::DecodeIngestResponse(f.payload));
    out_->ingest_accepted += r.accepted;
    out_->ingest_dropped += r.dropped;
    const uint64_t now = Now();
    while (out_->ingest_accepted >= (triggers_ + 1) * c_.retrain_every) {
      ++triggers_;
      waits_.push_back({base_generation_ + triggers_, now, timed});
    }
    return Status::OK();
  }

  bool waiting() const { return !waits_.empty(); }

  /// One kStats poll; resolves every lag whose generation has appeared.
  Status Poll() {
    RPE_ASSIGN_OR_RETURN(StatsReading s, FetchStats(&conn_, out_));
    const uint64_t now = Now();
    last_ = s;
    while (!waits_.empty() && s.generation >= waits_.front().generation) {
      if (waits_.front().timed) {
        out_->lag_s.push_back(Secs(now - waits_.front().since_ns));
      }
      waits_.pop_front();
    }
    return Status::OK();
  }

  /// Streams at the configured rate from `origin` until `stop_ns`.
  Status Stream(const Window& win, uint64_t stop_ns) {
    const double per_batch_s =
        static_cast<double>(kIngestBatch) / c_.ingest_rate;
    uint64_t sent = 0;
    uint64_t next_poll = 0;
    while (true) {
      const uint64_t now = Now();
      const uint64_t due =
          win.origin + static_cast<uint64_t>(static_cast<double>(sent) *
                                             per_batch_s * 1e9);
      if (due >= stop_ns) break;
      if (now >= due) {
        RPE_RETURN_NOT_OK(SendBatch(kIngestBatch, win.in(now)));
        ++sent;
      } else if (waiting() && now >= next_poll) {
        RPE_RETURN_NOT_OK(Poll());
        next_poll = Now() + kStatsPollNs;
      } else {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(std::min<uint64_t>(due - now, 2000000)));
      }
    }
    return Status::OK();
  }

  /// Unloaded probe: one trigger's worth of records back to back, then
  /// poll until the generation it triggers is published.
  Status Probe() {
    for (size_t left = c_.retrain_every; left > 0;) {
      const size_t n = std::min(left, kIngestBatch);
      RPE_RETURN_NOT_OK(SendBatch(n, /*timed=*/true));
      left -= n;
    }
    return Drain(std::chrono::seconds(30));
  }

  /// Poll until every pending lag resolved (or the timeout passes).
  Status Drain(std::chrono::seconds timeout) {
    const uint64_t deadline =
        Now() + static_cast<uint64_t>(timeout.count()) * 1000000000ull;
    while (waiting() && Now() < deadline) {
      RPE_RETURN_NOT_OK(Poll());
      std::this_thread::sleep_for(std::chrono::nanoseconds(kStatsPollNs));
    }
    return waiting() ? Status::Internal("publish never observed") : Status::OK();
  }

  /// Wait until the trainer is idle: queue empty, generation == retrains,
  /// and nothing changes for `settle`.
  Status Quiesce(std::chrono::milliseconds settle) {
    const uint64_t deadline = Now() + 30ull * 1000000000ull;
    StatsReading prev{~0ull, ~0ull, ~0ull};
    uint64_t stable_since = Now();
    while (Now() < deadline) {
      RPE_RETURN_NOT_OK(Poll());
      const bool same = last_.generation == prev.generation &&
                        last_.retrains == prev.retrains &&
                        last_.queue == prev.queue;
      if (!same) stable_since = Now();
      prev = last_;
      if (last_.queue == 0 && last_.generation == last_.retrains &&
          Now() - stable_since >=
              static_cast<uint64_t>(settle.count()) * 1000000ull) {
        return Status::OK();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return Status::Internal("server did not quiesce");
  }

  const StatsReading& last() const { return last_; }
  uint64_t frames_sent() const { return conn_.frames_sent(); }
  uint64_t frames_received() const { return conn_.frames_received(); }

 private:
  struct Wait {
    uint64_t generation;
    uint64_t since_ns;
    bool timed;
  };
  const Config& c_;
  const std::vector<rpe::PipelineRecord>* records_;
  Tally* out_;
  Conn conn_;
  Cycle cycle_;
  uint64_t base_generation_ = 0;
  uint64_t triggers_ = 0;
  std::deque<Wait> waits_;
  StatsReading last_;
};

// ---------------------------------------------------------------------------
// In-process layer timings (--trace 1)

template <typename Fn>
double TimeNs(Fn&& fn) {
  const uint64_t t0 = Now();
  fn();
  return static_cast<double>(Now() - t0);
}

struct LayerSpan {
  const char* name;
  uint64_t start;
  uint64_t end;
};

std::map<std::string, double> MeasureLayers(const Reference& ref,
                                            std::vector<LayerSpan>* spans) {
  std::map<std::string, double> m;
  std::vector<const rpe::QueryRunResult*> runs;
  size_t observations = 0;
  for (const rpe::OwnedRun& r : ref.runs) {
    runs.push_back(&r.result);
    observations += r.result.observations.size();
  }
  volatile double sink = 0.0;

  // Shard router + monitor service, the poll workload's call pattern:
  // open, advance one observation at a time to the end, close.
  uint64_t t = Now();
  {
    rpe::ShardedMonitorService::Options o;
    o.num_shards = 2;
    rpe::ShardedMonitorService svc(ref.stack, o);
    double open_ns = 0, adv_ns = 0, close_ns = 0;
    size_t advances = 0;
    for (size_t i = 0; i < runs.size(); ++i) {
      rpe::ShardedMonitorService::SessionId id = 0;
      open_ns += TimeNs([&] { id = *svc.OpenSessionOnShard(runs[i], i % 2); });
      const size_t n = runs[i]->observations.size();
      const uint64_t a0 = Now();
      for (size_t k = 0; k < n; ++k) sink = sink + *svc.Advance(id);
      adv_ns += static_cast<double>(Now() - a0);
      advances += n;
      close_ns += TimeNs([&] { (void)svc.CloseSession(id); });
    }
    m["shard.open_us"] = open_ns / 1e3 / static_cast<double>(runs.size());
    m["shard.advance_ns"] = adv_ns / static_cast<double>(advances);
    m["shard.close_us"] = close_ns / 1e3 / static_cast<double>(runs.size());
  }
  spans->push_back({"bench.shard", t, Now()});

  // Selection + progress: batched decisions, then every QueryProgressAt.
  t = Now();
  rpe::ProgressMonitor monitor(&ref.stack->static_selector,
                               &ref.stack->dynamic_selector);
  constexpr int kDecideReps = 5;
  const double decide_ns = TimeNs([&] {
    for (int r = 0; r < kDecideReps; ++r) {
      sink = sink + static_cast<double>(monitor.DecideForRuns(runs).size());
    }
  });
  m["monitor.decide_us_per_run"] =
      decide_ns / 1e3 / (kDecideReps * static_cast<double>(runs.size()));
  double progress_ns = 0;
  for (const rpe::QueryRunResult* run : runs) {
    const auto decisions = monitor.DecideForRun(*run);
    const size_t n = run->observations.size();
    progress_ns += TimeNs([&] {
      for (size_t oi = 0; oi < n; ++oi) {
        sink = sink + monitor.QueryProgressAt(*run, decisions, oi);
      }
    });
  }
  m["monitor.progress_ns"] = progress_ns / static_cast<double>(observations);
  m["monitor.observations"] = static_cast<double>(observations);
  m["shard.bookkeeping_ns"] = m["shard.advance_ns"] - m["monitor.progress_ns"];
  spans->push_back({"bench.monitor", t, Now()});

  // Selector batch scoring over every record's feature vector.
  t = Now();
  {
    std::vector<const std::vector<double>*> rows;
    for (const rpe::PipelineRecord& r : ref.records) rows.push_back(&r.features);
    std::vector<size_t> chosen(rows.size());
    constexpr int kReps = 50;
    const double ns = TimeNs([&] {
      for (int r = 0; r < kReps; ++r) {
        ref.stack->static_selector.SelectBatch(rows, chosen);
        sink = sink + static_cast<double>(chosen[0]);
      }
    });
    m["mart.score_ns_per_row"] = ns / (kReps * static_cast<double>(rows.size()));
  }
  spans->push_back({"bench.mart.score", t, Now()});

  // Snapshot encode of the serving stack.
  t = Now();
  {
    std::string bytes;
    constexpr int kReps = 3;
    const double ns = TimeNs([&] {
      for (int r = 0; r < kReps; ++r) bytes = rpe::EncodeSelectorStack(*ref.stack);
    });
    m["snapshot.encode_ms"] = ns / 1e6 / kReps;
    m["snapshot.bytes"] = static_cast<double>(bytes.size());
  }
  spans->push_back({"bench.snapshot", t, Now()});

  // Ingest queue push and drain.
  t = Now();
  {
    const std::vector<rpe::PipelineRecord>& src =
        ref.ingest_records.empty() ? ref.records : ref.ingest_records;
    constexpr size_t kN = 4096;
    std::vector<rpe::PipelineRecord> batch;
    batch.reserve(kN);
    for (size_t i = 0; i < kN; ++i) batch.push_back(src[i % src.size()]);
    rpe::RecordIngestQueue queue(kN);
    const double push_ns = TimeNs([&] {
      for (auto& r : batch) sink = sink + queue.Push(std::move(r));
    });
    std::vector<rpe::PipelineRecord> drained;
    drained.reserve(kN);
    const double drain_ns = TimeNs([&] {
      while (queue.DrainBatch(&drained, 256) > 0) {
      }
    });
    m["ingest.push_ns"] = push_ns / kN;
    m["ingest.drain_ns_per_record"] = drain_ns / kN;
  }
  spans->push_back({"bench.ingest", t, Now()});

  // Wire codec: one Advance request + response through both sides'
  // encode / FrameDecoder / decode, and ingest batch decode per record.
  t = Now();
  {
    constexpr int kN = 200000;
    rpe::FrameDecoder server_side, client_side;
    const double ns = TimeNs([&] {
      for (int i = 0; i < kN; ++i) {
        rpe::AdvanceRequest req;
        req.session_id = static_cast<uint64_t>(i);
        server_side.Feed(rpe::EncodeAdvanceRequest(req));
        WireFrame f;
        (void)server_side.Next(&f);
        auto decoded = rpe::DecodeAdvanceRequest(f.payload);
        rpe::AdvanceResponse resp;
        resp.progress = static_cast<double>(decoded->session_id);
        resp.steps = 1;
        client_side.Feed(rpe::EncodeAdvanceResponse(resp));
        (void)client_side.Next(&f);
        sink = sink + rpe::DecodeAdvanceResponse(f.payload)->progress;
      }
    });
    m["wire.advance_codec_ns"] = ns / kN;
    const std::vector<rpe::PipelineRecord>& src =
        ref.ingest_records.empty() ? ref.records : ref.ingest_records;
    rpe::IngestBatchRequest req;
    for (size_t i = 0; i < kIngestBatch; ++i) {
      req.records.push_back(src[i % src.size()]);
    }
    const std::string frame = rpe::EncodeIngestBatchRequest(req);
    const std::string_view payload(frame.data() + rpe::kFrameHeaderBytes,
                                   frame.size() - rpe::kFrameHeaderBytes);
    constexpr int kReps = 2000;
    const double dns = TimeNs([&] {
      for (int r = 0; r < kReps; ++r) {
        sink = sink + static_cast<double>(
                          rpe::DecodeIngestBatchRequest(payload)->records.size());
      }
    });
    m["wire.ingest_decode_ns_per_record"] =
        dns / (kReps * static_cast<double>(kIngestBatch));
  }
  spans->push_back({"bench.wire", t, Now()});
  return m;
}

// ---------------------------------------------------------------------------
// Output

void WriteSamples(const std::string& path, const std::vector<double>& v) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(double)));
}

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += (ch == '\n' || ch == '\r') ? ' ' : ch;
  }
  return out + "\"";
}

/// One sub-run against one server: sweep, warm-up, timed window, probes,
/// quiescent scrape. Raw results go to `dir`; `scalars` arrive holding the
/// reference's figures.
void DriveServer(const Config& c, const Reference& ref, const Target& t,
                 uint64_t seed, const std::string& dir,
                 std::map<std::string, double> scalars) {
  WriteText(dir + "/before.prom", Scrape(t.metrics_port));
  Tally total;

  // Verification sweep: every run once, step by step, bit for bit.
  const uint32_t num_runs = static_cast<uint32_t>(ref.runs.size());
  {
    SplitMix rng(seed ^ 0x5eedULL);
    const std::vector<uint32_t> order = Permutation(num_runs, &rng);
    std::atomic<size_t> cursor{0};
    std::vector<std::vector<double>> served(num_runs);
    std::mutex served_mu;
    std::vector<Tally> tallies(kConns);
    std::vector<std::thread> threads;
    Window none;
    for (size_t i = 0; i < kConns; ++i) {
      RunSource src;
      src.sweep = &order;
      src.cursor = &cursor;
      threads.emplace_back(PollSessions, t.port, std::cref(ref), kSlots,
                           kDepth, src, std::cref(none), ~0ull, &served,
                           &served_mu, &tallies[i]);
    }
    for (auto& th : threads) th.join();
    for (const Tally& tally : tallies) total.Merge(tally);
    double l1_sum = 0.0;
    size_t l1_runs = 0;
    for (uint32_t r = 0; r < num_runs; ++r) {
      const rpe::QueryRunResult& run = ref.runs[r].result;
      if (served[r].size() != run.observations.size()) {
        ++total.mismatches;
        total.Problem("sweep did not serve run " + std::to_string(r) + " fully");
        continue;
      }
      if (served[r].empty() || run.total_time <= 0.0) continue;
      double sum = 0.0;
      for (size_t oi = 0; oi < served[r].size(); ++oi) {
        const double truth =
            std::clamp(run.observations[oi].vtime / run.total_time, 0.0, 1.0);
        sum += std::abs(served[r][oi] - truth);
      }
      l1_sum += sum / static_cast<double>(served[r].size());
      ++l1_runs;
    }
    scalars["progress_l1"] = l1_runs > 0 ? l1_sum / static_cast<double>(l1_runs) : 0;
    scalars["swept_runs"] = static_cast<double>(l1_runs);
  }

  // Warm-up + timed window.
  Window win;
  win.origin = Now();
  win.w0 = win.origin + static_cast<uint64_t>(c.warmup * 1e9);
  win.w1 = win.w0 + static_cast<uint64_t>(c.seconds * 1e9);
  std::vector<Tally> tallies(kConns + 1);
  std::vector<std::thread> threads;
  std::vector<std::unique_ptr<Cycle>> cycles;
  std::vector<Arrival> schedule;
  std::unique_ptr<Ingestor> ingestor;
  Status ingest_status;
  // The server hands accepted connections to its IO threads round-robin.
  // Connecting the ingest connection before the session connections (the
  // sweep's two have closed) keeps the session connections on distinct IO
  // threads in every run.
  if (c.mode == "ingest" || c.probes > 0) {
    // Ingest-retrain streams the second workload's records; the probes
    // re-ingest the server's own, so every probe retrains a corpus of the
    // same distribution and size.
    ingestor = std::make_unique<Ingestor>(
        c, c.mode == "ingest" ? &ref.ingest_records : &ref.records,
        &tallies[kConns], seed);
    ingest_status = ingestor->Connect(t.port);
  }
  if (c.mode == "poll") {
    for (size_t i = 0; i < kConns; ++i) {
      cycles.push_back(std::make_unique<Cycle>(num_runs, seed * 1000 + i));
      RunSource src;
      src.cycle = cycles.back().get();
      threads.emplace_back(PollSessions, t.port, std::cref(ref), kSlots,
                           kDepth, src, std::cref(win), win.w1, nullptr,
                           nullptr, &tallies[i]);
    }
  } else {
    schedule = PoissonSchedule(c.rate, c.warmup + c.seconds, num_runs, seed);
    for (size_t i = 0; i < kConns; ++i) {
      threads.emplace_back(OpenLoopSessions, t.port, std::cref(ref), &schedule,
                           i, kConns, c.mode == "open", std::cref(win),
                           &tallies[i]);
    }
  }
  if (c.mode == "ingest" && ingest_status.ok()) {
    threads.emplace_back([&] {
      ingest_status = ingestor->Stream(win, win.w1);
      if (ingest_status.ok()) ingest_status = ingestor->Drain(std::chrono::seconds(30));
    });
  }
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(win.w0)));
  const auto server_threads0 = ThreadCpu(t.pid);
  const double server_cpu0 = StatCpu("/proc/" + std::to_string(t.pid) + "/stat");
  const double client_cpu0 = SelfCpu();
  WriteText(dir + "/w0.prom", Scrape(t.metrics_port));
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(win.w1)));
  WriteText(dir + "/w1.prom", Scrape(t.metrics_port));
  const double server_cpu1 = StatCpu("/proc/" + std::to_string(t.pid) + "/stat");
  const double client_cpu1 = SelfCpu();
  const auto server_threads1 = ThreadCpu(t.pid);
  for (auto& th : threads) th.join();
  for (size_t i = 0; i < kConns; ++i) total.Merge(tallies[i]);

  const double wall = c.seconds;
  scalars["window_s"] = wall;
  scalars["server.cpu_s"] = server_cpu1 - server_cpu0;
  scalars["client.cpu_s"] = client_cpu1 - client_cpu0;
  scalars["server.io_busy_frac"] =
      BusiestPairBusy(server_threads0, server_threads1, wall);
  scalars["window_polls"] = static_cast<double>(total.window_polls);
  scalars["window_poll_s"] =
      total.window_last_ns > win.w0 ? Secs(total.window_last_ns - win.w0) : 0.0;

  // Unloaded publish probes, then a quiescent cut for reconciliation.
  if (ingestor != nullptr && ingest_status.ok()) {
    for (size_t p = 0; p < c.probes && ingest_status.ok(); ++p) {
      ingest_status = ingestor->Probe();
    }
    if (ingest_status.ok()) {
      ingest_status = ingestor->Quiesce(std::chrono::milliseconds(
          c.mode == "ingest" ? 1500 : 100));
    }
  }
  Tally& ingest = tallies[kConns];
  if (ingestor != nullptr) {
    ingest.frames_sent += ingestor->frames_sent();
    ingest.frames_received += ingestor->frames_received();
    scalars["final_generation"] = static_cast<double>(ingestor->last().generation);
    scalars["final_retrains"] = static_cast<double>(ingestor->last().retrains);
  }
  if (!ingest_status.ok()) {
    ++ingest.conn_errors;
    ingest.Problem("ingest: " + ingest_status.ToString());
  }
  total.Merge(ingest);
  WriteText(dir + "/after.prom", Scrape(t.metrics_port));

  WriteSamples(dir + "/round_ms.f64", total.round_ms);
  WriteSamples(dir + "/session_ms.f64", total.session_ms);
  WriteSamples(dir + "/late_ms.f64", total.late_ms);
  WriteSamples(dir + "/lag_s.f64", total.lag_s);

  std::ostringstream json;
  json << "{\"tally\":{"
       << "\"frames_sent\":" << total.frames_sent
       << ",\"frames_received\":" << total.frames_received
       << ",\"opens\":" << total.opens << ",\"closes\":" << total.closes
       << ",\"completed\":" << total.completed
       << ",\"advance_replies\":" << total.advance_replies
       << ",\"steps\":" << total.steps << ",\"busy\":" << total.busy
       << ",\"error_frames\":" << total.error_frames
       << ",\"conn_errors\":" << total.conn_errors
       << ",\"mismatches\":" << total.mismatches
       << ",\"ingest_offered\":" << total.ingest_offered
       << ",\"ingest_accepted\":" << total.ingest_accepted
       << ",\"ingest_dropped\":" << total.ingest_dropped
       << ",\"ingest_shed\":" << total.ingest_shed
       << ",\"queue_depth_max\":" << total.queue_depth_max << "},\"scalars\":{";
  bool first = true;
  for (const auto& [k, v] : scalars) {
    json << (first ? "" : ",") << JsonString(k) << ":" << Num(v);
    first = false;
  }
  json << "},\"problems\":[";
  for (size_t i = 0; i < total.problems.size(); ++i) {
    json << (i ? "," : "") << JsonString(total.problems[i]);
  }
  json << "]}\n";
  WriteText(dir + "/result.json", json.str());
}

int Main(int argc, char** argv) {
  const Config c = ParseConfig(ParseFlags(argc, argv));
  if (c.targets.empty()) {
    std::cerr << "bench_client: --servers port:metrics_port:pid,... is "
                 "required (run perfbench/run.py)\n";
    return 2;
  }
  Reference ref;
  const Status built = BuildReference(c, &ref);
  if (!built.ok()) {
    std::cerr << "reference: " << built.ToString() << "\n";
    return 1;
  }
  std::map<std::string, double> scalars;
  scalars["exec.build_s"] = ref.build_s;
  scalars["exec.run_s"] = ref.run_s;
  scalars["exec.queries"] = static_cast<double>(ref.queries);
  scalars["exec.failed"] = static_cast<double>(ref.failed);
  scalars["exec.records"] = static_cast<double>(ref.records.size());
  scalars["mart.train_s"] = ref.train_s;
  scalars["mart.train_rows"] = static_cast<double>(ref.records.size());

  std::vector<LayerSpan> layer_spans;
  if (c.trace) {
    for (const auto& [k, v] : MeasureLayers(ref, &layer_spans)) {
      scalars[k] = v;
    }
    rpe::obs::Tracer::Global().Enable(1 << 20);
    for (const LayerSpan& s : layer_spans) {
      RecordSpan(s.name, rpe::obs::Tracer::Global().NewSpanId(), 0, s.start,
                 s.end);
    }
  }
  // Servers are driven one after another; each sub-run gets its own
  // inputs derived from the seed.
  for (size_t i = 0; i < c.targets.size(); ++i) {
    DriveServer(c, ref, c.targets[i], c.seed * 16 + i,
                c.out + "/" + std::to_string(i), scalars);
  }
  if (c.trace) {
    const Status wrote = rpe::obs::Tracer::Global().WriteChromeTrace(
        c.out + "/client_trace.json");
    if (!wrote.ok()) {
      std::cerr << "client trace: " << wrote.ToString() << "\n";
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
