// Command-line driver for the progress-estimation library:
//
//   rpe_cli run      --kind tpch --queries 200 --scale 10 --zipf 1.0
//                    --tuning partial --seed 1 --out records.rpsn
//       Build a workload, execute it, and write the pipeline records as
//       an .rpsn record batch.
//
//   rpe_cli train    --records records.rpsn [--pool three|six|all]
//                    [--trees 200] --out stack.rpsn
//       Train the full selector stack (static + dynamic) and persist it as
//       a binary model snapshot.
//
//   rpe_cli evaluate --train train.rpsn --test test.rpsn [--pool ...]
//                    [--dynamic]
//       Train on one record set, evaluate on another, print the metrics.
//
//   rpe_cli inspect  --records records.rpsn
//       Summarize a record set (per-estimator error stats and win rates).
//
//   rpe_cli snapshot-load --in x.rpsn
//       Verify + describe a snapshot (either kind).
//
//   rpe_cli serve-tcp --kind tpch --queries 40 [--port 0] [--shards 4]
//                     [--io-threads 0] [--model stack.rpsn]
//                     [--trees 50] [--metrics-port 0] [--trace-out t.json]
//                     [--slow-ms 50]
//       Run a workload, then serve it over TCP (loopback) with the epoll
//       front-end: Open/Advance/Progress/Close/Stats over the
//       length-prefixed wire protocol (docs/NETWORK.md). Prints
//       "listening on 127.0.0.1:<port>" once ready (--port 0 picks an
//       ephemeral port), serves until SIGTERM/SIGINT, then drains, prints
//       the serving stats, and exits 0. Drive it with rpe_loadgen.
//       --metrics-port opens a loopback HTTP /metrics listener
//       (Prometheus text, "metrics on 127.0.0.1:<port>" printed at
//       startup); --trace-out writes a Chrome trace-event JSON dump at
//       exit; --slow-ms logs any request slower than the threshold with a
//       per-span breakdown (see docs/OBSERVABILITY.md).
//
// See docs/CLI.md for the full flag reference. All commands accept
// --threads N (0..256) to size the training/selection worker pool
// (default: RPE_NUM_THREADS env var, else hardware concurrency). Trained
// models are identical at any thread count. An unknown flag, a stray
// positional argument, or a malformed or out-of-range value exits 2
// before any workload runs.
#include <algorithm>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/simd.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "harness/experiment.h"
#include "harness/runner.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/metrics_export.h"
#include "serving/server.h"
#include "serving/shard_router.h"
#include "serving/snapshot.h"
#include "serving/trainer_loop.h"

namespace rpe {
namespace {

using Flags = std::map<std::string, std::string>;

constexpr std::string_view kDocsHint = "; see docs/CLI.md or rpe_cli --help";

/// One subcommand: its handler and the only flags it accepts besides the
/// common --threads. `flags` each take a value; `switches` take none.
struct Command {
  std::string_view name;
  std::string_view summary;  ///< its --help line
  int (*run)(const Flags&);
  std::vector<std::string_view> flags;
  std::vector<std::string_view> switches;
};

/// Parses `--name value` pairs and `--switch`es after the command word.
/// Anything the command does not accept — an unknown flag, a positional
/// word, a value flag without its value — is an error naming it.
Result<Flags> ParseFlags(const Command& command, int argc, char** argv) {
  const auto accepts = [](const std::vector<std::string_view>& names,
                          std::string_view name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  const std::string where = " for rpe_cli " + std::string(command.name);
  Flags flags;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      return Status::InvalidArgument("unexpected argument '" +
                                     std::string(arg) + "'" + where +
                                     std::string(kDocsHint));
    }
    const std::string name(arg.substr(2));
    if (accepts(command.switches, name)) {
      flags[name] = "true";
    } else if (name == "threads" || accepts(command.flags, name)) {
      if (i + 1 == argc || std::string_view(argv[i + 1]).starts_with("--")) {
        return Status::InvalidArgument("flag --" + name + " needs a value" +
                                       std::string(kDocsHint));
      }
      flags[name] = argv[++i];
    } else {
      return Status::InvalidArgument("unknown flag --" + name + where +
                                     std::string(kDocsHint));
    }
  }
  return flags;
}

std::string FlagOr(const Flags& flags, const std::string& key,
                   const std::string& fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

Result<WorkloadKind> ParseKind(const std::string& s) {
  if (s == "tpch") return WorkloadKind::kTpch;
  if (s == "tpcds") return WorkloadKind::kTpcds;
  if (s == "real1") return WorkloadKind::kReal1;
  if (s == "real2") return WorkloadKind::kReal2;
  return Status::InvalidArgument("unknown workload kind: " + s);
}

Result<TuningLevel> ParseTuning(const std::string& s) {
  if (s == "untuned") return TuningLevel::kUntuned;
  if (s == "partial") return TuningLevel::kPartiallyTuned;
  if (s == "full") return TuningLevel::kFullyTuned;
  return Status::InvalidArgument("unknown tuning level: " + s);
}

/// Candidate estimator pool (--pool, default six).
Result<std::vector<size_t>> ParsePool(const Flags& flags) {
  const std::string s = FlagOr(flags, "pool", "six");
  if (s == "three") return PoolOriginalThree();
  if (s == "six") return PoolSix();
  if (s == "all") return PoolAll();
  return Status::InvalidArgument("invalid --pool value '" + s +
                                 "' (expected three, six or all)" +
                                 std::string(kDocsHint));
}

/// Strictly-parsed numeric flag in [min, max]: a typo'd or out-of-range
/// value must fail loudly with a hint, not std::sto* its way into a
/// nonsense configuration (or an uncaught exception).
template <typename T>
Result<T> ParseNumberFlag(const Flags& flags, const std::string& key,
                          const std::string& fallback, T min, T max) {
  const std::string raw = FlagOr(flags, key, fallback);
  T value{};
  size_t consumed = 0;
  try {
    // std::sto* would skip a leading space and wrap a leading '-'.
    if (!raw.empty() && std::isdigit(static_cast<unsigned char>(raw[0]))) {
      if constexpr (std::is_integral_v<T>) {
        value = std::stoul(raw, &consumed);
      } else {
        value = std::stod(raw, &consumed);
      }
    }
  } catch (const std::exception&) {
    consumed = 0;
  }
  // The negated range test also rejects NaN.
  if (raw.empty() || consumed != raw.size() ||
      !(value >= min && value <= max)) {
    std::ostringstream msg;
    msg << "invalid --" << key << " value '" << raw << "' (expected "
        << (std::is_integral_v<T> ? "an integer" : "a number") << " in ["
        << min << ", " << max << "])" << kDocsHint;
    return Status::InvalidArgument(msg.str());
  }
  return value;
}

Result<size_t> ParseSizeFlag(const Flags& flags, const std::string& key,
                             const std::string& fallback, size_t min,
                             size_t max) {
  return ParseNumberFlag<size_t>(flags, key, fallback, min, max);
}

/// Boosting iterations per candidate model (--trees).
Result<size_t> ParseTrees(const Flags& flags, const std::string& fallback) {
  return ParseSizeFlag(flags, "trees", fallback, 1, 1 << 16);
}

/// Shared workload flags (kind/name/scale/zipf/tuning/queries/seed);
/// per-command defaults differ only in scale and query count.
Result<WorkloadConfig> ParseWorkloadFlags(const Flags& flags,
                                          const std::string& default_scale,
                                          const std::string& default_queries) {
  WorkloadConfig config;
  RPE_ASSIGN_OR_RETURN(config.kind, ParseKind(FlagOr(flags, "kind", "tpch")));
  config.name = FlagOr(flags, "name", FlagOr(flags, "kind", "tpch"));
  RPE_ASSIGN_OR_RETURN(
      config.scale,
      ParseNumberFlag(flags, "scale", default_scale, 0.001, 1000.0));
  RPE_ASSIGN_OR_RETURN(config.zipf,
                       ParseNumberFlag(flags, "zipf", "1.0", 0.0, 10.0));
  RPE_ASSIGN_OR_RETURN(config.tuning,
                       ParseTuning(FlagOr(flags, "tuning", "partial")));
  RPE_ASSIGN_OR_RETURN(
      config.num_queries,
      ParseSizeFlag(flags, "queries", default_queries, 1, 1 << 20));
  RPE_ASSIGN_OR_RETURN(config.seed,
                       ParseSizeFlag(flags, "seed", "1", 0, SIZE_MAX));
  return config;
}

int CmdRun(const Flags& flags) {
  auto config = ParseWorkloadFlags(flags, /*default_scale=*/"10",
                                   /*default_queries=*/"200");
  if (!config.ok()) {
    std::cerr << config.status().ToString() << "\n";
    return 2;
  }

  RunOptions options;
  options.progress_every = 100;
  std::cerr << "building + running workload " << config->name << " ...\n";
  auto records = BuildAndRun(*config, options, FlagOr(flags, "tag", ""));
  if (!records.ok()) {
    std::cerr << records.status().ToString() << "\n";
    return 1;
  }
  const std::string out = FlagOr(flags, "out", "records.rpsn");
  const Status save = SaveRecordBatch(*records, out);
  if (!save.ok()) {
    std::cerr << save.ToString() << "\n";
    return 1;
  }
  std::cout << records->size() << " pipeline records -> " << out << "\n";
  return 0;
}

int CmdTrain(const Flags& flags) {
  auto trees = ParseTrees(flags, "200");
  auto pool = ParsePool(flags);
  for (const Status& st : {trees.status(), pool.status()}) {
    if (!st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 2;
    }
  }
  auto records = LoadRecordBatch(FlagOr(flags, "records", "records.rpsn"));
  if (!records.ok()) {
    std::cerr << records.status().ToString() << "\n";
    return 1;
  }
  MartParams params = EstimatorSelector::DefaultParams();
  params.num_trees = static_cast<int>(*trees);
  const SelectorStack stack = SelectorStack::Train(*records, *pool, params);

  const std::string out = FlagOr(flags, "out", "stack.rpsn");
  const Status save = SaveSelectorStack(stack, out);
  if (!save.ok()) {
    std::cerr << save.ToString() << "\n";
    return 1;
  }
  std::cout << "trained static+dynamic selectors ("
            << stack.static_selector.pool().size()
            << " candidate models each) on " << records->size()
            << " records -> " << out << "\n";
  return 0;
}

int CmdEvaluate(const Flags& flags) {
  auto trees = ParseTrees(flags, "100");
  auto parsed_pool = ParsePool(flags);
  for (const Status& st : {trees.status(), parsed_pool.status()}) {
    if (!st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 2;
    }
  }
  auto train = LoadRecordBatch(FlagOr(flags, "train", "train.rpsn"));
  auto test = LoadRecordBatch(FlagOr(flags, "test", "test.rpsn"));
  for (const Status& st : {train.status(), test.status()}) {
    if (!st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }
  }
  const std::vector<size_t>& pool = *parsed_pool;
  const bool dynamic = flags.count("dynamic") > 0;
  MartParams params = EstimatorSelector::DefaultParams();
  params.num_trees = static_cast<int>(*trees);
  const auto eval = TrainAndEvaluate(*train, *test, pool, dynamic, params);

  TablePrinter table({"Policy", "avg L1", "avg L2", "% optimal", ">5x"});
  for (size_t est : pool) {
    const auto m = EvaluateChoices(*test, FixedChoice(*test, est), pool);
    table.AddRow({EstimatorName(static_cast<EstimatorKind>(est)),
                  TablePrinter::Fmt(m.avg_l1, 4),
                  TablePrinter::Fmt(m.avg_l2, 4),
                  TablePrinter::Pct(m.pct_optimal),
                  TablePrinter::Pct(m.frac_ratio_gt5)});
  }
  table.AddRow({"EST. SELECTION", TablePrinter::Fmt(eval.metrics.avg_l1, 4),
                TablePrinter::Fmt(eval.metrics.avg_l2, 4),
                TablePrinter::Pct(eval.metrics.pct_optimal),
                TablePrinter::Pct(eval.metrics.frac_ratio_gt5)});
  table.Print();
  return 0;
}

int CmdInspect(const Flags& flags) {
  auto records = LoadRecordBatch(FlagOr(flags, "records", "records.rpsn"));
  if (!records.ok()) {
    std::cerr << records.status().ToString() << "\n";
    return 1;
  }
  std::cout << records->size() << " pipeline records\n";
  std::map<std::string, size_t> per_workload;
  for (const auto& r : *records) per_workload[r.workload]++;
  for (const auto& [w, n] : per_workload) {
    std::cout << "  " << w << ": " << n << "\n";
  }
  TablePrinter table({"Estimator", "avg L1", "win rate"});
  for (int e = 0; e < kNumSelectableEstimators; ++e) {
    const auto m =
        EvaluateChoices(*records, FixedChoice(*records, static_cast<size_t>(e)));
    table.AddRow({EstimatorName(static_cast<EstimatorKind>(e)),
                  TablePrinter::Fmt(m.avg_l1, 4),
                  TablePrinter::Pct(
                      FractionOptimal(*records, static_cast<size_t>(e)))});
  }
  table.Print();
  return 0;
}

int CmdSnapshotLoad(const Flags& flags) {
  const std::string in = FlagOr(flags, "in", "records.rpsn");
  auto bytes = ReadSnapshotFile(in);
  if (!bytes.ok()) {
    std::cerr << bytes.status().ToString() << "\n";
    return 1;
  }
  auto kind = PeekSnapshotKind(*bytes);
  if (!kind.ok()) {
    std::cerr << kind.status().ToString() << "\n";
    return 1;
  }
  if (*kind == SnapshotKind::kRecordBatch) {
    auto records = DecodeRecordBatch(*bytes);
    if (!records.ok()) {
      std::cerr << records.status().ToString() << "\n";
      return 1;
    }
    std::cout << in << ": record batch, " << records->size()
              << " records (CRC ok)\n";
    return 0;
  }
  auto stack = DecodeSelectorStack(*bytes);
  if (!stack.ok()) {
    std::cerr << stack.status().ToString() << "\n";
    return 1;
  }
  std::cout << in << ": selector stack (CRC ok)\n";
  for (const auto* sel :
       {&(*stack)->static_selector, &(*stack)->dynamic_selector}) {
    std::cout << "  " << (sel->uses_dynamic_features() ? "dynamic" : "static")
              << ": " << sel->pool().size() << " candidate models, "
              << sel->flat().merged().init_mask.size()
              << " trees total, pool {";
    for (size_t i = 0; i < sel->pool().size(); ++i) {
      std::cout << (i > 0 ? " " : "")
                << EstimatorName(static_cast<EstimatorKind>(sel->pool()[i]));
    }
    std::cout << "}\n";
  }
  return 0;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// ", peak X MB, resident Y MB": the process's VmHWM and VmRSS (MB =
/// 2^20 bytes, the unit of perfbench's server_rss_mb), or "" where
/// /proc/self/status cannot be read.
std::string MemoryNote() {
  const std::optional<ProcessMemory> memory = ReadProcessMemory();
  if (!memory) return "";
  constexpr double kMb = 1024.0 * 1024.0;
  std::ostringstream note;
  note << std::fixed << std::setprecision(1) << ", peak "
       << memory->peak_bytes / kMb << " MB, resident "
       << memory->resident_bytes / kMb << " MB";
  return note.str();
}

/// ", observations N, stored X MB": the observations the kept runs hold,
/// and the bytes of their observation stores (MB = 2^20 bytes).
std::string ObservationNote(const std::vector<OwnedRun>& runs) {
  size_t observations = 0;
  size_t stored_bytes = 0;
  for (const OwnedRun& run : runs) {
    observations += run.result.observations.size();
    stored_bytes += run.result.observations.stored_bytes();
  }
  std::ostringstream note;
  note << std::fixed << std::setprecision(1) << ", observations "
       << observations << ", stored "
       << static_cast<double>(stored_bytes) / (1024.0 * 1024.0) << " MB";
  return note.str();
}

/// Build + execute a serving workload, keeping every successful run alive
/// (sessions replay against them) and its featurized records.
Status ExecuteServingWorkload(const WorkloadConfig& config,
                              std::vector<OwnedRun>* runs,
                              std::vector<PipelineRecord>* records) {
  const auto build_start = std::chrono::steady_clock::now();
  RPE_ASSIGN_OR_RETURN(Workload workload, BuildWorkload(config));
  const double build_s = SecondsSince(build_start);
  WorkloadRun executed =
      PlanAndExecuteWorkload(workload, RunOptions{}, "", /*keep_runs=*/true);
  RPE_LOG_INFO << std::fixed << std::setprecision(3) << "workload "
               << config.name << ": build " << build_s << " s, plan "
               << workload.queries.size() << " queries "
               << executed.plan_seconds << " s, execute "
               << executed.execute_seconds << " s on "
               << ThreadPool::Global().num_threads() << " threads ("
               << executed.failed << " failed)"
               << ObservationNote(executed.runs) << MemoryNote();
  *runs = std::move(executed.runs);
  *records = std::move(executed.records);
  if (runs->empty()) {
    return Status::Internal("no query of the workload executed successfully");
  }
  if (records->empty()) {
    return Status::Internal(
        "workload produced no trainable pipeline records (every pipeline "
        "below min_observations); increase --queries or --scale");
  }
  return Status::OK();
}

/// Load the --model snapshot up front — before the (expensive) workload
/// run — so a corrupt, truncated, or missing file fails in milliseconds
/// with its Status on stderr and a nonzero exit. Returns nullptr when no
/// --model flag was given (the stack is trained post-workload instead).
Result<std::shared_ptr<const SelectorStack>> PreloadModel(const Flags& flags) {
  if (flags.count("model") == 0) {
    return std::shared_ptr<const SelectorStack>(nullptr);
  }
  const std::string& path = flags.at("model");
  RPE_ASSIGN_OR_RETURN(std::shared_ptr<const SelectorStack> loaded,
                       LoadSelectorStack(path));
  std::cerr << "loaded selector stack from " << path << "\n";
  return loaded;
}

/// Initial serving stack: the preloaded --model when given, else trained
/// on `records`.
std::shared_ptr<const SelectorStack> InitialStack(
    std::shared_ptr<const SelectorStack> preloaded,
    const std::vector<PipelineRecord>& records,
    const std::vector<size_t>& pool, const MartParams& params) {
  if (preloaded != nullptr) return preloaded;
  const auto train_start = std::chrono::steady_clock::now();
  auto stack = std::make_shared<const SelectorStack>(
      SelectorStack::Train(records, pool, params));
  RPE_LOG_INFO << std::fixed << std::setprecision(3)
               << "train selector stack on " << records.size()
               << " records " << SecondsSince(train_start) << " s"
               << MemoryNote();
  return stack;
}

/// SIGTERM/SIGINT land here; the serve-tcp main loop polls the flag and
/// runs the (non-async-signal-safe) drain outside the handler.
volatile std::sig_atomic_t g_serve_tcp_stop = 0;

void ServeTcpSignalHandler(int) { g_serve_tcp_stop = 1; }

int CmdServeTcp(const Flags& flags) {
  auto parsed = ParseWorkloadFlags(flags, /*default_scale=*/"5",
                                   /*default_queries=*/"40");
  if (!parsed.ok()) {
    std::cerr << parsed.status().ToString() << "\n";
    return 2;
  }
  const WorkloadConfig& config = *parsed;

  // Flag validation happens before the (expensive) workload run: a typo'd
  // serve configuration must fail in milliseconds.
  // Powers of two route cheapest but are not required.
  auto shards = ParseSizeFlag(flags, "shards", "1", 1, 1024);
  auto trees = ParseTrees(flags, "50");
  auto port = ParseSizeFlag(flags, "port", "0", 0, 65535);
  auto io_threads = ParseSizeFlag(flags, "io-threads", "0", 0, 256);
  auto queue_cap = ParseSizeFlag(flags, "queue-cap", "1024", 1, 1 << 24);
  auto retrain_every =
      ParseSizeFlag(flags, "retrain-every", "48", 0, 1 << 24);
  // TrainerLoop requires max_corpus >= min_corpus (at most 16 here).
  auto corpus_cap = ParseSizeFlag(flags, "corpus-cap", "4096", 16, 1 << 24);
  auto max_inflight =
      ParseSizeFlag(flags, "max-inflight", "4096", 1, 1 << 24);
  auto conn_inflight =
      ParseSizeFlag(flags, "conn-inflight", "128", 1, 1 << 24);
  auto ingest_watermark =
      ParseSizeFlag(flags, "ingest-watermark", "0", 0, 1 << 24);
  // Observability: --metrics-port (0 = ephemeral) opens the HTTP
  // /metrics listener; --trace-out dumps a Chrome trace at exit;
  // --slow-ms turns on the slow-request log. Either of the latter two
  // enables the tracer.
  const bool metrics_enabled = flags.count("metrics-port") != 0;
  auto metrics_port = ParseSizeFlag(flags, "metrics-port", "0", 0, 65535);
  const std::string trace_out = FlagOr(flags, "trace-out", "");
  auto slow_ms = ParseSizeFlag(flags, "slow-ms", "0", 0, 1 << 24);
  auto parsed_pool = ParsePool(flags);
  for (const Status& st :
       {shards.status(), trees.status(), port.status(), io_threads.status(),
        queue_cap.status(), retrain_every.status(), corpus_cap.status(),
        max_inflight.status(), conn_inflight.status(),
        ingest_watermark.status(), metrics_port.status(), slow_ms.status(),
        parsed_pool.status()}) {
    if (!st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 2;
    }
  }
  auto preloaded = PreloadModel(flags);
  if (!preloaded.ok()) {
    std::cerr << preloaded.status().ToString() << "\n";
    return 1;
  }

  std::vector<OwnedRun> runs;
  std::vector<PipelineRecord> records;
  const Status executed = ExecuteServingWorkload(config, &runs, &records);
  if (!executed.ok()) {
    std::cerr << executed.ToString() << "\n";
    return 1;
  }

  MartParams params = EstimatorSelector::DefaultParams();
  params.num_trees = static_cast<int>(*trees);
  const std::vector<size_t>& pool = *parsed_pool;
  std::shared_ptr<const SelectorStack> stack =
      InitialStack(*preloaded, records, pool, params);

  // One registry is the only store of every counter — the service, the
  // queue, the trainer and the server accrue into it — and backs every
  // operator surface: kStats, the /metrics endpoint, kMetricsDump frames,
  // and the exit table below.
  obs::MetricsRegistry registry;
  ShardedMonitorService::Options service_options;
  service_options.num_shards = *shards;
  service_options.metrics = &registry;
  ShardedMonitorService service(stack, service_options);

  // The full online loop rides behind the wire: ingest frames land in
  // this queue, the TrainerLoop drains/retrains/hot-swaps, and kStats
  // responses expose the generation bumps mid-connection.
  RecordIngestQueue queue(*queue_cap, &registry);
  TrainerLoop::Options trainer_options;
  trainer_options.retrain_min_records = *retrain_every;
  trainer_options.max_corpus = *corpus_cap;
  trainer_options.min_corpus = std::min<size_t>(
      trainer_options.min_corpus, std::max<size_t>(records.size(), 1));
  trainer_options.pool = pool;
  trainer_options.params = params;
  trainer_options.snapshot_path = FlagOr(flags, "snapshot-out", "");
  trainer_options.metrics = &registry;
  TrainerLoop trainer(&queue, &service, trainer_options);
  trainer.SeedCorpus(records);
  trainer.Start();

  // The replay corpus OpenRequest.run_index indexes into (modulo).
  std::vector<const QueryRunResult*> run_ptrs;
  run_ptrs.reserve(runs.size());
  for (const OwnedRun& run : runs) run_ptrs.push_back(&run.result);

  RegisterFailPointCollector(&registry);
  RegisterSimdCollector(&registry);
  RegisterTracerCollector(&registry);
  RegisterProcessMemoryCollector(&registry);
  if (!trace_out.empty() || *slow_ms > 0) {
    obs::Tracer::Global().Enable();
    obs::Tracer::Global().SetSlowThresholdNs(
        static_cast<uint64_t>(*slow_ms) * 1000000u);
  }

  TcpServer::Options server_options;
  server_options.port = static_cast<uint16_t>(*port);
  server_options.io_threads = *io_threads;
  server_options.max_inflight_total = *max_inflight;
  server_options.max_inflight_per_conn = *conn_inflight;
  server_options.ingest_shed_watermark = *ingest_watermark;
  server_options.metrics = &registry;
  server_options.metrics_port =
      metrics_enabled ? static_cast<int>(*metrics_port) : -1;
  TcpServer server(&service, run_ptrs, &queue, server_options);
  const Status started = server.Start();
  if (!started.ok()) {
    std::cerr << started.ToString() << "\n";
    return 1;
  }

  g_serve_tcp_stop = 0;
  std::signal(SIGTERM, ServeTcpSignalHandler);
  std::signal(SIGINT, ServeTcpSignalHandler);
  // The smoke test (scripts/server_smoke_test.sh) parses this line for
  // the ephemeral port; keep the format stable.
  std::cout << "listening on 127.0.0.1:" << server.port() << " ("
            << service.num_shards() << " shards, " << run_ptrs.size()
            << " runs)" << std::endl;
  if (metrics_enabled) {
    // The smoke test parses this line for the scrape port; keep the
    // format stable.
    std::cout << "metrics on 127.0.0.1:" << server.metrics_port()
              << std::endl;
  }
  while (g_serve_tcp_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  RPE_LOG_INFO << "draining ...";
  // Order matters: the server stops accepting records first, the queue
  // closes so the trainer's final drain sees the tail, then the trainer
  // stops (possibly publishing once more) before stats are read.
  server.Stop();
  queue.Close();
  trainer.Stop();

  if (!trace_out.empty()) {
    const Status wrote = obs::Tracer::Global().WriteChromeTrace(trace_out);
    if (!wrote.ok()) {
      RPE_LOG_WARN << "trace dump failed: " << wrote.ToString();
    }
  }

  // The exit table is the scrape, rendered: registry cells first
  // (registration order: service, queue, trainer, server), then the
  // service/failpoint/simd/tracer collector samples. Scripts regex-match
  // row labels first-hit-wins, which is why the wire-session counters
  // carry no table label (the "sessions opened" row must be the
  // service's).
  TablePrinter table = MetricsTable(registry.Collect());
  table.AddRow({"simd", simd::KernelReport()});
  table.Print();
  return 0;
}

/// `version` / `--version`: which SIMD tier was detected, what RPE_SIMD
/// resolved to, and which implementation each dispatched kernel bound —
/// the observable surface of common/simd.h (tests/simd_test.cpp asserts
/// on the same KernelReport string).
int CmdVersion(const Flags&) {
  std::cout << "rpe_cli (journals_pvldb_KonigDCN11 reproduction)\n"
            << "simd: detected=" << simd::TierName(simd::DetectedTier())
            << " " << simd::KernelReport() << "\n";
  return 0;
}

/// Every subcommand with the flags it accepts: the one place a flag is
/// declared (docs/CLI.md documents each of them).
const std::vector<Command>& Commands() {
  static const std::vector<std::string_view> kWorkload = {
      "kind", "name", "scale", "zipf", "tuning", "queries", "seed"};
  const auto with_workload = [](std::vector<std::string_view> names) {
    names.insert(names.begin(), kWorkload.begin(), kWorkload.end());
    return names;
  };
  static const std::vector<Command> commands = {
      {"run", "execute a workload and write pipeline records", CmdRun,
       with_workload({"out", "tag"}), {}},
      {"train", "train the selector stack, write a .rpsn model", CmdTrain,
       {"records", "pool", "trees", "out"}, {}},
      {"evaluate", "train on one record set, score another", CmdEvaluate,
       {"train", "test", "pool", "trees"}, {"dynamic"}},
      {"inspect", "summarize a record set", CmdInspect, {"records"}, {}},
      {"snapshot-load", "verify + describe a snapshot", CmdSnapshotLoad,
       {"in"}, {}},
      {"serve-tcp", "epoll TCP front-end over the monitor tier", CmdServeTcp,
       with_workload({"port", "shards", "io-threads", "model", "trees",
                      "pool", "queue-cap", "retrain-every", "corpus-cap",
                      "snapshot-out", "max-inflight", "conn-inflight",
                      "ingest-watermark", "metrics-port", "trace-out",
                      "slow-ms"}),
       {}},
      {"version", "build + SIMD dispatch report (also --version)", CmdVersion,
       {}, {}},
  };
  return commands;
}

void PrintUsage(std::ostream& out) {
  out << "usage: rpe_cli <command> [--flags]   (see docs/CLI.md)\n"
         "commands:\n";
  for (const Command& c : Commands()) {
    out << "  " << std::left << std::setw(15) << c.name << c.summary << "\n";
  }
  out << "common flags: --threads N (0..256); serve-tcp also takes --shards N\n"
         "(sharded session routing) and --model x.rpsn (mapped snapshot\n"
         "load)\n";
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage(std::cerr);
    return 2;
  }
  const std::string_view word = argv[1];
  if (word == "--help" || word == "-h" || word == "help") {
    PrintUsage(std::cout);
    return 0;
  }
  const std::string_view wanted = word == "--version" ? "version" : word;
  const auto& commands = Commands();
  const auto command =
      std::find_if(commands.begin(), commands.end(),
                   [wanted](const Command& c) { return c.name == wanted; });
  if (command == commands.end()) {
    std::cerr << "unknown command: " << word << kDocsHint << "\n";
    return 2;
  }
  const auto flags = ParseFlags(*command, argc, argv);
  if (!flags.ok()) {
    std::cerr << flags.status().ToString() << "\n";
    return 2;
  }
  if (flags->count("threads") > 0) {
    // Capped like --io-threads: every pool thread is an OS thread.
    auto threads = ParseSizeFlag(*flags, "threads", "0", 0, 256);
    if (!threads.ok()) {
      std::cerr << threads.status().ToString() << "\n";
      return 2;
    }
    ThreadPool::SetGlobalThreads(static_cast<int>(*threads));
  }
  // Make fault-injection runs self-announcing: RPE_FAILPOINTS armed sites
  // are listed up front so a chaos run is never mistaken for a clean one.
  if (const auto armed = FailPoints::Armed(); !armed.empty()) {
    std::string names;
    for (const auto& name : armed) names += " " + name;
    // Scripts grep the "failpoints armed: <name>" substring; the logger
    // prefix (timestamp/level/tid) is additive, never a replacement.
    RPE_LOG_INFO << "failpoints armed:" << names;
  }
  return command->run(*flags);
}

}  // namespace
}  // namespace rpe

int main(int argc, char** argv) { return rpe::Main(argc, argv); }
