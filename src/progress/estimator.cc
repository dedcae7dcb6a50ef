#include "progress/estimator.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace rpe {

const char* EstimatorName(EstimatorKind kind) {
  switch (kind) {
    case EstimatorKind::kDne: return "DNE";
    case EstimatorKind::kTgn: return "TGN";
    case EstimatorKind::kLuo: return "LUO";
    case EstimatorKind::kSafe: return "SAFE";
    case EstimatorKind::kPmax: return "PMAX";
    case EstimatorKind::kBatchDne: return "BATCHDNE";
    case EstimatorKind::kDneSeek: return "DNESEEK";
    case EstimatorKind::kTgnInt: return "TGNINT";
    case EstimatorKind::kOracleGetNext: return "ORACLE_GN";
    case EstimatorKind::kOracleBytes: return "ORACLE_BYTES";
  }
  return "UNKNOWN";
}

double PipelineView::Elapsed(size_t oi) const {
  return std::max(0.0, obs(oi).vtime - pipeline->start_time);
}

double PipelineView::TrueProgress(size_t oi) const {
  const double span = pipeline->end_time - pipeline->start_time;
  if (span <= 0.0) return 1.0;
  return std::clamp(Elapsed(oi) / span, 0.0, 1.0);
}

double SumK(const Observation& obs, const std::vector<int>& nodes) {
  double s = 0.0;
  for (int id : nodes) s += obs.k[static_cast<size_t>(id)];
  return s;
}

double SumE(const Observation& obs, const std::vector<int>& nodes) {
  double s = 0.0;
  for (int id : nodes) s += obs.e[static_cast<size_t>(id)];
  return s;
}

double SumLb(const Observation& obs, const std::vector<int>& nodes) {
  double s = 0.0;
  for (int id : nodes) s += obs.lb[static_cast<size_t>(id)];
  return s;
}

double SumUb(const Observation& obs, const std::vector<int>& nodes) {
  double s = 0.0;
  for (int id : nodes) {
    s += std::min(obs.ub[static_cast<size_t>(id)], kCardinalityInf);
  }
  return s;
}

namespace {

double Clamp01(double v) {
  if (std::isnan(v)) return 0.0;
  return std::clamp(v, 0.0, 1.0);
}

/// Fraction ΣK / ΣE over a node set (the DNE family, Eq. 4/6/7).
double CounterFraction(const Observation& obs, const std::vector<int>& nodes) {
  const double k = SumK(obs, nodes);
  const double e = SumE(obs, nodes);
  if (e <= 0.0) return k > 0.0 ? 1.0 : 0.0;
  return Clamp01(k / e);
}

class DneEstimator : public ProgressEstimator {
 public:
  EstimatorKind kind() const override { return EstimatorKind::kDne; }
  double Estimate(const PipelineView& view, size_t oi) const override {
    return CounterFraction(view.obs(oi), view.pipeline->driver_nodes);
  }
};

class TgnEstimator : public ProgressEstimator {
 public:
  EstimatorKind kind() const override { return EstimatorKind::kTgn; }
  double Estimate(const PipelineView& view, size_t oi) const override {
    return CounterFraction(view.obs(oi), view.pipeline->nodes);
  }
};

class BatchDneEstimator : public ProgressEstimator {
 public:
  EstimatorKind kind() const override { return EstimatorKind::kBatchDne; }
  double Estimate(const PipelineView& view, size_t oi) const override {
    return CounterFraction(view.obs(oi), view.pipeline->batch_sort_drivers);
  }
};

class DneSeekEstimator : public ProgressEstimator {
 public:
  EstimatorKind kind() const override { return EstimatorKind::kDneSeek; }
  double Estimate(const PipelineView& view, size_t oi) const override {
    return CounterFraction(view.obs(oi), view.pipeline->index_seek_drivers);
  }
};

/// TGN with the interpolation-based cardinality refinement of [13] (Eq. 8):
/// the total is ΣK plus the un-consumed fraction of the original estimates.
class TgnIntEstimator : public ProgressEstimator {
 public:
  EstimatorKind kind() const override { return EstimatorKind::kTgnInt; }
  double Estimate(const PipelineView& view, size_t oi) const override {
    const Observation& obs = view.obs(oi);
    const double k = SumK(obs, view.pipeline->nodes);
    const double e = SumE(obs, view.pipeline->nodes);
    const double alpha =
        CounterFraction(obs, view.pipeline->driver_nodes);  // = DNE_Pj
    const double denom = k + (1.0 - alpha) * e;
    if (denom <= 0.0) return 0.0;
    return Clamp01(k / denom);
  }
};

/// PMAX: most pessimistic progress consistent with the cardinality bounds,
/// ΣK / ΣUB. Ratio error bounded by the per-tuple fan-out µ ([5]).
class PmaxEstimator : public ProgressEstimator {
 public:
  EstimatorKind kind() const override { return EstimatorKind::kPmax; }
  double Estimate(const PipelineView& view, size_t oi) const override {
    const Observation& obs = view.obs(oi);
    const double k = SumK(obs, view.pipeline->nodes);
    const double ub = SumUb(obs, view.pipeline->nodes);
    if (ub <= 0.0) return 0.0;
    return Clamp01(k / ub);
  }
};

/// SAFE: worst-case-optimal for the ratio error — the geometric mean of the
/// lowest and highest progress consistent with the bounds ([5]).
class SafeEstimator : public ProgressEstimator {
 public:
  EstimatorKind kind() const override { return EstimatorKind::kSafe; }
  double Estimate(const PipelineView& view, size_t oi) const override {
    const Observation& obs = view.obs(oi);
    const double k = SumK(obs, view.pipeline->nodes);
    const double ub = SumUb(obs, view.pipeline->nodes);
    const double lb = std::max(SumLb(obs, view.pipeline->nodes), 1.0);
    if (ub <= 0.0 || k <= 0.0) return 0.0;
    const double lo = Clamp01(k / ub);
    const double hi = Clamp01(k / lb);
    return Clamp01(std::sqrt(lo * hi));
  }
};

/// LUO ([13]): bytes processed at the dominant inputs plus pipeline output,
/// converted to remaining time via the recently observed processing speed.
class LuoEstimator : public ProgressEstimator {
 public:
  EstimatorKind kind() const override { return EstimatorKind::kLuo; }

  double Estimate(const PipelineView& view, size_t oi) const override {
    const Observation& obs = view.obs(oi);
    const double done = DoneBytes(view, obs);
    const double total = TotalBytesEstimate(view, obs);
    if (total <= 0.0) return 0.0;
    const double byte_fraction = Clamp01(done / total);

    // Speed over the trailing ~quarter of the pipeline window so far.
    const double elapsed = view.Elapsed(oi);
    if (elapsed <= 0.0) return byte_fraction;
    const double lookback_start = obs.vtime - std::max(elapsed * 0.25, 1.0);
    // vtime never decreases within a run, so the lookback point is the
    // first observation of the window at or after lookback_start.
    const std::span<const double> vtimes = view.run->observations.vtimes();
    const auto at = vtimes.begin() + static_cast<std::ptrdiff_t>(oi);
    const auto from =
        std::min(vtimes.begin() + std::max(view.pipeline->first_obs, 0), at);
    const Observation back = view.obs(static_cast<size_t>(
        std::partition_point(from, at,
                             [&](double t) { return t < lookback_start; }) -
        vtimes.begin()));
    const double dt = obs.vtime - back.vtime;
    const double db = done - DoneBytes(view, back);
    if (dt <= 0.0 || db <= 0.0) return byte_fraction;
    const double speed = db / dt;
    const double remaining = std::max(0.0, total - done) / speed;
    return Clamp01(elapsed / (elapsed + remaining));
  }

 private:
  double DoneBytes(const PipelineView& view, const Observation& obs) const {
    double done = 0.0;
    for (int id : view.pipeline->driver_nodes) {
      done += obs.bytes_read[static_cast<size_t>(id)];
    }
    const size_t sink = static_cast<size_t>(view.pipeline->sink);
    if (!view.pipeline->IsDriver(view.pipeline->sink)) {
      done += obs.bytes_read[sink];
    }
    done += obs.bytes_written[sink];
    return done;
  }

  double TotalBytesEstimate(const PipelineView& view,
                            const Observation& obs) const {
    double total = 0.0;
    for (int id : view.pipeline->driver_nodes) {
      const double width = static_cast<double>(
          view.node(id)->output_schema.row_width_bytes());
      total += obs.e[static_cast<size_t>(id)] * width;
    }
    if (!view.pipeline->IsDriver(view.pipeline->sink)) {
      const double width = static_cast<double>(
          view.node(view.pipeline->sink)->output_schema.row_width_bytes());
      total += obs.e[static_cast<size_t>(view.pipeline->sink)] * width;
    }
    // Already-written spill bytes are part of the work done and total.
    total += obs.bytes_written[static_cast<size_t>(view.pipeline->sink)];
    return total;
  }
};

/// §6.7: the GetNext model with exact cardinalities — ΣK(t) / ΣN.
class OracleGetNextEstimator : public ProgressEstimator {
 public:
  EstimatorKind kind() const override {
    return EstimatorKind::kOracleGetNext;
  }
  double Estimate(const PipelineView& view, size_t oi) const override {
    const Observation& obs = view.obs(oi);
    double k = 0.0, n = 0.0;
    for (int id : view.pipeline->nodes) {
      k += obs.k[static_cast<size_t>(id)];
      n += view.run->true_n[static_cast<size_t>(id)];
    }
    if (n <= 0.0) return 1.0;
    return Clamp01(k / n);
  }
};

/// §6.7: the bytes-processed model of [13] with exact byte totals.
class OracleBytesEstimator : public ProgressEstimator {
 public:
  EstimatorKind kind() const override { return EstimatorKind::kOracleBytes; }
  double Estimate(const PipelineView& view, size_t oi) const override {
    const Observation& obs = view.obs(oi);
    double done = 0.0, total = 0.0;
    for (int id : view.pipeline->driver_nodes) {
      const size_t i = static_cast<size_t>(id);
      done += obs.bytes_read[i];
      total += view.run->final_bytes_read[i];
    }
    const size_t sink = static_cast<size_t>(view.pipeline->sink);
    if (!view.pipeline->IsDriver(view.pipeline->sink)) {
      done += obs.bytes_read[sink];
      total += view.run->final_bytes_read[sink];
    }
    done += obs.bytes_written[sink];
    total += view.run->final_bytes_written[sink];
    if (total <= 0.0) return 1.0;
    return Clamp01(done / total);
  }
};

// Namespace-scope and constant-initialized, so GetEstimator checks no
// function-local static guards per call.
constinit const DneEstimator kDneEstimator;
constinit const TgnEstimator kTgnEstimator;
constinit const LuoEstimator kLuoEstimator;
constinit const SafeEstimator kSafeEstimator;
constinit const PmaxEstimator kPmaxEstimator;
constinit const BatchDneEstimator kBatchDneEstimator;
constinit const DneSeekEstimator kDneSeekEstimator;
constinit const TgnIntEstimator kTgnIntEstimator;
constinit const OracleGetNextEstimator kOracleGetNextEstimator;
constinit const OracleBytesEstimator kOracleBytesEstimator;

}  // namespace

const ProgressEstimator& GetEstimator(EstimatorKind kind) {
  switch (kind) {
    case EstimatorKind::kDne: return kDneEstimator;
    case EstimatorKind::kTgn: return kTgnEstimator;
    case EstimatorKind::kLuo: return kLuoEstimator;
    case EstimatorKind::kSafe: return kSafeEstimator;
    case EstimatorKind::kPmax: return kPmaxEstimator;
    case EstimatorKind::kBatchDne: return kBatchDneEstimator;
    case EstimatorKind::kDneSeek: return kDneSeekEstimator;
    case EstimatorKind::kTgnInt: return kTgnIntEstimator;
    case EstimatorKind::kOracleGetNext: return kOracleGetNextEstimator;
    case EstimatorKind::kOracleBytes: return kOracleBytesEstimator;
  }
  RPE_CHECK(false) << "unknown estimator kind";
  return kDneEstimator;
}

const std::vector<const ProgressEstimator*>& SelectableEstimators() {
  static const std::vector<const ProgressEstimator*> kAll = [] {
    std::vector<const ProgressEstimator*> v;
    for (int i = 0; i < kNumSelectableEstimators; ++i) {
      v.push_back(&GetEstimator(static_cast<EstimatorKind>(i)));
    }
    return v;
  }();
  return kAll;
}

}  // namespace rpe
