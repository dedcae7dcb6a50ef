#include "selection/features.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/logging.h"

namespace rpe {

namespace {

/// Estimators used in the time-correlation features (§6, "Dynamic
/// Features": Cor for DNE, TGN, LUO, BATCHDNE, DNESEEK, TGNINT).
constexpr EstimatorKind kCorEstimators[] = {
    EstimatorKind::kDne,      EstimatorKind::kTgn,
    EstimatorKind::kLuo,      EstimatorKind::kBatchDne,
    EstimatorKind::kDneSeek,  EstimatorKind::kTgnInt,
};
constexpr size_t kNumCorEstimators = 6;

/// Position of `kind` in kCorEstimators (a kind missing there fails to
/// compile: the scan runs off the array in a constant expression).
constexpr size_t CorIndex(EstimatorKind kind) {
  size_t e = 0;
  while (kCorEstimators[e] != kind) ++e;
  return e;
}

/// Estimators used in the pairwise-divergence features, as kCorEstimators
/// positions so both feature families read one estimate table.
constexpr size_t kDivergencePairs[][2] = {
    {CorIndex(EstimatorKind::kDne), CorIndex(EstimatorKind::kTgn)},
    {CorIndex(EstimatorKind::kDne), CorIndex(EstimatorKind::kTgnInt)},
    {CorIndex(EstimatorKind::kTgn), CorIndex(EstimatorKind::kTgnInt)},
};
constexpr size_t kNumPairs = 3;

/// Consumed driver fraction at one observation (the t{x} test of §4.4.2).
double DriverFraction(const Observation& obs, const std::vector<int>& drivers) {
  const double k = SumK(obs, drivers);
  const double e = SumE(obs, drivers);
  return e > 0.0 ? k / e : (k > 0.0 ? 1.0 : 0.0);
}

/// One MarkerTable entry's threshold: the driver fraction
/// MarkerObservation(view, x * i / kCorSteps) compares against.
struct Threshold {
  double fraction;
  size_t marker;
  size_t step;  ///< i - 1
};
constexpr size_t kNumThresholds = kNumMarkers * kCorSteps;

/// Every MarkerTable threshold in ascending order. Equal thresholds (x * i
/// / k coincides for different x, i) stay separate entries; they resolve
/// to the same observation.
const std::array<Threshold, kNumThresholds>& SortedThresholds() {
  static const std::array<Threshold, kNumThresholds> sorted = [] {
    std::array<Threshold, kNumThresholds> t{};
    size_t n = 0;
    for (size_t m = 0; m < kNumMarkers; ++m) {
      const double x = static_cast<double>(kMarkerPercents[m]);
      for (size_t i = 1; i <= kCorSteps; ++i) {
        const double pct =
            x * static_cast<double>(i) / static_cast<double>(kCorSteps);
        t[n++] = {pct / 100.0, m, i - 1};
      }
    }
    std::sort(t.begin(), t.end(), [](const auto& a, const auto& b) {
      return a.fraction < b.fraction;
    });
    return t;
  }();
  return sorted;
}

/// Descendant subtree span per node: in preorder, node i's subtree occupies
/// ids [i, i + size_i).
std::vector<int> SubtreeSizes(const PhysicalPlan& plan) {
  std::vector<int> sizes(plan.num_nodes(), 1);
  // Plan nodes link only to their children, so sizes sum bottom-up.
  struct Rec {
    std::vector<int>* sizes;
    int Visit(const PlanNode* n) {
      int total = 1;
      for (const auto& c : n->children) total += Visit(c.get());
      (*sizes)[static_cast<size_t>(n->id)] = total;
      return total;
    }
  };
  Rec rec{&sizes};
  rec.Visit(plan.root());
  return sizes;
}

}  // namespace

const FeatureSchema& FeatureSchema::Get() {
  static const FeatureSchema schema;
  return schema;
}

FeatureSchema::FeatureSchema() {
  // --- static block ---
  for (size_t op = 0; op < kNumOpTypes; ++op) {
    const char* op_name = OpTypeName(static_cast<OpType>(op));
    names_.push_back(std::string("Count_") + op_name);
    names_.push_back(std::string("Card_") + op_name);
    names_.push_back(std::string("SelAt_") + op_name);
    names_.push_back(std::string("SelAbove_") + op_name);
    names_.push_back(std::string("SelBelow_") + op_name);
  }
  names_.push_back("SelAtDN");
  names_.push_back("NumNodes");
  names_.push_back("NumDrivers");
  names_.push_back("LogTotalE");
  names_.push_back("LogDriverE");
  names_.push_back("HasNljInner");
  names_.push_back("MaxNodeEShare");
  names_.push_back("EstBytesPerCall");
  num_static_ = names_.size();

  // --- dynamic block ---
  const char* pair_names[kNumPairs] = {"DNEvsTGN", "DNEvsTGNINT",
                                       "TGNvsTGNINT"};
  for (size_t p = 0; p < kNumPairs; ++p) {
    for (size_t m = 0; m < kNumMarkers; ++m) {
      names_.push_back(std::string(pair_names[p]) + "_" +
                       std::to_string(kMarkerPercents[m]));
    }
  }
  for (size_t e = 0; e < kNumCorEstimators; ++e) {
    const char* est_name = EstimatorName(kCorEstimators[e]);
    for (size_t i = 1; i <= kCorSteps; ++i) {
      for (size_t m = 0; m < kNumMarkers; ++m) {
        names_.push_back(std::string("Cor_") + est_name + "_" +
                         std::to_string(i) + "_" +
                         std::to_string(kMarkerPercents[m]));
      }
    }
  }
}

int MarkerObservation(const PipelineView& view, double pct) {
  if (view.pipeline->first_obs < 0) return -1;
  const double target = pct / 100.0;
  for (int oi = view.pipeline->first_obs; oi <= view.pipeline->last_obs;
       ++oi) {
    if (DriverFraction(view.obs(static_cast<size_t>(oi)),
                       view.pipeline->driver_nodes) >= target) {
      return oi;
    }
  }
  return -1;
}

MarkerTable ResolveMarkers(const PipelineView& view) {
  MarkerTable table;
  for (auto& row : table.at) std::fill(std::begin(row), std::end(row), -1);
  const Pipeline& p = *view.pipeline;
  if (p.first_obs < 0) return table;
  // The driver fraction may dip (E revised upward); a threshold still takes
  // the first observation that reaches it, as in MarkerObservation. That
  // observation reaches every lower threshold too, so walking the sorted
  // thresholds with one pointer never resolves one late.
  const auto& thresholds = SortedThresholds();
  size_t next = 0;
  for (int oi = p.first_obs; oi <= p.last_obs && next < kNumThresholds;
       ++oi) {
    const double fraction =
        DriverFraction(view.obs(static_cast<size_t>(oi)), p.driver_nodes);
    for (; next < kNumThresholds && fraction >= thresholds[next].fraction;
         ++next) {
      table.at[thresholds[next].marker][thresholds[next].step] = oi;
    }
  }
  return table;
}

std::vector<double> ExtractStaticFeatures(const PipelineView& view) {
  const PhysicalPlan& plan = *view.run->plan;
  const Pipeline& p = *view.pipeline;
  const std::vector<int> subtree = SubtreeSizes(plan);

  auto e0 = [&](int id) {
    return plan.node(id)->est_rows;
  };

  double total_e = 0.0;
  double max_e = 0.0;
  for (int id : p.nodes) {
    total_e += e0(id);
    max_e = std::max(max_e, e0(id));
  }
  const double safe_total = std::max(total_e, 1.0);

  // Descendant test via preorder spans: j is a descendant of i iff
  // i < j < i + subtree[i].
  auto is_descendant = [&](int j, int i) {
    return j > i && j < i + subtree[static_cast<size_t>(i)];
  };

  std::vector<double> features;
  // Room for the dynamic block, which AppendDynamicFeatures may add.
  features.reserve(FeatureSchema::Get().num_features());
  for (size_t op_i = 0; op_i < kNumOpTypes; ++op_i) {
    const OpType op = static_cast<OpType>(op_i);
    double count = 0.0, card = 0.0, above = 0.0, below = 0.0;
    for (int id : p.nodes) {
      if (plan.node(id)->op == op) {
        count += 1.0;
        card += e0(id);
      }
    }
    if (count > 0.0) {
      for (int i : p.nodes) {
        bool has_op_descendant = false;
        bool is_op_descendant = false;
        for (int j : p.nodes) {
          if (plan.node(j)->op != op) continue;
          if (is_descendant(j, i)) has_op_descendant = true;
          if (is_descendant(i, j)) is_op_descendant = true;
        }
        if (has_op_descendant) above += e0(i);
        if (is_op_descendant) below += e0(i);
      }
    }
    features.push_back(count);
    features.push_back(card);
    features.push_back(card / safe_total);
    features.push_back(above / safe_total);
    features.push_back(below / safe_total);
  }

  double driver_e = 0.0;
  for (int id : p.driver_nodes) driver_e += e0(id);
  features.push_back(driver_e / safe_total);  // SelAtDN
  features.push_back(static_cast<double>(p.nodes.size()));
  features.push_back(static_cast<double>(p.driver_nodes.size()));
  features.push_back(std::log1p(total_e));
  features.push_back(std::log1p(driver_e));
  double has_inner = 0.0;
  double est_bytes = 0.0;
  for (int id : p.nodes) {
    if (plan.node(id)->nlj_inner) has_inner = 1.0;
    est_bytes +=
        e0(id) *
        static_cast<double>(plan.node(id)->output_schema.row_width_bytes());
  }
  features.push_back(has_inner);
  features.push_back(max_e / safe_total);
  features.push_back(est_bytes / safe_total);
  RPE_CHECK_EQ(features.size(), FeatureSchema::Get().num_static_features());
  return features;
}

std::vector<double> ExtractAllFeatures(const PipelineView& view) {
  std::vector<double> features = ExtractStaticFeatures(view);
  AppendDynamicFeatures(view, ResolveMarkers(view), &features);
  return features;
}

void AppendDynamicFeatures(const PipelineView& view, const MarkerTable& markers,
                           std::vector<double>* features) {
  const FeatureSchema& schema = FeatureSchema::Get();
  RPE_CHECK_EQ(features->size(), schema.num_static_features());

  // Each correlation estimator at each marker t{x}; 0 where the marker is
  // never reached. The divergence pairs read the same table.
  double est_at[kNumCorEstimators][kNumMarkers] = {};
  for (size_t e = 0; e < kNumCorEstimators; ++e) {
    const ProgressEstimator& est = GetEstimator(kCorEstimators[e]);
    for (size_t m = 0; m < kNumMarkers; ++m) {
      if (markers.marker(m) >= 0) {
        est_at[e][m] =
            est.Estimate(view, static_cast<size_t>(markers.marker(m)));
      }
    }
  }

  // Pairwise divergences at each marker.
  for (size_t pi = 0; pi < kNumPairs; ++pi) {
    for (size_t m = 0; m < kNumMarkers; ++m) {
      double value = 0.0;
      if (markers.marker(m) >= 0) {
        value = std::abs(est_at[kDivergencePairs[pi][0]][m] -
                         est_at[kDivergencePairs[pi][1]][m]);
      }
      features->push_back(value);
    }
  }

  // Time-correlation features Cor_{e,i,x}, i = 1..k (k = 4): how the time
  // elapsed at sub-markers i*x/k relates to the estimator's value at t{x}.
  // Reaching t{x} implies reaching every sub-marker below it.
  const double start = view.pipeline->start_time;
  for (size_t e = 0; e < kNumCorEstimators; ++e) {
    for (size_t i = 1; i <= kCorSteps; ++i) {
      for (size_t m = 0; m < kNumMarkers; ++m) {
        double value = 0.0;
        if (markers.marker(m) >= 0) {
          const double denom_time =
              view.obs(static_cast<size_t>(markers.at[m][0])).vtime - start;
          const double est_at_x = est_at[e][m];
          if (denom_time > 0.0 && est_at_x > 1e-6) {
            const double num_time =
                view.obs(static_cast<size_t>(markers.at[m][i - 1])).vtime -
                start;
            value = (num_time / denom_time) * (1.0 / est_at_x);
            value = std::min(value, 1e4);  // keep outliers bounded
          }
        }
        features->push_back(value);
      }
    }
  }
  RPE_CHECK_EQ(features->size(), schema.num_features());
}

}  // namespace rpe
