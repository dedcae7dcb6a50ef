// Feature extraction for estimator selection.
//
// Static features (paper §4.3), computed per pipeline before execution from
// the plan shape and optimizer estimates: per-operator-type Count_op and
// Card_op (the encoding of [11]) plus the relative-cardinality encodings
// SelAt_op / SelAbove_op / SelBelow_op and SelAtDN.
//
// Dynamic features (paper §4.4), computed from the observation stream once
// x% of the driver-node input has been consumed (x in {1,2,5,10,20}):
// pairwise estimator divergences (DNEvsTGN_x, ...) and estimator-vs-time
// correlation features Cor_{e,i,x} for i = 1..4.
#pragma once

#include <string>
#include <vector>

#include "progress/estimator.h"

namespace rpe {

/// Driver-consumption marker percentages (paper: {1, 2, 5, 10, 20}).
inline constexpr int kMarkerPercents[] = {1, 2, 5, 10, 20};
inline constexpr size_t kNumMarkers = 5;
/// Number of sub-markers per correlation feature (paper: k = 4).
inline constexpr size_t kCorSteps = 4;

/// \brief Names + layout of the full feature vector.
class FeatureSchema {
 public:
  static const FeatureSchema& Get();

  size_t num_features() const { return names_.size(); }
  size_t num_static_features() const { return num_static_; }
  const std::string& name(size_t i) const { return names_[i]; }
  const std::vector<std::string>& names() const { return names_; }

 private:
  FeatureSchema();
  std::vector<std::string> names_;
  size_t num_static_ = 0;
};

/// Static features of a pipeline (uses initial estimates E0 from the plan).
std::vector<double> ExtractStaticFeatures(const PipelineView& view);

/// Full feature vector: static prefix followed by dynamic features computed
/// from observations up to the 20% driver marker. Missing markers yield 0.
/// Equal to ExtractStaticFeatures + AppendDynamicFeatures(ResolveMarkers).
std::vector<double> ExtractAllFeatures(const PipelineView& view);

/// Observation index of the first observation where the consumed driver
/// fraction reaches pct/100 (t{x} of §4.4.2), or -1 if never reached.
int MarkerObservation(const PipelineView& view, double pct);

/// \brief Every observation the dynamic features read: at[m][i - 1] is
/// MarkerObservation(view, x * i / kCorSteps) for x = kMarkerPercents[m]
/// and i = 1..kCorSteps, or -1 where the fraction is never reached.
struct MarkerTable {
  int at[kNumMarkers][kCorSteps];

  /// t{x} of marker m (i = kCorSteps).
  int marker(size_t m) const { return at[m][kCorSteps - 1]; }
  /// t{20}, the last marker: where the monitor revises its static choice
  /// (§4.4), since the dynamic features are complete only there.
  int revision() const { return marker(kNumMarkers - 1); }
};

/// Resolves the whole table in one forward pass over the pipeline's
/// observations, stopping once the last threshold is reached.
MarkerTable ResolveMarkers(const PipelineView& view);

/// Appends the dynamic block (§4.4) to `features`, which must hold exactly
/// the static prefix; `markers` must be ResolveMarkers(view).
void AppendDynamicFeatures(const PipelineView& view, const MarkerTable& markers,
                           std::vector<double>* features);

}  // namespace rpe
