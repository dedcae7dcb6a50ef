// Progress estimators (paper §3.4 and §5). Every estimator maps a pipeline
// plus an observation index to a progress fraction in [0, 1]; all of them
// consume only the §3.1 counters (K/E/LB/UB/R/W) captured in the
// observation stream.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "exec/pipeline.h"

namespace rpe {

/// \brief The candidate estimators plus the two idealized "oracle" models of
/// §6.7 (which use true cardinalities and are excluded from selection).
enum class EstimatorKind : int {
  kDne = 0,       ///< DriverNode estimator, Eq. 4 [6]
  kTgn,           ///< Total GetNext with optimizer estimates, Eq. 3 [6]
  kLuo,           ///< bytes-processed / speed model [13]
  kSafe,          ///< worst-case-optimal ratio-error estimator [5]
  kPmax,          ///< pessimistic bound-based estimator [5]
  kBatchDne,      ///< DNE + BatchSort nodes as drivers, Eq. 6 (§5.1)
  kDneSeek,       ///< DNE + IndexSeek nodes as drivers, Eq. 7 (§5.1.1)
  kTgnInt,        ///< TGN with interpolated cardinalities, Eq. 8 (§5.2)
  kOracleGetNext, ///< GetNext model with true N_i (§6.7)
  kOracleBytes,   ///< bytes-processed model with true totals (§6.7)
};

inline constexpr int kNumSelectableEstimators = 8;
inline constexpr int kNumEstimatorKinds = 10;

const char* EstimatorName(EstimatorKind kind);

/// \brief A pipeline of one finished run, as seen by estimators.
struct PipelineView {
  const QueryRunResult* run = nullptr;
  const Pipeline* pipeline = nullptr;

  const Observation& obs(size_t oi) const { return run->observations[oi]; }
  size_t num_obs() const { return run->observations.size(); }
  const PlanNode* node(int id) const { return run->plan->node(id); }

  /// Elapsed virtual time within the pipeline's activity window at obs oi.
  double Elapsed(size_t oi) const;
  /// Ground-truth progress at obs oi: elapsed / window length, in [0,1].
  double TrueProgress(size_t oi) const;
};

/// \brief Base interface.
class ProgressEstimator {
 public:
  virtual ~ProgressEstimator() = default;
  virtual EstimatorKind kind() const = 0;
  /// Progress of the pipeline at observation `oi`, clamped to [0, 1].
  virtual double Estimate(const PipelineView& view, size_t oi) const = 0;
  const char* name() const { return EstimatorName(kind()); }
};

/// Singleton estimator instance for a kind.
const ProgressEstimator& GetEstimator(EstimatorKind kind);

/// The eight selectable candidates, in EstimatorKind order.
const std::vector<const ProgressEstimator*>& SelectableEstimators();

// --- shared counter helpers ------------------------------------------------

/// Sum of K_i at observation `oi` over `nodes`.
double SumK(const Observation& obs, const std::vector<int>& nodes);
/// Sum of refined estimates E_i over `nodes`.
double SumE(const Observation& obs, const std::vector<int>& nodes);
double SumLb(const Observation& obs, const std::vector<int>& nodes);
double SumUb(const Observation& obs, const std::vector<int>& nodes);

}  // namespace rpe
