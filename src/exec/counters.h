// The per-node execution counters of paper §3.1 and the observation
// snapshots that progress estimators consume.
//
//   K_i  — GetNext calls issued at node i so far (spills count as extra calls)
//   N_i  — true total GetNext calls (known only after the query finishes)
//   E_i  — current estimate of N_i (optimizer estimate, refined online)
//   LB_i/UB_i — absolute bounds on N_i, refined as the query executes
//   R_i / W_i — bytes logically read / written at node i
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace rpe {

inline constexpr double kCardinalityInf = 1e15;

/// \brief Live counters of one plan node.
struct NodeCounters {
  double k = 0.0;            ///< GetNext calls so far
  double e0 = 0.0;           ///< initial optimizer estimate of N
  double e = 0.0;            ///< current (refined) estimate of N
  double lb = 0.0;           ///< lower bound on N
  double ub = kCardinalityInf;  ///< upper bound on N
  double bytes_read = 0.0;   ///< R_i
  double bytes_written = 0.0;  ///< W_i
  double est_bytes = 0.0;    ///< estimated total bytes processed at node

  // Auxiliary operator-published facts used for bound refinement.
  bool input_done = false;   ///< blocking input fully consumed (sort/hash)
  double max_join_group = 0.0;  ///< hash join: largest build-side key group
  double row_width = 8.0;    ///< bytes per output row
};

/// \brief Snapshot of all node counters at one observation point t: the
/// virtual clock plus six per-node arrays indexed by node id. A view into
/// the run's ObservationStore, valid while the store is alive and unchanged.
struct Observation {
  double vtime = 0.0;        ///< virtual clock at the observation
  std::span<const double> k;
  std::span<const double> e;  ///< refined estimates at time t
  std::span<const double> lb;
  std::span<const double> ub;
  std::span<const double> bytes_read;
  std::span<const double> bytes_written;
};

/// \brief Every observation of one run, contiguous: a vtime column plus one
/// slab that holds each observation's six per-node arrays back to back, in
/// the field order of Observation (k, e, lb, ub, bytes_read, bytes_written).
/// A finished run's store is trimmed to exact size (ShrinkToFit).
class ObservationStore {
 public:
  static constexpr size_t kFields = 6;

  ObservationStore() = default;
  explicit ObservationStore(size_t num_nodes) : num_nodes_(num_nodes) {}

  size_t size() const { return vtime_.size(); }
  bool empty() const { return vtime_.empty(); }
  size_t num_nodes() const { return num_nodes_; }

  Observation operator[](size_t oi) const {
    const size_t n = num_nodes_;
    const double* row = slab_.data() + oi * kFields * n;
    Observation obs;
    obs.vtime = vtime_[oi];
    obs.k = {row, n};
    obs.e = {row + n, n};
    obs.lb = {row + 2 * n, n};
    obs.ub = {row + 3 * n, n};
    obs.bytes_read = {row + 4 * n, n};
    obs.bytes_written = {row + 5 * n, n};
    return obs;
  }
  Observation back() const { return (*this)[size() - 1]; }

  /// The vtime column; it never decreases within a run.
  std::span<const double> vtimes() const { return vtime_; }

  /// Append one observation taken at `vtime` and return its slab row
  /// (kFields arrays of num_nodes values, in field order) for the caller
  /// to fill.
  std::span<double> Append(double vtime) {
    vtime_.push_back(vtime);
    const size_t width = kFields * num_nodes_;
    slab_.resize(slab_.size() + width);
    return {slab_.data() + slab_.size() - width, width};
  }

  /// Keep observations 0, 2, 4, ... in place and drop the rest.
  void KeepEveryOther() {
    const size_t width = kFields * num_nodes_;
    const size_t kept = (size() + 1) / 2;
    for (size_t i = 1; i < kept; ++i) {
      vtime_[i] = vtime_[2 * i];
      std::copy_n(slab_.begin() + static_cast<std::ptrdiff_t>(2 * i * width),
                  width,
                  slab_.begin() + static_cast<std::ptrdiff_t>(i * width));
    }
    vtime_.resize(kept);
    slab_.resize(kept * width);
  }

  /// Release spare capacity, so the store holds exactly its observations.
  void ShrinkToFit() {
    vtime_.shrink_to_fit();
    slab_.shrink_to_fit();
  }

 private:
  size_t num_nodes_ = 0;
  std::vector<double> vtime_;
  std::vector<double> slab_;
};

}  // namespace rpe
