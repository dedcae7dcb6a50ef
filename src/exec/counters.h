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
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/logging.h"

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

/// \brief Every observation of one run: a vtime column and one pool of
/// num_nodes-wide arrays, six per observation in the field order of
/// Observation (k, e, lb, ub, bytes_read, bytes_written).
///
/// While a query runs, Append gives each observation six arrays of its own,
/// back to back, so sampling fills one slab row. A run that is kept then
/// calls ShareArrays, which stores each array once and names every
/// observation's six arrays by id: a field keeps its own array only when it
/// differs bitwise from the same field of the previous observation and
/// from every earlier field of the same observation, and otherwise reuses
/// that array. Views then alias shared arrays (an unchanged `e` is the
/// previous observation's `e`, and `lb` is usually `k`). A finished run's
/// store is trimmed to exact size (ShrinkToFit).
class ObservationStore {
 public:
  static constexpr size_t kFields = 6;

  ObservationStore() = default;
  explicit ObservationStore(size_t num_nodes) : num_nodes_(num_nodes) {}

  size_t size() const { return vtime_.size(); }
  bool empty() const { return vtime_.empty(); }
  size_t num_nodes() const { return num_nodes_; }

  Observation operator[](size_t oi) const {
    // Before sharing, observation oi's arrays are the row at oi; after,
    // its ids name them in the pool. One path for both keeps the read
    // branch-free.
    static constexpr uint32_t kOwnRow[kFields] = {0, 1, 2, 3, 4, 5};
    const uint32_t* ids = shared_ ? ids_.data() + oi * kFields : kOwnRow;
    const double* base =
        pool_.data() + (shared_ ? 0 : oi * kFields * num_nodes_);
    const size_t n = num_nodes_;
    Observation obs;
    obs.vtime = vtime_[oi];
    obs.k = {base + ids[0] * n, n};
    obs.e = {base + ids[1] * n, n};
    obs.lb = {base + ids[2] * n, n};
    obs.ub = {base + ids[3] * n, n};
    obs.bytes_read = {base + ids[4] * n, n};
    obs.bytes_written = {base + ids[5] * n, n};
    return obs;
  }
  Observation back() const { return (*this)[size() - 1]; }

  /// The vtime column; it never decreases within a run.
  std::span<const double> vtimes() const { return vtime_; }

  /// Distinct arrays in the pool, and the bytes of the vtime column, the
  /// ids and the pool together (excluding spare capacity).
  size_t stored_arrays() const { return num_arrays_; }
  size_t stored_bytes() const {
    return vtime_.size() * sizeof(double) + ids_.size() * sizeof(uint32_t) +
           pool_.size() * sizeof(double);
  }

  /// Append one observation taken at `vtime` and return its row (kFields
  /// arrays of num_nodes values, in field order) for the caller to fill.
  /// The store must not have shared its arrays yet.
  std::span<double> Append(double vtime) {
    RPE_DCHECK(!shared_);
    vtime_.push_back(vtime);
    num_arrays_ += kFields;
    const size_t width = kFields * num_nodes_;
    pool_.resize(pool_.size() + width);
    return {pool_.data() + pool_.size() - width, width};
  }

  /// Keep observations 0, 2, 4, ... in place and drop the rest. The store
  /// must not have shared its arrays yet.
  void KeepEveryOther() {
    RPE_DCHECK(!shared_);
    const size_t width = kFields * num_nodes_;
    const size_t kept = (size() + 1) / 2;
    for (size_t i = 1; i < kept; ++i) {
      vtime_[i] = vtime_[2 * i];
      std::copy_n(pool_.begin() + static_cast<std::ptrdiff_t>(2 * i * width),
                  width,
                  pool_.begin() + static_cast<std::ptrdiff_t>(i * width));
    }
    vtime_.resize(kept);
    pool_.resize(kept * width);
    num_arrays_ = kept * kFields;
  }

  /// Store each array once, by the rule in the class comment, and trim the
  /// store. Arrays are compared bit for bit: 0.0 and -0.0 differ, and NaNs
  /// compare by payload. Kept arrays move to the front of the pool in
  /// order, so the pass needs no second buffer. Runs once per store.
  void ShareArrays() {
    RPE_DCHECK(!shared_);
    RPE_DCHECK(num_arrays_ <= std::numeric_limits<uint32_t>::max());
    const size_t n = num_nodes_;
    ids_.resize(size() * kFields);
    size_t kept = 0;
    for (size_t oi = 0; oi < size(); ++oi) {
      uint32_t* ids = ids_.data() + oi * kFields;
      for (size_t f = 0; f < kFields; ++f) {
        // Still in its own slot: every array kept so far moved to a slot
        // before this one.
        const double* values = pool_.data() + (oi * kFields + f) * n;
        if (oi > 0 && Same(ids[f - kFields], values)) {
          ids[f] = ids[f - kFields];
          continue;
        }
        size_t g = 0;
        while (g < f && !Same(ids[g], values)) ++g;
        if (g < f) {
          ids[f] = ids[g];
          continue;
        }
        std::copy_n(values, n, pool_.data() + kept * n);
        ids[f] = static_cast<uint32_t>(kept++);
      }
    }
    shared_ = true;
    num_arrays_ = kept;
    pool_.resize(kept * n);
    ShrinkToFit();
  }

  /// Release spare capacity, so the store holds exactly its observations.
  void ShrinkToFit() {
    vtime_.shrink_to_fit();
    ids_.shrink_to_fit();
    pool_.shrink_to_fit();
  }

 private:
  std::span<const double> array(size_t id) const {
    return {pool_.data() + id * num_nodes_, num_nodes_};
  }

  /// Bitwise equality of the pool array `id` and `values`. An inline loop
  /// over the bit patterns, because arrays are short: on a small plan's
  /// observations, a memcmp call per comparison was 1.4-1.6x as slow.
  bool Same(uint32_t id, const double* values) const {
    const double* stored = array(id).data();
    for (size_t i = 0; i < num_nodes_; ++i) {
      if (std::bit_cast<uint64_t>(stored[i]) !=
          std::bit_cast<uint64_t>(values[i])) {
        return false;
      }
    }
    return true;
  }

  size_t num_nodes_ = 0;
  size_t num_arrays_ = 0;
  /// Whether ShareArrays has run. Before it, observation oi owns arrays
  /// kFields * oi to kFields * oi + kFields - 1, and ids_ is empty.
  bool shared_ = false;
  std::vector<double> vtime_;
  std::vector<uint32_t> ids_;  ///< kFields per observation once shared
  std::vector<double> pool_;   ///< num_arrays_ arrays of num_nodes_ values
};

}  // namespace rpe
