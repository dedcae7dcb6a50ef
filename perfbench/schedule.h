// Seeded inputs of the end-to-end benchmark and the open-loop due-time
// bookkeeping, kept free of sockets and clocks so bench_selftest can drive
// them with a fake clock.
//
// Every input a run sends is derived from the --seed argument: the order
// in which run indices are opened, the open-loop arrival times, and the
// order in which ingest records are streamed. The server sees only the
// generated requests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// splitmix64: tiny, seedable, reproducible on every platform.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Seeded permutation of [0, n).
std::vector<uint32_t> Permutation(uint32_t n, SplitMix* rng);

/// \brief An endless seeded sequence over [0, n): each pass is a fresh
/// permutation, so every index recurs once per n draws.
class Cycle {
 public:
  Cycle(uint32_t n, uint64_t seed) : n_(n), rng_(seed) {}
  uint32_t Next();

 private:
  uint32_t n_;
  SplitMix rng_;
  std::vector<uint32_t> pass_;
  size_t pos_ = 0;
};

/// \brief One open-loop session arrival: when it is due (seconds after the
/// schedule's origin) and which run it opens.
struct Arrival {
  double due_s = 0.0;
  uint32_t run = 0;
};

/// Poisson arrivals at `rate` per second over [0, duration_s), runs drawn
/// from a seeded Cycle over [0, num_runs).
std::vector<Arrival> PoissonSchedule(double rate, double duration_s,
                                     uint32_t num_runs, uint64_t seed);

/// \brief The slice of a schedule one connection sends (arrivals first,
/// first + stride, ...), released as they fall due. Lateness and latency
/// are measured from the due time, never from when the generator got
/// around to sending: a stalled generator shows up as lateness and as
/// latency of the sessions it delayed.
class DueQueue {
 public:
  DueQueue(const std::vector<Arrival>* schedule, size_t first, size_t stride)
      : schedule_(schedule), next_(first), stride_(stride) {}

  bool exhausted() const { return next_ >= schedule_->size(); }
  /// Due time of the next unsent arrival (only when !exhausted()).
  double next_due() const { return (*schedule_)[next_].due_s; }

  /// Release every arrival due at or before `now_s`: fn(arrival,
  /// lateness_s) where lateness is now_s - due (>= 0).
  template <typename Fn>
  size_t PopDue(double now_s, Fn&& fn) {
    size_t n = 0;
    while (!exhausted() && next_due() <= now_s) {
      const Arrival& a = (*schedule_)[next_];
      fn(a, now_s - a.due_s);
      next_ += stride_;
      ++n;
    }
    return n;
  }

 private:
  const std::vector<Arrival>* schedule_;
  size_t next_;
  size_t stride_;
};

}  // namespace perfbench
