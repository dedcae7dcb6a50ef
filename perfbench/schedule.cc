#include "schedule.h"

#include <cmath>
#include <numeric>

namespace perfbench {

std::vector<uint32_t> Permutation(uint32_t n, SplitMix* rng) {
  std::vector<uint32_t> out(n);
  std::iota(out.begin(), out.end(), 0u);
  for (uint32_t i = n; i > 1; --i) {
    const uint32_t j = static_cast<uint32_t>(rng->Next() % i);
    std::swap(out[i - 1], out[j]);
  }
  return out;
}

uint32_t Cycle::Next() {
  if (pos_ == pass_.size()) {
    pass_ = Permutation(n_, &rng_);
    pos_ = 0;
  }
  return pass_[pos_++];
}

std::vector<Arrival> PoissonSchedule(double rate, double duration_s,
                                     uint32_t num_runs, uint64_t seed) {
  std::vector<Arrival> out;
  SplitMix gaps(seed ^ 0x5eedf00dULL);
  Cycle runs(num_runs, seed);
  double t = 0.0;
  while (true) {
    // Inverse-CDF exponential gap; 1 - Unit() is in (0, 1], so log is
    // finite.
    t += -std::log(1.0 - gaps.Unit()) / rate;
    if (t >= duration_s) break;
    out.push_back(Arrival{t, runs.Next()});
  }
  return out;
}

}  // namespace perfbench
