// bench_selftest: checks of the benchmark's seeded inputs and of the
// open-loop due-time bookkeeping, driven by a fake clock. Exits non-zero
// on the first failed check. Run: .bench_build/bench_selftest
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <vector>

#include "schedule.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void SeededInputsRepeat() {
  const auto a = perfbench::PoissonSchedule(1000.0, 2.0, 200, 7);
  const auto b = perfbench::PoissonSchedule(1000.0, 2.0, 200, 7);
  const auto c = perfbench::PoissonSchedule(1000.0, 2.0, 200, 8);
  bool same = a.size() == b.size();
  for (size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].due_s == b[i].due_s && a[i].run == b[i].run;
  }
  Check(same, "the same seed gives the same schedule");
  Check(a.size() != c.size() || a[0].due_s != c[0].due_s,
        "another seed gives another schedule");
  // ~2000 arrivals expected; Poisson spread is ~45.
  Check(a.size() > 1800 && a.size() < 2200, "arrival count matches the rate");
  bool ordered = true;
  for (size_t i = 1; i < a.size(); ++i) ordered &= a[i].due_s > a[i - 1].due_s;
  Check(ordered, "due times increase");
}

void CycleVisitsEveryRunOncePerPass() {
  perfbench::Cycle cycle(50, 3);
  for (int pass = 0; pass < 3; ++pass) {
    std::set<uint32_t> seen;
    for (int i = 0; i < 50; ++i) seen.insert(cycle.Next());
    Check(seen.size() == 50, "each pass of a Cycle is a permutation");
  }
}

void LatenessIsMeasuredFromTheDueTime() {
  // Arrivals due at 0.0, 0.1, ... 0.9 s; the connection owns every other
  // one (first = 1, stride = 2): 0.1, 0.3, 0.5, 0.7, 0.9.
  std::vector<perfbench::Arrival> schedule;
  for (int i = 0; i < 10; ++i) {
    schedule.push_back({0.1 * i, static_cast<uint32_t>(i)});
  }
  perfbench::DueQueue due(&schedule, 1, 2);
  std::vector<double> lateness;
  std::vector<uint32_t> runs;
  auto collect = [&](const perfbench::Arrival& a, double late) {
    lateness.push_back(late);
    runs.push_back(a.run);
  };
  // Fake clock: the generator wakes at 0.05 (nothing due), then stalls
  // until 0.62, then wakes just after each of the last two due times.
  Check(due.PopDue(0.05, collect) == 0, "nothing is released early");
  Check(std::abs(due.next_due() - 0.1) < 1e-12, "next due is the first owned");
  Check(due.PopDue(0.62, collect) == 3, "a stall releases the backlog at once");
  Check(due.PopDue(0.71, collect) == 1, "an on-time wake releases one");
  Check(due.PopDue(0.95, collect) == 1, "the last arrival is released");
  Check(due.exhausted(), "the slice is exhausted");
  const double expect[] = {0.52, 0.32, 0.12, 0.01, 0.05};
  bool close = lateness.size() == 5;
  for (size_t i = 0; close && i < 5; ++i) {
    close = std::abs(lateness[i] - expect[i]) < 1e-9;
  }
  Check(close, "lateness is wake time minus due time");
  Check(runs == std::vector<uint32_t>({1, 3, 5, 7, 9}),
        "arrivals keep their runs and order");
}

}  // namespace

int main() {
  SeededInputsRepeat();
  CycleVisitsEveryRunOncePerPass();
  LatenessIsMeasuredFromTheDueTime();
  if (failures == 0) std::printf("bench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
