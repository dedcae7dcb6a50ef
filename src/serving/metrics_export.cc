#include "serving/metrics_export.h"

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/simd.h"
#include "obs/trace.h"

namespace rpe {
namespace {

using obs::Sample;

/// The value of a "Key:   123 kB" line of /proc/self/status, in bytes.
bool ParseStatusKb(const std::string& line, const std::string& key,
                   double* bytes) {
  if (line.compare(0, key.size(), key) != 0) return false;
  *bytes = std::strtod(line.c_str() + key.size(), nullptr) * 1024.0;
  return true;
}

}  // namespace

std::optional<ProcessMemory> ReadProcessMemory() {
  std::ifstream status("/proc/self/status");
  std::string line;
  ProcessMemory memory;
  bool rss = false;
  bool hwm = false;
  while (std::getline(status, line)) {
    rss = rss || ParseStatusKb(line, "VmRSS:", &memory.resident_bytes);
    hwm = hwm || ParseStatusKb(line, "VmHWM:", &memory.peak_bytes);
  }
  if (!rss || !hwm) return std::nullopt;
  return memory;
}

int RegisterFailPointCollector(obs::MetricsRegistry* registry) {
  return registry->AddCollector([](std::vector<Sample>* out) {
    for (const FailPointSnapshot& fp : FailPoints::Snapshot()) {
      const std::string label = "name=\"" + fp.name + "\"";
      out->push_back(Sample::CounterSample("rpe_failpoint_hits_total",
                                           static_cast<double>(fp.hits), "",
                                           label));
      out->push_back(Sample::CounterSample("rpe_failpoint_trips_total",
                                           static_cast<double>(fp.trips),
                                           "", label));
    }
  });
}

int RegisterSimdCollector(obs::MetricsRegistry* registry) {
  return registry->AddCollector([](std::vector<Sample>* out) {
    out->push_back(Sample::GaugeSample(
        "rpe_simd_tier_info", 1.0, "",
        "tier=\"" + std::string(simd::TierName(simd::ActiveTier())) +
            "\""));
  });
}

int RegisterTracerCollector(obs::MetricsRegistry* registry) {
  return registry->AddCollector([](std::vector<Sample>* out) {
    const obs::Tracer& tracer = obs::Tracer::Global();
    out->push_back(Sample::CounterSample(
        "rpe_trace_spans_total",
        static_cast<double>(tracer.events_recorded())));
    out->push_back(Sample::CounterSample(
        "rpe_slow_requests_total",
        static_cast<double>(tracer.slow_requests())));
  });
}

int RegisterProcessMemoryCollector(obs::MetricsRegistry* registry) {
  return registry->AddCollector([](std::vector<Sample>* out) {
    const std::optional<ProcessMemory> memory = ReadProcessMemory();
    if (!memory) return;
    out->push_back(Sample::GaugeSample("rpe_process_resident_bytes",
                                       memory->resident_bytes));
    out->push_back(Sample::GaugeSample("rpe_process_peak_resident_bytes",
                                       memory->peak_bytes));
  });
}

}  // namespace rpe
