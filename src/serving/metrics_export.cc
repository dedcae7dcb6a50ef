#include "serving/metrics_export.h"

#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/simd.h"
#include "obs/trace.h"

namespace rpe {
namespace {

using obs::Sample;

}  // namespace

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

}  // namespace rpe
