// Scrape-time exporters for state that lives outside a MetricsRegistry
// (the failpoint registry, the SIMD dispatch facade, the tracer, the
// process's memory). Nothing here touches a hot path: each Register*
// call installs a collector that reads its subsystem only when someone
// scrapes (/metrics, kMetricsDump, or the exit-time CLI table). The
// serving tier's own counters are registry cells
// (serving/monitor_service.h, shard_router.h, ingest.h, trainer_loop.h,
// server.h); metric names are catalogued in docs/OBSERVABILITY.md.
#pragma once

#include "obs/metrics.h"

namespace rpe {

/// Collector exporting every armed failpoint's hit/trip counters as
/// rpe_failpoint_hits_total / rpe_failpoint_trips_total{name="..."}.
int RegisterFailPointCollector(obs::MetricsRegistry* registry);

/// Collector exporting the active SIMD tier as an info-style gauge
/// rpe_simd_tier_info{tier="..."} 1.
int RegisterSimdCollector(obs::MetricsRegistry* registry);

/// Collector exporting the tracer's own counters (spans recorded, slow
/// requests over the --slow-ms threshold).
int RegisterTracerCollector(obs::MetricsRegistry* registry);

/// Collector exporting the process's resident set and its peak (VmRSS and
/// VmHWM of /proc/self/status, in bytes) as rpe_process_resident_bytes and
/// rpe_process_peak_resident_bytes. Exports nothing where the file is
/// missing.
int RegisterProcessMemoryCollector(obs::MetricsRegistry* registry);

}  // namespace rpe
