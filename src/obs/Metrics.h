//===- obs/Metrics.h - Prometheus-text metric snapshots ----------*- C++ -*-==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Prometheus text-exposition rendering of the obs registries: every
/// counter becomes a `counter` sample, every non-empty histogram a
/// `summary` (quantile series + _sum + _count), plus caller-supplied
/// gauges (uptime, queue depth). Names are mangled `scan.latency_us` ->
/// `graphjs_scan_latency_us`. This backs `graphjs serve --metrics-out`,
/// `graphjs batch --metrics-out`, and the metrics_smoke CTest.
///
//===----------------------------------------------------------------------===//

#ifndef GJS_OBS_METRICS_H
#define GJS_OBS_METRICS_H

#include "obs/Counters.h"
#include "obs/Histogram.h"

#include <string>
#include <utility>
#include <vector>

namespace gjs {
namespace obs {

/// Gauge samples rendered alongside the registry snapshots.
using GaugeList = std::vector<std::pair<std::string, double>>;

/// Renders one Prometheus text-format snapshot. Zero-valued counters and
/// empty histograms are dropped (a fresh daemon exposes a small page, not
/// the whole catalog of zeros).
std::string renderPrometheus(const CounterSnapshot &Counters,
                             const HistogramSnapshotMap &Histograms,
                             const GaugeList &Gauges = {});

/// Writes one rendered page of the given snapshots to \p Path through
/// writeFileAtomic (obs/AtomicFile.h), so scrapers never observe a torn
/// snapshot and concurrent writers never share a temp file. Returns false,
/// leaving no temp file, when the file cannot be written. The batch run
/// and `graphjs serve` never reset their registries and render them live
/// through the overload below; this one renders snapshots the caller
/// holds.
bool writePrometheusFile(const std::string &Path,
                         const CounterSnapshot &Counters,
                         const HistogramSnapshotMap &Histograms,
                         const GaugeList &Gauges = {});

/// Snapshots the live registries and writes one rendered page to \p Path.
bool writePrometheusFile(const std::string &Path,
                         const GaugeList &Gauges = {});

} // namespace obs
} // namespace gjs

#endif // GJS_OBS_METRICS_H
