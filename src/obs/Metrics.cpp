//===- obs/Metrics.cpp - Prometheus-text metric snapshots ------------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include "obs/AtomicFile.h"

#include <cstdio>

using namespace gjs;
using namespace gjs::obs;

/// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. The catalog's
/// dot-separated names become underscore-separated under a graphjs_ prefix.
static std::string promName(const std::string &Name) {
  std::string Out = "graphjs_";
  for (char C : Name) {
    bool OK = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
              (C >= '0' && C <= '9') || C == '_';
    Out.push_back(OK ? C : '_');
  }
  return Out;
}

static std::string fmtValue(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  return Buf;
}

std::string obs::renderPrometheus(const CounterSnapshot &Counters,
                                  const HistogramSnapshotMap &Histograms,
                                  const GaugeList &Gauges) {
  std::string Out;
  for (const auto &[Name, Value] : Counters) {
    if (!Value)
      continue;
    std::string P = promName(Name);
    Out += "# TYPE " + P + " counter\n";
    Out += P + " " + std::to_string(Value) + "\n";
  }
  for (const auto &[Name, Snap] : Histograms) {
    if (Snap.empty())
      continue;
    std::string P = promName(Name);
    Out += "# TYPE " + P + " summary\n";
    for (double Q : {0.5, 0.9, 0.95, 0.99})
      Out += P + "{quantile=\"" + fmtValue(Q) + "\"} " +
             fmtValue(Snap.percentile(Q)) + "\n";
    Out += P + "_sum " + std::to_string(Snap.Sum) + "\n";
    Out += P + "_count " + std::to_string(Snap.count()) + "\n";
  }
  for (const auto &[Name, Value] : Gauges) {
    std::string P = promName(Name);
    Out += "# TYPE " + P + " gauge\n";
    Out += P + " " + fmtValue(Value) + "\n";
  }
  return Out;
}

bool obs::writePrometheusFile(const std::string &Path,
                              const CounterSnapshot &Counters,
                              const HistogramSnapshotMap &Histograms,
                              const GaugeList &Gauges) {
  if (Path.empty())
    return false;
  return writeFileAtomic(Path,
                         renderPrometheus(Counters, Histograms, Gauges));
}

bool obs::writePrometheusFile(const std::string &Path,
                              const GaugeList &Gauges) {
  return writePrometheusFile(Path, snapshotCounters(), snapshotHistograms(),
                             Gauges);
}
