//===- perfbench/src/Bench.h - Shared repository-benchmark plumbing -*- C++ -*-//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types shared by the repository benchmark (perfbench): the generated
/// package with its gate shape, the metric sink every workload writes into,
/// sample statistics, and process resource accounting.
///
//===----------------------------------------------------------------------===//

#ifndef GJS_PERFBENCH_BENCH_H
#define GJS_PERFBENCH_BENCH_H

#include "queries/VulnTypes.h"
#include "support/JSON.h"
#include "workload/Packages.h"

#include <cstdint>
#include <string>
#include <vector>

namespace gjs {
namespace perfbench {

/// One generated input package. Shape names the generator call that made
/// it ("CWE-78/Wrapped/Plain", "benign", "async/await/vuln"); the
/// correctness gate keys its per-package expectations on it, so the gate
/// holds for any seed, not only the recorded ones.
struct BenchPackage {
  workload::Package Pkg;
  std::string Shape;
};

/// Workload sizes. Full sizes are what the benchmark measures; smoke sizes
/// exercise every code path in a few seconds.
struct Sizes {
  // corpus
  size_t CorpusPackages = 150;
  size_t CorpusMaxLoC = 400;
  // small_batch
  size_t BatchPackages = 4000;
  // serve_open
  size_t ServePool = 200;
  double RateLow = 150, RateMid = 400, RateHigh = 500;
  double LatencyLimitMs = 250;

  static Sizes full();
  static Sizes smoke();
};

/// Everything one run reports: metrics by name with their unit, the
/// attempted/failed tally, and the gate's mismatch log.
struct RunReport {
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Metric> Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Mismatches;
  json::Object Provenance;

  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
  void mismatch(std::string What) { Mismatches.push_back(std::move(What)); }
  bool correct() const { return Mismatches.empty(); }
};

/// Nearest-rank percentile (Q in [0,1]) of \p V; 0 for an empty series.
double percentile(std::vector<double> V, double Q);
double median(std::vector<double> V);

/// CPU seconds (user + system) of this process plus every waited-for
/// descendant.
double cpuSecondsSelfAndChildren();

/// CPU seconds (user + system) of process \p Pid and all its live
/// descendants, from /proc (0 where /proc is unavailable).
double processTreeCpuSeconds(int Pid);

/// Peak resident set in MiB over this process and its waited-for
/// descendants (the largest single process).
double peakRssMB();

/// Host cores (what `nproc` prints).
unsigned hostCores();

/// "CWE-78" and friends, as metric suffixes ("cwe78").
std::string cweKey(queries::VulnType T);

/// The four classes in VulnType order.
const std::vector<queries::VulnType> &allClasses();

} // namespace perfbench
} // namespace gjs

#endif // GJS_PERFBENCH_BENCH_H
