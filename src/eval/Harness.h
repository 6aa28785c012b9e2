//===- eval/Harness.h - Two-tool evaluation harness --------------*- C++ -*-==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs Graph.js and the ODGen baseline over a package list, collecting
/// per-package outcomes (reports, timings, graph sizes, timeouts). Every
/// Table 4/5/6/7 and Figure 6/7 bench builds on this harness.
///
/// Work budgets model the evaluation's 5-minute per-package timeout
/// deterministically (so benches are reproducible across machines).
///
//===----------------------------------------------------------------------===//

#ifndef GJS_EVAL_HARNESS_H
#define GJS_EVAL_HARNESS_H

#include "eval/Metrics.h"
#include "odgen/ODGenAnalyzer.h"
#include "scanner/Scanner.h"
#include "workload/Packages.h"

#include <vector>

namespace gjs {
namespace eval {

struct HarnessOptions {
  scanner::ScanOptions Scan;
  odgen::ODGenOptions ODGen;

  /// Defaults mirroring the evaluation setup: generous budgets for
  /// Graph.js (it rarely times out — 1.8% of packages) and the baseline's
  /// published behavior under state explosion.
  static HarnessOptions defaults();
};

/// Runs Graph.js on every package. With Jobs > 1 the scans go through the
/// supervised worker pool (driver::ProcessPool): Jobs resident worker
/// processes, OS-level crash containment, same outcome shape.
std::vector<PackageOutcome>
runGraphJS(const std::vector<workload::Package> &Packages,
           const scanner::ScanOptions &Options, unsigned Jobs = 1);

/// Runs the ODGen baseline on every package.
std::vector<PackageOutcome>
runODGen(const std::vector<workload::Package> &Packages,
         const odgen::ODGenOptions &Options);

} // namespace eval
} // namespace gjs

#endif // GJS_EVAL_HARNESS_H
