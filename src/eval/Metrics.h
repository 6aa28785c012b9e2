//===- eval/Metrics.h - Evaluation metrics -----------------------*- C++ -*-==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The evaluation's scoring machinery (§5.2):
///
///  - **TP**: a reported vulnerability whose type and sink line match a
///    dataset annotation. (ODGen gets the paper's leniency: a type-only
///    match also counts.)
///  - **FP**: a report with no matching annotation.
///  - **TFP** ("true false positive"): an FP that does not correspond to
///    any actually-exploitable sink (reports on unannotated-but-real
///    extra sinks are FPs but not TFPs — the datasets are incomplete).
///  - precision = TP/(TP+TFP), recall = TP/(TP+FN), F1 harmonic mean.
///
/// Plus the aggregation helpers behind Figure 7 (CDF of analysis time),
/// Figure 6 (Venn decomposition), and Table 7 (graph size per LoC bucket).
///
//===----------------------------------------------------------------------===//

#ifndef GJS_EVAL_METRICS_H
#define GJS_EVAL_METRICS_H

#include "obs/Counters.h"
#include "queries/VulnTypes.h"
#include "workload/Packages.h"

#include <string>
#include <vector>

namespace gjs {
namespace eval {

/// One degradation-ladder attempt's timing (Graph.js only).
struct AttemptTiming {
  unsigned Level = 0;      ///< Ladder level (0 = full pipeline).
  double GraphSeconds = 0; ///< Parse + normalize + build + import.
  double QuerySeconds = 0;
  bool TimedOut = false; ///< This attempt hit a deadline/budget.
};

/// One tool's outcome on one package.
struct PackageOutcome {
  std::vector<queries::VulnReport> Reports;
  bool TimedOut = false;
  /// Per-phase timeout attribution (Graph.js only): whether the timeout hit
  /// during graph construction (parse/normalize/build/import) vs. during
  /// querying (a query-engine step-budget exhaustion is a distinct failure
  /// from a graph that never finished building).
  bool BuildTimedOut = false;
  bool QueryTimedOut = false;
  /// Degradation-ladder level the final (reported) attempt ran at
  /// (Graph.js only; 0 = full pipeline).
  unsigned Degradation = 0;
  /// Ladder retries taken (Graph.js only).
  unsigned Retries = 0;
  /// All timings below sum over *every* ladder attempt — a level-0 attempt
  /// that burned its whole deadline still shows up in the package's cost
  /// (the final attempt alone would under-report retried packages).
  double Seconds = 0;       ///< Total analysis wall-clock time.
  double GraphSeconds = 0;  ///< Graph-construction phase.
  double QuerySeconds = 0;  ///< Traversal/query phase.
  /// Per-attempt breakdown, in ladder order (Graph.js only).
  std::vector<AttemptTiming> Attempts;
  /// obs counter deltas over the package (empty unless counters enabled).
  obs::CounterSnapshot Counters;
  size_t GraphNodes = 0;
  size_t GraphEdges = 0;
  bool GraphBuilt = true;   ///< False when construction timed out.
};

/// Sums each counter across packages (the harness-level aggregate that
/// sits next to the Table 6 wall-clock phases).
obs::CounterSnapshot
aggregateCounters(const std::vector<PackageOutcome> &Outcomes);

/// Confusion counts for one vulnerability class.
struct ClassStats {
  size_t Total = 0; ///< Annotated vulnerabilities.
  size_t TP = 0;
  size_t FP = 0;
  size_t TFP = 0;

  double recall() const { return Total ? double(TP) / double(Total) : 0; }
  double precision() const {
    return TP + TFP ? double(TP) / double(TP + TFP) : 0;
  }
  double f1() const {
    double P = precision(), R = recall();
    return P + R > 0 ? 2 * P * R / (P + R) : 0;
  }

  ClassStats &operator+=(const ClassStats &O) {
    Total += O.Total;
    TP += O.TP;
    FP += O.FP;
    TFP += O.TFP;
    return *this;
  }
};

/// Matching policy.
struct ScorePolicy {
  /// Accept a report whose type matches an unmatched annotation even when
  /// the line differs (the paper grants ODGen this leniency, §5.2).
  bool TypeOnlyMatch = false;
};

/// Scores one package: matches reports against annotations.
ClassStats scorePackage(const workload::Package &P,
                        const std::vector<queries::VulnReport> &Reports,
                        queries::VulnType Class, ScorePolicy Policy = {});

/// Scores a whole dataset for one class.
ClassStats scoreDataset(const std::vector<workload::Package> &Packages,
                        const std::vector<PackageOutcome> &Outcomes,
                        queries::VulnType Class, ScorePolicy Policy = {});

/// Which annotated vulnerabilities a tool found (for the Venn diagram):
/// one bool per (package, annotation) pair, flattened in dataset order.
std::vector<bool> detectedFlags(
    const std::vector<workload::Package> &Packages,
    const std::vector<PackageOutcome> &Outcomes, ScorePolicy Policy = {});

/// Venn decomposition of two tools' detections.
struct VennCounts {
  size_t Both = 0;
  size_t OnlyA = 0;
  size_t OnlyB = 0;
  size_t Neither = 0;
};
VennCounts venn(const std::vector<bool> &A, const std::vector<bool> &B);

/// Fraction of samples with value <= X, for each X in Marks.
std::vector<double> cdf(std::vector<double> Samples,
                        const std::vector<double> &Marks);

/// Renders an ASCII CDF plot (one row per series).
std::string renderCDF(const std::vector<std::string> &Names,
                      const std::vector<std::vector<double>> &SeriesTimes,
                      const std::vector<double> &Marks);

/// Table 7 LoC buckets.
struct LoCBucket {
  size_t MinLoC, MaxLoC; ///< Inclusive range; MaxLoC==0 means unbounded.
  const char *Label;
};
extern const LoCBucket Table7Buckets[4];
int bucketOf(size_t LoC);

} // namespace eval
} // namespace gjs

#endif // GJS_EVAL_METRICS_H
