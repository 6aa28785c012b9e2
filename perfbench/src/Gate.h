//===- perfbench/src/Gate.h - The benchmark's correctness gate ---*- C++ -*-==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every run's correctness gate. Each package's reports are scored against
/// the generator's annotations (eval::scorePackage: TP/FP/FN per CWE) and
/// checked three ways:
///
///  - per package, against the outcomes recorded for its shape (the
///    generator call that made it) in perfbench/expected.json — this holds
///    for any seed;
///  - per run, the TP/FP/FN totals against the totals recorded for the
///    seed, when the seed is one of the shipped (recorded) seeds;
///  - per repeat: every later scan of a package (another pass, another
///    request, another driver) must return the same report set as the
///    first.
///
/// Any mismatch is logged in the RunReport, which fails the run.
///
//===----------------------------------------------------------------------===//

#ifndef GJS_PERFBENCH_GATE_H
#define GJS_PERFBENCH_GATE_H

#include "Bench.h"

#include <array>
#include <optional>
#include <tuple>

namespace gjs {
namespace perfbench {

/// A report set in comparable form: (type, sink line, sink name), sorted.
using ReportSet = std::vector<std::tuple<int, unsigned, std::string>>;
ReportSet reportSet(const std::vector<queries::VulnReport> &Reports);

/// TP/FP/FN for each class, in VulnType order.
using Score = std::array<std::array<size_t, 3>, queries::NumVulnTypes>;

/// "tp/fp/fn" for the four classes, in VulnType order, space-separated.
std::string scoreKey(const Score &S);

class Gate {
public:
  /// \p Expected is the parsed expected.json (null disables the recorded
  /// checks, as when recording); \p SizeKey is "full" or "smoke".
  Gate(const std::vector<BenchPackage> &Packages, const json::Value *Expected,
       std::string Workload, std::string SizeKey, uint64_t Seed,
       RunReport &Report);

  /// One scan result for package \p Index (from any pass or driver).
  void check(size_t Index, const std::vector<queries::VulnReport> &Reports,
             const std::string &Via);

  /// Compares the totals against the recorded ones (every package must
  /// have been scanned at least once). \p PerturbOne adds 1 to one
  /// recorded count first: the smoke test's proof that the gate trips.
  void finish(bool PerturbOne = false);

  /// Summed score of every package's first result.
  const Score &totals() const { return Totals; }
  /// Per-package outcome keys of the first results (recording mode).
  const std::vector<std::string> &outcomeKeys() const { return Keys; }

private:
  const std::vector<BenchPackage> &Packages;
  const json::Value *Expected;
  std::string Workload, SizeKey;
  uint64_t Seed;
  RunReport &Report;
  std::vector<std::optional<ReportSet>> First;
  std::vector<std::string> Keys;
  Score Totals{};

  const json::Value *lookup(std::initializer_list<std::string> Path) const;
};

} // namespace perfbench
} // namespace gjs

#endif // GJS_PERFBENCH_GATE_H
