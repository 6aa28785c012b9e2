//===- queries/QueryRunner.h - Table 2 vulnerability queries -----*- C++ -*-==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Table 2 vulnerability detectors, in both of the paper's flavors:
///
///  - **GraphDBRunner** — the Graph.js architecture: the MDG is imported
///    into the graph database and interrogated with the Cypher-like query
///    language (two query families: taint-style and prototype pollution),
///    plus a thin host-side layer for argument-index filtering and report
///    deduplication (the paper's "500 lines of Python").
///
///  - **detectNative** — the same detectors implemented directly with the
///    Table 1 traversals. Used as a cross-validation oracle in tests and
///    as a fast backend; its relative speed vs. the query engine is the
///    Table 6 phenomenon ("ODGen's queries [are] natively implemented ...
///    whereas Graph.js relies on Neo4j's query engine, which is slower").
///
//===----------------------------------------------------------------------===//

#ifndef GJS_QUERIES_QUERYRUNNER_H
#define GJS_QUERIES_QUERYRUNNER_H

#include "analysis/MDGBuilder.h"
#include "graphdb/MDGImport.h"
#include "graphdb/QueryEngine.h"
#include "queries/SinkConfig.h"
#include "queries/Traversals.h"
#include "queries/VulnTypes.h"

#include <array>
#include <vector>

namespace gjs {
namespace queries {

/// Detector statistics (for the Table 6 phase breakdown).
struct DetectStats {
  uint64_t QueryWork = 0; ///< Query-engine matcher steps.
  bool TimedOut = false;
};

/// Runs Table 2 through the graph database (the paper's default pipeline).
class GraphDBRunner {
public:
  GraphDBRunner(const analysis::BuildResult &Build,
                graphdb::EngineOptions Engine = {},
                bool UntaintedExclusion = true);

  /// Detects all four vulnerability classes.
  std::vector<VulnReport> detect(const SinkConfig &Config,
                                 DetectStats *Stats = nullptr);

  /// Runs one taint-style class only.
  std::vector<VulnReport> detectTaintStyle(VulnType T,
                                           const SinkConfig &Config,
                                           DetectStats *Stats = nullptr);
  /// Runs the prototype pollution query only.
  std::vector<VulnReport> detectPrototypePollution(DetectStats *Stats =
                                                       nullptr);

  /// Runs arbitrary query text against the imported MDG with the built-in
  /// path predicates registered (what `graphjs query` executes). With
  /// \p Profile, per-step PROFILE metrics are collected.
  graphdb::ResultSet runQuery(const std::string &Text,
                              std::string *Error = nullptr,
                              graphdb::QueryProfile *Profile = nullptr);

  /// Profiles every built-in Table 2 query (`graphjs query --profile`
  /// without an explicit query): (display name, profile) in the
  /// builtinQueries order.
  std::vector<std::pair<std::string, graphdb::QueryProfile>>
  profileBuiltins(const SinkConfig &Config);

  /// Access to the imported database (examples / custom queries).
  const graphdb::PropertyGraph &database() const { return Imported.Graph; }

  /// True when the scan deadline expired mid-import (partial database).
  bool importTruncated() const { return Imported.Truncated; }

  /// The built-in Table 2 query texts as instantiated for \p Config, as
  /// (display name, query text) pairs — what the schema linter validates.
  static std::vector<std::pair<std::string, std::string>>
  builtinQueries(const SinkConfig &Config);

  /// Parses and schema-lints every built-in query against the MDG import
  /// schema (graphdb::mdgSchema). Returns false and sets \p Error on the
  /// first error-severity issue — a typo'd edge label or property key in a
  /// built-in query must fail fast instead of silently matching nothing.
  /// Each distinct query text is parsed and linted once per process; the
  /// detectors run the same memoized parse.
  static bool validateBuiltinQueries(const SinkConfig &Config,
                                     std::string *Error);

private:
  const analysis::BuildResult &Build;
  graphdb::ImportedMDG Imported;
  graphdb::EngineOptions EngineOpts;
  /// When false, TaintPath degrades to BasicPath (ablation of the
  /// UntaintedPath exclusion — Table 1's key precision mechanism).
  bool UntaintedExclusion;

  void registerPredicates(graphdb::QueryEngine &E) const;
};

/// The same Table 2 detectors via native Table 1 traversals.
std::vector<VulnReport> detectNative(const analysis::BuildResult &Build,
                                     const SinkConfig &Config);

/// Native detection of only the classes whose Enabled[int(VulnType)] flag
/// is true (the benchmark replica's class mask).
std::vector<VulnReport>
detectNative(const analysis::BuildResult &Build, const SinkConfig &Config,
             const std::array<bool, NumVulnTypes> &Enabled);

} // namespace queries
} // namespace gjs

#endif // GJS_QUERIES_QUERYRUNNER_H
