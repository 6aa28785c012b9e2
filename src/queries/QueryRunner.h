//===- queries/QueryRunner.h - Table 2 vulnerability queries -----*- C++ -*-==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Table 2 vulnerability detectors, in both of the paper's flavors:
///
///  - **GraphDBRunner** — the Graph.js architecture: the MDG is opened in
///    place as a graph-database store (the paper imports it into Neo4j;
///    ours reads the MDG itself, with no copy) and interrogated with the
///    Cypher-like query language (two query families: taint-style and
///    prototype pollution),
///    plus a thin host-side layer for argument-index filtering and report
///    deduplication (the paper's "500 lines of Python").
///
///  - **detectNative** — the same detectors implemented directly with the
///    Table 1 traversals. The scanner queries only through the graph DB;
///    detectNative is the oracle the backend-agreement tests compare it
///    against and the scanner's partial-results fallback when a deadline
///    kills the graph-DB phases. Its relative speed vs. the query engine
///    is the Table 6 phenomenon ("ODGen's queries [are] natively
///    implemented ... whereas Graph.js relies on Neo4j's query engine,
///    which is slower").
///
//===----------------------------------------------------------------------===//

#ifndef GJS_QUERIES_QUERYRUNNER_H
#define GJS_QUERIES_QUERYRUNNER_H

#include "analysis/MDGBuilder.h"
#include "graphdb/PropertyGraph.h"
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

struct BuiltinQuerySet;

/// Runs Table 2 through the graph database (the paper's default pipeline).
class GraphDBRunner {
public:
  /// Opens \p Build's MDG as the store (constant time: nothing is copied).
  /// \p Build must outlive the runner.
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

  /// Runs arbitrary query text against the opened MDG with the built-in
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

  /// Access to the opened database (examples / custom queries).
  const graphdb::PropertyGraph &database() const { return DB; }

  /// Registers the built-in path predicate `untainted` and the pruning
  /// fold over \p DB on \p E (what every query of a runner gets). With
  /// \p UntaintedExclusion false, `untainted` is constant-false.
  static void registerPredicates(graphdb::QueryEngine &E,
                                 const graphdb::PropertyGraph &DB,
                                 bool UntaintedExclusion = true);

  /// The built-in Table 2 query texts as instantiated for \p Config, as
  /// (display name, query text) pairs — what the schema linter validates.
  static std::vector<std::pair<std::string, std::string>>
  builtinQueries(const SinkConfig &Config);

  /// Schema-lints every built-in query against the MDG store schema
  /// (graphdb::mdgSchema). Returns false and sets \p Error on the first
  /// error-severity issue — a typo'd edge label or property key in a
  /// built-in query must fail fast instead of silently matching nothing.
  /// A configuration's query set (texts, parses, lint verdict) is built
  /// once per process and keyed by the sinks' content, so this is a lookup
  /// after the first call; the detectors run the same parsed queries.
  static bool validateBuiltinQueries(const SinkConfig &Config,
                                     std::string *Error);

private:
  const analysis::BuildResult &Build;
  graphdb::PropertyGraph DB;
  graphdb::EngineOptions EngineOpts;
  /// When false, TaintPath degrades to BasicPath (ablation of the
  /// UntaintedPath exclusion — Table 1's key precision mechanism).
  bool UntaintedExclusion;

  /// The memoized query set of \p Config.
  static const BuiltinQuerySet &querySet(const SinkConfig &Config);
  /// A taint-style class over a looked-up set. A sink whose name/path the
  /// store lacks is an empty plan without being compiled.
  std::vector<VulnReport> detectTaintStyle(VulnType T,
                                           const BuiltinQuerySet &Set,
                                           DetectStats *Stats);
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
