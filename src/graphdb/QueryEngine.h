//===- graphdb/QueryEngine.h - Query evaluation ------------------*- C++ -*-==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Backtracking evaluator for the Cypher-like query language over a
/// PropertyGraph. This is the interpreted engine standing in for Neo4j:
/// per §5.4 the paper attributes Graph.js's slower taint traversals to
/// "Neo4j's query engine, which is slower" than ODGen's native Python
/// traversals — our benchmarks reproduce exactly that cost structure by
/// routing the scanner's queries through this evaluator.
///
/// Host code can register named *path predicates* callable from WHERE
/// (e.g. `WHERE untainted(p)`), which is how the UntaintedPath filter of
/// Table 1 is expressed without exploding the query grammar.
///
//===----------------------------------------------------------------------===//

#ifndef GJS_GRAPHDB_QUERYENGINE_H
#define GJS_GRAPHDB_QUERYENGINE_H

#include "graphdb/PropertyGraph.h"
#include "graphdb/Query.h"

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace gjs {

class Deadline;

namespace obs {
class TraceRecorder;
}

namespace graphdb {

/// A matched path through the graph.
struct Path {
  std::vector<NodeHandle> Nodes;
  std::vector<RelHandle> Rels;
};

/// One result row: projected strings plus the raw bindings.
struct ResultRow {
  std::vector<std::string> Values;
  std::map<std::string, NodeHandle> NodeBindings;
  std::map<std::string, Path> PathBindings;
};

/// Query results.
struct ResultSet {
  std::vector<ResultRow> Rows;
  bool TimedOut = false;
  uint64_t Work = 0; ///< Matcher steps taken (the engine's cost metric).
  /// Compile proved the plan matches nothing (no steps were taken).
  bool EmptyPlan = false;
  /// Of Work, the steps spent computing goal sets (backward walks from
  /// bound endpoints of variable-length segments).
  uint64_t GoalWork = 0;
};

/// One step of the compiled pattern plan: either the initial label scan of
/// a MATCH item (Pos == 0) or the expansion of relationship segment
/// Pos - 1. This is the unit EXPLAIN prints and PROFILE annotates.
struct StepProfile {
  size_t Item = 0; ///< MATCH item index.
  size_t Pos = 0;  ///< 0 = node scan; k = k-th relationship segment.
  std::string Desc; ///< Rendered pattern, e.g. "-[:D|P*0..24]->(arg)".
  uint64_t Candidates = 0; ///< Nodes scanned / extensions attempted.
  uint64_t Matches = 0;    ///< Candidates that satisfied the pattern.
  /// Backward-walk steps spent on this segment's goal sets.
  uint64_t GoalSteps = 0;
  double Seconds = 0;      ///< Exclusive time spent in this step.
};

/// A profiled query run (`graphjs query --profile`): the §5.4 interpreted-
/// engine cost model as data — which plan step the matcher steps and the
/// wall-clock went to.
struct QueryProfile {
  std::vector<StepProfile> Steps; ///< Plan order (item-major).
  double TotalSeconds = 0;
  uint64_t Work = 0;       ///< Total matcher steps.
  uint64_t Backtracks = 0; ///< Path-element pops during segment walks.
  uint64_t Rows = 0;
  bool TimedOut = false;
  /// Why compile proved the plan empty (names the string the store
  /// lacks); "" when the plan ran.
  std::string EmptyPlan;
};

/// Renders a profile as an indented text table (one line per step).
std::string renderProfile(const QueryProfile &P);

/// Evaluator options.
struct EngineOptions {
  /// Hop cap for unbounded `*..` segments.
  uint32_t MaxHops = 24;
  /// Row cap (0 = unlimited).
  uint64_t MaxRows = 0;
  /// Matcher step budget (0 = unlimited) — models query timeouts.
  uint64_t WorkBudget = 0;
  /// Optional scan-level cancellation token (non-owning): the per-package
  /// deadline shared by every pipeline phase. Checkpointed per matcher
  /// step; on expiry matching aborts with the rows found so far
  /// (ResultSet::TimedOut is set, as for WorkBudget exhaustion).
  Deadline *ScanDeadline = nullptr;
  /// Optional span recorder (non-owning, branch-on-null): query-layer
  /// callers open one span per query under it (see queries::GraphDBRunner).
  obs::TraceRecorder *Trace = nullptr;
};

/// Renders the compiled pattern plan of \p Q without executing it
/// (`graphjs query --explain`): step order, label/property filters, and
/// variable-length segments with their effective hop bounds under \p O.
std::string explainQuery(const Query &Q, const EngineOptions &O = {});

/// The plan steps of \p Q in execution order, with rendered descriptors
/// and zeroed metrics (shared by explain and profile).
std::vector<StepProfile> planSteps(const Query &Q, const EngineOptions &O);

/// The query engine bound to one graph.
///
/// Each run compiles the query against the store first: labels, types and
/// property strings become atoms, variables become slot indices. A string
/// the store never saw in a mandatory pattern proves the whole plan empty,
/// and the run then takes no steps. The matcher is an interpreted
/// backtracking search over the compiled plan whose steps cost a few
/// integer compares; a variable-length segment into an already-bound node
/// only walks nodes that can reach it (its goal set). See
/// docs/QUERY_LANGUAGE.md ("Engine internals").
class QueryEngine {
public:
  using PathPredicate =
      std::function<bool(const Path &, const PropertyGraph &)>;

  explicit QueryEngine(const PropertyGraph &Graph, EngineOptions O = {});
  ~QueryEngine();

  /// Registers a predicate callable from WHERE clauses as `name(pathVar)`.
  void registerPathPredicate(const std::string &Name, PathPredicate Pred);

  /// A fold over path relationships used to prune equivalent partial paths
  /// during variable-length matching (what a production graph database's
  /// planner does). The fold maps (state, next relationship) to the next
  /// state, or -1 to prune the extension entirely; walking revisits a node
  /// only under a previously unseen state. State 0 is the initial state.
  /// Registered folds must be consistent with the path predicates: two
  /// paths with equal fold states must be indistinguishable to them.
  using PathFold =
      std::function<int64_t(int64_t, const PropertyGraph &, RelHandle)>;
  void setPathFold(PathFold Fold) { Fold_ = std::move(Fold); }

  /// Parses and runs query text. On parse error, returns an empty set and
  /// fills \p Error. With \p Profile, per-step match counts and times are
  /// collected (the PROFILE mode — adds per-candidate bookkeeping, so
  /// leave it null on production scans).
  ResultSet run(const std::string &QueryText, std::string *Error = nullptr,
                QueryProfile *Profile = nullptr);

  /// Runs an already-parsed query, optionally profiled.
  ResultSet run(const Query &Q, QueryProfile *Profile = nullptr);

private:
  const PropertyGraph &G;
  EngineOptions Options;
  std::map<std::string, PathPredicate> Predicates;
  PathFold Fold_;

  struct NodeStep;
  struct RelStep;
  struct Plan;
  struct MatchState;
  struct Segment;
  struct Profiler;
  struct Buffers;
  struct GoalSet;
  /// Per-item path buffers and per-step visited tables and goal sets,
  /// reused across runs (allocated on first use).
  std::unique_ptr<Buffers> Bufs;

  Plan compile(const Query &Q) const;
  bool takeStep(MatchState &State) const;
  const GoalSet *goalSet(size_t ItemIdx, size_t NodeIdx, MatchState &State);
  void matchItem(size_t ItemIdx, MatchState &State, ResultSet &Out);
  void matchChain(size_t ItemIdx, size_t NodeIdx, MatchState &State,
                  ResultSet &Out);
  void walk(const Segment &Seg, NodeHandle Cur, uint32_t Hops,
            int64_t FoldState, MatchState &State, ResultSet &Out);
  void emitRow(MatchState &State, ResultSet &Out);
  bool nodeMatches(NodeHandle H, const NodeStep &Pat) const;
  bool relMatches(RelHandle H, const RelRef &Rel, const RelStep &Pat) const;
  bool evalWhere(const MatchState &State) const;
};

} // namespace graphdb
} // namespace gjs

#endif // GJS_GRAPHDB_QUERYENGINE_H
