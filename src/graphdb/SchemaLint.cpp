//===- graphdb/SchemaLint.cpp - MDG store schema + query linting -----------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//

#include "graphdb/SchemaLint.h"

#include <sstream>

using namespace gjs;
using namespace gjs::graphdb;

bool GraphSchema::nodeHasProp(const std::string &Label,
                              const std::string &Key) const {
  if (!Label.empty()) {
    auto It = NodeProps.find(Label);
    return It != NodeProps.end() && It->second.count(Key) != 0;
  }
  for (const auto &[L, Keys] : NodeProps)
    if (Keys.count(Key))
      return true;
  return false;
}

bool GraphSchema::relHasProp(const std::vector<std::string> &Types,
                             const std::string &Key) const {
  if (Types.empty()) {
    for (const auto &[T, Keys] : RelProps)
      if (Keys.count(Key))
        return true;
    return false;
  }
  for (const std::string &T : Types) {
    auto It = RelProps.find(T);
    if (It != RelProps.end() && It->second.count(Key))
      return true;
  }
  return false;
}

const GraphSchema &graphdb::mdgSchema() {
  // Mirrors exactly what an opened MDG carries (graphdb/PropertyGraph.h);
  // MDGImportTest.SchemaRoundTrip keeps the two in sync.
  static const GraphSchema S = [] {
    GraphSchema Schema;
    Schema.NodeProps["Object"] = {"label", "site", "line", "taint"};
    Schema.NodeProps["Call"] = {"label", "site", "line", "name", "path"};
    Schema.RelProps["D"] = {};
    Schema.RelProps["P"] = {"name"};
    Schema.RelProps["PU"] = {};
    Schema.RelProps["V"] = {"name"};
    Schema.RelProps["VU"] = {};
    return Schema;
  }();
  return S;
}

std::string SchemaIssue::str() const {
  std::ostringstream OS;
  OS << severityName(Severity) << ": " << Message;
  if (!Code.empty())
    OS << " [" << Code << "]";
  return OS.str();
}

bool graphdb::hasSchemaError(const std::vector<SchemaIssue> &Issues) {
  for (const SchemaIssue &I : Issues)
    if (I.Severity == DiagSeverity::Error)
      return true;
  return false;
}

namespace {

/// Joins known names for "did you mean one of ..." messages.
std::string knownList(const std::map<std::string, std::set<std::string>> &M) {
  std::string Out;
  for (const auto &[Name, Keys] : M) {
    if (!Out.empty())
      Out += ", ";
    Out += Name;
  }
  return Out;
}

class QueryLinter {
public:
  QueryLinter(const Query &Q, const GraphSchema &S) : Q(Q), S(S) {}

  std::vector<SchemaIssue> run() {
    collectBindings();
    checkPatterns();
    checkWhere();
    checkReturns();
    checkUnusedBindings();
    return std::move(Issues);
  }

private:
  const Query &Q;
  const GraphSchema &S;
  std::vector<SchemaIssue> Issues;

  // Variable kinds bound by MATCH.
  std::map<std::string, std::string> NodeLabelOf; // var -> label ("" any)
  std::map<std::string, std::vector<std::string>> RelTypesOf;
  std::set<std::string> PathVars;
  std::map<std::string, unsigned> MatchOccurrences;
  std::set<std::string> UsedOutsideMatch;

  void issue(DiagSeverity Sev, std::string Code, std::string Message) {
    Issues.push_back({Sev, std::move(Code), std::move(Message)});
  }

  bool isBound(const std::string &Var) const {
    return NodeLabelOf.count(Var) || RelTypesOf.count(Var) ||
           PathVars.count(Var);
  }

  void collectBindings() {
    for (const MatchItem &M : Q.Matches) {
      if (!M.PathVar.empty()) {
        PathVars.insert(M.PathVar);
        ++MatchOccurrences[M.PathVar];
      }
      for (const NodePattern &N : M.Nodes) {
        if (N.Var.empty())
          continue;
        ++MatchOccurrences[N.Var];
        auto [It, Fresh] = NodeLabelOf.emplace(N.Var, N.Label);
        if (Fresh)
          continue;
        // Rebinding: a label conflict makes the join unsatisfiable.
        if (It->second.empty())
          It->second = N.Label;
        else if (!N.Label.empty() && N.Label != It->second)
          issue(DiagSeverity::Error, "query.label-conflict",
                "variable '" + N.Var + "' is bound with conflicting labels ':" +
                    It->second + "' and ':" + N.Label + "'");
      }
      for (const RelPattern &R : M.Rels) {
        if (R.Var.empty())
          continue;
        ++MatchOccurrences[R.Var];
        RelTypesOf[R.Var] = R.Types;
      }
    }
  }

  void checkNodePattern(const NodePattern &N) {
    if (!N.Label.empty() && !S.hasNodeLabel(N.Label))
      issue(DiagSeverity::Error, "query.unknown-node-label",
            "unknown node label ':" + N.Label + "' (importer emits: " +
                knownList(S.NodeProps) + ")");
    for (const auto &[Key, Value] : N.Props) {
      (void)Value;
      // Only meaningful when the label itself is known (or absent).
      if (!N.Label.empty() && !S.hasNodeLabel(N.Label))
        continue;
      if (!S.nodeHasProp(N.Label, Key))
        issue(DiagSeverity::Error, "query.unknown-node-prop",
              "property key '" + Key + "' is never emitted for " +
                  (N.Label.empty() ? std::string("any node label")
                                   : "label ':" + N.Label + "'") +
                  "; the filter can never match");
    }
  }

  void checkRelPattern(const RelPattern &R) {
    std::vector<std::string> KnownTypes;
    for (const std::string &T : R.Types) {
      if (!S.hasRelType(T))
        issue(DiagSeverity::Error, "query.unknown-rel-type",
              "unknown relationship type ':" + T + "' (importer emits: " +
                  knownList(S.RelProps) + ")");
      else
        KnownTypes.push_back(T);
    }
    for (const auto &[Key, Value] : R.Props) {
      (void)Value;
      if (!R.Types.empty() && KnownTypes.empty())
        continue; // Already reported the unknown type(s).
      if (!S.relHasProp(R.Types.empty() ? R.Types : KnownTypes, Key))
        issue(DiagSeverity::Error, "query.unknown-rel-prop",
              "relationship property key '" + Key +
                  "' is never emitted for the matched type(s); the filter "
                  "can never match");
    }
    if (R.VarLength && !R.Unbounded && R.MinHops > R.MaxHops)
      issue(DiagSeverity::Error, "query.hop-bounds",
            "unsatisfiable hop bounds *" + std::to_string(R.MinHops) + ".." +
                std::to_string(R.MaxHops) + " (min exceeds max)");
  }

  void checkPatterns() {
    for (const MatchItem &M : Q.Matches) {
      for (const NodePattern &N : M.Nodes)
        checkNodePattern(N);
      for (const RelPattern &R : M.Rels)
        checkRelPattern(R);
    }
  }

  /// Checks a `var.key` reference from WHERE/RETURN. Key may be empty
  /// (whole-variable reference).
  void checkVarKey(const std::string &Var, const std::string &Key,
                   const char *Where) {
    if (!isBound(Var)) {
      issue(DiagSeverity::Error, "query.unbound-var",
            std::string(Where) + " references variable '" + Var +
                "' which is not bound in MATCH");
      return;
    }
    if (Key.empty())
      return;
    if (PathVars.count(Var)) {
      issue(DiagSeverity::Error, "query.path-prop",
            std::string(Where) + " accesses property '" + Key +
                "' of path variable '" + Var + "' (paths have no properties)");
      return;
    }
    auto RelIt = RelTypesOf.find(Var);
    if (RelIt != RelTypesOf.end()) {
      if (!S.relHasProp(RelIt->second, Key))
        issue(DiagSeverity::Warning, "query.unknown-prop-key",
              std::string(Where) + " reads relationship property '" + Key +
                  "' which the importer never emits for '" + Var + "'");
      return;
    }
    const std::string &Label = NodeLabelOf.at(Var);
    if ((Label.empty() || S.hasNodeLabel(Label)) &&
        !S.nodeHasProp(Label, Key))
      issue(DiagSeverity::Warning, "query.unknown-prop-key",
            std::string(Where) + " reads property '" + Key +
                "' which the importer never emits for '" + Var +
                (Label.empty() ? "'" : "' (label ':" + Label + "')"));
  }

  void checkWhere() {
    for (const Condition &C : Q.Where) {
      if (C.K == Condition::Kind::PathPredicate) {
        if (!isBound(C.PredArg))
          issue(DiagSeverity::Error, "query.unbound-var",
                "WHERE predicate '" + C.PredName +
                    "' references variable '" + C.PredArg +
                    "' which is not bound in MATCH");
        else if (!PathVars.count(C.PredArg))
          issue(DiagSeverity::Error, "query.pred-arg-not-path",
                "WHERE predicate '" + C.PredName + "' needs a path variable; '" +
                    C.PredArg + "' is not bound as `" + C.PredArg +
                    " = (...)`");
        UsedOutsideMatch.insert(C.PredArg);
        continue;
      }
      checkVarKey(C.LHSVar, C.LHSKey, "WHERE");
      UsedOutsideMatch.insert(C.LHSVar);
      if (!C.RHSIsLiteral) {
        checkVarKey(C.RHSVar, C.RHSKey, "WHERE");
        UsedOutsideMatch.insert(C.RHSVar);
      }
    }
  }

  void checkReturns() {
    for (const ReturnItem &R : Q.Returns) {
      checkVarKey(R.Var, R.Key, "RETURN");
      UsedOutsideMatch.insert(R.Var);
    }
  }

  void checkUnusedBindings() {
    for (const auto &[Var, Count] : MatchOccurrences) {
      if (Count > 1)
        continue; // Join: reuse across patterns is a use.
      if (UsedOutsideMatch.count(Var))
        continue;
      issue(DiagSeverity::Warning, "query.unused-binding",
            "variable '" + Var +
                "' is bound in MATCH but never used (WHERE/RETURN/join); "
                "use an anonymous pattern instead");
    }
  }
};

} // namespace

std::vector<SchemaIssue> graphdb::lintQuery(const Query &Q,
                                            const GraphSchema &Schema) {
  return QueryLinter(Q, Schema).run();
}

std::vector<SchemaIssue> graphdb::lintQueryText(const std::string &Text,
                                                const GraphSchema &Schema) {
  Query Q;
  std::string Error;
  if (!parseQuery(Text, Q, &Error))
    return {{DiagSeverity::Error, "query.parse-error", Error}};
  return lintQuery(Q, Schema);
}
