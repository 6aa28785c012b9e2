//===- queries/QueryRunner.cpp - Table 2 vulnerability queries -------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//

#include "queries/QueryRunner.h"

#include "graphdb/SchemaLint.h"
#include "obs/Trace.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>

using namespace gjs;
using namespace gjs::queries;
using namespace gjs::mdg;
using graphdb::Path;
using graphdb::PropertyGraph;
using graphdb::QueryEngine;
using graphdb::ResultRow;
using graphdb::ResultSet;

GraphDBRunner::GraphDBRunner(const analysis::BuildResult &Build,
                             graphdb::EngineOptions Engine,
                             bool UntaintedExclusion)
    : Build(Build), Imported(graphdb::importMDG(Build.Graph, Build.Props,
                                                Engine.ScanDeadline)),
      EngineOpts(Engine), UntaintedExclusion(UntaintedExclusion) {}

void GraphDBRunner::registerPredicates(QueryEngine &E) const {
  if (!UntaintedExclusion) {
    // Ablated mode: `untainted(p)` is constant-false (TaintPath becomes
    // BasicPath) and no pruning fold is installed.
    E.registerPathPredicate(
        "untainted",
        [](const Path &, const PropertyGraph &) { return false; });
    // A coarse reachability fold still prunes revisits (state 0 always).
    E.setPathFold([](int64_t, const PropertyGraph &, graphdb::RelHandle)
                      -> int64_t { return 0; });
    return;
  }
  // The schema atoms of this store (NoAtom when it has no such edges).
  const PropertyGraph &DB = Imported.Graph;
  const graphdb::Atom V = DB.atom("V"), P = DB.atom("P"),
                      Name = DB.atom("name");

  // UntaintedPath (Table 1): the path contains V(p) followed, anywhere
  // later, by P(p) on the same property: the tainted value was overwritten.
  E.registerPathPredicate(
      "untainted", [V, P, Name](const Path &Pa, const PropertyGraph &G) {
        std::vector<graphdb::Atom> Overwritten;
        for (graphdb::RelHandle RH : Pa.Rels) {
          graphdb::Atom Type = G.rel(RH).Type;
          if (Type != V && Type != P)
            continue;
          graphdb::Atom Prop = G.relPropAtom(RH, Name);
          if (Prop == graphdb::NoAtom)
            continue;
          if (Type == V)
            Overwritten.push_back(Prop);
          else if (std::find(Overwritten.begin(), Overwritten.end(), Prop) !=
                   Overwritten.end())
            return true;
        }
        return false;
      });

  // Path-state fold for planner-style pruning: the state is the interned
  // set of overwritten properties (a sorted atom vector), and untainted
  // extensions (reading a property after its overwrite) are pruned
  // outright. Consistent with the `untainted` predicate: every surviving
  // path satisfies NOT untainted.
  struct FoldStates {
    std::vector<std::vector<graphdb::Atom>> States{{}};
    std::map<std::vector<graphdb::Atom>, int64_t> Index{{{}, 0}};
    /// (state, overwritten property) → successor state.
    std::unordered_map<uint64_t, int64_t> Next;
  };
  auto F = std::make_shared<FoldStates>();
  E.setPathFold([F, V, P, Name](int64_t S, const PropertyGraph &G,
                                graphdb::RelHandle RH) -> int64_t {
    graphdb::Atom Type = G.rel(RH).Type;
    if (Type != V && Type != P)
      return S;
    graphdb::Atom Prop = G.relPropAtom(RH, Name);
    if (Prop == graphdb::NoAtom)
      return S;
    const std::vector<graphdb::Atom> &Cur = F->States[static_cast<size_t>(S)];
    if (Type == P) // Overwritten property: prune the untainted extension.
      return std::binary_search(Cur.begin(), Cur.end(), Prop) ? -1 : S;
    auto [It, Fresh] =
        F->Next.try_emplace((static_cast<uint64_t>(S) << 32) | Prop, 0);
    if (!Fresh)
      return It->second;
    std::vector<graphdb::Atom> Next = Cur;
    auto Pos = std::lower_bound(Next.begin(), Next.end(), Prop);
    if (Pos == Next.end() || *Pos != Prop)
      Next.insert(Pos, Prop);
    auto [IdxIt, New] = F->Index.emplace(
        std::move(Next), static_cast<int64_t>(F->States.size()));
    if (New)
      F->States.push_back(IdxIt->first);
    return It->second = IdxIt->second;
  });
}

static const char *TaintQueryTemplateName =
    "MATCH p = (src:Object {taint: 'true'})-[:D|P|PU|V|VU*0..]->(arg)"
    "-[:D]->(call:Call {name: '%'})\n"
    "WHERE NOT untainted(p)\n"
    "RETURN src, arg, call";

static const char *TaintQueryTemplatePath =
    "MATCH p = (src:Object {taint: 'true'})-[:D|P|PU|V|VU*0..]->(arg)"
    "-[:D]->(call:Call {path: '%'})\n"
    "WHERE NOT untainted(p)\n"
    "RETURN src, arg, call";

/// Substitutes the sink name into a query template (single '%' hole).
static std::string instantiate(const char *Template, const std::string &Name) {
  std::string Out(Template);
  size_t Hole = Out.find('%');
  Out.replace(Hole, 1, Name);
  return Out;
}

namespace {

/// A built-in query text, parsed and schema-linted once.
struct ParsedBuiltin {
  bool Parsed = false;
  graphdb::Query Q;
  std::string LintError; ///< The first error-severity issue; "" if clean.
};

/// The process-wide memo of built-in query texts (keyed by the text, so a
/// custom SinkConfig adds its own entries). Entries are never erased, so
/// the returned reference stays valid.
const ParsedBuiltin &parsedBuiltin(const std::string &Text) {
  static std::mutex Lock;
  static std::unordered_map<std::string, ParsedBuiltin> Memo;
  std::lock_guard<std::mutex> Guard(Lock);
  auto [It, Fresh] = Memo.try_emplace(Text);
  ParsedBuiltin &P = It->second;
  if (Fresh) {
    P.Parsed = graphdb::parseQuery(Text, P.Q, nullptr);
    for (const graphdb::SchemaIssue &Issue :
         graphdb::lintQueryText(Text, graphdb::mdgSchema()))
      if (Issue.Severity == DiagSeverity::Error) {
        P.LintError = Issue.str();
        break;
      }
  }
  return P;
}

/// Runs a built-in query text from the memo (an unparsable text matches
/// nothing, as QueryEngine::run on text would).
ResultSet runBuiltin(QueryEngine &E, const std::string &Text) {
  const ParsedBuiltin &P = parsedBuiltin(Text);
  return P.Parsed ? E.run(P.Q) : ResultSet();
}

} // namespace

std::vector<VulnReport>
GraphDBRunner::detectTaintStyle(VulnType T, const SinkConfig &Config,
                                DetectStats *Stats) {
  QueryEngine E(Imported.Graph, EngineOpts);
  registerPredicates(E);

  std::vector<VulnReport> Reports;
  std::set<VulnReport> Dedup;

  for (const SinkSpec &Spec : Config.sinks(T)) {
    std::string QueryText = instantiate(
        Spec.isPath() ? TaintQueryTemplatePath : TaintQueryTemplateName,
        Spec.Name);
    obs::Span QSpan(EngineOpts.Trace, std::string(vulnTypeName(T)) + "/" +
                                          Spec.Name);
    ResultSet R = runBuiltin(E, QueryText);
    QSpan.arg("rows", static_cast<uint64_t>(R.Rows.size()));
    QSpan.arg("work", R.Work);
    QSpan.arg("empty_plan", static_cast<uint64_t>(R.EmptyPlan));
    QSpan.arg("goal_steps", R.GoalWork);
    if (Stats) {
      Stats->QueryWork += R.Work;
      Stats->TimedOut |= R.TimedOut;
    }
    for (const ResultRow &Row : R.Rows) {
      NodeId Call = Row.NodeBindings.at("call");
      NodeId Arg = Row.NodeBindings.at("arg");
      // Host-side Arg_{f,n} filter: the matched arg must be one of the
      // sink's sensitive argument positions.
      const Node &CN = Build.Graph.node(Call);
      bool Sensitive = false;
      for (unsigned I = 0; I < CN.Args.size() && !Sensitive; ++I) {
        if (!SinkConfig::argIsSensitive(Spec, I))
          continue;
        Sensitive = std::find(CN.Args[I].begin(), CN.Args[I].end(), Arg) !=
                    CN.Args[I].end();
      }
      if (!Sensitive)
        continue;
      VulnReport Rep;
      Rep.Type = T;
      Rep.SinkLoc = CN.Loc;
      Rep.SinkName = CN.CallName;
      Rep.SinkPath = CN.CallPath;
      if (Dedup.insert(Rep).second)
        Reports.push_back(std::move(Rep));
    }
  }
  return Reports;
}

// The taint-source endpoints of p1..p3 are anonymous: naming them would
// bind variables the query never reads (the schema linter flags that).
static const char *PollutionQuery =
    "MATCH (obj:Object)-[:PU]->(sub:Object)-[:VU]->(ver:Object)"
    "-[:PU]->(val:Object),\n"
    "  p1 = (:Object {taint: 'true'})-[:D|P|PU|V|VU*0..]->(sub),\n"
    "  p2 = (:Object {taint: 'true'})-[:D|P|PU|V|VU*0..]->(ver),\n"
    "  p3 = (:Object {taint: 'true'})-[:D|P|PU|V|VU*0..]->(val)\n"
    "WHERE NOT untainted(p1) AND NOT untainted(p2) AND NOT untainted(p3)\n"
    "RETURN obj, sub, ver, val";

std::vector<std::pair<std::string, std::string>>
GraphDBRunner::builtinQueries(const SinkConfig &Config) {
  std::vector<std::pair<std::string, std::string>> Out;
  for (VulnType T : {VulnType::CommandInjection, VulnType::CodeInjection,
                     VulnType::PathTraversal}) {
    for (const SinkSpec &Spec : Config.sinks(T)) {
      std::string Name = std::string(vulnTypeName(T)) + "/" + Spec.Name;
      Out.emplace_back(std::move(Name),
                       instantiate(Spec.isPath() ? TaintQueryTemplatePath
                                                 : TaintQueryTemplateName,
                                   Spec.Name));
    }
  }
  Out.emplace_back("prototype-pollution", PollutionQuery);
  return Out;
}

bool GraphDBRunner::validateBuiltinQueries(const SinkConfig &Config,
                                           std::string *Error) {
  for (const auto &[Name, Text] : builtinQueries(Config)) {
    const ParsedBuiltin &P = parsedBuiltin(Text);
    if (P.LintError.empty())
      continue;
    if (Error)
      *Error = "built-in query '" + Name + "': " + P.LintError;
    return false;
  }
  return true;
}

std::vector<VulnReport>
GraphDBRunner::detectPrototypePollution(DetectStats *Stats) {
  QueryEngine E(Imported.Graph, EngineOpts);
  registerPredicates(E);

  obs::Span QSpan(EngineOpts.Trace, "prototype-pollution");
  ResultSet R = runBuiltin(E, PollutionQuery);
  QSpan.arg("rows", static_cast<uint64_t>(R.Rows.size()));
  QSpan.arg("work", R.Work);
  QSpan.arg("empty_plan", static_cast<uint64_t>(R.EmptyPlan));
  QSpan.arg("goal_steps", R.GoalWork);
  QSpan.close();
  if (Stats) {
    Stats->QueryWork += R.Work;
    Stats->TimedOut |= R.TimedOut;
  }

  std::vector<VulnReport> Reports;
  std::set<VulnReport> Dedup;
  for (const ResultRow &Row : R.Rows) {
    NodeId Ver = Row.NodeBindings.at("ver");
    VulnReport Rep;
    Rep.Type = VulnType::PrototypePollution;
    Rep.SinkLoc = Build.Graph.node(Ver).Loc;
    if (Dedup.insert(Rep).second)
      Reports.push_back(std::move(Rep));
  }
  return Reports;
}

graphdb::ResultSet GraphDBRunner::runQuery(const std::string &Text,
                                           std::string *Error,
                                           graphdb::QueryProfile *Profile) {
  QueryEngine E(Imported.Graph, EngineOpts);
  registerPredicates(E);
  return E.run(Text, Error, Profile);
}

std::vector<std::pair<std::string, graphdb::QueryProfile>>
GraphDBRunner::profileBuiltins(const SinkConfig &Config) {
  std::vector<std::pair<std::string, graphdb::QueryProfile>> Out;
  for (const auto &[Name, Text] : builtinQueries(Config)) {
    graphdb::QueryProfile P;
    std::string Error;
    runQuery(Text, &Error, &P);
    Out.emplace_back(Name, std::move(P));
  }
  return Out;
}

std::vector<VulnReport> GraphDBRunner::detect(const SinkConfig &Config,
                                              DetectStats *Stats) {
  std::vector<VulnReport> All;
  for (VulnType T : {VulnType::CommandInjection, VulnType::CodeInjection,
                     VulnType::PathTraversal}) {
    std::vector<VulnReport> R = detectTaintStyle(T, Config, Stats);
    All.insert(All.end(), R.begin(), R.end());
  }
  std::vector<VulnReport> PP = detectPrototypePollution(Stats);
  All.insert(All.end(), PP.begin(), PP.end());
  return All;
}

//===----------------------------------------------------------------------===//
// Native backend
//===----------------------------------------------------------------------===//

std::vector<VulnReport> queries::detectNative(
    const analysis::BuildResult &Build, const SinkConfig &Config) {
  std::array<bool, NumVulnTypes> All;
  All.fill(true);
  return detectNative(Build, Config, All);
}

std::vector<VulnReport> queries::detectNative(
    const analysis::BuildResult &Build, const SinkConfig &Config,
    const std::array<bool, NumVulnTypes> &Enabled) {
  const Graph &G = Build.Graph;
  Traversals T(G);

  // Precompute the taint closure of every source once.
  std::set<NodeId> Tainted;
  for (NodeId S : Build.TaintSources) {
    std::set<NodeId> R = T.taintReachable(S);
    Tainted.insert(R.begin(), R.end());
  }

  std::vector<VulnReport> Reports;
  std::set<VulnReport> Dedup;

  // Taint-style classes: tainted value reaches a sensitive sink argument.
  for (VulnType VT : {VulnType::CommandInjection, VulnType::CodeInjection,
                      VulnType::PathTraversal}) {
    if (!Enabled[static_cast<int>(VT)])
      continue;
    for (const SinkSpec &Spec : Config.sinks(VT)) {
      for (NodeId C : Build.CallNodes) {
        const Node &CN = G.node(C);
        if (!SinkConfig::matchesCall(Spec, CN.CallName, CN.CallPath))
          continue;
        bool Hit = false;
        for (unsigned I = 0; I < CN.Args.size() && !Hit; ++I) {
          if (!SinkConfig::argIsSensitive(Spec, I))
            continue;
          for (NodeId A : CN.Args[I])
            if (Tainted.count(A)) {
              Hit = true;
              break;
            }
        }
        if (!Hit)
          continue;
        VulnReport Rep;
        Rep.Type = VT;
        Rep.SinkLoc = CN.Loc;
        Rep.SinkName = CN.CallName;
        Rep.SinkPath = CN.CallPath;
        if (Dedup.insert(Rep).second)
          Reports.push_back(std::move(Rep));
      }
    }
  }

  // Prototype pollution: ObjLookup* ∘ ObjAssignment* with all three
  // controlled positions tainted (Table 2, last row).
  if (!Enabled[static_cast<int>(VulnType::PrototypePollution)])
    return Reports;
  for (auto [Obj, Sub] : T.objLookupStar()) {
    (void)Obj;
    if (!Tainted.count(Sub))
      continue;
    for (auto [Ver, Val] : T.objAssignmentStar(Sub)) {
      if (!Tainted.count(Ver) || !Tainted.count(Val))
        continue;
      VulnReport Rep;
      Rep.Type = VulnType::PrototypePollution;
      Rep.SinkLoc = G.node(Ver).Loc;
      if (Dedup.insert(Rep).second)
        Reports.push_back(std::move(Rep));
    }
  }
  return Reports;
}
