//===- tests/test_graphdb.cpp - Property graph + query engine tests -------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/MDGBuilder.h"
#include "core/Normalizer.h"
#include "graphdb/QueryEngine.h"
#include "graphdb/SchemaLint.h"
#include "obs/Counters.h"
#include "queries/QueryRunner.h"

#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <set>

using namespace gjs;
using namespace gjs::graphdb;

namespace {

/// A tiny fixture graph:
///   (a:Object {taint:'true'}) -D-> (b:Object) -D-> (c:Call {name:'exec'})
///   (a) -P {name:'x'}-> (d:Object)
PropertyGraph makeFixture() {
  PropertyGraph G;
  NodeHandle A = G.addNode("Object", {{"taint", "true"}, {"label", "a"}});
  NodeHandle B = G.addNode("Object", {{"taint", "false"}, {"label", "b"}});
  NodeHandle C = G.addNode("Call", {{"name", "exec"}});
  NodeHandle D = G.addNode("Object", {{"label", "d"}});
  G.addRel(A, B, "D");
  G.addRel(B, C, "D");
  G.addRel(A, D, "P", {{"name", "x"}});
  return G;
}

} // namespace

TEST(PropertyGraphTest, StoresNodesAndRels) {
  PropertyGraph G = makeFixture();
  EXPECT_EQ(G.numNodes(), 4u);
  EXPECT_EQ(G.numRels(), 3u);
  EXPECT_EQ(G.prop(0, "label"), "a");
  EXPECT_EQ(G.prop(0, "missing"), "");
  EXPECT_EQ(G.nodesByLabel("Object").size(), 3u);
  EXPECT_EQ(G.nodesByLabel("Call").size(), 1u);
  EXPECT_EQ(G.nodesByLabel("").size(), 4u);
  EXPECT_EQ(G.out(0).size(), 2u);
  EXPECT_EQ(G.in(2).size(), 1u);
  EXPECT_EQ(G.relProp(2, "name"), "x");
}

TEST(QueryParserTest, ParsesBasicMatch) {
  Query Q;
  std::string Error;
  ASSERT_TRUE(parseQuery("MATCH (a:Object)-[:D]->(b:Call) RETURN a, b.name",
                         Q, &Error))
      << Error;
  ASSERT_EQ(Q.Matches.size(), 1u);
  EXPECT_EQ(Q.Matches[0].Nodes.size(), 2u);
  EXPECT_EQ(Q.Matches[0].Nodes[0].Var, "a");
  EXPECT_EQ(Q.Matches[0].Nodes[1].Label, "Call");
  ASSERT_EQ(Q.Returns.size(), 2u);
  EXPECT_EQ(Q.Returns[1].Key, "name");
}

TEST(QueryParserTest, ParsesVarLengthAndAlternation) {
  Query Q;
  std::string Error;
  ASSERT_TRUE(parseQuery(
      "MATCH p = (s:Object {taint: 'true'})-[:D|P|PU|V|VU*0..]->(t:Call) "
      "WHERE NOT untainted(p) RETURN t LIMIT 5",
      Q, &Error))
      << Error;
  const RelPattern &R = Q.Matches[0].Rels[0];
  EXPECT_TRUE(R.VarLength);
  EXPECT_EQ(R.MinHops, 0u);
  EXPECT_TRUE(R.Unbounded);
  EXPECT_EQ(R.Types.size(), 5u);
  EXPECT_EQ(Q.Matches[0].PathVar, "p");
  ASSERT_EQ(Q.Where.size(), 1u);
  EXPECT_TRUE(Q.Where[0].Negated);
  EXPECT_EQ(Q.Where[0].PredName, "untainted");
  EXPECT_EQ(Q.Limit, 5u);
}

TEST(QueryParserTest, ParsesBoundedHops) {
  Query Q;
  ASSERT_TRUE(parseQuery("MATCH (a)-[*2..4]->(b) RETURN b", Q, nullptr));
  const RelPattern &R = Q.Matches[0].Rels[0];
  EXPECT_EQ(R.MinHops, 2u);
  EXPECT_EQ(R.MaxHops, 4u);
  EXPECT_FALSE(R.Unbounded);
}

TEST(QueryParserTest, RejectsMalformed) {
  Query Q;
  std::string Error;
  EXPECT_FALSE(parseQuery("MATCH (a RETURN a", Q, &Error));
  EXPECT_FALSE(parseQuery("MATCH (a) WHERE RETURN a", Q, &Error));
  EXPECT_FALSE(parseQuery("RETURN a", Q, &Error));
  EXPECT_FALSE(Error.empty());
}

TEST(QueryParserTest, UnclosedNodePatternReportsOffset) {
  Query Q;
  std::string Error;
  EXPECT_FALSE(parseQuery("MATCH (a:Object RETURN a", Q, &Error));
  EXPECT_NE(Error.find("offset"), std::string::npos) << Error;
}

TEST(QueryParserTest, BadHopRangeReportsOffset) {
  Query Q;
  std::string Error;
  // A single '.' is not a range separator ('..' required).
  EXPECT_FALSE(parseQuery("MATCH (a)-[:D*2.5]->(b) RETURN b", Q, &Error));
  EXPECT_NE(Error.find("offset"), std::string::npos) << Error;
}

TEST(QueryParserTest, StrayTrailingTokensRejected) {
  Query Q;
  std::string Error;
  EXPECT_FALSE(parseQuery("MATCH (a) RETURN a bogus trailing", Q, &Error));
  EXPECT_NE(Error.find("offset"), std::string::npos) << Error;
}

TEST(QueryEngineTest, SimpleMatchAndProjection) {
  PropertyGraph G = makeFixture();
  QueryEngine E(G);
  ResultSet R = E.run("MATCH (a:Object)-[:D]->(b:Object) RETURN a.label, "
                      "b.label");
  ASSERT_EQ(R.Rows.size(), 1u);
  EXPECT_EQ(R.Rows[0].Values[0], "a");
  EXPECT_EQ(R.Rows[0].Values[1], "b");
}

TEST(QueryEngineTest, PropertyFilterInPattern) {
  PropertyGraph G = makeFixture();
  QueryEngine E(G);
  ResultSet R =
      E.run("MATCH (a:Object {taint: 'true'}) RETURN a.label");
  ASSERT_EQ(R.Rows.size(), 1u);
  EXPECT_EQ(R.Rows[0].Values[0], "a");
}

TEST(QueryEngineTest, WhereComparisons) {
  PropertyGraph G = makeFixture();
  QueryEngine E(G);
  ResultSet R1 = E.run("MATCH (c:Call) WHERE c.name = 'exec' RETURN c");
  EXPECT_EQ(R1.Rows.size(), 1u);
  ResultSet R2 = E.run("MATCH (c:Call) WHERE c.name <> 'exec' RETURN c");
  EXPECT_EQ(R2.Rows.size(), 0u);
}

TEST(QueryEngineTest, VariableLengthReachability) {
  PropertyGraph G = makeFixture();
  QueryEngine E(G);
  ResultSet R = E.run(
      "MATCH (a:Object {taint: 'true'})-[:D*1..]->(c:Call) RETURN c.name");
  ASSERT_EQ(R.Rows.size(), 1u);
  EXPECT_EQ(R.Rows[0].Values[0], "exec");
}

TEST(QueryEngineTest, ZeroHopMatchesSelf) {
  PropertyGraph G = makeFixture();
  QueryEngine E(G);
  ResultSet R =
      E.run("MATCH (a:Object {taint: 'true'})-[:D*0..]->(x:Object) RETURN "
            "x.label");
  // a itself (0 hops) and b (1 hop).
  EXPECT_EQ(R.Rows.size(), 2u);
}

TEST(QueryEngineTest, PathPredicateFiltering) {
  PropertyGraph G = makeFixture();
  QueryEngine E(G);
  E.registerPathPredicate("longerThanOne",
                          [](const Path &P, const PropertyGraph &) {
                            return P.Rels.size() > 1;
                          });
  ResultSet R = E.run("MATCH p = (a:Object {taint: 'true'})-[:D*1..]->(x) "
                      "WHERE longerThanOne(p) RETURN x");
  ASSERT_EQ(R.Rows.size(), 1u);
  // Only the 2-hop path to the call survives.
  EXPECT_EQ(G.label(R.Rows[0].NodeBindings.at("x")), "Call");
}

TEST(QueryEngineTest, MultiMatchJoin) {
  PropertyGraph G = makeFixture();
  QueryEngine E(G);
  // Same variable in two match items joins on the same node.
  ResultSet R = E.run("MATCH (a:Object {taint: 'true'})-[:D]->(b), "
                      "(a)-[:P]->(d) RETURN b.label, d.label");
  ASSERT_EQ(R.Rows.size(), 1u);
  EXPECT_EQ(R.Rows[0].Values[0], "b");
  EXPECT_EQ(R.Rows[0].Values[1], "d");
}

TEST(QueryEngineTest, CyclesDoNotHang) {
  PropertyGraph G;
  NodeHandle A = G.addNode("Object", {{"label", "a"}});
  NodeHandle B = G.addNode("Object", {{"label", "b"}});
  G.addRel(A, B, "D");
  G.addRel(B, A, "D");
  QueryEngine E(G);
  ResultSet R = E.run("MATCH (x:Object)-[:D*1..]->(y:Object) RETURN x, y");
  // a->b, a->b->a, b->a, b->a->b: 4 rows, finite.
  EXPECT_EQ(R.Rows.size(), 4u);
}

TEST(QueryEngineTest, WorkBudgetTimesOut) {
  // A dense graph with an unbounded query must hit the budget.
  PropertyGraph G;
  std::vector<NodeHandle> Ns;
  for (int I = 0; I < 12; ++I)
    Ns.push_back(G.addNode("Object"));
  for (NodeHandle X : Ns)
    for (NodeHandle Y : Ns)
      if (X != Y)
        G.addRel(X, Y, "D");
  EngineOptions O;
  O.WorkBudget = 500;
  QueryEngine E(G, O);
  ResultSet R = E.run("MATCH (a)-[:D*1..]->(b) RETURN a, b");
  EXPECT_TRUE(R.TimedOut);
}

TEST(QueryEngineTest, LimitStopsEarly) {
  PropertyGraph G = makeFixture();
  QueryEngine E(G);
  ResultSet R = E.run("MATCH (x:Object) RETURN x LIMIT 2");
  EXPECT_EQ(R.Rows.size(), 2u);
}

TEST(MDGImportTest, SchemaRoundTrip) {
  DiagnosticEngine Diags;
  auto Prog = core::normalizeJS(
      "function f(a, k) { var o = {}; o[k] = a; g(o[k]); }\n"
      "module.exports = f;\n",
      Diags);
  auto Built = analysis::buildMDG(*Prog);
  // The MDG opened in place: the store the scanner queries.
  PropertyGraph Store(Built.Graph, Built.Props);
  EXPECT_EQ(Store.numNodes(), Built.Graph.numNodes());
  EXPECT_EQ(Store.numRels(), Built.Graph.numEdges());

  // An opened store's labels, types and keys are exactly the schema the
  // queries are linted against, over a graph with every edge kind. Keys
  // are probed from the schema's own plus a few it lacks; an element
  // carries a key when it has a value for it.
  auto Every = core::normalizeJS(
      "function f(a, k) { var o = {}; o[k] = a; o.x = a; g(o[k], o.x); }\n"
      "module.exports = f;\n",
      Diags);
  auto EveryBuilt = analysis::buildMDG(*Every);
  PropertyGraph EveryStore(EveryBuilt.Graph, EveryBuilt.Props);
  std::set<std::string> Probe = {"missing", "type", "kind", "args"};
  for (const auto &Entries : {mdgSchema().NodeProps, mdgSchema().RelProps})
    for (const auto &[Name, Keys] : Entries)
      Probe.insert(Keys.begin(), Keys.end());
  GraphSchema Seen;
  for (NodeHandle H = 0; H < EveryStore.numNodes(); ++H) {
    std::set<std::string> &Keys = Seen.NodeProps[EveryStore.label(H)];
    for (const std::string &K : Probe)
      if (EveryStore.propAtom(H, EveryStore.keyAtom(K)) != NoAtom)
        Keys.insert(K);
  }
  for (RelHandle H = 0; H < EveryStore.numRels(); ++H) {
    std::set<std::string> &Keys =
        Seen.RelProps[EveryStore.str(EveryStore.rel(H).Type)];
    for (const std::string &K : Probe)
      if (EveryStore.relPropAtom(H, EveryStore.keyAtom(K)) != NoAtom)
        Keys.insert(K);
  }
  EXPECT_EQ(Seen.NodeProps, mdgSchema().NodeProps);
  EXPECT_EQ(Seen.RelProps, mdgSchema().RelProps);

  QueryEngine E(Store);
  // Taint sources present.
  ResultSet Sources =
      E.run("MATCH (s:Object {taint: 'true'}) RETURN s.label");
  EXPECT_EQ(Sources.Rows.size(), 2u);
  // The call node is reachable from the tainted param through the MDG.
  ResultSet R = E.run(
      "MATCH (s:Object {taint: 'true'})-[:D|P|PU|V|VU*1..]->(c:Call) "
      "RETURN c.name LIMIT 1");
  ASSERT_EQ(R.Rows.size(), 1u);
  EXPECT_EQ(R.Rows[0].Values[0], "g");
}

TEST(MDGStoreTest, DebugValuesBecomeAtomsWhenAQueryNamesTheirKey) {
  DiagnosticEngine Diags;
  auto Prog = core::normalizeJS(
      "function f(a) { g(a); }\n"
      "module.exports = f;\n",
      Diags);
  auto Built = analysis::buildMDG(*Prog);
  PropertyGraph Store(Built.Graph, Built.Props);
  // 'a' is only the debug label of f's parameter: no query has named the
  // label key yet, so the string is absent and proves the plan empty.
  EXPECT_EQ(Store.atom("a"), NoAtom);
  QueryEngine E(Store);
  ResultSet Absent = E.run("MATCH (c:Call {name: 'a'}) RETURN c");
  EXPECT_TRUE(Absent.EmptyPlan);
  EXPECT_EQ(Absent.Work, 0u);
  // Naming the key interns every node's label first; the plan then runs
  // (and still finds no call named 'a').
  ResultSet Named = E.run("MATCH (c:Call {name: 'a'}) RETURN c.label");
  EXPECT_FALSE(Named.EmptyPlan);
  EXPECT_TRUE(Named.Rows.empty());
  EXPECT_GT(Named.Work, 0u);
  EXPECT_NE(Store.atom("a"), NoAtom);
  ResultSet Param = E.run("MATCH (n:Object {label: 'a'}) RETURN n.taint");
  ASSERT_EQ(Param.Rows.size(), 1u);
  EXPECT_EQ(Param.Rows[0].Values[0], "true");
}

//===----------------------------------------------------------------------===//
// Query-language extensions
//===----------------------------------------------------------------------===//

TEST(QueryEngineTest, RelationshipPropertyFilter) {
  PropertyGraph G;
  NodeHandle A = G.addNode("Object", {{"label", "a"}});
  NodeHandle X = G.addNode("Object", {{"label", "x"}});
  NodeHandle Y = G.addNode("Object", {{"label", "y"}});
  G.addRel(A, X, "P", {{"name", "cmd"}});
  G.addRel(A, Y, "P", {{"name", "commit"}});
  QueryEngine E(G);
  ResultSet R =
      E.run("MATCH (a)-[:P {name: 'cmd'}]->(v) RETURN v.label");
  ASSERT_EQ(R.Rows.size(), 1u);
  EXPECT_EQ(R.Rows[0].Values[0], "x");
}

TEST(QueryEngineTest, ReverseDirectionPattern) {
  PropertyGraph G = makeFixture();
  QueryEngine E(G);
  // Who flows *into* the call? Walk D edges backwards from it.
  ResultSet R =
      E.run("MATCH (c:Call)<-[:D]-(arg:Object) RETURN arg.label");
  ASSERT_EQ(R.Rows.size(), 1u);
  EXPECT_EQ(R.Rows[0].Values[0], "b");
}

TEST(QueryEngineTest, ReverseVariableLength) {
  PropertyGraph G = makeFixture();
  QueryEngine E(G);
  ResultSet R = E.run(
      "MATCH (c:Call)<-[:D*1..]-(src:Object {taint: 'true'}) RETURN src");
  EXPECT_EQ(R.Rows.size(), 1u);
}

TEST(QueryEngineTest, ReturnDistinctDeduplicates) {
  PropertyGraph G;
  NodeHandle A = G.addNode("Object", {{"label", "a"}});
  NodeHandle B1 = G.addNode("Object", {{"label", "same"}});
  NodeHandle B2 = G.addNode("Object", {{"label", "same"}});
  G.addRel(A, B1, "D");
  G.addRel(A, B2, "D");
  QueryEngine E(G);
  ResultSet Plain = E.run("MATCH (a)-[:D]->(b) RETURN b.label");
  EXPECT_EQ(Plain.Rows.size(), 2u);
  ResultSet Distinct = E.run("MATCH (a)-[:D]->(b) RETURN DISTINCT b.label");
  EXPECT_EQ(Distinct.Rows.size(), 1u);
}

TEST(QueryParserTest, ParsesReverseAndRelProps) {
  Query Q;
  std::string Error;
  ASSERT_TRUE(parseQuery(
      "MATCH (a)<-[:V {name: 'x'}]-(b) RETURN DISTINCT a", Q, &Error))
      << Error;
  EXPECT_TRUE(Q.Matches[0].Rels[0].Reverse);
  EXPECT_EQ(Q.Matches[0].Rels[0].Props.at("name"), "x");
  EXPECT_TRUE(Q.Distinct);
}

//===----------------------------------------------------------------------===//
// Engine edge cases. Each expectation pins the rows, the matcher steps and
// the bindings/backtracks counter deltas. Rows never depend on how the
// engine prunes; the step counts move only when its pruning does.
//===----------------------------------------------------------------------===//

namespace {

/// "rows|work|timeout|bindings|backtracks" followed by each row's values.
std::string runSummary(const std::function<ResultSet()> &Run) {
  bool WasOn = obs::setCountersEnabled(true);
  uint64_t Bindings = obs::counters::QueryBindings.value();
  uint64_t Backtracks = obs::counters::QueryBacktracks.value();
  ResultSet R = Run();
  std::string S = std::to_string(R.Rows.size()) + "|" +
                  std::to_string(R.Work) + "|" + std::to_string(R.TimedOut) +
                  "|" +
                  std::to_string(obs::counters::QueryBindings.value() -
                                 Bindings) +
                  "|" +
                  std::to_string(obs::counters::QueryBacktracks.value() -
                                 Backtracks);
  obs::setCountersEnabled(WasOn);
  for (const ResultRow &Row : R.Rows) {
    S += " ";
    for (size_t I = 0; I < Row.Values.size(); ++I)
      S += (I ? "," : "") + Row.Values[I];
  }
  return S;
}

std::string runSummary(QueryEngine &E, const std::string &Text) {
  return runSummary([&] {
    std::string Error;
    ResultSet R = E.run(Text, &Error);
    EXPECT_TRUE(Error.empty()) << Error;
    return R;
  });
}

} // namespace

TEST(QueryEngineEdgeTest, StringsAbsentFromTheGraphNeverMatch) {
  PropertyGraph G = makeFixture();
  QueryEngine E(G);
  // Absent label, property value, relationship type or relationship
  // property value: the plan is proved empty and takes no step.
  EXPECT_EQ(runSummary(E, "MATCH (a:Missing) RETURN a"), "0|0|0|0|0");
  EXPECT_EQ(runSummary(E, "MATCH (a:Object {taint: 'maybe'}) RETURN a"),
            "0|0|0|0|0");
  EXPECT_EQ(runSummary(E, "MATCH (a:Object)-[:NOPE]->(b) RETURN b"),
            "0|0|0|0|0");
  // ... but a zero-hop segment still accepts its start node.
  EXPECT_EQ(runSummary(E, "MATCH (a:Object {taint: 'true'})-[:NOPE*0..]->(b) "
                          "RETURN b.label"),
            "1|4|0|2|0 a");
  EXPECT_EQ(runSummary(E, "MATCH (a)-[:P {name: 'y'}]->(b) RETURN b"),
            "0|0|0|0|0");
  // WHERE against an absent literal, and a missing key reading as ''.
  EXPECT_EQ(runSummary(E, "MATCH (c:Call) WHERE c.name = 'nothing' RETURN c"),
            "0|1|0|1|0");
  EXPECT_EQ(runSummary(E, "MATCH (c:Call) WHERE c.name <> 'nothing' "
                          "RETURN c.name"),
            "1|1|0|1|0 exec");
  EXPECT_EQ(runSummary(E, "MATCH (d:Object) WHERE d.nokey = '' "
                          "RETURN d.label"),
            "3|3|0|3|0 a b d");
}

TEST(QueryEngineEdgeTest, VariableJoinedAcrossTwoMatchItems) {
  PropertyGraph G = makeFixture();
  QueryEngine E(G);
  // `b` is bound by the first item and re-used as the second item's start.
  EXPECT_EQ(runSummary(E, "MATCH (a:Object)-[:D]->(b), (b)-[:D]->(c:Call) "
                          "RETURN a.label, b.label, c.name"),
            "1|11|0|6|3 a,b,exec");
  // Joined as an endpoint instead: only the compatible binding survives,
  // and only start nodes in b's goal set ({a, b}) are scanned.
  EXPECT_EQ(runSummary(E, "MATCH (b:Object)-[:D]->(c:Call), "
                          "(a:Object)-[:D*1..]->(b) RETURN a.label, c.name"),
            "1|15|0|6|3 a,exec");
}

TEST(QueryEngineEdgeTest, ReverseVariableLengthWithFold) {
  // The untainted fold prunes walks (reversed here: a property read seen
  // before its overwrite) and dedups (node, state) pairs per segment.
  DiagnosticEngine Diags;
  auto Prog = core::normalizeJS(
      "function f(a, b) {\n"
      "  var o = {};\n"
      "  o.c = a; o.d = b; o.c = 'x';\n"
      "  if (b) { o.e = o.c + o.d; }\n"
      "  require('child_process').exec(o.c + o.e);\n"
      "}\n"
      "module.exports = f;\n",
      Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  analysis::BuildResult Build = analysis::buildMDG(*Prog);
  queries::GraphDBRunner Runner(Build);
  auto Run = [&](const std::string &Text) {
    return runSummary([&] {
      std::string Error;
      ResultSet R = Runner.runQuery(Text, &Error);
      EXPECT_TRUE(Error.empty()) << Error;
      return R;
    });
  };
  EXPECT_EQ(Run("MATCH p = (c:Call {name: 'exec'})<-[:D|P|PU|V|VU*0..]-"
                "(src:Object {taint: 'true'}) WHERE NOT untainted(p) "
                "RETURN src.label"),
            "1|20|0|2|18 b");
  EXPECT_EQ(Run("MATCH p = (c:Call {name: 'exec'})<-[:D|P|PU|V|VU*1..3]-"
                "(src:Object) RETURN DISTINCT src.label"),
            "9|11|0|10|9 %t4 %t8 'x' %t0''' %t3 b %t0'''' "
            "%t0'''.e %t0");
}

TEST(QueryEngineEdgeTest, WorkBudgetAbortStopsAtTheSameStep) {
  PropertyGraph G;
  std::vector<NodeHandle> Ns;
  for (int I = 0; I < 6; ++I)
    Ns.push_back(G.addNode("Object", {{"label", std::to_string(I)}}));
  for (NodeHandle X : Ns)
    for (NodeHandle Y : Ns)
      if (X != Y)
        G.addRel(X, Y, "D");
  EngineOptions O;
  O.WorkBudget = 40;
  QueryEngine E(G, O);
  EXPECT_EQ(runSummary(E, "MATCH (a)-[:D*1..]->(b) RETURN a.label, b.label"),
            "38|41|1|39|91 0,1 0,0 0,2 0,0 0,3 0,0 0,4 0,0 0,5 0,0 0,1 0,2 0,1 "
            "0,3 0,1 0,4 0,1 0,5 0,0 0,2 0,3 0,2 0,4 0,2 0,5 0,0 0,3 0,4 0,3 "
            "0,4 0,2 0,5 0,5 0,0 0,3 0,4 0,5 0,0");
  // Through a second item: the abort unwinds both levels.
  O.WorkBudget = 25;
  QueryEngine E2(G, O);
  EXPECT_EQ(runSummary(E2, "MATCH (a {label: '0'})-[:D]->(b), "
                           "(b)-[:D*2..3]->(c) RETURN b.label, c.label"),
            "20|26|1|22|34 1,1 1,2 1,3 1,4 1,5 1,2 1,0 1,1 1,3 1,4 1,5 1,3 1,0 "
            "1,1 1,2 1,4 1,5 1,4 1,0 1,1");
}

//===----------------------------------------------------------------------===//
// Empty plans and goal sets. A variable-length segment into a bound node
// walks only nodes that can reach it; a pattern string the store lacks
// empties the plan. Neither may change a row.
//===----------------------------------------------------------------------===//

namespace {

/// A seeded random graph: 14 nodes labelled X (about one in four) or Y,
/// each with a unique id, and 28 relationships, mostly of type T, with a
/// weight property w in 0..2 (self-loops and parallel edges included).
PropertyGraph randomGraph(unsigned Seed) {
  std::mt19937 Rng(Seed);
  PropertyGraph G;
  const unsigned N = 14;
  for (unsigned I = 0; I < N; ++I)
    G.addNode(Rng() % 4 == 0 ? "X" : "Y", {{"id", std::to_string(I)}});
  for (unsigned E = 0; E < 2 * N; ++E) {
    NodeHandle From = Rng() % N, To = Rng() % N;
    G.addRel(From, To, Rng() % 5 ? "T" : "U",
             {{"w", std::to_string(Rng() % 3)}});
  }
  return G;
}

/// A fold with three states that also prunes: the path's weight sum mod 3,
/// with weight-2 extensions pruned from state 1.
int64_t weightFold(int64_t S, const PropertyGraph &G, RelHandle RH) {
  int64_t W = std::stoi(G.relProp(RH, "w"));
  if (W == 2 && S == 1)
    return -1;
  return (S + W) % 3;
}

/// Each row as text: projected values, then node and path bindings (path
/// nodes and relationships), leaving out the variable \p Skip.
std::vector<std::string> rowsOf(const ResultSet &R, const std::string &Skip) {
  std::vector<std::string> Out;
  for (const ResultRow &Row : R.Rows) {
    std::string S;
    for (const std::string &V : Row.Values)
      S += V + ",";
    for (const auto &[Var, N] : Row.NodeBindings)
      if (Var != Skip)
        S += Var + "=" + std::to_string(N) + ";";
    for (const auto &[Var, P] : Row.PathBindings) {
      S += Var + "=";
      for (NodeHandle N : P.Nodes)
        S += std::to_string(N) + " ";
      S += "/";
      for (RelHandle E : P.Rels)
        S += " " + std::to_string(E);
    }
    Out.push_back(std::move(S));
  }
  return Out;
}

} // namespace

TEST(QueryGoalSetTest, BoundEndpointMatchesItsWhereTwinOnRandomGraphs) {
  // The twin binds a fresh endpoint and compares ids in WHERE, so it never
  // takes the goal path: the two must agree row for row, in order.
  size_t Rows = 0;
  for (unsigned Seed = 1; Seed <= 40; ++Seed) {
    PropertyGraph G = randomGraph(Seed);
    for (bool Fold : {false, true}) {
      for (bool Reverse : {false, true}) {
        EngineOptions O;
        O.MaxHops = 5;
        QueryEngine E(G, O);
        if (Fold)
          E.setPathFold(weightFold);
        std::string Seg = Reverse ? "<-[:T*1..]-" : "-[:T*1..]->";
        std::string Goal =
            "MATCH (b:X), p = (a)" + Seg + "(b) RETURN a.id, b.id, p";
        std::string Twin = "MATCH (b:X), p = (a)" + Seg +
                           "(c) WHERE c.id = b.id RETURN a.id, b.id, p";
        std::string Error;
        ResultSet RG = E.run(Goal, &Error);
        ASSERT_TRUE(Error.empty()) << Error;
        ResultSet RT = E.run(Twin, &Error);
        ASSERT_TRUE(Error.empty()) << Error;
        SCOPED_TRACE("seed " + std::to_string(Seed) + (Fold ? " fold" : "") +
                     (Reverse ? " reverse" : ""));
        EXPECT_EQ(rowsOf(RG, "c"), rowsOf(RT, "c"));
        EXPECT_FALSE(RG.TimedOut || RT.TimedOut);
        EXPECT_EQ(RT.GoalWork, 0u);
        if (!G.nodesByLabel("X").empty())
          EXPECT_GT(RG.GoalWork, 0u);
        Rows += RG.Rows.size();
      }
    }
  }
  EXPECT_GT(Rows, 1000u) << "the random graphs must produce rows to compare";
}

TEST(QueryGoalSetTest, BoundEndpointNoSourceReaches) {
  PropertyGraph G = makeFixture();
  QueryEngine E(G);
  // d is reached from the source only through P: its D goal set is {d}, so
  // no start node is walked at all.
  const std::string Text = "MATCH (d:Object {label: 'd'}), "
                           "(a:Object {taint: 'true'})-[:D*1..]->(d) "
                           "RETURN a";
  EXPECT_EQ(runSummary(E, Text), "0|5|0|1|0");
  QueryProfile P;
  std::string Error;
  ResultSet R = E.run(Text, &Error, &P);
  ASSERT_TRUE(Error.empty()) << Error;
  EXPECT_EQ(R.GoalWork, 1u);
  ASSERT_EQ(P.Steps.size(), 3u);
  // Of the three Objects only d itself, which is no source, is scanned.
  EXPECT_EQ(P.Steps[1].Candidates, 1u);
  EXPECT_EQ(P.Steps[1].Matches, 0u);
  EXPECT_EQ(P.Steps[2].GoalSteps, 1u);
  EXPECT_NE(renderProfile(P).find("goal_steps=1"), std::string::npos);
}

TEST(QueryGoalSetTest, BudgetSmallerThanTheGoalWalkTimesOut) {
  // A chain 0 -> 1 -> ... -> 9; the end nodes 2 and 9 are targets in turn.
  PropertyGraph G;
  std::vector<NodeHandle> Ns;
  for (int I = 0; I < 10; ++I)
    Ns.push_back(G.addNode(
        "Object", {{"label", std::to_string(I)},
                   {"end", I == 2 || I == 9 ? "yes" : "no"}}));
  for (int I = 0; I + 1 < 10; ++I)
    G.addRel(Ns[I], Ns[I + 1], "D");
  const std::string Text = "MATCH (b:Object {end: 'yes'}), "
                           "(a)-[:D*1..]->(b) RETURN b.label, a.label";
  QueryEngine Full(G);
  EXPECT_EQ(runSummary(Full, Text),
            "11|97|0|15|48 2,0 2,1 9,0 9,1 9,2 9,3 9,4 9,5 9,6 9,7 9,8");
  // The budget runs out inside the second target's goal walk: target 2's
  // rows stand, and nothing is matched after the abort.
  EngineOptions O;
  O.WorkBudget = 25;
  QueryEngine Budgeted(G, O);
  EXPECT_EQ(runSummary(Budgeted, Text), "2|26|1|5|3 2,0 2,1");
  ResultSet R = Budgeted.run(Text);
  EXPECT_TRUE(R.TimedOut);
  // Three steps walk target 2's set {0, 1, 2}; target 9's walk aborts on
  // its fourth.
  EXPECT_EQ(R.GoalWork, 7u);
}

TEST(QueryGoalSetTest, AbsentRelationshipPropertyEmptiesTheMandatoryPlan) {
  PropertyGraph G = makeFixture();
  QueryEngine E(G);
  const std::string Text = "MATCH (a)-[:P {name: 'y'}*1..]->(b) RETURN b";
  EXPECT_EQ(runSummary(E, Text), "0|0|0|0|0");
  QueryProfile P;
  std::string Error;
  ResultSet R = E.run(Text, &Error, &P);
  ASSERT_TRUE(Error.empty()) << Error;
  EXPECT_TRUE(R.EmptyPlan);
  EXPECT_EQ(P.EmptyPlan, "step 1: 'y' is absent from the store");
  EXPECT_NE(renderProfile(P).find("empty plan: step 1: 'y'"),
            std::string::npos);
  E.run("MATCH (a)-[:NOPE|NADA]->(b) RETURN b", &Error, &P);
  EXPECT_EQ(P.EmptyPlan,
            "step 1: every type of :NOPE|NADA is absent from the store");
  // A `*0..` segment is optional: every start node is still a row.
  ResultSet Zero = E.run("MATCH (a)-[:P {name: 'y'}*0..]->(b) RETURN b");
  EXPECT_FALSE(Zero.EmptyPlan);
  EXPECT_EQ(Zero.Rows.size(), 4u);
}
