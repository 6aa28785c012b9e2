//===- tests/test_builder.cpp - Tests for the abstract MDG builder --------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
// These tests follow the paper's worked examples: the Figure 1 motivating
// example and the §5.5 set-value case study.
//
//===----------------------------------------------------------------------===//

#include "analysis/MDGBuilder.h"
#include "analysis/PackageGraph.h"
#include "core/AsyncLower.h"
#include "core/Normalizer.h"
#include "frontend/Parser.h"
#include "scanner/Scanner.h"
#include "workload/Datasets.h"
#include "workload/DepTrees.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

using namespace gjs;
using namespace gjs::analysis;
using namespace gjs::mdg;

namespace {

BuildResult buildFrom(const std::string &Source, BuilderOptions O = {}) {
  DiagnosticEngine Diags;
  auto Prog = core::normalizeJS(Source, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  return buildMDG(*Prog, O);
}

/// Finds the first call node whose CalleeName matches.
NodeId findCall(const BuildResult &R, const std::string &Name) {
  for (NodeId C : R.CallNodes)
    if (R.Graph.node(C).CallName == Name)
      return C;
  return InvalidNode;
}

/// Simple D/P/V-reachability (ignores the untainted-path exclusion; the
/// query engine implements the full TaintPath).
bool reaches(const Graph &G, NodeId From, NodeId To) {
  std::vector<bool> Seen(G.numNodes(), false);
  std::vector<NodeId> Work{From};
  Seen[From] = true;
  while (!Work.empty()) {
    NodeId N = Work.back();
    Work.pop_back();
    if (N == To)
      return true;
    for (const Edge &E : G.out(N))
      if (!Seen[E.To]) {
        Seen[E.To] = true;
        Work.push_back(E.To);
      }
  }
  return false;
}

const char *Figure1Source =
    "const { exec } = require('child_process');\n"
    "function git_reset(config, op, branch_name, url) {\n"
    "  var options = config[op];\n"
    "  options[branch_name] = url;\n"
    "  options.cmd = 'git reset';\n"
    "  exec(options.cmd + ' HEAD~' + options.commit);\n"
    "}\n"
    "module.exports = git_reset;\n";

} // namespace

TEST(MDGBuilderTest, ParamsAreTaintSources) {
  BuildResult R = buildFrom("function f(a, b) { return a; }\n"
                            "module.exports = f;\n");
  EXPECT_EQ(R.TaintSources.size(), 2u);
  for (NodeId N : R.TaintSources)
    EXPECT_TRUE(R.Graph.node(N).IsTaintSource);
}

TEST(MDGBuilderTest, BinOpCreatesDependencies) {
  BuildResult R = buildFrom("function f(a, b) { var c = a + b; g(c); }\n"
                            "module.exports = f;\n");
  NodeId Call = findCall(R, "g");
  ASSERT_NE(Call, InvalidNode);
  // Both params flow into the call through c.
  for (NodeId Src : R.TaintSources)
    EXPECT_TRUE(reaches(R.Graph, Src, Call));
}

TEST(MDGBuilderTest, LiteralsCarryNoTaint) {
  BuildResult R = buildFrom("function f(a) { var c = 'safe'; g(c); }\n"
                            "module.exports = f;\n");
  NodeId Call = findCall(R, "g");
  ASSERT_NE(Call, InvalidNode);
  ASSERT_EQ(R.TaintSources.size(), 1u);
  EXPECT_FALSE(reaches(R.Graph, R.TaintSources[0], Call));
}

TEST(MDGBuilderTest, StaticPropertyFlow) {
  BuildResult R = buildFrom("function f(a) { var o = {}; o.x = a; g(o.x); }\n"
                            "module.exports = f;\n");
  NodeId Call = findCall(R, "g");
  ASSERT_NE(Call, InvalidNode);
  EXPECT_TRUE(reaches(R.Graph, R.TaintSources[0], Call));
}

TEST(MDGBuilderTest, OverwrittenPropertyStillReachesViaVersionEdges) {
  // Raw reachability sees a path o->o' even after overwrite; it is the
  // query's UntaintedPath exclusion that rules it out. Here we only check
  // the direct value read resolves to the NEW value node.
  BuildResult R = buildFrom(
      "function f(a) { var o = {}; o.x = a; o.x = 'safe'; g(o.x); }\n"
      "module.exports = f;\n");
  NodeId Call = findCall(R, "g");
  ASSERT_NE(Call, InvalidNode);
  // The call's argument locations must NOT include the tainted param.
  const Node &CN = R.Graph.node(Call);
  ASSERT_EQ(CN.Args.size(), 1u);
  for (NodeId ArgLoc : CN.Args[0])
    EXPECT_NE(ArgLoc, R.TaintSources[0]);
}

TEST(MDGBuilderTest, Figure1GraphShape) {
  BuildResult R = buildFrom(Figure1Source);
  ASSERT_EQ(R.TaintSources.size(), 4u);

  NodeId Exec = findCall(R, "exec");
  ASSERT_NE(Exec, InvalidNode);
  EXPECT_EQ(R.Graph.node(Exec).CallPath, "child_process.exec");

  // config, op, branch_name, url all reach the exec call.
  for (NodeId Src : R.TaintSources)
    EXPECT_TRUE(reaches(R.Graph, Src, Exec))
        << "source " << R.Graph.node(Src).Label << " must reach exec";

  // The graph contains at least one unknown-property edge (config[op]),
  // one unknown version edge (options[branch_name] = url), and one known
  // version edge (options.cmd = ...).
  bool HasPropUnknown = false, HasVersionUnknown = false, HasVersion = false;
  for (NodeId N : R.Graph.nodeIds())
    for (const Edge &E : R.Graph.out(N)) {
      HasPropUnknown |= E.Kind == EdgeKind::PropUnknown;
      HasVersionUnknown |= E.Kind == EdgeKind::VersionUnknown;
      HasVersion |= E.Kind == EdgeKind::Version;
    }
  EXPECT_TRUE(HasPropUnknown);
  EXPECT_TRUE(HasVersionUnknown);
  EXPECT_TRUE(HasVersion);
}

TEST(MDGBuilderTest, Figure1CommitLookupFindsTwoVersions) {
  // After line 6, `options.commit` resolves to both the lazily-created
  // commit property on the oldest version AND the dynamic write's value
  // (Fig. 1c: o9 and o4 both flow into f1).
  BuildResult R = buildFrom(Figure1Source);
  NodeId Exec = findCall(R, "exec");
  ASSERT_NE(Exec, InvalidNode);
  // url (4th param) must reach the exec call *through* the dynamic
  // property write + commit lookup chain.
  NodeId Url = InvalidNode;
  for (NodeId S : R.TaintSources)
    if (R.Graph.node(S).Label == "url")
      Url = S;
  ASSERT_NE(Url, InvalidNode);
  EXPECT_TRUE(reaches(R.Graph, Url, Exec));
}

TEST(MDGBuilderTest, WhileLoopReachesFixpoint) {
  BuildResult R = buildFrom(
      "function f(a) {\n"
      "  var o = {};\n"
      "  var i = 0;\n"
      "  while (i < 10) { o[a] = a; i = i + 1; }\n"
      "  return o;\n"
      "}\n"
      "module.exports = f;\n");
  EXPECT_FALSE(R.TimedOut);
  // Allocation-site abstraction: the loop must not blow up the graph.
  EXPECT_LT(R.Graph.numNodes(), 40u);
}

TEST(MDGBuilderTest, SetValueCaseStudyTerminatesAndStaysSmall) {
  // §5.5 / Figure 8: CVE-2021-23440-style nested dynamic updates in a loop.
  BuildResult R = buildFrom(
      "function set_value(target, prop, value) {\n"
      "  const path = prop.split('.');\n"
      "  const len = path.length;\n"
      "  var obj = target;\n"
      "  for (var i = 0; i < len; i++) {\n"
      "    const p = path[i];\n"
      "    if (i === len - 1) {\n"
      "      obj[p] = value;\n"
      "    }\n"
      "    obj = obj[p];\n"
      "  }\n"
      "  return target;\n"
      "}\n"
      "module.exports = set_value;\n");
  EXPECT_FALSE(R.TimedOut);
  EXPECT_LT(R.Graph.numNodes(), 60u) << "object explosion detected";
  // The loop's dynamic update creates a version cycle or re-used version
  // node; all three params reach into the graph.
  EXPECT_EQ(R.TaintSources.size(), 3u);
}

TEST(MDGBuilderTest, InterproceduralFlowThroughHelper) {
  BuildResult R = buildFrom(
      "function helper(x) { return x; }\n"
      "function entry(a) { var v = helper(a); sink(v); }\n"
      "module.exports = entry;\n");
  NodeId Call = findCall(R, "sink");
  ASSERT_NE(Call, InvalidNode);
  NodeId A = InvalidNode;
  for (NodeId S : R.TaintSources)
    if (R.Graph.node(S).Label == "a")
      A = S;
  ASSERT_NE(A, InvalidNode);
  EXPECT_TRUE(reaches(R.Graph, A, Call));
}

TEST(MDGBuilderTest, RecursionTerminates) {
  BuildResult R = buildFrom(
      "function rec(o, k, v) {\n"
      "  if (k) { o[k] = v; rec(o[k], k, v); }\n"
      "  return o;\n"
      "}\n"
      "module.exports = rec;\n");
  EXPECT_FALSE(R.TimedOut);
  EXPECT_LT(R.Graph.numNodes(), 80u);
}

TEST(MDGBuilderTest, UnknownCallReturnDependsOnArgs) {
  BuildResult R = buildFrom(
      "function f(a) { var r = unknown(a); sink(r); }\n"
      "module.exports = f;\n");
  NodeId Sink = findCall(R, "sink");
  ASSERT_NE(Sink, InvalidNode);
  EXPECT_TRUE(reaches(R.Graph, R.TaintSources[0], Sink));
}

TEST(MDGBuilderTest, IfJoinKeepsBothBranches) {
  BuildResult R = buildFrom(
      "function f(a, b, c) {\n"
      "  var x;\n"
      "  if (c) { x = a; } else { x = b; }\n"
      "  sink(x);\n"
      "}\n"
      "module.exports = f;\n");
  NodeId Sink = findCall(R, "sink");
  ASSERT_NE(Sink, InvalidNode);
  NodeId A = InvalidNode, B = InvalidNode;
  for (NodeId S : R.TaintSources) {
    if (R.Graph.node(S).Label == "a")
      A = S;
    if (R.Graph.node(S).Label == "b")
      B = S;
  }
  EXPECT_TRUE(reaches(R.Graph, A, Sink));
  EXPECT_TRUE(reaches(R.Graph, B, Sink));
}

TEST(MDGBuilderTest, WorkBudgetTimesOut) {
  BuilderOptions O;
  O.WorkBudget = 5;
  BuildResult R = buildFrom(
      "function f(a) { var x = a + 1; var y = x + 2; var z = y + 3;\n"
      "  var w = z + 4; var v = w + 5; var u = v + 6; sink(u); }\n"
      "module.exports = f;\n",
      O);
  EXPECT_TRUE(R.TimedOut);
}

TEST(MDGBuilderTest, GraphGrowsLinearlyWithStraightLineCode) {
  // Allocation-site abstraction: N objects -> O(N) nodes.
  std::string Small = "function f(a) {\n", Large = "function f(a) {\n";
  for (int I = 0; I < 10; ++I)
    Small += "  var s" + std::to_string(I) + " = {x: a};\n";
  for (int I = 0; I < 100; ++I)
    Large += "  var s" + std::to_string(I) + " = {x: a};\n";
  Small += "}\nmodule.exports = f;\n";
  Large += "}\nmodule.exports = f;\n";
  BuildResult RS = buildFrom(Small);
  BuildResult RL = buildFrom(Large);
  double Ratio = static_cast<double>(RL.Graph.numNodes()) /
                 static_cast<double>(RS.Graph.numNodes());
  EXPECT_LT(Ratio, 15.0);
  EXPECT_GT(Ratio, 5.0);
}

TEST(MDGBuilderTest, MethodCallBindsThis) {
  BuildResult R = buildFrom(
      "var api = { run: function(c) { sink(c); } };\n"
      "function entry(a) { api.run(a); }\n"
      "module.exports = entry;\n");
  NodeId Sink = findCall(R, "sink");
  ASSERT_NE(Sink, InvalidNode);
  NodeId A = InvalidNode;
  for (NodeId S : R.TaintSources)
    if (R.Graph.node(S).Label == "a")
      A = S;
  ASSERT_NE(A, InvalidNode);
  EXPECT_TRUE(reaches(R.Graph, A, Sink));
}

TEST(MDGBuilderTest, PrototypePollutionPatternShape) {
  // The canonical pollution shape: lookup via dynamic prop, then assign
  // via dynamic prop on the result, with attacker-controlled names/value.
  BuildResult R = buildFrom(
      "function merge(obj, key, key2, value) {\n"
      "  var child = obj[key];\n"
      "  child[key2] = value;\n"
      "}\n"
      "module.exports = merge;\n");
  const Graph &G = R.Graph;
  // Expect a node chain: obj -P(*)-> child ... -V(*)-> child' -P(*)-> value.
  bool FoundLookup = false, FoundAssign = false;
  for (NodeId N : G.nodeIds()) {
    for (const Edge &E : G.out(N)) {
      if (E.Kind == EdgeKind::PropUnknown &&
          G.node(E.From).IsTaintSource)
        FoundLookup = true;
      if (E.Kind == EdgeKind::VersionUnknown)
        FoundAssign = true;
    }
  }
  EXPECT_TRUE(FoundLookup);
  EXPECT_TRUE(FoundAssign);
}

//===----------------------------------------------------------------------===//
// Golden MDG identity: the builder's output, node for node and edge for
// edge, is pinned by a digest of Graph::dump per input. Any change to node
// allocation order, labels, edges or edge order — or to the number of
// abstract statements analyzed — changes a digest. A deliberate change to
// the builder's output must regenerate the table (the failure messages
// print the new entries).
//===----------------------------------------------------------------------===//

namespace {

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 1469598103934665603ULL;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ULL;
  }
  return H;
}

std::string stem(const std::string &Name) {
  std::string S = Name.substr(Name.find_last_of('/') + 1);
  if (S.size() > 3 && S.compare(S.size() - 3, 3, ".js") == 0)
    S.resize(S.size() - 3);
  return S;
}

/// Builds the MDG of a package the way the scanner does: per-module
/// prefixes and statement-index ranges, async lowering, and a linked
/// buildPackage for multi-file packages and dependency trees (\p PkgOf /
/// \p IsMain non-empty). Returns the digest of the dump plus the work
/// count.
uint64_t digestOf(const std::vector<scanner::SourceFile> &Files,
                  const std::vector<std::string> &PkgOf = {},
                  const std::vector<bool> &IsMain = {},
                  const std::set<std::string> &Missing = {}) {
  bool Linked = !PkgOf.empty();
  bool SingleFile = Files.size() == 1 && !Linked;
  std::vector<std::unique_ptr<core::Program>> Programs(Files.size());
  analysis::ModuleLinkInfo Link;
  Link.ForceUnresolved = Missing;
  core::StmtIndex Next = 1;
  for (size_t I = 0; I < Files.size(); ++I) {
    DiagnosticEngine Diags;
    auto AST = parseJS(Files[I].Contents, Diags);
    if (Diags.hasErrors()) {
      if (Linked) {
        Link.ForceUnresolved.insert(PkgOf[I]);
        Link.ForceUnresolved.insert(stem(Files[I].Name));
      }
      continue;
    }
    std::string Prefix = SingleFile ? ""
                         : Linked   ? PkgOf[I] + "$" + stem(Files[I].Name) + "$"
                                    : stem(Files[I].Name) + "$";
    core::Normalizer Norm(Diags, Prefix, Next);
    Programs[I] = Norm.normalize(*AST);
    core::lowerAsync(*Programs[I], Prefix);
    Next = Programs[I]->NumIndices + 1;
  }
  std::vector<analysis::PackageModule> Modules;
  for (size_t I = 0; I < Files.size(); ++I) {
    if (!Programs[I])
      continue;
    if (Linked) {
      Link.PkgOf.push_back(PkgOf[I]);
      if (IsMain[I] && !Link.ForceUnresolved.count(PkgOf[I]))
        Link.MainModuleOf.emplace(PkgOf[I], Modules.size());
      Modules.push_back({Files[I].Name, Programs[I].get(), PkgOf[I],
                         static_cast<bool>(IsMain[I])});
    } else {
      Modules.push_back({Files[I].Name, Programs[I].get(), "", false});
    }
  }
  if (Modules.empty()) {
    ADD_FAILURE() << "no module parsed";
    return 0;
  }
  BuildResult R =
      SingleFile ? buildMDG(*Programs[0])
                 : buildPackageMDG(Modules, {}, Linked ? &Link : nullptr);
  return fnv1a(R.Graph.dump(R.Props) + "work=" + std::to_string(R.WorkDone));
}

uint64_t digestOf(const workload::DepTree &T) {
  analysis::PackageGraph::FlatPlan Plan = T.Graph.flatten();
  std::vector<scanner::SourceFile> Files;
  std::vector<std::string> PkgOf;
  std::vector<bool> IsMain;
  for (const analysis::PackageGraph::FlatModule &M : Plan.Modules) {
    Files.push_back({M.Path, *M.Contents});
    PkgOf.push_back(M.Pkg);
    IsMain.push_back(M.IsMain);
  }
  return digestOf(Files, PkgOf, IsMain, Plan.MissingDeps);
}

/// Store control-flow shapes: bindings written in one branch only,
/// loops and version rewrites inside branches, recursion.
const char *const ControlFlowSnippets[] = {
    "function f(a, b) {\n"
    "  var x = a;\n"
    "  if (b) { var t = 1; } else { x = b; }\n"
    "  exec(x, t);\n"
    "}\n"
    "module.exports = f;\n",

    "function f(a, b) {\n"
    "  var x = a;\n"
    "  if (b) { x = b; }\n"
    "  sink(x);\n"
    "}\n"
    "module.exports = f;\n",

    "function f(o, k, v, n) {\n"
    "  var cur = o;\n"
    "  if (n) {\n"
    "    while (n) { cur = cur[k]; cur[k] = v; }\n"
    "  } else {\n"
    "    for (var i = 0; i < n; i++) { cur.p = cur[k]; cur = cur.p; }\n"
    "  }\n"
    "  sink(cur.x);\n"
    "}\n"
    "module.exports = f;\n",

    "function g(a, b, c) {\n"
    "  var o = {};\n"
    "  var p = o;\n"
    "  while (c) {\n"
    "    if (a) { o.x = a; } else { p.y = b; }\n"
    "    p = o.x;\n"
    "  }\n"
    "  eval(p);\n"
    "}\n"
    "module.exports = g;\n",

    "function merge(t, s, k) {\n"
    "  if (s[k]) { merge(t[k], s[k], k); } else { t[k] = s[k]; }\n"
    "  return t;\n"
    "}\n"
    "module.exports = merge;\n",

    "function h(a) {\n"
    "  if (a) { var q = a + 1; } else { var r = 2; }\n"
    "  sink(q, r);\n"
    "}\n"
    "module.exports = h;\n",
};

/// Every golden input, by name, with its current digest.
std::vector<std::pair<std::string, uint64_t>> goldenInputs() {
  std::vector<std::pair<std::string, uint64_t>> Out;
  for (size_t I = 0; I < std::size(ControlFlowSnippets); ++I)
    Out.emplace_back("snippet/" + std::to_string(I),
                     digestOf({{"index.js", ControlFlowSnippets[I]}}));
  std::vector<std::filesystem::path> Examples;
  for (const auto &E : std::filesystem::directory_iterator(GJS_EXAMPLES_JS_DIR))
    if (E.path().extension() == ".js")
      Examples.push_back(E.path());
  std::sort(Examples.begin(), Examples.end());
  for (const std::filesystem::path &P : Examples) {
    std::ifstream In(P);
    std::stringstream SS;
    SS << In.rdbuf();
    Out.emplace_back("examples/" + P.filename().string(),
                     digestOf({{P.filename().string(), SS.str()}}));
  }

  std::vector<workload::Package> Mix =
      workload::makeDataset(20261017, {4, 6, 4, 6});
  for (size_t I = 0; I < Mix.size(); ++I)
    Out.emplace_back("table3/" + std::to_string(I) + "/" + Mix[I].Name,
                     digestOf(Mix[I].Files));

  workload::DepTreeGenerator TG(12);
  using queries::VulnType;
  const VulnType Types[] = {VulnType::CommandInjection, VulnType::CodeInjection,
                            VulnType::PathTraversal,
                            VulnType::PrototypePollution};
  for (VulnType T : Types) {
    std::string N = std::to_string(static_cast<int>(T));
    for (unsigned Depth = 1; Depth <= 3; ++Depth)
      Out.emplace_back("deptree/chain/" + N + "/" + std::to_string(Depth),
                       digestOf(TG.chain(T, Depth, true)));
    Out.emplace_back("deptree/benign/" + N, digestOf(TG.chain(T, 2, false)));
    Out.emplace_back("deptree/cyclic/" + N, digestOf(TG.cyclic(T, true)));
    Out.emplace_back("deptree/missing/" + N, digestOf(TG.missingDep(T)));
    Out.emplace_back("deptree/broken/" + N, digestOf(TG.brokenDep(T)));
  }

  workload::PackageGenerator AG(12);
  const workload::AsyncForm Forms[] = {
      workload::AsyncForm::Await, workload::AsyncForm::ThenChain,
      workload::AsyncForm::PromiseExecutor,
      workload::AsyncForm::ErrorFirstCallback};
  for (workload::AsyncForm F : Forms) {
    std::string N = workload::asyncFormName(F);
    Out.emplace_back("async/vulnerable/" + N,
                     digestOf(AG.asyncVulnerable(F).Files));
    Out.emplace_back("async/benign/" + N, digestOf(AG.asyncBenign(F).Files));
  }
  return Out;
}

// clang-format off
const std::map<std::string, uint64_t> GoldenDigests = {
    {"snippet/0", 0x253e82049f0d91a1ULL},
    {"snippet/1", 0x841a03628060fc7dULL},
    {"snippet/2", 0xacc92b913339ba8bULL},
    {"snippet/3", 0x6ae308a8f97e0be2ULL},
    {"snippet/4", 0xee66cecc033a18c0ULL},
    {"snippet/5", 0x3dd8119e9c357089ULL},
    {"examples/clean_utils.js", 0xf4045a0ecbca1c5bULL},
    {"examples/figure1.js", 0xa826c95403ccd6f7ULL},
    {"examples/promise_chain.js", 0xc72c4ef6f6d413fcULL},
    {"examples/set_value.js", 0x36cb3188b63d35d3ULL},
    {"table3/0/path-0", 0x3e5a8c12acd78ae7ULL},
    {"table3/1/path-1", 0x45175c87764d0932ULL},
    {"table3/2/path-2", 0x16d4dd93f13f3492ULL},
    {"table3/3/path-3", 0x3d4f847bfe03b036ULL},
    {"table3/4/cmd-4", 0x6abbb7324ba46e1eULL},
    {"table3/5/cmd-5", 0xef626710a461a0aeULL},
    {"table3/6/cmd-6", 0xf96e76089780b044ULL},
    {"table3/7/cmd-7", 0xbda7971bc3de3b22ULL},
    {"table3/8/cmd-8", 0x8b460af22e89074aULL},
    {"table3/9/cmd-9", 0x33c0b1cb41e03b58ULL},
    {"table3/10/code-10", 0x71c96ef75ddd0eafULL},
    {"table3/11/code-11", 0x4f9f2ac722b54778ULL},
    {"table3/12/code-12", 0x27c7470e0fa445b0ULL},
    {"table3/13/code-13", 0x498a6ee4a361a8f3ULL},
    {"table3/14/proto-14", 0xc6b96d955e992da0ULL},
    {"table3/15/proto-15", 0x4c419f70fd4f03b5ULL},
    {"table3/16/proto-16", 0x26467b005acbcf00ULL},
    {"table3/17/proto-17", 0xd2bf03d4c3fc1354ULL},
    {"table3/18/proto-18", 0x2e23f94d0c8c1110ULL},
    {"table3/19/proto-19", 0xa95750bcb6edc91bULL},
    {"deptree/chain/0/1", 0x802e151f23b9971aULL},
    {"deptree/chain/0/2", 0x8cb4c598cac827f7ULL},
    {"deptree/chain/0/3", 0xfa5f4dceb92cb807ULL},
    {"deptree/benign/0", 0x8246f6373890181eULL},
    {"deptree/cyclic/0", 0x748b399dc0d6c5faULL},
    {"deptree/missing/0", 0xba14ca098860d120ULL},
    {"deptree/broken/0", 0xa39ab9579380271cULL},
    {"deptree/chain/1/1", 0xa0e8820afb70a25eULL},
    {"deptree/chain/1/2", 0x8b5e0f40071bc14fULL},
    {"deptree/chain/1/3", 0x883092d15096f79dULL},
    {"deptree/benign/1", 0xc102cfbd3eb9e387ULL},
    {"deptree/cyclic/1", 0xa118155814b5dbbfULL},
    {"deptree/missing/1", 0x0ce221b35ad8b900ULL},
    {"deptree/broken/1", 0x090bdba41a1d4468ULL},
    {"deptree/chain/2/1", 0x5e68c88786ed57f6ULL},
    {"deptree/chain/2/2", 0xe89bff3c5d12c78bULL},
    {"deptree/chain/2/3", 0x7a7a184d03a9000dULL},
    {"deptree/benign/2", 0xc7550b46f2ac334eULL},
    {"deptree/cyclic/2", 0x4a644087c3f82029ULL},
    {"deptree/missing/2", 0x9baf81b2a20bccc0ULL},
    {"deptree/broken/2", 0x2cce443252bf07e0ULL},
    {"deptree/chain/3/1", 0x050a715397a5f7a5ULL},
    {"deptree/chain/3/2", 0x6e1c7101b97a569fULL},
    {"deptree/chain/3/3", 0xad60a740ec183eb7ULL},
    {"deptree/benign/3", 0xd7008ff1f1ef0bb8ULL},
    {"deptree/cyclic/3", 0x68bad4085982532dULL},
    {"deptree/missing/3", 0x970a82f90d01e9beULL},
    {"deptree/broken/3", 0x59f1ef1211c2fb36ULL},
    {"async/vulnerable/await", 0xb41398a97d434718ULL},
    {"async/benign/await", 0x6fe4b81aff11eb5aULL},
    {"async/vulnerable/then-chain", 0x06fa20b2466fbf6aULL},
    {"async/benign/then-chain", 0x2c6aeab6941f7aceULL},
    {"async/vulnerable/promise-executor", 0x0fe10e47479c3c95ULL},
    {"async/benign/promise-executor", 0x45da78bf5d7ba3dfULL},
    {"async/vulnerable/error-first-callback", 0xa44d9cb274965e37ULL},
    {"async/benign/error-first-callback", 0x12eb9225413cd584ULL},
};
// clang-format on

} // namespace

TEST(MDGGoldenTest, DumpsMatchRecordedDigests) {
  auto Inputs = goldenInputs();
  EXPECT_EQ(Inputs.size(), GoldenDigests.size());
  for (const auto &[Name, Digest] : Inputs) {
    char Entry[160];
    std::snprintf(Entry, sizeof(Entry), "    {\"%s\", 0x%016llxULL},",
                  Name.c_str(), static_cast<unsigned long long>(Digest));
    auto It = GoldenDigests.find(Name);
    if (It == GoldenDigests.end())
      ADD_FAILURE() << "no recorded digest; entry:\n" << Entry;
    else
      EXPECT_EQ(It->second, Digest) << "MDG changed; new entry:\n" << Entry;
  }
}
