//===- tests/test_queries.cpp - Vulnerability query tests -----------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
// Exercises Table 1 traversals and Table 2 detectors on the paper's
// examples, and cross-validates the graph-database detectors (the
// scanner's only query backend) against the native traversals (the
// oracle and the scanner's partial-results fallback).
//
//===----------------------------------------------------------------------===//

#include "analysis/MDGBuilder.h"
#include "core/Normalizer.h"
#include "obs/Counters.h"
#include "queries/QueryRunner.h"
#include "scanner/Scanner.h"

#include "GoldenCorpus.h"
#include "MDGImportOracle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <thread>

using namespace gjs;
using namespace gjs::queries;

namespace {

analysis::BuildResult buildFrom(const std::string &Source) {
  DiagnosticEngine Diags;
  auto Prog = core::normalizeJS(Source, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  return analysis::buildMDG(*Prog);
}

bool hasType(const std::vector<VulnReport> &Reports, VulnType T) {
  return std::any_of(Reports.begin(), Reports.end(),
                     [&](const VulnReport &R) { return R.Type == T; });
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

//===----------------------------------------------------------------------===//
// Sink configuration
//===----------------------------------------------------------------------===//

TEST(SinkConfigTest, DefaultsCoverPaperSinks) {
  SinkConfig C = SinkConfig::defaults();
  auto Has = [&](VulnType T, const std::string &Name) {
    for (const SinkSpec &S : C.sinks(T))
      if (S.Name == Name)
        return true;
    return false;
  };
  EXPECT_TRUE(Has(VulnType::CommandInjection, "exec"));
  EXPECT_TRUE(Has(VulnType::CommandInjection, "child_process.spawn"));
  EXPECT_TRUE(Has(VulnType::CodeInjection, "eval"));
  EXPECT_TRUE(Has(VulnType::CodeInjection, "require"));
  EXPECT_TRUE(Has(VulnType::PathTraversal, "fs.readFile"));
}

TEST(SinkConfigTest, LoadsFromJSON) {
  SinkConfig C;
  std::string Error;
  ASSERT_TRUE(SinkConfig::fromJSON(
      R"({"command-injection": [{"name": "mylib.run", "args": [1]}]})", C,
      &Error))
      << Error;
  ASSERT_EQ(C.sinks(VulnType::CommandInjection).size(), 1u);
  const SinkSpec &S = C.sinks(VulnType::CommandInjection)[0];
  EXPECT_EQ(S.Name, "mylib.run");
  EXPECT_TRUE(S.isPath());
  EXPECT_FALSE(SinkConfig::argIsSensitive(S, 0));
  EXPECT_TRUE(SinkConfig::argIsSensitive(S, 1));
}

TEST(SinkConfigTest, RejectsBadJSON) {
  SinkConfig C;
  std::string Error;
  EXPECT_FALSE(SinkConfig::fromJSON("[1,2]", C, &Error));
  EXPECT_FALSE(SinkConfig::fromJSON(R"({"nope": []})", C, &Error));
  EXPECT_FALSE(
      SinkConfig::fromJSON(R"({"command-injection": [{}]})", C, &Error));
}

//===----------------------------------------------------------------------===//
// Native traversals (Table 1)
//===----------------------------------------------------------------------===//

TEST(TraversalsTest, TaintPathRespectsOverwrite) {
  // o.x = tainted; o.x = 'safe'; read o.x  — the classic UntaintedPath.
  auto Build = buildFrom(
      "function f(a) { var o = {}; o.x = a; o.x = 'safe'; g(o.x); }\n"
      "module.exports = f;\n");
  Traversals T(Build.Graph);
  ASSERT_EQ(Build.TaintSources.size(), 1u);
  mdg::NodeId Src = Build.TaintSources[0];
  // The call argument must NOT be taint-reachable.
  mdg::NodeId Call = mdg::InvalidNode;
  for (mdg::NodeId C : Build.CallNodes)
    if (Build.Graph.node(C).CallName == "g")
      Call = C;
  ASSERT_NE(Call, mdg::InvalidNode);
  std::set<mdg::NodeId> Reach = T.taintReachable(Src);
  const mdg::Node &CN = Build.Graph.node(Call);
  ASSERT_EQ(CN.Args.size(), 1u);
  for (mdg::NodeId A : CN.Args[0])
    EXPECT_FALSE(Reach.count(A))
        << "overwritten property still tainted (UntaintedPath violated)";
}

TEST(TraversalsTest, BasicPathExistsWhereTaintPathExcluded) {
  // When the tainted *object* has a property overwritten with a safe
  // literal, the path src -V(x)-> v -P(x)-> safe exists as a BasicPath but
  // matches UntaintedPath, so TaintPath must exclude it (Table 1).
  auto Build = buildFrom("function f(a) { a.x = 'safe'; g(a.x); }\n"
                         "module.exports = f;\n");
  Traversals T(Build.Graph);
  ASSERT_EQ(Build.TaintSources.size(), 1u);
  mdg::NodeId Src = Build.TaintSources[0];
  mdg::NodeId Call = Build.CallNodes.back();
  const mdg::Node &CN = Build.Graph.node(Call);
  ASSERT_EQ(CN.Args.size(), 1u);
  std::set<mdg::NodeId> Reach = T.taintReachable(Src);
  bool AnyBasic = false, AnyTaint = false;
  for (mdg::NodeId A : CN.Args[0]) {
    AnyBasic |= T.basicPathExists(Src, A);
    AnyTaint |= Reach.count(A) != 0;
  }
  EXPECT_TRUE(AnyBasic) << "BasicPath through the version chain must exist";
  EXPECT_FALSE(AnyTaint) << "TaintPath must exclude the overwritten read";
}

TEST(TraversalsTest, TaintSurvivesDifferentPropertyOverwrite) {
  auto Build = buildFrom(
      "function f(a) { var o = {}; o.x = a; o.y = 'safe'; g(o.x); }\n"
      "module.exports = f;\n");
  Traversals T(Build.Graph);
  std::set<mdg::NodeId> Reach = T.taintReachable(Build.TaintSources[0]);
  mdg::NodeId Call = Build.CallNodes.back();
  const mdg::Node &CN = Build.Graph.node(Call);
  bool Tainted = false;
  for (mdg::NodeId A : CN.Args[0])
    Tainted |= Reach.count(A) != 0;
  EXPECT_TRUE(Tainted);
}

TEST(TraversalsTest, ObjLookupAndAssignmentStar) {
  auto Build = buildFrom(
      "function merge(obj, k1, k2, v) { var c = obj[k1]; c[k2] = v; }\n"
      "module.exports = merge;\n");
  Traversals T(Build.Graph);
  auto Lookups = T.objLookupStar();
  ASSERT_FALSE(Lookups.empty());
  bool FoundAssignment = false;
  for (auto [Obj, Sub] : Lookups) {
    (void)Obj;
    if (!T.objAssignmentStar(Sub).empty())
      FoundAssignment = true;
  }
  EXPECT_TRUE(FoundAssignment);
}

//===----------------------------------------------------------------------===//
// Table 2 detectors — paper examples
//===----------------------------------------------------------------------===//

TEST(DetectorTest, Figure1CommandInjection) {
  auto Build = buildFrom(Figure1Source);
  SinkConfig C = SinkConfig::defaults();

  std::vector<VulnReport> Native = detectNative(Build, C);
  EXPECT_TRUE(hasType(Native, VulnType::CommandInjection));

  GraphDBRunner Runner(Build);
  std::vector<VulnReport> Db = Runner.detect(C);
  EXPECT_TRUE(hasType(Db, VulnType::CommandInjection));

  // The sink line must point at the exec call (line 6).
  for (const VulnReport &R : Db)
    if (R.Type == VulnType::CommandInjection)
      EXPECT_EQ(R.SinkLoc.Line, 6u);
}

TEST(DetectorTest, Figure1PrototypePollution) {
  auto Build = buildFrom(Figure1Source);
  SinkConfig C = SinkConfig::defaults();
  std::vector<VulnReport> Native = detectNative(Build, C);
  EXPECT_TRUE(hasType(Native, VulnType::PrototypePollution));
  GraphDBRunner Runner(Build);
  EXPECT_TRUE(hasType(Runner.detect(C), VulnType::PrototypePollution));
}

TEST(DetectorTest, SetValueCaseStudyPollution) {
  auto Build = buildFrom(
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
  SinkConfig C = SinkConfig::defaults();
  EXPECT_TRUE(hasType(detectNative(Build, C), VulnType::PrototypePollution));
  GraphDBRunner Runner(Build);
  EXPECT_TRUE(hasType(Runner.detect(C), VulnType::PrototypePollution));
}

TEST(DetectorTest, CodeInjectionThroughEval) {
  auto Build = buildFrom("function run(code) { eval('(' + code + ')'); }\n"
                         "module.exports = run;\n");
  SinkConfig C = SinkConfig::defaults();
  EXPECT_TRUE(hasType(detectNative(Build, C), VulnType::CodeInjection));
  GraphDBRunner Runner(Build);
  EXPECT_TRUE(hasType(Runner.detect(C), VulnType::CodeInjection));
}

TEST(DetectorTest, PathTraversalThroughFsReadFile) {
  auto Build = buildFrom(
      "var fs = require('fs');\n"
      "function read(name, cb) { fs.readFile('/data/' + name, cb); }\n"
      "module.exports = read;\n");
  SinkConfig C = SinkConfig::defaults();
  EXPECT_TRUE(hasType(detectNative(Build, C), VulnType::PathTraversal));
  GraphDBRunner Runner(Build);
  EXPECT_TRUE(hasType(Runner.detect(C), VulnType::PathTraversal));
}

TEST(DetectorTest, BenignCodeProducesNoReports) {
  auto Build = buildFrom(
      "var cp = require('child_process');\n"
      "function ok(x) { var n = 1 + 2; cp.exec('git status'); return x; }\n"
      "module.exports = ok;\n");
  SinkConfig C = SinkConfig::defaults();
  EXPECT_TRUE(detectNative(Build, C).empty());
  GraphDBRunner Runner(Build);
  EXPECT_TRUE(Runner.detect(C).empty());
}

TEST(DetectorTest, SanitizedByOverwriteIsNotReported) {
  auto Build = buildFrom(
      "var cp = require('child_process');\n"
      "function f(a) {\n"
      "  var o = {};\n"
      "  o.cmd = a;\n"
      "  o.cmd = 'git status';\n"
      "  cp.exec(o.cmd);\n"
      "}\n"
      "module.exports = f;\n");
  SinkConfig C = SinkConfig::defaults();
  EXPECT_FALSE(hasType(detectNative(Build, C), VulnType::CommandInjection));
  GraphDBRunner Runner(Build);
  EXPECT_FALSE(hasType(Runner.detect(C), VulnType::CommandInjection));
}

TEST(DetectorTest, NonSensitiveArgumentIsNotReported) {
  // Only argument 0 of exec is sensitive; a tainted callback (arg 1) is
  // not a command injection.
  auto Build = buildFrom(
      "var cp = require('child_process');\n"
      "function f(cb) { cp.exec('ls', cb); }\n"
      "module.exports = f;\n");
  SinkConfig C = SinkConfig::defaults();
  EXPECT_FALSE(hasType(detectNative(Build, C), VulnType::CommandInjection));
  GraphDBRunner Runner(Build);
  EXPECT_FALSE(hasType(Runner.detect(C), VulnType::CommandInjection));
}

//===----------------------------------------------------------------------===//
// Backend cross-validation
//===----------------------------------------------------------------------===//

class BackendAgreement : public ::testing::TestWithParam<const char *> {};

TEST_P(BackendAgreement, NativeAndGraphDBAgree) {
  auto Build = buildFrom(GetParam());
  SinkConfig C = SinkConfig::defaults();
  std::vector<VulnReport> Native = detectNative(Build, C);
  GraphDBRunner Runner(Build);
  std::vector<VulnReport> Db = Runner.detect(C);
  std::sort(Native.begin(), Native.end());
  std::sort(Db.begin(), Db.end());
  EXPECT_EQ(Native, Db) << "backends disagree on:\n" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BackendAgreement,
    ::testing::Values(
        "const { exec } = require('child_process');\n"
        "function f(c) { exec(c); }\nmodule.exports = f;\n",
        "function f(a) { var o = {}; o.x = a; eval(o.x); }\n"
        "module.exports = f;\n",
        "function merge(o, k1, k2, v) { var c = o[k1]; c[k2] = v; }\n"
        "module.exports = merge;\n",
        "var fs = require('fs');\n"
        "function f(p) { fs.readFileSync(p); }\nmodule.exports = f;\n",
        "function safe(x) { return x + 1; }\nmodule.exports = safe;\n",
        "function f(a) { var o = {}; o.c = a; o.c = 'x'; "
        "require('child_process').exec(o.c); }\nmodule.exports = f;\n"));

// The differential test: on every golden-corpus input (snippets, the
// examples, the Table 3 mix, dependency trees, async twins) and a second
// dataset sample, the native traversals report exactly what the graph DB
// reports. The scanner queries only through the graph DB, so this is
// what keeps the partial-results fallback and the benchmark replica's
// native check honest.
TEST(BackendDifferentialTest, NativeMatchesGraphDBOnGoldenCorpus) {
  std::vector<golden::Input> Inputs = golden::corpus();
  for (workload::Package &P : workload::makeDataset(202, {6, 6, 6, 6})) {
    golden::Input In;
    In.Name = "dataset/" + P.Name;
    In.Files = std::move(P.Files);
    Inputs.push_back(std::move(In));
  }
  SinkConfig C = SinkConfig::defaults();
  size_t Reported = 0;
  for (const golden::Input &In : Inputs) {
    analysis::BuildResult Build;
    if (!golden::build(In, Build))
      continue;
    std::vector<VulnReport> Native = detectNative(Build, C);
    std::vector<VulnReport> Db = GraphDBRunner(Build).detect(C);
    std::sort(Native.begin(), Native.end());
    std::sort(Db.begin(), Db.end());
    EXPECT_EQ(Native, Db) << "backends disagree on " << In.Name;
    Reported += !Db.empty();
  }
  EXPECT_GT(Reported, Inputs.size() / 2) << "the comparison must not be "
                                            "vacuous";
}

//===----------------------------------------------------------------------===//
// Scanner pipeline
//===----------------------------------------------------------------------===//

TEST(ScannerTest, EndToEndFigure1) {
  scanner::Scanner S;
  scanner::ScanResult R = S.scanSource(Figure1Source);
  EXPECT_FALSE(R.parseFailed());
  EXPECT_FALSE(R.timedOut());
  EXPECT_TRUE(R.Errors.empty());
  EXPECT_TRUE(hasType(R.Reports, VulnType::CommandInjection));
  EXPECT_TRUE(hasType(R.Reports, VulnType::PrototypePollution));
  EXPECT_GT(R.MDGNodes, 0u);
  EXPECT_GT(R.MDGEdges, 0u);
  EXPECT_GT(R.ASTNodes, 0u);
  EXPECT_GE(R.Times.total(), 0.0);
}

TEST(ScannerTest, ParseFailureIsReported) {
  scanner::Scanner S;
  scanner::ScanResult R = S.scanSource("function ( { ]");
  EXPECT_TRUE(R.parseFailed());
  ASSERT_FALSE(R.Errors.empty());
  EXPECT_EQ(R.Errors[0].Phase, scanner::ScanPhase::Parse);
  EXPECT_EQ(R.Errors[0].Kind, scanner::ScanErrorKind::ParseError);
  EXPECT_TRUE(R.Reports.empty());
}

TEST(ScannerTest, MultiFilePackageMergesReports) {
  scanner::Scanner S;
  scanner::ScanResult R = S.scanPackage(
      {{"a.js", "function f(c) { eval(c); }\nmodule.exports = f;\n"},
       {"b.js", "var cp = require('child_process');\n"
                "function g(c) { cp.exec(c); }\nmodule.exports = g;\n"}});
  EXPECT_TRUE(hasType(R.Reports, VulnType::CodeInjection));
  EXPECT_TRUE(hasType(R.Reports, VulnType::CommandInjection));
}

TEST(ScannerTest, ReportsSerializeToJSON) {
  scanner::Scanner S;
  scanner::ScanResult R = S.scanSource(Figure1Source);
  std::string J = scanner::reportsToJSON(R.Reports);
  EXPECT_NE(J.find("CWE-78"), std::string::npos);
  EXPECT_NE(J.find("\"line\""), std::string::npos);
}

TEST(ScannerTest, WorkBudgetProducesTimeout) {
  scanner::ScanOptions O;
  O.Builder.WorkBudget = 3;
  scanner::Scanner S(O);
  scanner::ScanResult R = S.scanSource(Figure1Source);
  EXPECT_TRUE(R.timedOut());
  EXPECT_TRUE(R.timedOutIn(scanner::ScanPhase::Build));
  const scanner::ScanError *First = R.firstTimeout();
  ASSERT_NE(First, nullptr);
  EXPECT_EQ(First->Kind, scanner::ScanErrorKind::Budget);
}

//===----------------------------------------------------------------------===//
// Sanitizer configuration (§6)
//===----------------------------------------------------------------------===//

TEST(SanitizerTest, ConfiguredSanitizerBreaksTaint) {
  const char *Source =
      "var cp = require('child_process');\n"
      "function f(c, cb) {\n"
      "  var safe = escapeShell(c);\n"
      "  cp.exec('git ' + safe, cb);\n"
      "}\n"
      "module.exports = f;\n";

  // Without the sanitizer declared: reported.
  scanner::Scanner Plain;
  scanner::ScanResult R1 = Plain.scanSource(Source);
  EXPECT_TRUE(hasType(R1.Reports, VulnType::CommandInjection));

  // With it declared: the barrier stops the flow.
  scanner::ScanOptions O;
  O.Sinks.addSanitizer("escapeShell");
  scanner::Scanner S(O);
  scanner::ScanResult R2 = S.scanSource(Source);
  EXPECT_FALSE(hasType(R2.Reports, VulnType::CommandInjection));
}

TEST(SanitizerTest, DottedSanitizerPathMatches) {
  const char *Source =
      "var sh = require('shell-escape');\n"
      "function f(c, cb) {\n"
      "  var safe = sh.quote(c);\n"
      "  require('child_process').exec(safe, cb);\n"
      "}\n"
      "module.exports = f;\n";
  scanner::ScanOptions O;
  O.Sinks.addSanitizer("shell-escape.quote");
  scanner::Scanner S(O);
  scanner::ScanResult R = S.scanSource(Source);
  EXPECT_FALSE(hasType(R.Reports, VulnType::CommandInjection));
}

TEST(SanitizerTest, SanitizersLoadFromJSON) {
  SinkConfig C;
  std::string Error;
  ASSERT_TRUE(SinkConfig::fromJSON(
      R"({"sanitizers": ["escapeShell", "lib.clean"],
          "command-injection": [{"name": "run", "args": [0]}]})",
      C, &Error))
      << Error;
  ASSERT_EQ(C.sanitizers().size(), 2u);
  EXPECT_EQ(C.sanitizers()[0], "escapeShell");
  EXPECT_EQ(C.sinks(VulnType::CommandInjection).size(), 1u);
}

TEST(SanitizerTest, OtherFlowsStayReported) {
  // Sanitizing one flow must not hide an unrelated one.
  const char *Source =
      "var cp = require('child_process');\n"
      "function f(a, b, cb) {\n"
      "  cp.exec('ls ' + escapeShell(a), cb);\n"
      "  cp.exec('rm ' + b, cb);\n"
      "}\n"
      "module.exports = f;\n";
  scanner::ScanOptions O;
  O.Sinks.addSanitizer("escapeShell");
  scanner::Scanner S(O);
  scanner::ScanResult R = S.scanSource(Source);
  ASSERT_EQ(R.Reports.size(), 1u);
  EXPECT_EQ(R.Reports[0].SinkLoc.Line, 4u);
}

//===----------------------------------------------------------------------===//
// Built-in query validation
//===----------------------------------------------------------------------===//

TEST(BuiltinQueryTest, MalformedSinkFailsTheScanEvenAfterAGoodConfig) {
  // A good configuration first, so its queries are parsed and validated.
  scanner::Scanner Good;
  scanner::ScanResult R1 = Good.scanSource(Figure1Source);
  EXPECT_TRUE(R1.SchemaError.empty()) << R1.SchemaError;
  EXPECT_TRUE(hasType(R1.Reports, VulnType::CommandInjection));

  // A quote in a sink name breaks its query: the scan must fail with a
  // Schema error, every time it runs.
  scanner::ScanOptions O;
  O.Sinks.addSink(VulnType::CommandInjection, {"ex'ec", {0}});
  std::string FirstError;
  for (int Run = 0; Run < 2; ++Run) {
    scanner::Scanner Bad(O);
    scanner::ScanResult R2 = Bad.scanSource(Figure1Source);
    EXPECT_NE(R2.SchemaError.find("command-injection/ex'ec"),
              std::string::npos)
        << "run " << Run << ": " << R2.SchemaError;
    if (Run == 0)
      FirstError = R2.SchemaError;
    EXPECT_EQ(R2.SchemaError, FirstError);
    bool SchemaKind = false;
    for (const scanner::ScanError &E : R2.Errors)
      SchemaKind |= E.Kind == scanner::ScanErrorKind::Schema;
    EXPECT_TRUE(SchemaKind) << "run " << Run;
  }

  // Validation verdicts are per configuration: the good one still passes,
  // the bad one fails with the scan's message.
  std::string Error;
  EXPECT_TRUE(
      GraphDBRunner::validateBuiltinQueries(SinkConfig::defaults(), &Error))
      << Error;
  EXPECT_FALSE(GraphDBRunner::validateBuiltinQueries(O.Sinks, &Error));
  EXPECT_EQ(Error, FirstError);
}

TEST(BuiltinQueryTest, ConcurrentScansShareTheMemo) {
  // Scans on several threads insert and read the process-wide memo of
  // parsed built-in queries at once; each still gets its own verdict.
  std::vector<std::thread> Threads;
  std::vector<int> Clean(4, 0), Found(4, 0);
  for (int T = 0; T < 4; ++T)
    Threads.emplace_back([&, T] {
      scanner::ScanOptions O;
      O.Sinks.addSink(VulnType::CommandInjection,
                      {"run" + std::to_string(T), {0}});
      for (int Rep = 0; Rep < 3; ++Rep) {
        scanner::ScanResult R = scanner::Scanner(O).scanSource(Figure1Source);
        Clean[T] += R.SchemaError.empty();
        Found[T] += hasType(R.Reports, VulnType::CommandInjection);
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  for (int T = 0; T < 4; ++T) {
    EXPECT_EQ(Clean[T], 3) << "thread " << T;
    EXPECT_EQ(Found[T], 3) << "thread " << T;
  }
}

//===----------------------------------------------------------------------===//
// Golden query identity: every built-in query run over the golden corpus
// (tests/GoldenCorpus.h). Two digests per input keep results and cost
// apart. The results digest covers each query's name, error, timeout
// flag, projected rows, node bindings and path bindings (nodes and
// relationships); any change to which rows the engine finds, or in which
// order, changes it. The cost digest covers matcher steps and the
// query.bindings, query.backtracks and query.rows counter deltas: it moves
// when the engine takes a different number of steps for the same rows.
// Budgets and the degradation ladder depend on both, so cost may only
// fall: each input's total steps are checked against a recorded ceiling.
//===----------------------------------------------------------------------===//

namespace {

/// Digests of one input's built-in query runs, and their total steps.
struct GoldenRun {
  uint64_t Results = 0;
  uint64_t Cost = 0;
  uint64_t Work = 0;
};

GoldenRun goldenRunOf(const golden::Input &In) {
  GoldenRun Run;
  analysis::BuildResult Build;
  if (!golden::build(In, Build))
    return Run;
  SinkConfig Config = SinkConfig::defaults();
  GraphDBRunner Runner(Build);
  bool WasOn = obs::setCountersEnabled(true);
  Run.Results = Run.Cost = golden::fnv1a("");
  for (const auto &[Name, Text] : GraphDBRunner::builtinQueries(Config)) {
    uint64_t Bindings = obs::counters::QueryBindings.value();
    uint64_t Backtracks = obs::counters::QueryBacktracks.value();
    uint64_t Rows = obs::counters::QueryRows.value();
    std::string Error;
    graphdb::ResultSet R = Runner.runQuery(Text, &Error);
    std::string D =
        Name + "|" + Error + "|timeout=" + std::to_string(R.TimedOut);
    for (const graphdb::ResultRow &Row : R.Rows) {
      D += "\n";
      for (const std::string &V : Row.Values)
        D += V + ",";
      for (const auto &[Var, Node] : Row.NodeBindings)
        D += Var + "=" + std::to_string(Node) + ";";
      for (const auto &[Var, P] : Row.PathBindings) {
        D += Var + "=";
        for (graphdb::NodeHandle N : P.Nodes)
          D += std::to_string(N) + " ";
        D += "/";
        for (graphdb::RelHandle E : P.Rels)
          D += " " + std::to_string(E);
        D += ";";
      }
    }
    Run.Results = golden::fnv1a(D, Run.Results);
    std::string C = Name + "|work=" + std::to_string(R.Work) + "|bindings=" +
                    std::to_string(obs::counters::QueryBindings.value() -
                                   Bindings) +
                    "|backtracks=" +
                    std::to_string(obs::counters::QueryBacktracks.value() -
                                   Backtracks) +
                    "|rows=" +
                    std::to_string(obs::counters::QueryRows.value() - Rows);
    Run.Cost = golden::fnv1a(C, Run.Cost);
    Run.Work += R.Work;
  }
  obs::setCountersEnabled(WasOn);
  return Run;
}

/// Every golden input's run, in corpus order (computed once per binary).
const std::vector<std::pair<std::string, GoldenRun>> &goldenRuns() {
  static const std::vector<std::pair<std::string, GoldenRun>> Runs = [] {
    std::vector<std::pair<std::string, GoldenRun>> Out;
    for (const golden::Input &In : golden::corpus())
      Out.emplace_back(In.Name, goldenRunOf(In));
    return Out;
  }();
  return Runs;
}

/// Checks one recorded figure per input: equal to the table's entry, or
/// at most it when \p Ceiling. On failure prints the table entry for the
/// current value (paste it when a change is intended; each table says
/// when that is allowed).
void checkRecorded(const std::map<std::string, uint64_t> &Table,
                   uint64_t GoldenRun::*Field, const char *Format,
                   bool Ceiling = false) {
  EXPECT_EQ(goldenRuns().size(), Table.size());
  for (const auto &[Name, Run] : goldenRuns()) {
    const uint64_t Now = Run.*Field;
    char Entry[160];
    std::snprintf(Entry, sizeof(Entry), Format, Name.c_str(),
                  static_cast<unsigned long long>(Now));
    auto It = Table.find(Name);
    if (It == Table.end())
      ADD_FAILURE() << "nothing recorded; entry:\n" << Entry;
    else
      EXPECT_TRUE(Ceiling ? Now <= It->second : Now == It->second)
          << Name << ": recorded " << It->second << "; new entry:\n"
          << Entry;
  }
}

const char *HexEntry = "    {\"%s\", 0x%016llxULL},";

// Results digests. Recorded before goal-set pruning and empty-plan proofs
// were added: those must not change a row, so never re-record these for
// an engine optimisation.
// clang-format off
const std::map<std::string, uint64_t> QueryGoldenResults = {
    {"snippet/0", 0xa069832d5ec345cfULL},
    {"snippet/1", 0x983017644768e457ULL},
    {"snippet/2", 0x3382e404a70061ffULL},
    {"snippet/3", 0x594ac7a058c0169eULL},
    {"snippet/4", 0x3896f078ec8f165dULL},
    {"snippet/5", 0x983017644768e457ULL},
    {"examples/clean_utils.js", 0x983017644768e457ULL},
    {"examples/figure1.js", 0x5963b1448977ad0bULL},
    {"examples/promise_chain.js", 0x2cbd05c545976fb7ULL},
    {"examples/set_value.js", 0xc7e3089c75b02927ULL},
    {"table3/0/path-0", 0x0e6943d309b77a66ULL},
    {"table3/1/path-1", 0x254aeb580ba0d48eULL},
    {"table3/2/path-2", 0x8656ab95b9d61dd6ULL},
    {"table3/3/path-3", 0xf13e979bba637912ULL},
    {"table3/4/cmd-4", 0x2366752556fe32bdULL},
    {"table3/5/cmd-5", 0xc8da386b6ac09a81ULL},
    {"table3/6/cmd-6", 0x087b7e4d6b71b56cULL},
    {"table3/7/cmd-7", 0xe42b9e3402f6a293ULL},
    {"table3/8/cmd-8", 0x9c4a8e187d467d86ULL},
    {"table3/9/cmd-9", 0x4a3672cdd39c4301ULL},
    {"table3/10/code-10", 0x983017644768e457ULL},
    {"table3/11/code-11", 0xab4ec08da94714d0ULL},
    {"table3/12/code-12", 0x3a1a498b9739feafULL},
    {"table3/13/code-13", 0x983017644768e457ULL},
    {"table3/14/proto-14", 0x43ecc3a437cafeb7ULL},
    {"table3/15/proto-15", 0x983017644768e457ULL},
    {"table3/16/proto-16", 0x7dfc3a838d715c4bULL},
    {"table3/17/proto-17", 0xa8a6d4a113b05a5fULL},
    {"table3/18/proto-18", 0xd74e2657ff166c1fULL},
    {"table3/19/proto-19", 0x983017644768e457ULL},
    {"deptree/chain/0/1", 0xc20177702e7ce9e5ULL},
    {"deptree/chain/0/2", 0x632d294956424755ULL},
    {"deptree/chain/0/3", 0x01f2d169ec5f4d99ULL},
    {"deptree/benign/0", 0x1146194d0c31755bULL},
    {"deptree/cyclic/0", 0x8254879b2cd8db81ULL},
    {"deptree/missing/0", 0x983017644768e457ULL},
    {"deptree/broken/0", 0x983017644768e457ULL},
    {"deptree/chain/1/1", 0xd418bc38872e21b6ULL},
    {"deptree/chain/1/2", 0xe4e228add7986ca3ULL},
    {"deptree/chain/1/3", 0xdfa70ee8571ceca6ULL},
    {"deptree/benign/1", 0x983017644768e457ULL},
    {"deptree/cyclic/1", 0x9533ea913ceef188ULL},
    {"deptree/missing/1", 0x983017644768e457ULL},
    {"deptree/broken/1", 0x983017644768e457ULL},
    {"deptree/chain/2/1", 0xfea139cdf72abc64ULL},
    {"deptree/chain/2/2", 0x726257c486c9edc8ULL},
    {"deptree/chain/2/3", 0xda11feacc86890aeULL},
    {"deptree/benign/2", 0x38d787ee27eb9743ULL},
    {"deptree/cyclic/2", 0xc994473ed7362e24ULL},
    {"deptree/missing/2", 0x983017644768e457ULL},
    {"deptree/broken/2", 0x983017644768e457ULL},
    {"deptree/chain/3/1", 0x6194850f8a369d97ULL},
    {"deptree/chain/3/2", 0xe6a156ef02713107ULL},
    {"deptree/chain/3/3", 0xfae2e61e6631e197ULL},
    {"deptree/benign/3", 0x983017644768e457ULL},
    {"deptree/cyclic/3", 0xdf96d28f728ad73fULL},
    {"deptree/missing/3", 0x983017644768e457ULL},
    {"deptree/broken/3", 0x983017644768e457ULL},
    {"async/vulnerable/await", 0x2b9bd34a8d8445f5ULL},
    {"async/benign/await", 0x40bbbbf1da4aeb7dULL},
    {"async/vulnerable/then-chain", 0x55a7f792731c7595ULL},
    {"async/benign/then-chain", 0x3e8c26cd3e59f52dULL},
    {"async/vulnerable/promise-executor", 0xc76dc2e03d48c12fULL},
    {"async/benign/promise-executor", 0xfba99f0d87601f15ULL},
    {"async/vulnerable/error-first-callback", 0xaa95a421fe95c63aULL},
    {"async/benign/error-first-callback", 0x1b8fc3e50e95a229ULL},
};
// clang-format on

// Cost digests: re-record when the engine's step accounting changes.
// clang-format off
const std::map<std::string, uint64_t> QueryGoldenCosts = {
    {"snippet/0", 0x334bf01eb674ff08ULL},
    {"snippet/1", 0x66dcc7cca65b65ddULL},
    {"snippet/2", 0xc628b078c6d02377ULL},
    {"snippet/3", 0x6ff48106e3800554ULL},
    {"snippet/4", 0xe2794f14c5280033ULL},
    {"snippet/5", 0x502a6a0a0dbd5f98ULL},
    {"examples/clean_utils.js", 0x38eaff65706c9637ULL},
    {"examples/figure1.js", 0xd11fb437be12d8b4ULL},
    {"examples/promise_chain.js", 0x621644e9fa05099eULL},
    {"examples/set_value.js", 0x3e5d16bede74a35bULL},
    {"table3/0/path-0", 0xe46e0701ad0ebc34ULL},
    {"table3/1/path-1", 0xda571335a143883aULL},
    {"table3/2/path-2", 0x09250271b0f74209ULL},
    {"table3/3/path-3", 0x096fc9d021fc6337ULL},
    {"table3/4/cmd-4", 0xc82375de07f80066ULL},
    {"table3/5/cmd-5", 0x121711e0408c27d4ULL},
    {"table3/6/cmd-6", 0x2a222607ed526216ULL},
    {"table3/7/cmd-7", 0xe3c3f59fe5eb3739ULL},
    {"table3/8/cmd-8", 0xd3f46decbfe9f046ULL},
    {"table3/9/cmd-9", 0x63f48aad05622f83ULL},
    {"table3/10/code-10", 0xe65343cd273cc4afULL},
    {"table3/11/code-11", 0x0327d616467f7b0aULL},
    {"table3/12/code-12", 0x2b0b6d02ae477e32ULL},
    {"table3/13/code-13", 0x4862540714db89cbULL},
    {"table3/14/proto-14", 0xfa8cee7ef41b6dacULL},
    {"table3/15/proto-15", 0x2a3c162a4cd547a0ULL},
    {"table3/16/proto-16", 0x20fc3fb47b5bf859ULL},
    {"table3/17/proto-17", 0xe648e82881e9b2f8ULL},
    {"table3/18/proto-18", 0x1078e8988fda2253ULL},
    {"table3/19/proto-19", 0x5a8cff6a8099e29aULL},
    {"deptree/chain/0/1", 0xda1644d2ade2d824ULL},
    {"deptree/chain/0/2", 0x856e6e6b35cf66caULL},
    {"deptree/chain/0/3", 0x67f6b473de33201dULL},
    {"deptree/benign/0", 0xeaae8feec96a984aULL},
    {"deptree/cyclic/0", 0xc554813adf1ec8f9ULL},
    {"deptree/missing/0", 0xf64bdeedac856d74ULL},
    {"deptree/broken/0", 0xf64bdeedac856d74ULL},
    {"deptree/chain/1/1", 0x0bd417bc8f599c02ULL},
    {"deptree/chain/1/2", 0xc5de921908f32325ULL},
    {"deptree/chain/1/3", 0x13e5a2655a280632ULL},
    {"deptree/benign/1", 0x1ee3bf74db4a9c60ULL},
    {"deptree/cyclic/1", 0xad0b049cb117c008ULL},
    {"deptree/missing/1", 0xf64bdeedac856d74ULL},
    {"deptree/broken/1", 0xf64bdeedac856d74ULL},
    {"deptree/chain/2/1", 0xd311a7f8e8fc2225ULL},
    {"deptree/chain/2/2", 0xb373889948a42c0eULL},
    {"deptree/chain/2/3", 0x72191c693da49fa9ULL},
    {"deptree/benign/2", 0xa107eef410375332ULL},
    {"deptree/cyclic/2", 0xc05f1798a841c976ULL},
    {"deptree/missing/2", 0xf64bdeedac856d74ULL},
    {"deptree/broken/2", 0xf64bdeedac856d74ULL},
    {"deptree/chain/3/1", 0x60ad10a317082304ULL},
    {"deptree/chain/3/2", 0x7ec8663f15426b92ULL},
    {"deptree/chain/3/3", 0x372a2260af8136f1ULL},
    {"deptree/benign/3", 0x9752a8c7b376c569ULL},
    {"deptree/cyclic/3", 0x98ed7788a9e72543ULL},
    {"deptree/missing/3", 0x21df2bb201b41f1fULL},
    {"deptree/broken/3", 0x21df2bb201b41f1fULL},
    {"async/vulnerable/await", 0x6eaee1846e8db482ULL},
    {"async/benign/await", 0x0d25177647b3156cULL},
    {"async/vulnerable/then-chain", 0xd507ac1f68ae407fULL},
    {"async/benign/then-chain", 0xcedd85375b36e224ULL},
    {"async/vulnerable/promise-executor", 0x6b745390609495f8ULL},
    {"async/benign/promise-executor", 0x70cb9c55fe560c18ULL},
    {"async/vulnerable/error-first-callback", 0x607bbf3e6a7aeabeULL},
    {"async/benign/error-first-callback", 0xbcfbcdef6f72b5f7ULL},
};
// clang-format on

// Total matcher steps per input, recorded before goal-set pruning and
// empty-plan proofs were added: a ceiling no later engine may exceed.
// clang-format off
const std::map<std::string, uint64_t> QueryGoldenWorkCeilings = {
    {"snippet/0", 968},
    {"snippet/1", 928},
    {"snippet/2", 10712},
    {"snippet/3", 1356},
    {"snippet/4", 11784},
    {"snippet/5", 778},
    {"examples/clean_utils.js", 2688},
    {"examples/figure1.js", 3962},
    {"examples/promise_chain.js", 3182},
    {"examples/set_value.js", 3868},
    {"table3/0/path-0", 24474},
    {"table3/1/path-1", 11564},
    {"table3/2/path-2", 669572},
    {"table3/3/path-3", 991422},
    {"table3/4/cmd-4", 3846756},
    {"table3/5/cmd-5", 1377094},
    {"table3/6/cmd-6", 162807},
    {"table3/7/cmd-7", 30210},
    {"table3/8/cmd-8", 183657},
    {"table3/9/cmd-9", 2014},
    {"table3/10/code-10", 932},
    {"table3/11/code-11", 169416},
    {"table3/12/code-12", 262374},
    {"table3/13/code-13", 19369718},
    {"table3/14/proto-14", 2513686},
    {"table3/15/proto-15", 2495146},
    {"table3/16/proto-16", 50328},
    {"table3/17/proto-17", 282224},
    {"table3/18/proto-18", 1014912},
    {"table3/19/proto-19", 3745608},
    {"deptree/chain/0/1", 2700},
    {"deptree/chain/0/2", 4500},
    {"deptree/chain/0/3", 6832},
    {"deptree/benign/0", 3664},
    {"deptree/cyclic/0", 7180},
    {"deptree/missing/0", 2468},
    {"deptree/broken/0", 2468},
    {"deptree/chain/1/1", 1896},
    {"deptree/chain/1/2", 3468},
    {"deptree/chain/1/3", 5686},
    {"deptree/benign/1", 2632},
    {"deptree/cyclic/1", 5960},
    {"deptree/missing/1", 2468},
    {"deptree/broken/1", 2468},
    {"deptree/chain/2/1", 2700},
    {"deptree/chain/2/2", 4500},
    {"deptree/chain/2/3", 6832},
    {"deptree/benign/2", 3664},
    {"deptree/cyclic/2", 6684},
    {"deptree/missing/2", 2468},
    {"deptree/broken/2", 2468},
    {"deptree/chain/3/1", 4394},
    {"deptree/chain/3/2", 5746},
    {"deptree/chain/3/3", 7098},
    {"deptree/benign/3", 2516},
    {"deptree/cyclic/3", 17468},
    {"deptree/missing/3", 2124},
    {"deptree/broken/3", 2124},
    {"async/vulnerable/await", 2292},
    {"async/benign/await", 1264},
    {"async/vulnerable/then-chain", 2800},
    {"async/benign/then-chain", 1544},
    {"async/vulnerable/promise-executor", 3386},
    {"async/benign/promise-executor", 1904},
    {"async/vulnerable/error-first-callback", 1818},
    {"async/benign/error-first-callback", 864},
};
// clang-format on

} // namespace

TEST(QueryGoldenTest, BuiltinQueriesMatchRecordedDigests) {
  checkRecorded(QueryGoldenResults, &GoldenRun::Results, HexEntry);
}

TEST(QueryGoldenTest, BuiltinQueryCostsMatchRecordedDigests) {
  checkRecorded(QueryGoldenCosts, &GoldenRun::Cost, HexEntry);
}

TEST(QueryGoldenTest, NoInputTakesMoreStepsThanRecorded) {
  checkRecorded(QueryGoldenWorkCeilings, &GoldenRun::Work,
                "    {\"%s\", %llu},", /*Ceiling=*/true);
}

//===----------------------------------------------------------------------===//
// The in-place store against the copying import it replaced
// (tests/MDGImportOracle.h): over every golden input, the Table 2 query
// set and queries that read each property of the schema must find the
// same rows, bindings (relationship ids included) and projected values
// at the same cost.
//===----------------------------------------------------------------------===//

namespace {

/// Queries reading label, line, site, name, path, taint and the P/V name,
/// in forward, reverse, variable-length, joined and unlabeled forms.
const std::vector<std::string> &propertyQueries() {
  static const std::vector<std::string> Queries = {
      "MATCH (n:Object) RETURN n.label, n.line, n.site, n.taint",
      "MATCH (c:Call) RETURN c.name, c.path, c.label, c.line, c.site",
      "MATCH (n) RETURN n, n.name, n.path, n.taint",
      "MATCH (n {site: '0'}) RETURN n, n.label, n.name",
      "MATCH (n:Object {label: 'this'}) RETURN n.line",
      "MATCH (c:Call {name: 'require'}) RETURN c.path, c.line",
      "MATCH (c:Call {path: 'child_process.exec'}) RETURN c.label",
      "MATCH (c:Call {name: ''}) RETURN c.path",
      "MATCH (c:Call)<-[:D]-(a) RETURN c.path, a.label, a.site",
      "MATCH (o:Object)-[:P {name: 'constructor'}]->(v) RETURN o, v.label",
      "MATCH (o:Object)-[:P {name: '__proto__'}]->(v) RETURN o.label, v",
      "MATCH p = (o:Object)-[:V {name: 'c'}]->(v:Object) RETURN o, v, p",
      "MATCH (a)-[:P|V]->(b) RETURN DISTINCT a.label, b.taint",
      "MATCH (c:Call), (n:Object {taint: 'true'}) WHERE c.line = n.line "
      "RETURN c.name, n.label",
      "MATCH (a:Object)-[:D]->(b:Object) WHERE a.label <> b.label "
      "RETURN a.label, b.label LIMIT 50",
      "MATCH (n:Object) WHERE n.line = '1' RETURN n.label, n.site",
      "MATCH p = (c:Call)<-[:D|P|PU|V|VU*1..3]-(s:Object {taint: 'true'}) "
      "WHERE NOT untainted(p) RETURN DISTINCT c.name, s.line, p",
      "MATCH p = (s:Object {taint: 'true'})-[:D|P|PU|V|VU*0..]->(a)"
      "-[:D]->(c:Call) WHERE NOT untainted(p) RETURN s.label, a.site, "
      "c.path",
  };
  return Queries;
}

/// Everything a query run returns, with the rows and bindings rendered.
std::string renderRun(const graphdb::ResultSet &R, const std::string &Error) {
  std::string D = Error + "|timeout=" + std::to_string(R.TimedOut) +
                  "|work=" + std::to_string(R.Work) +
                  "|goal=" + std::to_string(R.GoalWork) +
                  "|empty=" + std::to_string(R.EmptyPlan);
  for (const graphdb::ResultRow &Row : R.Rows) {
    D += "\n";
    for (const std::string &V : Row.Values)
      D += V + ",";
    for (const auto &[Var, Node] : Row.NodeBindings)
      D += Var + "=" + std::to_string(Node) + ";";
    for (const auto &[Var, P] : Row.PathBindings) {
      D += Var + "=";
      for (graphdb::NodeHandle N : P.Nodes)
        D += std::to_string(N) + " ";
      D += "/";
      for (graphdb::RelHandle E : P.Rels)
        D += " " + std::to_string(E);
      D += ";";
    }
  }
  return D;
}

} // namespace

TEST(MDGStoreDifferentialTest, InPlaceStoreMatchesTheImportOracle) {
  std::vector<std::string> Builtin;
  for (const auto &[Name, Text] :
       GraphDBRunner::builtinQueries(SinkConfig::defaults()))
    Builtin.push_back(Text);
  size_t Inputs = 0, Rows[2] = {0, 0};
  for (const golden::Input &In : golden::corpus()) {
    analysis::BuildResult Build;
    if (!golden::build(In, Build))
      continue;
    ++Inputs;
    graphdb::PropertyGraph Store(Build.Graph, Build.Props);
    graphdb::PropertyGraph Oracle =
        oracle::importMDG(Build.Graph, Build.Props);
    ASSERT_EQ(Store.numNodes(), Oracle.numNodes()) << In.Name;
    ASSERT_EQ(Store.numRels(), Oracle.numRels()) << In.Name;
    for (size_t Set = 0; Set < 2; ++Set)
      for (const std::string &Text : Set ? propertyQueries() : Builtin) {
        std::string Runs[2];
        for (int Backing = 0; Backing < 2; ++Backing) {
          const graphdb::PropertyGraph &DB = Backing ? Oracle : Store;
          graphdb::QueryEngine E(DB);
          GraphDBRunner::registerPredicates(E, DB);
          std::string Error;
          graphdb::ResultSet R = E.run(Text, &Error);
          Runs[Backing] = renderRun(R, Error);
          if (!Backing)
            Rows[Set] += R.Rows.size();
        }
        EXPECT_EQ(Runs[0], Runs[1]) << In.Name << ": " << Text;
      }
  }
  EXPECT_EQ(Inputs, golden::corpus().size());
  // Both sets found rows, so the comparison covered bindings and values.
  EXPECT_GT(Rows[0], 0u);
  EXPECT_GT(Rows[1], 0u);
}
