//===- tests/test_queries.cpp - Vulnerability query tests -----------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
// Exercises Table 1 traversals and Table 2 detectors on the paper's
// examples, and cross-validates the graph-database backend against the
// native traversals.
//
//===----------------------------------------------------------------------===//

#include "analysis/MDGBuilder.h"
#include "core/Normalizer.h"
#include "obs/Counters.h"
#include "queries/QueryRunner.h"
#include "scanner/Scanner.h"

#include "GoldenCorpus.h"

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

TEST(ScannerTest, NativeBackendOption) {
  scanner::ScanOptions O;
  O.Backend = scanner::QueryBackend::Native;
  scanner::Scanner S(O);
  scanner::ScanResult R = S.scanSource(Figure1Source);
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
// (tests/GoldenCorpus.h), digesting per query its projected rows, node
// bindings, matcher steps, timeout flag and the query.bindings,
// query.backtracks and query.rows counter deltas. Any change to which
// rows the engine finds, in which order, or to how many steps it takes
// changes a digest; budgets and the degradation ladder depend on both.
//===----------------------------------------------------------------------===//

namespace {

uint64_t queryDigestOf(const golden::Input &In) {
  analysis::BuildResult Build;
  if (!golden::build(In, Build))
    return 0;
  SinkConfig Config = SinkConfig::defaults();
  GraphDBRunner Runner(Build);
  bool WasOn = obs::setCountersEnabled(true);
  uint64_t H = golden::fnv1a("");
  for (const auto &[Name, Text] : GraphDBRunner::builtinQueries(Config)) {
    uint64_t Bindings = obs::counters::QueryBindings.value();
    uint64_t Backtracks = obs::counters::QueryBacktracks.value();
    uint64_t Rows = obs::counters::QueryRows.value();
    std::string Error;
    graphdb::ResultSet R = Runner.runQuery(Text, &Error);
    std::string D = Name + "|" + Error + "|work=" + std::to_string(R.Work) +
                    "|timeout=" + std::to_string(R.TimedOut) +
                    "|bindings=" +
                    std::to_string(obs::counters::QueryBindings.value() -
                                   Bindings) +
                    "|backtracks=" +
                    std::to_string(obs::counters::QueryBacktracks.value() -
                                   Backtracks) +
                    "|rows=" +
                    std::to_string(obs::counters::QueryRows.value() - Rows);
    for (const graphdb::ResultRow &Row : R.Rows) {
      D += "\n";
      for (const std::string &V : Row.Values)
        D += V + ",";
      for (const auto &[Var, Node] : Row.NodeBindings)
        D += Var + "=" + std::to_string(Node) + ";";
    }
    H = golden::fnv1a(D, H);
  }
  obs::setCountersEnabled(WasOn);
  return H;
}

// clang-format off
const std::map<std::string, uint64_t> QueryGoldenDigests = {
    {"snippet/0", 0x45adeb8ec07afdd7ULL},
    {"snippet/1", 0x80393a6184d7bfa9ULL},
    {"snippet/2", 0xdf77434289a633f4ULL},
    {"snippet/3", 0x41a3401208a1d38cULL},
    {"snippet/4", 0x92638d4f2165b89eULL},
    {"snippet/5", 0xa4e281f917798c8eULL},
    {"examples/clean_utils.js", 0x371caf99f019624fULL},
    {"examples/figure1.js", 0xf4b29093bcb21b63ULL},
    {"examples/promise_chain.js", 0xf0a25863ae2debf8ULL},
    {"examples/set_value.js", 0x3232fbab9afa2307ULL},
    {"table3/0/path-0", 0x3fd94fec1268c70dULL},
    {"table3/1/path-1", 0xa636d8cbd8fb5f96ULL},
    {"table3/2/path-2", 0xfe22869593789b28ULL},
    {"table3/3/path-3", 0xced35fc87d590b6dULL},
    {"table3/4/cmd-4", 0x9b1a522a9a000540ULL},
    {"table3/5/cmd-5", 0x7c48160539f85a80ULL},
    {"table3/6/cmd-6", 0x896d404f724460d6ULL},
    {"table3/7/cmd-7", 0x99234d692d5c753cULL},
    {"table3/8/cmd-8", 0xd0db46ac4deeeb17ULL},
    {"table3/9/cmd-9", 0xe0718d4940da1371ULL},
    {"table3/10/code-10", 0x4b601e8937c0c034ULL},
    {"table3/11/code-11", 0x8e4927bf9aef6dafULL},
    {"table3/12/code-12", 0xf68462b4f5401e9aULL},
    {"table3/13/code-13", 0xdc2785dbfaebce7dULL},
    {"table3/14/proto-14", 0x3588612553190546ULL},
    {"table3/15/proto-15", 0x6734ead6b4a30053ULL},
    {"table3/16/proto-16", 0xb92309a68872b78dULL},
    {"table3/17/proto-17", 0xfb2e019d409db67bULL},
    {"table3/18/proto-18", 0x6d500f90b00bee33ULL},
    {"table3/19/proto-19", 0x3931ebd686b74882ULL},
    {"deptree/chain/0/1", 0x0ea9a9591754fbf8ULL},
    {"deptree/chain/0/2", 0xee2a4c2c9672875cULL},
    {"deptree/chain/0/3", 0x078c5e14362b3e63ULL},
    {"deptree/benign/0", 0xa2676b201572cebeULL},
    {"deptree/cyclic/0", 0x98578fdad663c849ULL},
    {"deptree/missing/0", 0x7cf9b48c2c8d3394ULL},
    {"deptree/broken/0", 0x7cf9b48c2c8d3394ULL},
    {"deptree/chain/1/1", 0xbd7b8e4be4cbb7bbULL},
    {"deptree/chain/1/2", 0x2634b81f23ae0455ULL},
    {"deptree/chain/1/3", 0x35124c648ed38787ULL},
    {"deptree/benign/1", 0x5929eb56da8fd6e2ULL},
    {"deptree/cyclic/1", 0x6b8dc0a9ebc435efULL},
    {"deptree/missing/1", 0x7cf9b48c2c8d3394ULL},
    {"deptree/broken/1", 0x7cf9b48c2c8d3394ULL},
    {"deptree/chain/2/1", 0x120ce8f8ec20e7a4ULL},
    {"deptree/chain/2/2", 0x56bff982834b4745ULL},
    {"deptree/chain/2/3", 0x8889b99758b3fff2ULL},
    {"deptree/benign/2", 0xb9173a9940de3276ULL},
    {"deptree/cyclic/2", 0x376fe19661ec3933ULL},
    {"deptree/missing/2", 0x7cf9b48c2c8d3394ULL},
    {"deptree/broken/2", 0x7cf9b48c2c8d3394ULL},
    {"deptree/chain/3/1", 0xe0b61f7262308888ULL},
    {"deptree/chain/3/2", 0x96cdca23c7250789ULL},
    {"deptree/chain/3/3", 0x1abac4ab61c71e5bULL},
    {"deptree/benign/3", 0xb771408085ee9501ULL},
    {"deptree/cyclic/3", 0xf0ce529745437144ULL},
    {"deptree/missing/3", 0xda663fed1b9f8625ULL},
    {"deptree/broken/3", 0xda663fed1b9f8625ULL},
    {"async/vulnerable/await", 0xc8870218e1237ff2ULL},
    {"async/benign/await", 0x7388e3a0dc27f674ULL},
    {"async/vulnerable/then-chain", 0xfa60f13408599f3bULL},
    {"async/benign/then-chain", 0x5125aa59c51c9dbcULL},
    {"async/vulnerable/promise-executor", 0x84861a0fb4b1e916ULL},
    {"async/benign/promise-executor", 0x120ceb527d35e2a4ULL},
    {"async/vulnerable/error-first-callback", 0xf45dbead71ca0576ULL},
    {"async/benign/error-first-callback", 0xf5ed594120d3398fULL},
};
// clang-format on

} // namespace

TEST(QueryGoldenTest, BuiltinQueriesMatchRecordedDigests) {
  std::vector<golden::Input> Inputs = golden::corpus();
  EXPECT_EQ(Inputs.size(), QueryGoldenDigests.size());
  for (const golden::Input &In : Inputs) {
    uint64_t Digest = queryDigestOf(In);
    char Entry[160];
    std::snprintf(Entry, sizeof(Entry), "    {\"%s\", 0x%016llxULL},",
                  In.Name.c_str(), static_cast<unsigned long long>(Digest));
    auto It = QueryGoldenDigests.find(In.Name);
    if (It == QueryGoldenDigests.end())
      ADD_FAILURE() << "no recorded digest; entry:\n" << Entry;
    else
      EXPECT_EQ(It->second, Digest) << "query results changed; new entry:\n"
                                    << Entry;
  }
}
