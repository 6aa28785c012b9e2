//===- tests/test_summaries.cpp - Call graph + taint summary tests ---------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
// The call graph and taint summaries behind `graphjs callgraph
// --summaries`, `--emit-summaries` and the lint `callgraph` pass: static
// call-graph construction, the bottom-up per-function taint summaries,
// the per-class pruning decision and its soundness guardrails (an
// unresolved callee on a relevant path blocks pruning), the SinkConfig
// error paths, the summary JSON round trip, and detection over the corpora
// the retired scan-path pruning stage was checked on: the scanner, which
// runs every class, reproduces the report sets recorded with pruning on.
// Also the per-file and --package `graphjs scan` paths honoring a sink
// config's sanitizers alike.
//
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "analysis/MDGBuilder.h"
#include "analysis/TaintSummary.h"
#include "core/Normalizer.h"
#include "lint/PassManager.h"
#include "queries/SinkConfig.h"
#include "scanner/Scanner.h"
#include "workload/Datasets.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include <sys/wait.h>

using namespace gjs;

namespace {

std::unique_ptr<core::Program> normalize(const std::string &Source) {
  DiagnosticEngine Diags;
  auto Program = core::normalizeJS(Source, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  return Program;
}

// The call graph keeps pointers into the normalized program, so every
// helper returns the program alongside what was derived from it.
struct Built {
  std::unique_ptr<core::Program> Program;
  analysis::CallGraph CG;
  analysis::SummarySet Sums;
  analysis::PruneDecision Decision;
};

Built graphOf(const std::string &Source) {
  Built B;
  B.Program = normalize(Source);
  B.CG = analysis::CallGraph::build(*B.Program);
  return B;
}

Built analyze(const std::string &Source) {
  Built B;
  B.Program = normalize(Source);
  std::vector<const core::Program *> Mods{B.Program.get()};
  B.CG = analysis::CallGraph::build(Mods, {""});
  B.Sums = analysis::computeSummaries(
      B.CG, Mods, queries::toSinkTable(queries::SinkConfig::defaults()));
  B.Decision = analysis::decidePruning(B.CG, B.Sums);
  return B;
}

const analysis::FunctionSummary &summaryOf(const Built &B,
                                           const std::string &Name) {
  analysis::FuncId Id = B.CG.functionByName(Name);
  EXPECT_NE(Id, analysis::InvalidFuncId) << Name;
  return B.Sums.Summaries[Id];
}

} // namespace

//===----------------------------------------------------------------------===//
// SinkConfig error paths
//===----------------------------------------------------------------------===//

TEST(SinkConfigErrors, RejectsNonObjectConfig) {
  queries::SinkConfig Out;
  std::string Error;
  EXPECT_FALSE(queries::SinkConfig::fromJSON("[1,2]", Out, &Error));
  EXPECT_EQ(Error, "sink config must be a JSON object");
}

TEST(SinkConfigErrors, RejectsMalformedJSON) {
  queries::SinkConfig Out;
  std::string Error;
  EXPECT_FALSE(queries::SinkConfig::fromJSON("{\"command-injection\": ",
                                             Out, &Error));
  EXPECT_FALSE(Error.empty());
}

TEST(SinkConfigErrors, RejectsUnknownVulnerabilityClass) {
  queries::SinkConfig Out;
  std::string Error;
  EXPECT_FALSE(queries::SinkConfig::fromJSON(
      "{\"cwe-9999\": [{\"name\": \"exec\"}]}", Out, &Error));
  EXPECT_EQ(Error, "unknown vulnerability class 'cwe-9999'");
}

TEST(SinkConfigErrors, RejectsNonArraySinkList) {
  queries::SinkConfig Out;
  std::string Error;
  EXPECT_FALSE(queries::SinkConfig::fromJSON(
      "{\"command-injection\": {\"name\": \"exec\"}}", Out, &Error));
  EXPECT_EQ(Error, "sink list for 'command-injection' must be an array");
}

TEST(SinkConfigErrors, RejectsSinkWithoutName) {
  queries::SinkConfig Out;
  std::string Error;
  EXPECT_FALSE(queries::SinkConfig::fromJSON(
      "{\"command-injection\": [{\"args\": [0]}]}", Out, &Error));
  EXPECT_EQ(Error, "each sink needs a 'name'");
}

TEST(SinkConfigErrors, RejectsNonArraySanitizers) {
  queries::SinkConfig Out;
  std::string Error;
  EXPECT_FALSE(queries::SinkConfig::fromJSON("{\"sanitizers\": \"clean\"}",
                                             Out, &Error));
  EXPECT_EQ(Error, "'sanitizers' must be an array of names");
}

//===----------------------------------------------------------------------===//
// Call-graph construction
//===----------------------------------------------------------------------===//

TEST(CallGraphTest, ResolvesDirectLocalCalls) {
  Built B = graphOf("function helper(x) { return x; }\n"
                    "function run(a) { return helper(a); }\n"
                    "module.exports = run;\n");
  const analysis::CallGraph &CG = B.CG;
  analysis::FuncId Run = CG.functionByName("run#1");
  analysis::FuncId Helper = CG.functionByName("helper#0");
  ASSERT_NE(Run, analysis::InvalidFuncId);
  ASSERT_NE(Helper, analysis::InvalidFuncId);
  EXPECT_TRUE(CG.functions()[Run].IsEntry);
  EXPECT_FALSE(CG.functions()[Helper].IsEntry);

  bool SawEdge = false;
  for (const analysis::CallSite &S : CG.sites())
    if (S.Caller == Run && S.Kind == analysis::CalleeKind::Resolved)
      for (analysis::FuncId T : S.Targets)
        SawEdge |= T == Helper;
  EXPECT_TRUE(SawEdge) << CG.dumpText();
  EXPECT_GE(CG.numResolvedEdges(), 1u);
}

TEST(CallGraphTest, ClassifiesRequireCallsAsExternal) {
  Built B = graphOf("var cp = require('child_process');\n"
                    "function f(c) { cp.exec(c); }\n"
                    "module.exports = f;\n");
  const analysis::CallGraph &CG = B.CG;
  bool SawExec = false;
  for (const analysis::CallSite &S : CG.sites())
    if (S.CalleePath == "child_process.exec") {
      SawExec = true;
      EXPECT_EQ(S.Kind, analysis::CalleeKind::External);
    }
  EXPECT_TRUE(SawExec) << CG.dumpText();
}

TEST(CallGraphTest, EscapedFunctionValueForcesUnresolved) {
  // `f` escapes into the heap, and `h` is called through a property
  // lookup: the builder's store could still reach user code there, so the
  // site must land in the Unresolved bucket (not External).
  Built B = graphOf("function f(x) { return x; }\n"
                    "var o = {};\n"
                    "o.m = f;\n"
                    "function g(a) { var h = o.m; h(a); }\n"
                    "module.exports = g;\n");
  const analysis::CallGraph &CG = B.CG;
  EXPECT_TRUE(CG.anyFunctionEscapes());
  EXPECT_GE(CG.numUnresolvedSites(), 1u) << CG.dumpText();
  analysis::FuncId F = CG.functionByName("f#0");
  ASSERT_NE(F, analysis::InvalidFuncId);
  EXPECT_TRUE(CG.functions()[F].IsEscaped);
  // Escaped functions are reachability roots: code we cannot see may
  // invoke them.
  EXPECT_TRUE(CG.reachableFromRoots()[F]);
}

TEST(CallGraphTest, SCCOrderIsReverseTopological) {
  Built B = graphOf("function even(n) { return n ? odd(n - 1) : 1; }\n"
                    "function odd(n) { return n ? even(n - 1) : 0; }\n"
                    "function top(n) { return even(n); }\n"
                    "module.exports = top;\n");
  const analysis::CallGraph &CG = B.CG;
  analysis::FuncId Even = CG.functionByName("even#0");
  analysis::FuncId Odd = CG.functionByName("odd#1");
  analysis::FuncId Top = CG.functionByName("top#2");
  ASSERT_NE(Even, analysis::InvalidFuncId);

  // even/odd form one SCC; top's SCC must come later (callees first).
  std::map<analysis::FuncId, size_t> Rank;
  const auto &SCCs = CG.sccOrder();
  for (size_t I = 0; I < SCCs.size(); ++I)
    for (analysis::FuncId F : SCCs[I])
      Rank[F] = I;
  EXPECT_EQ(Rank.at(Even), Rank.at(Odd));
  EXPECT_GT(Rank.at(Top), Rank.at(Even));
}

//===----------------------------------------------------------------------===//
// Summaries
//===----------------------------------------------------------------------===//

TEST(SummaryTest, ParamToSinkFlowThroughHelper) {
  Built B = analyze("var cp = require('child_process');\n"
                    "function wrap(s) { return s; }\n"
                    "function f(a) { cp.exec(wrap(a)); }\n"
                    "module.exports = f;\n");
  const analysis::FunctionSummary &Wrap = summaryOf(B, "wrap#0");
  EXPECT_EQ(Wrap.RetFlow & analysis::paramBit(0), analysis::paramBit(0));
  const analysis::FunctionSummary &F = summaryOf(B, "f#1");
  EXPECT_TRUE(F.HasSinkSite[analysis::SinkClassCommandInjection]);
  EXPECT_NE(F.SinkFlow[analysis::SinkClassCommandInjection] &
                analysis::paramBit(0),
            0u);
  EXPECT_FALSE(B.Decision.Prunable[analysis::SinkClassCommandInjection])
      << B.Decision.str();
}

TEST(SummaryTest, JSONRoundTripPreservesSummaries) {
  Built B = analyze("var cp = require('child_process');\n"
                    "function merge(o, k, v) { o[k] = v; return o; }\n"
                    "function f(a, b) { cp.exec(a + b); return merge({}, a, b); }\n"
                    "module.exports = f;\n");
  std::string Text = analysis::summariesToJSON(B.Sums);
  analysis::SummarySet Round;
  std::string Error;
  ASSERT_TRUE(analysis::summariesFromJSON(Text, Round, &Error)) << Error;
  ASSERT_EQ(Round.Summaries.size(), B.Sums.Summaries.size());
  for (size_t I = 0; I < Round.Summaries.size(); ++I)
    EXPECT_TRUE(Round.Summaries[I] == B.Sums.Summaries[I])
        << B.Sums.Summaries[I].Name;
}

TEST(SummaryTest, RejectsMalformedSummaryJSON) {
  analysis::SummarySet Out;
  std::string Error;
  EXPECT_FALSE(analysis::summariesFromJSON("[not json", Out, &Error));
  EXPECT_FALSE(Error.empty());
}

//===----------------------------------------------------------------------===//
// Pruning decisions and soundness guardrails
//===----------------------------------------------------------------------===//

TEST(PruneTest, BenignPackagePrunesEverything) {
  Built B = analyze("function add(a, b) { return a + b; }\n"
                    "module.exports = add;\n");
  EXPECT_TRUE(B.Decision.allPruned()) << B.Decision.str();
}

TEST(PruneTest, ConstantSinkArgumentPrunes) {
  // A sink callsite exists, but only a constant reaches it: the class's
  // flow is provably clean.
  Built B = analyze("var cp = require('child_process');\n"
                    "function f(a) { var r = 'ls'; cp.exec(r); }\n"
                    "module.exports = f;\n");
  EXPECT_TRUE(B.Decision.Prunable[analysis::SinkClassCommandInjection])
      << B.Decision.str();
}

TEST(PruneTest, TaintedExternalCallResultBlocksPrune) {
  // Identical to the above except the sink argument comes from an unknown
  // call over the tainted parameter — the builder models that result as
  // depending on its inputs, so pruning must be blocked.
  Built B = analyze("var cp = require('child_process');\n"
                    "function f(a) { var r = transform(a); cp.exec(r); }\n"
                    "module.exports = f;\n");
  EXPECT_FALSE(B.Decision.Prunable[analysis::SinkClassCommandInjection])
      << B.Decision.str();
}

TEST(PruneTest, DynamicCalleeBlocksPruneForReachableSinks) {
  // The callee itself is dynamic (a function value from the heap): the
  // summary stage cannot name the code that runs, so any class with a
  // reachable sink site stays un-pruned.
  Built B = analyze("var cp = require('child_process');\n"
                    "var handlers = {};\n"
                    "function reg(h) { handlers.h = h; }\n"
                    "function f(a) { var g = handlers.h; g(a); cp.exec(a); }\n"
                    "module.exports = { reg: reg, run: f };\n");
  EXPECT_FALSE(B.Decision.Prunable[analysis::SinkClassCommandInjection])
      << B.Decision.str();
}

TEST(PruneTest, NoTaintSourcesPrunesTaintClasses) {
  // Exported API takes no parameters: no taint sources exist, so the
  // taint-style classes are prunable even with sink callsites present.
  Built B = analyze("var cp = require('child_process');\n"
                    "function f() { cp.exec('ls'); }\n"
                    "module.exports = f;\n");
  EXPECT_TRUE(B.Decision.Prunable[analysis::SinkClassCommandInjection])
      << B.Decision.str();
}

TEST(PruneTest, PollutionKeptOnlyWithDynamicWrites) {
  Built Clean = analyze("function set(o, v) { o.fixed = v; return o; }\n"
                        "module.exports = set;\n");
  EXPECT_TRUE(Clean.Decision.Prunable[analysis::SinkClassPrototypePollution])
      << Clean.Decision.str();

  Built Dirty = analyze(
      "function set(o, k, v) { o[k] = v; return o; }\n"
      "module.exports = set;\n");
  EXPECT_FALSE(Dirty.Decision.Prunable[analysis::SinkClassPrototypePollution])
      << Dirty.Decision.str();
}

//===----------------------------------------------------------------------===//
// Lint pass
//===----------------------------------------------------------------------===//

TEST(CallGraphLintTest, CleanSourceProducesNoFindings) {
  auto Program = normalize("function even(n) { return n ? odd(n - 1) : 1; }\n"
                           "function odd(n) { return n ? even(n - 1) : 0; }\n"
                           "var cp = require('child_process');\n"
                           "function run(c) { if (even(3)) cp.exec(c); }\n"
                           "module.exports = run;\n");
  analysis::BuildResult Build = analysis::buildMDG(*Program);
  lint::PassManager PM;
  PM.addPass(lint::createCallGraphPass());
  lint::LintContext Ctx;
  Ctx.Program = Program.get();
  Ctx.Build = &Build;
  lint::LintResult LR = PM.run(Ctx);
  EXPECT_EQ(LR.errorCount(), 0u) << LR.renderText();
}

TEST(CallGraphLintTest, StandardPipelineIncludesCallGraphPass) {
  auto Program = normalize("function f(x) { return f(x); }\n"
                           "module.exports = f;\n");
  analysis::BuildResult Build = analysis::buildMDG(*Program);
  lint::LintContext Ctx;
  Ctx.Program = Program.get();
  Ctx.Build = &Build;
  lint::LintResult LR = lint::PassManager::standard().run(Ctx);
  EXPECT_EQ(LR.errorCount(), 0u) << LR.renderText();
}

//===----------------------------------------------------------------------===//
// Detection neutrality. The expected report sets were recorded with the
// retired scan-path pruning stage on (and matched the unpruned scans
// then); the scanner, which now runs every class on every package, must
// reproduce them.
//===----------------------------------------------------------------------===//

namespace {

/// A report set: "CWE@line[:sink]" per report.
std::set<std::string>
reportSet(const std::vector<queries::VulnReport> &Reports) {
  std::set<std::string> Items;
  for (const queries::VulnReport &R : Reports)
    Items.insert(std::string(queries::cweOf(R.Type)) + "@" +
                 std::to_string(R.SinkLoc.Line) +
                 (R.SinkName.empty() ? "" : ":" + R.SinkName));
  return Items;
}

void expectReports(const std::string &Name,
                   const std::vector<scanner::SourceFile> &Files,
                   const std::set<std::string> &Want) {
  EXPECT_EQ(reportSet(scanner::Scanner().scanPackage(Files).Reports), Want)
      << Name;
}

} // namespace

#ifdef GJS_EXAMPLES_JS_DIR
TEST(NeutralityTest, ExamplesScanIdenticallyWithAndWithoutPruning) {
  namespace fs = std::filesystem;
  const std::map<std::string, std::set<std::string>> Want = {
      {"clean_utils.js", {}},
      {"figure1.js", {"CWE-1321@8", "CWE-78@10:exec"}},
      {"promise_chain.js", {"CWE-78@18:exec"}},
      {"set_value.js", {"CWE-1321@11"}},
  };
  size_t Seen = 0;
  for (const fs::directory_entry &E :
       fs::directory_iterator(GJS_EXAMPLES_JS_DIR)) {
    if (E.path().extension() != ".js")
      continue;
    std::string Name = E.path().filename().string();
    auto It = Want.find(Name);
    if (It == Want.end()) {
      ADD_FAILURE() << Name << " has no recorded report set";
      continue;
    }
    std::ifstream In(E.path());
    std::ostringstream SS;
    SS << In.rdbuf();
    expectReports(Name, {{E.path().string(), SS.str()}}, It->second);
    ++Seen;
  }
  EXPECT_EQ(Seen, Want.size());
}
#endif

TEST(NeutralityTest, WorkloadCorpusScansIdenticallyWithAndWithoutPruning) {
  // A mixed corpus covering every class, complexity tier, and variant the
  // generator produces, plus the benign/safe-sink/dynamic-require shapes
  // whose pruning mattered most.
  std::vector<workload::Package> Corpus =
      workload::makeDataset(1234, {3, 3, 3, 3});
  workload::PackageGenerator Gen(99);
  Corpus.push_back(Gen.benign(10));
  Corpus.push_back(Gen.benignWithSafeSinks(10));
  Corpus.push_back(Gen.dynamicRequire(10));
  for (queries::VulnType T :
       {queries::VulnType::CommandInjection, queries::VulnType::CodeInjection,
        queries::VulnType::PathTraversal,
        queries::VulnType::PrototypePollution})
    Corpus.push_back(Gen.vulnerable(T, workload::Complexity::Recursive,
                                    workload::VariantKind::Sanitized));

  const std::vector<std::set<std::string>> Want = {
      {"CWE-22@11:unlinkSync", "CWE-22@7:readFile"}, // path-0
      {"CWE-22@12:readFileSync"},                    // path-1
      {"CWE-22@11:unlinkSync", "CWE-22@7:readFile"}, // path-2
      {"CWE-1321@7", "CWE-78@15:exec"},              // cmd-3
      {"CWE-78@4:exec"},                             // cmd-4
      {"CWE-78@11:exec", "CWE-78@5:exec"},           // cmd-5
      {"CWE-94@12:eval", "CWE-94@16:eval"},          // code-6
      {"CWE-94@12:eval"},                            // code-7
      {"CWE-94@12:Function"},                        // code-8
      {},                                            // proto-9
      {},                                            // proto-10
      {"CWE-1321@5", "CWE-1321@8"},                  // proto-11
      {},                                            // benign
      {},                                            // safe sinks only
      {"CWE-94@2:require"},                          // dynamic require
      {"CWE-78@8:exec"},     // sanitized + recursive, per class
      {"CWE-94@7:eval"},
      {"CWE-22@8:readFile"},
      {},
  };
  ASSERT_EQ(Corpus.size(), Want.size());
  for (size_t I = 0; I < Corpus.size(); ++I)
    expectReports(Corpus[I].Name, Corpus[I].Files, Want[I]);
}

TEST(NeutralityTest, PruningKeepsAnnotatedVulnerabilitiesDetected) {
  // Sanity on top of neutrality: a known-vulnerable package yields its
  // annotated report.
  workload::PackageGenerator Gen(7);
  workload::Package P =
      Gen.vulnerable(queries::VulnType::CommandInjection,
                     workload::Complexity::Wrapped,
                     workload::VariantKind::Plain);
  scanner::Scanner S{scanner::ScanOptions{}};
  scanner::ScanResult R = S.scanPackage(P.Files);
  bool Found = false;
  for (const queries::VulnReport &Rep : R.Reports)
    for (const workload::Annotation &A : P.Annotations)
      Found |= Rep.Type == A.Type && Rep.SinkLoc.Line == A.SinkLine;
  EXPECT_TRUE(Found) << "the scan lost the annotated finding";
}

//===----------------------------------------------------------------------===//
// `graphjs scan` with a sink config: both scan paths honor its sanitizers
//===----------------------------------------------------------------------===//

#ifdef GRAPHJS_BIN
namespace {

/// Writes \p Text to a fresh file under the test temp dir; returns its path.
std::string writeTemp(const std::string &Name, const std::string &Text) {
  std::string Path = ::testing::TempDir() + Name;
  std::ofstream(Path, std::ios::trunc) << Text;
  return Path;
}

int scanExitCode(const std::string &Args) {
  std::string Cmd =
      std::string(GRAPHJS_BIN) + " scan " + Args + " > /dev/null 2>&1";
  int RC = std::system(Cmd.c_str());
  return WIFEXITED(RC) ? WEXITSTATUS(RC) : -1;
}

} // namespace

TEST(SanitizerCLITest, PerFileAndPackageScansHonorConfiguredSanitizers) {
  std::string Source = writeTemp("gjs_sanitized_exec.js",
                                 "var cp = require('child_process');\n"
                                 "function f(c) {\n"
                                 "  cp.exec('git ' + escapeShell(c));\n"
                                 "}\n"
                                 "module.exports = f;\n");
  std::string Sinks = " --sinks " + writeTemp("gjs_sanitized_exec.json",
                                              R"({"command-injection":)"
                                              R"([{"name":"exec","args":[0]}],)"
                                              R"("sanitizers":["escapeShell"]})");
  std::string Unsanitized =
      " --sinks " + writeTemp("gjs_unsanitized_exec.json",
                              R"({"command-injection":)"
                              R"([{"name":"exec","args":[0]}]})");
  // Control: without the sanitizer the flow is a CWE-78 finding (exit 3).
  EXPECT_EQ(scanExitCode(Unsanitized + " " + Source), 3);
  EXPECT_EQ(scanExitCode(Unsanitized + " --package " + Source), 3);
  // With it, neither scan path reports anything.
  EXPECT_EQ(scanExitCode(Sinks + " " + Source), 0);
  EXPECT_EQ(scanExitCode(Sinks + " --package " + Source), 0);
}
#endif
