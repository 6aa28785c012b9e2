//===- tests/test_fixedcosts.cpp - Per-package fixed costs of a scan -------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
// The scan's package-independent work is done once or skipped: AST nodes
// are counted without printing, the Table 2 query set of a sink
// configuration is built once per process, and a sink the imported store
// lacks is answered without compiling its query. These tests pin that each
// shortcut gives exactly what the long way gives:
//
//  - ast::countNodes equals the line count of ast::dump on every golden
//    input (examples/js included) and a dataset sample, and the
//    parse.ast_nodes counter of a fixed sample keeps its recorded value;
//  - GraphDBRunner::detect returns the reports and query work of running
//    every builtinQueries text through runQuery with the Arg filter;
//  - a traced scan records one span per built-in query, named as before,
//    whose rows, work and empty_plan match the compiled query's;
//  - query sets are per configuration: a malformed custom sink still fails
//    after the defaults validated, and sensitive arguments are part of the
//    key.
//
//===----------------------------------------------------------------------===//

#include "GoldenCorpus.h"

#include "frontend/Parser.h"
#include "obs/Counters.h"
#include "obs/Trace.h"
#include "queries/QueryRunner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace gjs;
using queries::GraphDBRunner;
using queries::SinkConfig;
using queries::SinkSpec;
using queries::VulnReport;
using queries::VulnType;

namespace {

const VulnType TaintClasses[] = {VulnType::CommandInjection,
                                 VulnType::CodeInjection,
                                 VulnType::PathTraversal};

/// The golden corpus plus the dataset sample BackendDifferentialTest adds.
std::vector<golden::Input> queryInputs() {
  std::vector<golden::Input> Inputs = golden::corpus();
  for (workload::Package &P : workload::makeDataset(202, {6, 6, 6, 6})) {
    golden::Input In;
    In.Name = "dataset/" + P.Name;
    In.Files = std::move(P.Files);
    Inputs.push_back(std::move(In));
  }
  return Inputs;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

const std::string *argOf(const obs::SpanRecord &S, const std::string &Key) {
  for (const auto &[K, V] : S.Args)
    if (K == Key)
      return &V;
  return nullptr;
}

} // namespace

//===----------------------------------------------------------------------===//
// AST node counting
//===----------------------------------------------------------------------===//

TEST(NodeCountTest, CountsTheLinesOfTheDump) {
  std::vector<scanner::SourceFile> Files;
  for (const golden::Input &In : golden::corpus())
    Files.insert(Files.end(), In.Files.begin(), In.Files.end());
  for (const workload::Package &P : workload::makeDataset(7, {5, 5, 5, 5}))
    Files.insert(Files.end(), P.Files.begin(), P.Files.end());
  // Strings and template quasis holding newlines still dump one line each.
  Files.push_back({"newlines.js", "var s = 'a\\nb';\n"
                                  "var t = `x\ny${s}\nz`;\n"
                                  "var o = {'k\\nk': 1};\n"});
  size_t Checked = 0;
  for (const scanner::SourceFile &F : Files) {
    DiagnosticEngine Diags;
    auto P = parseJS(F.Contents, Diags);
    if (Diags.hasErrors())
      continue;
    std::string D = ast::dump(*P);
    EXPECT_EQ(ast::countNodes(*P),
              static_cast<size_t>(std::count(D.begin(), D.end(), '\n')))
        << F.Name;
    ++Checked;
  }
  EXPECT_GT(Checked, 100u);
}

TEST(NodeCountTest, DatasetSampleCounterKeepsItsRecordedValue) {
  // Recorded when countNodes still counted the lines of a printed dump.
  constexpr uint64_t RecordedAstNodes = 21301;
  bool WasOn = obs::setCountersEnabled(true);
  uint64_t Counted = 0, Reported = 0;
  for (const workload::Package &P : workload::makeDataset(7, {5, 5, 5, 5})) {
    scanner::ScanResult R = scanner::Scanner().scanPackage(P.Files);
    auto It = R.Counters.find("parse.ast_nodes");
    Counted += It == R.Counters.end() ? 0 : It->second;
    Reported += R.ASTNodes;
  }
  obs::setCountersEnabled(WasOn);
  EXPECT_EQ(Counted, RecordedAstNodes);
  EXPECT_EQ(Reported, RecordedAstNodes);
}

//===----------------------------------------------------------------------===//
// The Table 2 query set
//===----------------------------------------------------------------------===//

TEST(QuerySetTest, DetectMatchesEveryBuiltinQueryText) {
  SinkConfig C = SinkConfig::defaults();
  std::vector<std::pair<std::string, std::string>> Texts =
      GraphDBRunner::builtinQueries(C);
  size_t Reported = 0;
  for (const golden::Input &In : queryInputs()) {
    analysis::BuildResult Build;
    if (!golden::build(In, Build))
      continue;
    GraphDBRunner Runner(Build);
    queries::DetectStats Stats;
    std::vector<VulnReport> Got = Runner.detect(C, &Stats);

    // The long way: every query text compiled and run, the host-side
    // Arg_{f,n} filter, dedup per class.
    std::vector<VulnReport> Want;
    uint64_t WantWork = 0;
    size_t Q = 0;
    for (VulnType T : TaintClasses) {
      std::set<VulnReport> Dedup;
      for (const SinkSpec &Spec : C.sinks(T)) {
        ASSERT_LT(Q, Texts.size());
        std::string Error;
        graphdb::ResultSet R = Runner.runQuery(Texts[Q++].second, &Error);
        ASSERT_TRUE(Error.empty()) << Error;
        WantWork += R.Work;
        for (const graphdb::ResultRow &Row : R.Rows) {
          const mdg::Node &CN = Build.Graph.node(Row.NodeBindings.at("call"));
          mdg::NodeId Arg = Row.NodeBindings.at("arg");
          bool Sensitive = false;
          for (unsigned I = 0; I < CN.Args.size(); ++I)
            Sensitive |= SinkConfig::argIsSensitive(Spec, I) &&
                         std::count(CN.Args[I].begin(), CN.Args[I].end(), Arg);
          if (!Sensitive)
            continue;
          VulnReport Rep;
          Rep.Type = T;
          Rep.SinkLoc = CN.Loc;
          Rep.SinkName = CN.CallName;
          Rep.SinkPath = CN.CallPath;
          if (Dedup.insert(Rep).second)
            Want.push_back(Rep);
        }
      }
    }
    ASSERT_EQ(Q + 1, Texts.size());
    std::string Error;
    graphdb::ResultSet R = Runner.runQuery(Texts[Q].second, &Error);
    WantWork += R.Work;
    std::set<VulnReport> Dedup;
    for (const graphdb::ResultRow &Row : R.Rows) {
      VulnReport Rep;
      Rep.Type = VulnType::PrototypePollution;
      Rep.SinkLoc = Build.Graph.node(Row.NodeBindings.at("ver")).Loc;
      if (Dedup.insert(Rep).second)
        Want.push_back(Rep);
    }

    EXPECT_EQ(Got, Want) << In.Name;
    EXPECT_EQ(Stats.QueryWork, WantWork) << In.Name;
    Reported += !Got.empty();
  }
  EXPECT_GT(Reported, 10u) << "the comparison must not be vacuous";
}

TEST(QuerySetTest, TracedScanRecordsEveryQuerySpan) {
  obs::TraceRecorder TR;
  scanner::ScanOptions O;
  O.Trace = &TR;
  scanner::PackageBuild Kept;
  scanner::ScanResult Scan = scanner::Scanner(O).scanPackage(
      {{"figure1.js", slurp(std::string(GJS_EXAMPLES_JS_DIR) + "/figure1.js")}},
      &Kept);
  ASSERT_TRUE(Scan.Errors.empty()) << Scan.errorSummary();
  ASSERT_TRUE(Kept.Built);

  const std::vector<obs::SpanRecord> &Spans = TR.spans();
  size_t Query = obs::SpanRecord::npos;
  for (size_t I = 0; I < Spans.size(); ++I)
    if (Spans[I].Name == "query")
      Query = I;
  ASSERT_NE(Query, obs::SpanRecord::npos);
  std::vector<const obs::SpanRecord *> PerQuery;
  for (const obs::SpanRecord &S : Spans)
    if (S.Parent == Query)
      PerQuery.push_back(&S);

  // Span names as they have always been: "<class>/<sink>" per taint sink
  // in the default table's order, then prototype-pollution.
  SinkConfig C = SinkConfig::defaults();
  std::vector<std::string> Names;
  for (VulnType T : TaintClasses)
    for (const SinkSpec &Spec : C.sinks(T))
      Names.push_back(std::string(queries::vulnTypeName(T)) + "/" + Spec.Name);
  Names.push_back("prototype-pollution");
  ASSERT_EQ(PerQuery.size(), Names.size());

  // Each span's arguments are what compiling and running its text gives.
  GraphDBRunner Runner(Kept.Build);
  std::vector<std::pair<std::string, std::string>> Texts =
      GraphDBRunner::builtinQueries(C);
  size_t Empty = 0;
  for (size_t I = 0; I < Names.size(); ++I) {
    const obs::SpanRecord &S = *PerQuery[I];
    EXPECT_EQ(S.Name, Names[I]);
    graphdb::QueryProfile P;
    std::string Error;
    graphdb::ResultSet R = Runner.runQuery(Texts[I].second, &Error, &P);
    const std::string *EmptyPlan = argOf(S, "empty_plan");
    const std::string *Rows = argOf(S, "rows");
    const std::string *Work = argOf(S, "work");
    ASSERT_TRUE(EmptyPlan && Rows && Work) << S.Name;
    EXPECT_EQ(*EmptyPlan, P.EmptyPlan.empty() ? "0" : "1") << S.Name;
    EXPECT_EQ(*Rows, std::to_string(R.Rows.size())) << S.Name;
    EXPECT_EQ(*Work, std::to_string(R.Work)) << S.Name;
    Empty += *EmptyPlan == "1";
  }
  // figure1 calls exec: most sinks are absent, not all.
  EXPECT_GT(Empty, Names.size() / 2);
  EXPECT_LT(Empty, Names.size());
}

TEST(QuerySetTest, CustomConfigFailsAfterTheDefaultsValidated) {
  std::string Error;
  ASSERT_TRUE(
      GraphDBRunner::validateBuiltinQueries(SinkConfig::defaults(), &Error))
      << Error;

  // A quote in a sink name breaks its query text.
  scanner::ScanOptions O;
  O.Sinks = SinkConfig::defaults();
  O.Sinks.addSink(VulnType::PathTraversal, {"fs.re'ad", {0}});
  EXPECT_FALSE(GraphDBRunner::validateBuiltinQueries(O.Sinks, &Error));
  EXPECT_NE(Error.find("path-traversal/fs.re'ad"), std::string::npos)
      << Error;
  scanner::ScanResult R = scanner::Scanner(O).scanSource(
      slurp(std::string(GJS_EXAMPLES_JS_DIR) + "/figure1.js"));
  EXPECT_EQ(R.SchemaError, Error);
  bool SchemaKind = false;
  for (const scanner::ScanError &E : R.Errors)
    SchemaKind |= E.Kind == scanner::ScanErrorKind::Schema;
  EXPECT_TRUE(SchemaKind);

  // A fresh copy of the defaults is still clean.
  EXPECT_TRUE(
      GraphDBRunner::validateBuiltinQueries(SinkConfig::defaults(), &Error))
      << Error;
}

TEST(QuerySetTest, SensitiveArgumentsArePartOfTheKey) {
  // Same sink names, different sensitive arguments: each configuration
  // filters rows with its own arguments.
  std::string Source = slurp(std::string(GJS_EXAMPLES_JS_DIR) + "/figure1.js");
  auto CommandInjections = [&](unsigned Arg) {
    scanner::ScanOptions O;
    O.Sinks = SinkConfig();
    O.Sinks.addSink(VulnType::CommandInjection, {"exec", {Arg}});
    O.Sinks.addSink(VulnType::CommandInjection, {"child_process.exec", {Arg}});
    size_t N = 0;
    for (const VulnReport &Rep : scanner::Scanner(O).scanSource(Source).Reports)
      N += Rep.Type == VulnType::CommandInjection;
    return N;
  };
  EXPECT_EQ(CommandInjections(0), 1u);
  EXPECT_EQ(CommandInjections(1), 0u);
  EXPECT_EQ(CommandInjections(0), 1u);
}
