//===- tests/test_pkggraph.cpp - Cross-package linking tests ---------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
// The cross-package summary linker: dependency-tree discovery (manifest and
// npm on-disk layout), the package DAG with SCC collapse, flattening, the
// linked scan (`scanDependencyTree`) — and the acceptance bars:
//
//  - a sink buried 3–4 dependency levels below the scan root is detected by
//    the linked scan and missed by an isolated root-only scan;
//  - a missing or unparseable dependency trips the soundness valve: the
//    linked call graph keeps every class whose flow leads into it (no
//    pruning decision through code we cannot see), and the linked scans
//    reproduce the report sets recorded with the retired scan-path
//    pruning stage on;
//  - per-package summary JSON round-trips, and a schema-version mismatch is
//    an error, not a silent degradation;
//  - the pkggraph lint pass reports dangling deps, cycles, and summary
//    version mismatches;
//  - batch `--stats` arithmetic survives empty corpora (no NaN/inf).
//
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "analysis/PackageGraph.h"
#include "analysis/TaintSummary.h"
#include "driver/BatchDriver.h"
#include "lint/PassManager.h"
#include "queries/SinkConfig.h"
#include "scanner/Scanner.h"
#include "support/JSON.h"
#include "workload/DepTrees.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

using namespace gjs;
using queries::VulnType;
using workload::DepTree;
using workload::DepTreeGenerator;

namespace {

scanner::ScanResult scanTree(const analysis::PackageGraph &G) {
  scanner::Scanner S;
  return S.scanDependencyTree(G);
}

/// The isolated baseline: only the scan root's own files, dependencies
/// invisible (what per-package batch scanning sees).
scanner::ScanResult scanRootOnly(const analysis::PackageGraph &G) {
  const analysis::PackageInfo &Root = G.packages()[G.rootIndex()];
  std::vector<scanner::SourceFile> Files;
  for (const analysis::PackageFile &F : Root.Files)
    Files.push_back({F.Path, F.Contents});
  scanner::Scanner S;
  return S.scanPackage(Files);
}

/// The scanner's front half over the flattened tree, stopped before the
/// build: the linked call graph's and the summaries' inputs.
scanner::PackageBuild linkedFrontHalf(const analysis::PackageGraph &G) {
  std::vector<scanner::SourceFile> Files;
  scanner::PackageLinkSpec Spec = scanner::PackageLinkSpec::ofTree(G, Files);
  scanner::PackageBuild B;
  scanner::runFrontHalf(Files, scanner::ScanOptions(), B,
                        /*WithBuild=*/false, &Spec);
  return B;
}

std::string uniqueTempDir(const std::string &Tag) {
  std::filesystem::path P = std::filesystem::path(::testing::TempDir()) /
                            ("pkggraph_" + Tag + "_" +
                             std::to_string(::getpid()));
  std::filesystem::remove_all(P);
  return P.string();
}

} // namespace

//===----------------------------------------------------------------------===//
// Package graph construction: topo order, SCC collapse, missing synthesis
//===----------------------------------------------------------------------===//

TEST(PackageGraph, ChainLinkOrderIsBottomUp) {
  DepTreeGenerator Gen(1);
  DepTree T = Gen.chain(VulnType::CommandInjection, 3, true);
  const analysis::PackageGraph &G = T.Graph;
  ASSERT_EQ(G.packages().size(), 4u);
  EXPECT_FALSE(G.hasCycles());
  EXPECT_FALSE(G.hasMissing());

  // Dependencies first: the deepest package links before its dependents,
  // the root last.
  const auto &Order = G.linkOrder();
  ASSERT_EQ(Order.size(), 4u);
  EXPECT_EQ(G.packages()[Order.front().front()].Name, T.SinkPackage);
  EXPECT_EQ(Order.back().front(), G.rootIndex());
  for (const auto &SCC : Order)
    EXPECT_EQ(SCC.size(), 1u);
}

TEST(PackageGraph, CyclicDepsCollapseIntoOneSCC) {
  DepTreeGenerator Gen(2);
  DepTree T = Gen.cyclic(VulnType::CodeInjection, true);
  const analysis::PackageGraph &G = T.Graph;
  EXPECT_TRUE(G.hasCycles());
  auto Cycles = G.cycles();
  ASSERT_EQ(Cycles.size(), 1u);
  EXPECT_EQ(Cycles[0].size(), 2u);

  // The cycle is one component of the link order; the root still links
  // after it.
  bool SawCycleGroup = false;
  for (const auto &SCC : G.linkOrder())
    if (SCC.size() == 2)
      SawCycleGroup = true;
  EXPECT_TRUE(SawCycleGroup);
  EXPECT_EQ(G.linkOrder().back().front(), G.rootIndex());
}

TEST(PackageGraph, DanglingDepSynthesizesMissingPackage) {
  DepTreeGenerator Gen(3);
  DepTree T = Gen.missingDep(VulnType::PathTraversal, 2);
  const analysis::PackageGraph &G = T.Graph;
  EXPECT_TRUE(G.hasMissing());
  auto Missing = G.missingNames();
  ASSERT_EQ(Missing.size(), 1u);

  // The flattened plan routes the name into the unresolved-name set; the
  // missing package contributes no modules.
  analysis::PackageGraph::FlatPlan Plan = G.flatten();
  EXPECT_EQ(Plan.MissingDeps.count(Missing[0]), 1u);
  for (const auto &M : Plan.Modules)
    EXPECT_NE(M.Pkg, Missing[0]);
}

//===----------------------------------------------------------------------===//
// Manifest round trip and on-disk discovery
//===----------------------------------------------------------------------===//

TEST(PackageGraph, ManifestMaterializeDiscoverRoundTrip) {
  DepTreeGenerator Gen(4);
  DepTree T = Gen.chain(VulnType::CodeInjection, 3, true);
  std::string Dir = uniqueTempDir("roundtrip");
  std::string Error;
  ASSERT_TRUE(workload::materialize(T, Dir, &Error)) << Error;

  analysis::PackageGraph G;
  ASSERT_TRUE(analysis::PackageGraph::discover(Dir, G, &Error)) << Error;
  ASSERT_EQ(G.packages().size(), T.Graph.packages().size());
  for (const analysis::PackageInfo &P : T.Graph.packages()) {
    size_t I = G.indexOf(P.Name);
    ASSERT_LT(I, G.packages().size()) << P.Name;
    EXPECT_EQ(G.packages()[I].Version, P.Version);
    EXPECT_EQ(G.packages()[I].Deps, P.Deps);
    ASSERT_EQ(G.packages()[I].Files.size(), P.Files.size());
    EXPECT_EQ(G.packages()[I].Files[0].Contents, P.Files[0].Contents);
  }
  EXPECT_EQ(G.packages()[G.rootIndex()].Name,
            T.Graph.packages()[T.Graph.rootIndex()].Name);
  std::filesystem::remove_all(Dir);
}

TEST(PackageGraph, DiscoverNodeModulesLayout) {
  // npm layout, no manifest: package.json + node_modules/, nested dep
  // resolved from the root's node_modules (flat install).
  namespace fs = std::filesystem;
  std::string Dir = uniqueTempDir("npm");
  fs::create_directories(fs::path(Dir) / "node_modules" / "liba");
  fs::create_directories(fs::path(Dir) / "node_modules" / "libb");
  auto W = [](const fs::path &P, const std::string &Text) {
    std::ofstream Out(P);
    Out << Text;
  };
  W(fs::path(Dir) / "package.json",
    "{\"name\":\"app\",\"version\":\"1.0.0\",\"main\":\"index.js\","
    "\"dependencies\":{\"liba\":\"^1\"}}");
  W(fs::path(Dir) / "index.js",
    "var d = require('liba');\n"
    "function run(a, b) { return d.process(a, b); }\n"
    "module.exports = run;\n");
  W(fs::path(Dir) / "node_modules" / "liba" / "package.json",
    "{\"name\":\"liba\",\"version\":\"2.0.0\",\"main\":\"index.js\","
    "\"dependencies\":{\"libb\":\"^1\"}}");
  W(fs::path(Dir) / "node_modules" / "liba" / "index.js",
    "var d = require('libb');\n"
    "function process(x, cb) { return d.process('p' + x, cb); }\n"
    "exports.process = process;\n");
  W(fs::path(Dir) / "node_modules" / "libb" / "package.json",
    "{\"name\":\"libb\",\"version\":\"3.0.0\",\"main\":\"index.js\"}");
  W(fs::path(Dir) / "node_modules" / "libb" / "index.js",
    "var cp = require('child_process');\n"
    "function process(x, cb) { cp.exec('run ' + x, cb); }\n"
    "exports.process = process;\n");

  analysis::PackageGraph G;
  std::string Error;
  ASSERT_TRUE(analysis::PackageGraph::discover(Dir, G, &Error)) << Error;
  ASSERT_EQ(G.packages().size(), 3u);
  EXPECT_LT(G.indexOf("liba"), G.packages().size());
  EXPECT_LT(G.indexOf("libb"), G.packages().size());
  EXPECT_FALSE(G.hasMissing());

  // And the linked scan sees the flow through both packages.
  scanner::ScanResult R = scanTree(G);
  ASSERT_EQ(R.Reports.size(), 1u);
  EXPECT_EQ(R.Reports[0].Type, VulnType::CommandInjection);
  EXPECT_EQ(R.LinkedPackages, 3u);
  std::filesystem::remove_all(Dir);
}

TEST(PackageGraph, ManifestSchemaMismatchIsAnError) {
  analysis::PackageGraph G;
  std::string Error;
  EXPECT_FALSE(analysis::PackageGraph::fromManifest(
      "{\"schema\": 99, \"root\": \"x\", \"packages\": []}", ".", G, &Error));
  EXPECT_NE(Error.find("schema"), std::string::npos) << Error;
}

//===----------------------------------------------------------------------===//
// The acceptance bar: buried sinks, linked vs isolated
//===----------------------------------------------------------------------===//

namespace {

void expectBuriedSinkDetected(VulnType Type, unsigned Depth) {
  DepTreeGenerator Gen(10 + Depth);
  DepTree T = Gen.chain(Type, Depth, /*Vulnerable=*/true);

  scanner::ScanResult Linked = scanTree(T.Graph);
  ASSERT_FALSE(Linked.Reports.empty())
      << "depth-" << Depth << " sink missed by the linked scan";
  EXPECT_EQ(Linked.Reports[0].Type, Type);
  EXPECT_EQ(Linked.LinkedPackages, Depth + 1);
  EXPECT_TRUE(Linked.MissingDeps.empty());

  // The isolated root-only scan cannot see the flow: the require of the
  // first dependency is an external call.
  scanner::ScanResult Isolated = scanRootOnly(T.Graph);
  EXPECT_TRUE(Isolated.Reports.empty())
      << "isolated scan should miss the buried sink";
}

} // namespace

TEST(CrossPackageDetection, Depth3GraphDB) {
  expectBuriedSinkDetected(VulnType::CommandInjection, 3);
}

TEST(CrossPackageDetection, Depth4GraphDB) {
  expectBuriedSinkDetected(VulnType::CodeInjection, 4);
}

TEST(CrossPackageDetection, Depth1EveryClass) {
  // Depth 1 (root -> sink package) for all four classes.
  for (VulnType Type :
       {VulnType::CommandInjection, VulnType::CodeInjection,
        VulnType::PathTraversal, VulnType::PrototypePollution}) {
    DepTreeGenerator Gen(20);
    DepTree T = Gen.chain(Type, 1, true);
    scanner::ScanResult R = scanTree(T.Graph);
    ASSERT_FALSE(R.Reports.empty()) << queries::vulnTypeName(Type);
    EXPECT_EQ(R.Reports[0].Type, Type) << queries::vulnTypeName(Type);
  }
}

TEST(CrossPackageDetection, BenignChainStaysClean) {
  DepTreeGenerator Gen(30);
  DepTree T = Gen.chain(VulnType::CommandInjection, 3, /*Vulnerable=*/false);
  EXPECT_TRUE(scanTree(T.Graph).Reports.empty());
}

TEST(CrossPackageDetection, CyclicTreeDetectedBothBackends) {
  // The native traversals' side: BackendDifferentialTest (test_queries.cpp)
  // runs the golden corpus's cyclic trees through both detectors.
  DepTreeGenerator Gen(40);
  DepTree T = Gen.cyclic(VulnType::CommandInjection, /*Vulnerable=*/true);
  scanner::ScanResult R = scanTree(T.Graph);
  ASSERT_FALSE(R.Reports.empty());
  EXPECT_EQ(R.Reports[0].Type, VulnType::CommandInjection);
}

TEST(CrossPackageDetection, PruningIsDetectionNeutralOnTrees) {
  // Linked scans of vulnerable, benign, and cyclic trees reproduce the
  // findings recorded with the retired scan-path pruning stage on (which
  // matched the unpruned scans then).
  DepTreeGenerator Gen(50);
  std::vector<DepTree> Trees;
  Trees.push_back(Gen.chain(VulnType::CommandInjection, 2, true));
  Trees.push_back(Gen.chain(VulnType::PathTraversal, 3, true));
  Trees.push_back(Gen.chain(VulnType::CodeInjection, 3, false));
  Trees.push_back(Gen.cyclic(VulnType::PrototypePollution, true));
  // "CWE@line[:sink]" per report, one entry per tree.
  const std::vector<std::set<std::string>> Want = {
      {"CWE-78@4:exec"}, {"CWE-22@4:readFile"}, {}, {"CWE-1321@7"}};
  for (size_t I = 0; I < Trees.size(); ++I) {
    std::set<std::string> Got;
    for (const queries::VulnReport &R : scanTree(Trees[I].Graph).Reports)
      Got.insert(std::string(queries::cweOf(R.Type)) + "@" +
                 std::to_string(R.SinkLoc.Line) +
                 (R.SinkName.empty() ? "" : ":" + R.SinkName));
    EXPECT_EQ(Got, Want[I]) << "tree " << I;
  }
}

//===----------------------------------------------------------------------===//
// The cross-package soundness valve
//===----------------------------------------------------------------------===//

namespace {

void expectValveHolds(const DepTree &T, VulnType Type) {
  // The class whose flow leads into the invisible dependency must never be
  // pruned: its sink (if any) lives in code we cannot see.
  scanner::PackageBuild B = linkedFrontHalf(T.Graph);
  analysis::CallGraph CG =
      analysis::CallGraph::build(B.Mods, B.ModStems, true, &B.Link);
  analysis::SummarySet Sums = analysis::computeSummaries(
      CG, B.Mods, queries::toSinkTable(queries::SinkConfig::defaults()));
  std::string Decision =
      analysis::decidePruning(CG, Sums, !B.Link.ForceUnresolved.empty()).str();
  std::string Cwe = queries::cweOf(Type);
  EXPECT_EQ(Decision.find(Cwe + ":pruned"), std::string::npos)
      << "pruned a query through the valve: " << Decision;

  // The linked scan reports nothing, as recorded when the scanner still
  // pruned: the sink is not in the code it analyzed.
  EXPECT_TRUE(scanTree(T.Graph).Reports.empty());
}

} // namespace

TEST(SoundnessValve, MissingDependencyBlocksPruningBothBackends) {
  DepTreeGenerator Gen(60);
  DepTree T = Gen.missingDep(VulnType::CommandInjection, 2);
  ASSERT_FALSE(scanTree(T.Graph).MissingDeps.empty());
  expectValveHolds(T, VulnType::CommandInjection);
}

TEST(SoundnessValve, UnparseableDependencyBlocksPruningBothBackends) {
  DepTreeGenerator Gen(70);
  DepTree T = Gen.brokenDep(VulnType::CodeInjection, 2);
  expectValveHolds(T, VulnType::CodeInjection);
}

TEST(SoundnessValve, MissingDepSurfacesInScanResult) {
  DepTreeGenerator Gen(80);
  DepTree T = Gen.missingDep(VulnType::PathTraversal, 3);
  scanner::ScanResult R = scanTree(T.Graph);
  ASSERT_EQ(R.MissingDeps.size(), 1u);
  EXPECT_EQ(R.MissingDeps[0], T.Graph.missingNames()[0]);
}

//===----------------------------------------------------------------------===//
// Per-package summary JSON
//===----------------------------------------------------------------------===//

TEST(PackageSummaries, SliceAndRoundTrip) {
  DepTreeGenerator Gen(90);
  DepTree T = Gen.chain(VulnType::CommandInjection, 2, true);
  scanner::PackageBuild B = linkedFrontHalf(T.Graph);
  analysis::CallGraph CG =
      analysis::CallGraph::build(B.Mods, B.ModStems, true, &B.Link);
  analysis::SummarySet Sums = analysis::computeSummaries(
      CG, B.Mods, queries::toSinkTable(queries::SinkConfig::defaults()));
  std::vector<analysis::PackageSummaries> Slices =
      analysis::slicePackageSummaries(T.Graph, CG, Sums, B.Link);
  ASSERT_EQ(Slices.size(), 3u); // root + dep1 + dep2, one module each

  size_t TotalFuncs = 0;
  for (const analysis::PackageSummaries &PS : Slices) {
    TotalFuncs += PS.Sums.Summaries.size();
    std::string Text = analysis::packageSummaryToJSON(PS);
    analysis::PackageSummaries Back;
    std::string Error;
    ASSERT_TRUE(analysis::packageSummaryFromJSON(Text, Back, &Error))
        << Error;
    EXPECT_EQ(Back.Package, PS.Package);
    EXPECT_EQ(Back.Version, PS.Version);
    EXPECT_EQ(Back.Schema, analysis::PackageSummarySchemaVersion);
    EXPECT_EQ(Back.Sums.Summaries.size(), PS.Sums.Summaries.size());
  }
  EXPECT_EQ(TotalFuncs, Sums.Summaries.size());
}

TEST(PackageSummaries, SchemaMismatchRejected) {
  DepTreeGenerator Gen(91);
  DepTree T = Gen.chain(VulnType::CodeInjection, 1, true);
  scanner::PackageBuild B = linkedFrontHalf(T.Graph);
  analysis::CallGraph CG =
      analysis::CallGraph::build(B.Mods, B.ModStems, true, &B.Link);
  analysis::SummarySet Sums = analysis::computeSummaries(
      CG, B.Mods, queries::toSinkTable(queries::SinkConfig::defaults()));
  std::vector<analysis::PackageSummaries> Slices =
      analysis::slicePackageSummaries(T.Graph, CG, Sums, B.Link);
  ASSERT_FALSE(Slices.empty());

  // Tamper the schema version: load must fail, loudly.
  json::Value V;
  ASSERT_TRUE(json::parse(analysis::packageSummaryToJSON(Slices[0]), V));
  V.asObject()["schema"] = json::Value(99);
  analysis::PackageSummaries Back;
  std::string Error;
  EXPECT_FALSE(
      analysis::packageSummaryFromJSON(json::Value(V).str(), Back, &Error));
  EXPECT_NE(Error.find("schema"), std::string::npos) << Error;
}

//===----------------------------------------------------------------------===//
// The pkggraph lint pass
//===----------------------------------------------------------------------===//

namespace {

std::vector<lint::Finding> runPkgGraphLint(lint::LintContext &Ctx) {
  lint::PassManager PM;
  PM.addPass(lint::createPkgGraphPass());
  lint::LintResult LR = PM.run(Ctx);
  return LR.findings();
}

size_t countCheck(const std::vector<lint::Finding> &Fs,
                  const std::string &Check) {
  size_t N = 0;
  for (const lint::Finding &F : Fs)
    if (F.Check == Check)
      ++N;
  return N;
}

} // namespace

TEST(PkgGraphLint, ReportsDanglingDeps) {
  DepTreeGenerator Gen(100);
  DepTree T = Gen.missingDep(VulnType::CommandInjection, 2);
  lint::LintContext Ctx;
  Ctx.Packages = &T.Graph;
  auto Findings = runPkgGraphLint(Ctx);
  EXPECT_EQ(countCheck(Findings, "dangling-dep"), 1u);
  EXPECT_EQ(countCheck(Findings, "dep-cycle"), 0u);
}

TEST(PkgGraphLint, ReportsCycles) {
  DepTreeGenerator Gen(101);
  DepTree T = Gen.cyclic(VulnType::CodeInjection, true);
  lint::LintContext Ctx;
  Ctx.Packages = &T.Graph;
  auto Findings = runPkgGraphLint(Ctx);
  EXPECT_EQ(countCheck(Findings, "dep-cycle"), 1u);
}

TEST(PkgGraphLint, CleanTreeIsClean) {
  DepTreeGenerator Gen(102);
  DepTree T = Gen.chain(VulnType::PathTraversal, 3, true);
  lint::LintContext Ctx;
  Ctx.Packages = &T.Graph;
  EXPECT_TRUE(runPkgGraphLint(Ctx).empty());
}

TEST(PkgGraphLint, ReportsSummaryVersionMismatch) {
  DepTreeGenerator Gen(103);
  DepTree T = Gen.chain(VulnType::CommandInjection, 1, true);
  lint::LintContext Ctx;
  Ctx.Packages = &T.Graph;

  // Bad schema, unknown package, and a version that disagrees with the
  // tree: one summary-version error each.
  Ctx.PackageSummaries.emplace_back(
      "bad.json", "{\"schema\": 99, \"package\": \"x\", \"version\": \"1\","
                  " \"summaries\": {\"functions\": []}}");
  Ctx.PackageSummaries.emplace_back(
      "stranger.json",
      "{\"schema\": 1, \"package\": \"not-in-tree\", \"version\": \"1\","
      " \"summaries\": {\"functions\": []}}");
  const analysis::PackageInfo &Root =
      T.Graph.packages()[T.Graph.rootIndex()];
  Ctx.PackageSummaries.emplace_back(
      "stale.json", "{\"schema\": 1, \"package\": \"" + Root.Name +
                        "\", \"version\": \"0.0.1-stale\","
                        " \"summaries\": {\"functions\": []}}");
  auto Findings = runPkgGraphLint(Ctx);
  EXPECT_EQ(countCheck(Findings, "summary-version"), 3u);
  for (const lint::Finding &F : Findings)
    EXPECT_EQ(F.Severity, DiagSeverity::Error) << F.str();
}

//===----------------------------------------------------------------------===//
// Batch stats hardening + journal link fields
//===----------------------------------------------------------------------===//

TEST(BatchStats, EmptyCorpusHasNoNaN) {
  driver::BatchSummary Empty;
  std::string Text = driver::batchStatsText(Empty);
  EXPECT_EQ(Text.find("nan"), std::string::npos) << Text;
  EXPECT_EQ(Text.find("inf"), std::string::npos) << Text;
  EXPECT_NE(Text.find("0 scanned"), std::string::npos) << Text;
}

TEST(BatchStats, ResumeOnlyRunHasNoNaN) {
  // Everything skipped via --resume: zero scans, zero wall, zero queries.
  driver::BatchSummary S;
  S.SkippedResumed = 3;
  for (int I = 0; I < 3; ++I) {
    driver::BatchOutcome O;
    O.Package = "p" + std::to_string(I);
    O.Skipped = true;
    S.Outcomes.push_back(std::move(O));
  }
  std::string Text = driver::batchStatsText(S);
  EXPECT_EQ(Text.find("nan"), std::string::npos) << Text;
  EXPECT_EQ(Text.find("inf"), std::string::npos) << Text;
}

TEST(BatchJournal, LinkFieldsRoundTrip) {
  driver::BatchOutcome O;
  O.Package = "tree-root";
  O.Status = driver::BatchStatus::Ok;
  O.Result.LinkedPackages = 4;
  O.Result.MissingDeps = {"left-pad", "right-pad"};
  std::string Line = driver::BatchDriver::journalLine(O);

  driver::BatchOutcome Back;
  ASSERT_TRUE(driver::BatchDriver::parseJournalLine(Line, Back));
  EXPECT_EQ(Back.Result.LinkedPackages, 4u);
  ASSERT_EQ(Back.Result.MissingDeps.size(), 2u);
  EXPECT_EQ(Back.Result.MissingDeps[0], "left-pad");
  EXPECT_EQ(Back.Result.MissingDeps[1], "right-pad");
}

//===----------------------------------------------------------------------===//
// CLI round trips
//===----------------------------------------------------------------------===//

#ifdef GRAPHJS_BIN

namespace {

int runCLI(const std::string &Args) {
  std::string Cmd =
      std::string(GRAPHJS_BIN) + " " + Args + " > /dev/null 2>&1";
  int RC = std::system(Cmd.c_str());
  return WIFEXITED(RC) ? WEXITSTATUS(RC) : -1;
}

} // namespace

TEST(CLI, WithDepsDetectsBuriedSinkRootOnlyMisses) {
  DepTreeGenerator Gen(110);
  DepTree T = Gen.chain(VulnType::CommandInjection, 3, true);
  std::string Dir = uniqueTempDir("cli");
  std::string Error;
  ASSERT_TRUE(workload::materialize(T, Dir, &Error)) << Error;

  // Exit 3 = findings present; exit 0 = clean.
  EXPECT_EQ(runCLI("scan --with-deps --summary " + Dir), 3);
  std::string RootIndex =
      (std::filesystem::path(Dir) /
       T.Graph.packages()[T.Graph.rootIndex()].Name / "index.js")
          .string();
  EXPECT_EQ(runCLI("scan " + RootIndex), 0);
  std::filesystem::remove_all(Dir);
}

TEST(CLI, WithDepsEmitsPackageSummaries) {
  DepTreeGenerator Gen(111);
  DepTree T = Gen.chain(VulnType::CodeInjection, 2, true);
  std::string Dir = uniqueTempDir("cli_sums");
  std::string SumsDir = Dir + "_sums";
  std::string Error;
  ASSERT_TRUE(workload::materialize(T, Dir, &Error)) << Error;
  EXPECT_EQ(runCLI("scan --with-deps --emit-summaries " + SumsDir + " " +
                   Dir),
            3);

  size_t Loaded = 0;
  for (const auto &E : std::filesystem::directory_iterator(SumsDir)) {
    std::ifstream In(E.path());
    std::stringstream SS;
    SS << In.rdbuf();
    analysis::PackageSummaries PS;
    EXPECT_TRUE(analysis::packageSummaryFromJSON(SS.str(), PS, &Error))
        << E.path() << ": " << Error;
    ++Loaded;
  }
  EXPECT_EQ(Loaded, 3u);
  std::filesystem::remove_all(Dir);
  std::filesystem::remove_all(SumsDir);
}

TEST(CLI, CallGraphPackagesMode) {
  DepTreeGenerator Gen(112);
  DepTree T = Gen.chain(VulnType::CommandInjection, 2, true);
  std::string Dir = uniqueTempDir("cli_cg");
  std::string Error;
  ASSERT_TRUE(workload::materialize(T, Dir, &Error)) << Error;
  EXPECT_EQ(runCLI("callgraph --packages --summaries " + Dir), 0);
  std::filesystem::remove_all(Dir);
}

TEST(CLI, SelfCheckRunsPkgGraphPassOnMissingDep) {
  DepTreeGenerator Gen(113);
  DepTree T = Gen.missingDep(VulnType::CommandInjection, 2);
  std::string Dir = uniqueTempDir("cli_valve");
  std::string Error;
  ASSERT_TRUE(workload::materialize(T, Dir, &Error)) << Error;
  // Dangling dep is a warning, not an error: the scan completes (exit 0,
  // no findings — the sink package is the one that is missing).
  EXPECT_EQ(runCLI("scan --with-deps --self-check --summary " + Dir), 0);
  std::filesystem::remove_all(Dir);
}

#endif // GRAPHJS_BIN
