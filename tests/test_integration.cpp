//===- tests/test_integration.cpp - Whole-pipeline integration tests ------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
// Drives the full Graph.js pipeline and the ODGen baseline over generated
// dataset packages, checking the cross-cutting invariants the evaluation
// depends on: both tools run on every generated shape without crashing,
// annotated Plain flows are detected, and the harness produces sane
// outcomes. (Query-backend agreement on dataset packages is part of
// BackendDifferentialTest in test_queries.cpp.)
//
//===----------------------------------------------------------------------===//

#include "eval/Harness.h"
#include "workload/Datasets.h"

#include <gtest/gtest.h>

using namespace gjs;
using namespace gjs::eval;
using namespace gjs::workload;
using queries::VulnType;

namespace {

std::vector<Package> smallDataset(uint64_t Seed) {
  DatasetCounts Counts{6, 6, 6, 6};
  return makeDataset(Seed, Counts);
}

} // namespace

TEST(IntegrationTest, HarnessRunsBothToolsOnDataset) {
  auto Packages = smallDataset(101);
  HarnessOptions O = HarnessOptions::defaults();
  auto GJ = runGraphJS(Packages, O.Scan);
  auto OD = runODGen(Packages, O.ODGen);
  ASSERT_EQ(GJ.size(), Packages.size());
  ASSERT_EQ(OD.size(), Packages.size());
  for (size_t I = 0; I < Packages.size(); ++I) {
    EXPECT_TRUE(GJ[I].GraphBuilt) << Packages[I].Name;
    EXPECT_GE(GJ[I].Seconds, 0.0);
  }
}

TEST(IntegrationTest, PlainDirectFlowsAlwaysDetected) {
  PackageGenerator Gen(55);
  HarnessOptions O = HarnessOptions::defaults();
  for (int T = 0; T < 4; ++T) {
    Package P = Gen.vulnerable(static_cast<VulnType>(T),
                               Complexity::Direct, VariantKind::Plain, 50);
    auto GJ = runGraphJS({P}, O.Scan);
    ScorePolicy Policy;
    ClassStats S =
        scorePackage(P, GJ[0].Reports, static_cast<VulnType>(T), Policy);
    EXPECT_EQ(S.TP, 1u) << "Graph.js must find the Plain Direct "
                        << queries::cweOf(static_cast<VulnType>(T));
  }
}

TEST(IntegrationTest, GraphJSRecallBeatsODGenOnPollution) {
  DatasetCounts Counts{0, 0, 0, 24};
  auto Packages = makeDataset(77, Counts);
  HarnessOptions O = HarnessOptions::defaults();
  auto GJ = runGraphJS(Packages, O.Scan);
  auto OD = runODGen(Packages, O.ODGen);
  ScorePolicy GJPol, ODPol;
  ODPol.TypeOnlyMatch = true;
  ClassStats SG =
      scoreDataset(Packages, GJ, VulnType::PrototypePollution, GJPol);
  ClassStats SO =
      scoreDataset(Packages, OD, VulnType::PrototypePollution, ODPol);
  EXPECT_GT(SG.TP, SO.TP)
      << "the paper's headline: 3x more pollution detections";
}

TEST(IntegrationTest, SanitizedDecoysSplitTheTools) {
  // Graph.js's UntaintedPath suppresses the sanitized decoy; the
  // baseline's unversioned ODG over-taints and reports it.
  PackageGenerator Gen(88);
  Package P = Gen.vulnerable(VulnType::CommandInjection, Complexity::Direct,
                             VariantKind::Sanitized, 0);
  HarnessOptions O = HarnessOptions::defaults();
  auto GJ = runGraphJS({P}, O.Scan);
  auto OD = runODGen({P}, O.ODGen);
  // Main annotated sink: both find it.
  ScorePolicy GJPol, ODPol;
  ODPol.TypeOnlyMatch = true;
  ClassStats SG =
      scorePackage(P, GJ[0].Reports, VulnType::CommandInjection, GJPol);
  EXPECT_EQ(SG.TP, 1u);
  // The decoy: Graph.js reports exactly the one annotated sink; the
  // baseline reports the decoy too.
  EXPECT_EQ(GJ[0].Reports.size(), 1u)
      << "Graph.js must not report the overwritten decoy";
  EXPECT_GE(OD[0].Reports.size(), 2u)
      << "the unversioned baseline over-taints";
}

TEST(IntegrationTest, CollectedScanFindsPlantedVulnsAndLoaderFPs) {
  auto Packages = makeCollected(33, 120);
  HarnessOptions O = HarnessOptions::defaults();
  auto GJ = runGraphJS(Packages, O.Scan);
  size_t Exploitable = 0, LoaderReports = 0;
  for (size_t I = 0; I < Packages.size(); ++I) {
    const Package &P = Packages[I];
    bool IsLoader = P.Name.rfind("loader-", 0) == 0;
    for (const queries::VulnReport &R : GJ[I].Reports) {
      if (IsLoader && R.Type == VulnType::CodeInjection)
        ++LoaderReports;
      for (const Annotation &A : P.Annotations)
        Exploitable += A.Type == R.Type && A.SinkLine == R.SinkLoc.Line;
    }
  }
  EXPECT_GT(Exploitable, 0u) << "planted vulnerabilities must be found";
  EXPECT_GT(LoaderReports, 0u)
      << "dynamic require must trigger CWE-94 reports (the §5.3 FP class)";
}

TEST(IntegrationTest, TimeoutsDegradeButKeepPartialResults) {
  // A Deep pollution package under a tiny Graph.js budget: the scan times
  // out, is attributed to graph construction, and rides the degradation
  // ladder — but unlike the all-or-nothing baseline, whatever the partial
  // MDG yields is kept (§5.2 graceful degradation).
  PackageGenerator Gen(44);
  Package P = Gen.vulnerable(VulnType::PrototypePollution, Complexity::Deep,
                             VariantKind::Plain, 0);
  scanner::ScanOptions O;
  O.Builder.WorkBudget = 5;
  auto GJ = runGraphJS({P}, O);
  EXPECT_TRUE(GJ[0].TimedOut);
  EXPECT_TRUE(GJ[0].BuildTimedOut);
  EXPECT_FALSE(GJ[0].QueryTimedOut);
  EXPECT_GT(GJ[0].Degradation, 0u) << "the ladder must have retried";
}

TEST(IntegrationTest, MultiVulnPackageYieldsMultipleFindings) {
  // VulcaN-style: one package, several annotated vulnerabilities (here
  // via the ExtraSink shape — the second sink is real but unannotated).
  PackageGenerator Gen(66);
  Package P = Gen.vulnerable(VulnType::CommandInjection, Complexity::Direct,
                             VariantKind::ExtraSink, 0);
  HarnessOptions O = HarnessOptions::defaults();
  auto GJ = runGraphJS({P}, O.Scan);
  EXPECT_GE(GJ[0].Reports.size(), 2u);
  ScorePolicy Policy;
  ClassStats S =
      scorePackage(P, GJ[0].Reports, VulnType::CommandInjection, Policy);
  EXPECT_EQ(S.TP, 1u);
  EXPECT_EQ(S.FP, 1u);
  EXPECT_EQ(S.TFP, 0u) << "the extra sink is real: FP but not TFP";
}

//===----------------------------------------------------------------------===//
// Cross-file package linking
//===----------------------------------------------------------------------===//

TEST(PackageLinkingTest, TaintFlowsThroughLocalRequire) {
  // index.js passes tainted data into helpers.js, where the sink sits.
  scanner::Scanner S;
  scanner::ScanResult R = S.scanPackage(
      {{"index.js", "var h = require('./helpers');\n"
                    "function deploy(branch, cb) {\n"
                    "  return h.runGit('push ' + branch, cb);\n"
                    "}\n"
                    "module.exports = deploy;\n"},
       {"helpers.js", "var cp = require('child_process');\n"
                      "function runGit(args, cb) {\n"
                      "  cp.exec('git ' + args, cb);\n"
                      "}\n"
                      "exports.runGit = runGit;\n"}});
  EXPECT_FALSE(R.parseFailed());
  // The sink is at helpers.js line 3 — reachable both from deploy's
  // tainted parameter (via the linked require) and from runGit's own
  // exported parameter.
  bool Found = false;
  for (const queries::VulnReport &Rep : R.Reports)
    Found |= Rep.Type == VulnType::CommandInjection && Rep.SinkLoc.Line == 3;
  EXPECT_TRUE(Found);
}

TEST(PackageLinkingTest, UnexportedHelperOnlyReachableViaLink) {
  // The vulnerable module exports nothing by itself; only the main
  // module's tainted entry reaches the sink. Without linking, no tool
  // would see a tainted path into doExec.
  scanner::Scanner S;
  scanner::ScanResult R = S.scanPackage(
      {{"main.js", "var inner = require('./inner');\n"
                   "function run(c, cb) { inner.go('x ' + c, cb); }\n"
                   "module.exports = run;\n"},
       {"inner.js", "var cp = require('child_process');\n"
                    "function helper(c, cb) { cp.exec(c, cb); }\n"
                    "function go(c, cb) { helper(c, cb); }\n"
                    "exports.go = go;\n"}});
  bool Found = false;
  for (const queries::VulnReport &Rep : R.Reports)
    Found |= Rep.Type == VulnType::CommandInjection && Rep.SinkLoc.Line == 2;
  EXPECT_TRUE(Found);
}

TEST(PackageLinkingTest, RequireOrderDoesNotMatter) {
  // helpers listed first or last: the two-pass linking converges.
  std::vector<scanner::SourceFile> Files = {
      {"index.js", "var h = require('./util');\n"
                   "function f(e) { return h.evalIt('(' + e + ')'); }\n"
                   "module.exports = f;\n"},
      {"util.js", "function evalIt(code) { return eval(code); }\n"
                  "exports.evalIt = evalIt;\n"}};
  for (int Swap = 0; Swap < 2; ++Swap) {
    scanner::Scanner S;
    scanner::ScanResult R = S.scanPackage(Files);
    bool Found = false;
    for (const queries::VulnReport &Rep : R.Reports)
      Found |= Rep.Type == VulnType::CodeInjection;
    EXPECT_TRUE(Found) << "order " << Swap;
    std::swap(Files[0], Files[1]);
  }
}

TEST(PackageLinkingTest, CrossFilePrototypePollution) {
  scanner::Scanner S;
  scanner::ScanResult R = S.scanPackage(
      {{"api.js", "var m = require('./merge');\n"
                  "function set(o, k1, k2, v) { return m.setPath(o, k1, k2, v); }\n"
                  "module.exports = set;\n"},
       {"merge.js", "function setPath(obj, key, subkey, value) {\n"
                    "  var child = obj[key];\n"
                    "  child[subkey] = value;\n"
                    "  return obj;\n"
                    "}\n"
                    "exports.setPath = setPath;\n"}});
  bool Found = false;
  for (const queries::VulnReport &Rep : R.Reports)
    Found |= Rep.Type == VulnType::PrototypePollution;
  EXPECT_TRUE(Found);
}

TEST(PackageLinkingTest, SharedGraphCountsOnce) {
  scanner::Scanner S;
  scanner::ScanResult R = S.scanPackage(
      {{"a.js", "exports.one = function(x) { return x; };\n"},
       {"b.js", "var a = require('./a');\n"
                "exports.two = function(y) { return a.one(y); };\n"}});
  EXPECT_GT(R.MDGNodes, 0u);
  EXPECT_FALSE(R.timedOut());
}

TEST(PackageLinkingTest, GeneratedMultiFilePackagesDetected) {
  // The generator emits some Wrapped CWE-78 packages split across
  // index.js + lib.js; linked analysis must still find them.
  PackageGenerator Gen(123);
  bool SawMultiFile = false;
  HarnessOptions O = HarnessOptions::defaults();
  for (int I = 0; I < 12; ++I) {
    Package P = Gen.vulnerable(VulnType::CommandInjection,
                               Complexity::Wrapped, VariantKind::Plain, 20);
    if (P.Files.size() < 2)
      continue;
    SawMultiFile = true;
    auto GJ = runGraphJS({P}, O.Scan);
    ScorePolicy Policy;
    ClassStats S =
        scorePackage(P, GJ[0].Reports, VulnType::CommandInjection, Policy);
    EXPECT_EQ(S.TP, 1u) << P.Files[0].Contents;
  }
  EXPECT_TRUE(SawMultiFile);
}
