//===- tests/test_faults.cpp - Fault-tolerant scan runtime tests -----------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
// The robustness surface: the shared Deadline token, the structured
// ScanError taxonomy, deterministic fault injection into every pipeline
// phase, the degradation ladder, and the resumable batch driver (library
// and `graphjs batch` CLI round trips).
//
//===----------------------------------------------------------------------===//

#include "driver/BatchDriver.h"
#include "odgen/ODGenAnalyzer.h"
#include "scanner/Scanner.h"
#include "support/Deadline.h"
#include "support/JSON.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace gjs;
using scanner::FaultPlan;
using scanner::ScanError;
using scanner::ScanErrorKind;
using scanner::ScanPhase;
using scanner::ScanResult;

namespace {

/// A small package with one clear CWE-78: tainted exported parameter
/// flowing into child_process.exec.
const char *VulnSource =
    "var cp = require('child_process');\n"
    "function run(cmd, cb) {\n"
    "  var prefixed = 'git ' + cmd;\n"
    "  cp.exec(prefixed, cb);\n"
    "}\n"
    "module.exports = run;\n";

bool hasCommandInjection(const ScanResult &R) {
  for (const queries::VulnReport &Rep : R.Reports)
    if (Rep.Type == queries::VulnType::CommandInjection)
      return true;
  return false;
}

std::vector<std::string> readLines(const std::string &Path) {
  std::ifstream In(Path);
  std::vector<std::string> Lines;
  std::string Line;
  while (std::getline(In, Line))
    if (!Line.empty())
      Lines.push_back(Line);
  return Lines;
}

/// Parses one JSONL journal line (must succeed).
json::Object parseLine(const std::string &Line) {
  json::Value V;
  std::string Error;
  EXPECT_TRUE(json::parse(Line, V, &Error)) << Error << "\n" << Line;
  EXPECT_TRUE(V.isObject());
  return V.asObject();
}

driver::BatchInput makeInput(const std::string &Name, const char *Source) {
  return {Name, {{Name + ".js", Source}}};
}

} // namespace

//===----------------------------------------------------------------------===//
// Deadline
//===----------------------------------------------------------------------===//

TEST(DeadlineTest, WorkBudgetExpiresStickyWithReason) {
  Deadline D = Deadline::afterWork(3);
  EXPECT_TRUE(D.active());
  EXPECT_FALSE(D.checkpoint());
  EXPECT_FALSE(D.checkpoint(2));
  EXPECT_TRUE(D.checkpoint()); // 4 > 3.
  EXPECT_TRUE(D.expired());
  EXPECT_EQ(D.reason(), Deadline::Reason::Work);
  EXPECT_TRUE(D.checkpoint()) << "expiry must be sticky";
  EXPECT_EQ(D.workDone(), 4u);
}

TEST(DeadlineTest, UnlimitedNeverExpiresButCounts) {
  Deadline D;
  EXPECT_FALSE(D.active());
  for (int I = 0; I < 1000; ++I)
    EXPECT_FALSE(D.checkpoint());
  EXPECT_EQ(D.workDone(), 1000u);
  EXPECT_EQ(D.reason(), Deadline::Reason::None);
}

TEST(DeadlineTest, ExpireNowModelsAStall) {
  Deadline D = Deadline::afterWork(1000000);
  EXPECT_FALSE(D.checkpoint());
  D.expireNow();
  EXPECT_TRUE(D.expired());
  EXPECT_EQ(D.reason(), Deadline::Reason::Forced);
}

TEST(DeadlineTest, WallClockExpires) {
  Deadline D = Deadline::afterSeconds(1e-9);
  EXPECT_TRUE(D.active());
  // The first checkpoint polls the clock (NextClockCheck starts at 1).
  EXPECT_TRUE(D.checkpoint());
  EXPECT_EQ(D.reason(), Deadline::Reason::WallClock);
}

//===----------------------------------------------------------------------===//
// ScanError taxonomy
//===----------------------------------------------------------------------===//

TEST(ScanErrorTest, NamesRoundTrip) {
  for (ScanPhase P : {ScanPhase::Parse, ScanPhase::Normalize, ScanPhase::Build,
                      ScanPhase::Import, ScanPhase::Query, ScanPhase::Driver}) {
    ScanPhase Back;
    ASSERT_TRUE(scanner::scanPhaseFromName(scanner::scanPhaseName(P), Back));
    EXPECT_EQ(Back, P);
  }
  ScanPhase Ignored;
  EXPECT_FALSE(scanner::scanPhaseFromName("bogus", Ignored));
}

TEST(ScanErrorTest, RenderingAndClassification) {
  ScanError E{ScanPhase::Build, ScanErrorKind::Budget, "work exhausted",
              "lib.js"};
  EXPECT_NE(E.str().find("build"), std::string::npos);
  EXPECT_NE(E.str().find("budget"), std::string::npos);
  EXPECT_NE(E.str().find("lib.js"), std::string::npos);
  EXPECT_TRUE(E.isTimeout());
  ScanError PE{ScanPhase::Parse, ScanErrorKind::ParseError, "", ""};
  EXPECT_FALSE(PE.isTimeout());
  EXPECT_EQ(scanner::kindOfDeadline(Deadline::Reason::Work),
            ScanErrorKind::Budget);
  EXPECT_EQ(scanner::kindOfDeadline(Deadline::Reason::WallClock),
            ScanErrorKind::Deadline);
  EXPECT_EQ(scanner::kindOfDeadline(Deadline::Reason::Forced),
            ScanErrorKind::Deadline);
}

TEST(FaultPlanTest, SpecParsing) {
  FaultPlan P;
  EXPECT_TRUE(FaultPlan::parse("build:fail", P));
  EXPECT_EQ(P.Phase, ScanPhase::Build);
  EXPECT_EQ(P.Kind, FaultPlan::Action::Fail);
  EXPECT_EQ(P.Package, 0u);

  EXPECT_TRUE(FaultPlan::parse("query:stall:3", P));
  EXPECT_EQ(P.Phase, ScanPhase::Query);
  EXPECT_EQ(P.Kind, FaultPlan::Action::Stall);
  EXPECT_EQ(P.Package, 3u);

  std::string Error;
  EXPECT_FALSE(FaultPlan::parse("bogus:fail", P, &Error));
  EXPECT_NE(Error.find("bogus"), std::string::npos);
  EXPECT_FALSE(FaultPlan::parse("build:explode", P));
  EXPECT_FALSE(FaultPlan::parse("build", P));
  EXPECT_FALSE(FaultPlan::parse("build:fail:x", P));
}

//===----------------------------------------------------------------------===//
// Fault injection: per-phase containment and ladder recovery
//===----------------------------------------------------------------------===//

TEST(FaultInjectionTest, FailFaultIsContainedInEveryPhase) {
  for (ScanPhase P : {ScanPhase::Parse, ScanPhase::Normalize, ScanPhase::Build,
                      ScanPhase::Import, ScanPhase::Query}) {
    scanner::ScanOptions O;
    O.MaxDegradation = 0; // Observe the raw failure.
    O.Fault = FaultPlan{P, FaultPlan::Action::Fail, 0};
    scanner::Scanner S(O);
    ScanResult R = S.scanSource(VulnSource);
    EXPECT_TRUE(R.faulted()) << scanner::scanPhaseName(P);
    ASSERT_FALSE(R.Errors.empty()) << scanner::scanPhaseName(P);
    EXPECT_EQ(R.Errors[0].Phase, P);
    EXPECT_EQ(R.Errors[0].Kind, ScanErrorKind::InjectedFault);
    EXPECT_EQ(R.Attempts, 1u);
    EXPECT_EQ(R.Degradation, 0u);
  }
}

TEST(FaultInjectionTest, LadderRecoversFromTransientFaultInEveryPhase) {
  for (ScanPhase P : {ScanPhase::Parse, ScanPhase::Normalize, ScanPhase::Build,
                      ScanPhase::Import, ScanPhase::Query}) {
    scanner::ScanOptions O;
    O.Fault = FaultPlan{P, FaultPlan::Action::Fail, 0};
    scanner::Scanner S(O);
    ScanResult R = S.scanSource(VulnSource);
    // The fault fired (still recorded) but the one-shot retry succeeded.
    EXPECT_TRUE(R.faulted()) << scanner::scanPhaseName(P);
    EXPECT_GE(R.Attempts, 2u) << scanner::scanPhaseName(P);
    EXPECT_GE(R.Degradation, 1u) << scanner::scanPhaseName(P);
    EXPECT_TRUE(hasCommandInjection(R)) << scanner::scanPhaseName(P);
  }
}

TEST(FaultInjectionTest, StallFaultBecomesAttributedDeadline) {
  scanner::ScanOptions O;
  O.MaxDegradation = 0;
  O.Fault = FaultPlan{ScanPhase::Build, FaultPlan::Action::Stall, 0};
  scanner::Scanner S(O);
  ScanResult R = S.scanSource(VulnSource);
  EXPECT_TRUE(R.timedOut());
  EXPECT_TRUE(R.timedOutIn(ScanPhase::Build));
  const ScanError *T = R.firstTimeout();
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->Kind, ScanErrorKind::Deadline)
      << "a forced (stall) expiry is a deadline, not a work budget";
}

TEST(FaultInjectionTest, LadderRecoversFromStall) {
  scanner::ScanOptions O;
  O.Fault = FaultPlan{ScanPhase::Query, FaultPlan::Action::Stall, 0};
  scanner::Scanner S(O);
  ScanResult R = S.scanSource(VulnSource);
  EXPECT_TRUE(R.timedOut());
  EXPECT_GE(R.Degradation, 1u);
  EXPECT_TRUE(hasCommandInjection(R));
}

TEST(FaultInjectionTest, FaultTargetsTheNthPackageAndIsOneShot) {
  scanner::ScanOptions O;
  O.MaxDegradation = 0;
  O.Fault = FaultPlan{ScanPhase::Build, FaultPlan::Action::Fail, 1};
  scanner::Scanner S(O);
  ScanResult R0 = S.scanSource(VulnSource);
  EXPECT_FALSE(R0.faulted());
  EXPECT_TRUE(hasCommandInjection(R0));
  ScanResult R1 = S.scanSource(VulnSource);
  EXPECT_TRUE(R1.faulted());
  ScanResult R2 = S.scanSource(VulnSource);
  EXPECT_FALSE(R2.faulted()) << "the fault is one-shot";
  EXPECT_TRUE(hasCommandInjection(R2));
}

//===----------------------------------------------------------------------===//
// Deadline expiry mid-pipeline: deterministic per-phase attribution
//===----------------------------------------------------------------------===//

TEST(DeadlineAttributionTest, MidBuildExpiryIsAttributedToBuild) {
  // Pass 1 (no deadline) measures the deterministic unit sequence: total
  // units T and builder units B. Pass 2 sets the budget to land inside the
  // build phase (T - B/2). Native backend keeps query units at zero, so
  // the build phase is the tail of the sequence.
  scanner::ScanOptions Measure;
  Measure.Backend = scanner::QueryBackend::Native;
  Measure.MaxDegradation = 0;
  ScanResult M = scanner::Scanner(Measure).scanSource(VulnSource);
  ASSERT_TRUE(M.Errors.empty());
  ASSERT_GE(M.BuildWork, 4u);
  ASSERT_GT(M.DeadlineWork, M.BuildWork);

  scanner::ScanOptions O = Measure;
  O.Deadline.WorkUnits = M.DeadlineWork - M.BuildWork / 2;
  ScanResult R = scanner::Scanner(O).scanSource(VulnSource);
  EXPECT_TRUE(R.timedOut());
  EXPECT_TRUE(R.timedOutIn(ScanPhase::Build));
  EXPECT_FALSE(R.timedOutIn(ScanPhase::Parse));
  const ScanError *T = R.firstTimeout();
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->Kind, ScanErrorKind::Budget);
}

TEST(DeadlineAttributionTest, MidQueryExpiryIsAttributedToQuery) {
  // Same two-pass trick on the GraphDB backend: query-engine matcher steps
  // are the tail of the unit sequence, so a budget of T - Q/2 expires
  // mid-query — and must be reported as a Query timeout, not Build.
  scanner::ScanOptions Measure;
  Measure.MaxDegradation = 0;
  ScanResult M = scanner::Scanner(Measure).scanSource(VulnSource);
  ASSERT_TRUE(M.Errors.empty());
  ASSERT_GE(M.QueryWork, 4u);
  ASSERT_GT(M.DeadlineWork, M.QueryWork);

  scanner::ScanOptions O = Measure;
  O.Deadline.WorkUnits = M.DeadlineWork - M.QueryWork / 2;
  ScanResult R = scanner::Scanner(O).scanSource(VulnSource);
  EXPECT_TRUE(R.timedOut());
  EXPECT_TRUE(R.timedOutIn(ScanPhase::Query));
  EXPECT_FALSE(R.timedOutIn(ScanPhase::Build));
  EXPECT_FALSE(R.timedOutIn(ScanPhase::Import));
}

TEST(DeadlineAttributionTest, LadderTurnsMidQueryTimeoutIntoResults) {
  scanner::ScanOptions Measure;
  Measure.MaxDegradation = 0;
  ScanResult M = scanner::Scanner(Measure).scanSource(VulnSource);
  ASSERT_GE(M.QueryWork, 4u);

  scanner::ScanOptions O;
  O.Deadline.WorkUnits = M.DeadlineWork - M.QueryWork / 2;
  ScanResult R = scanner::Scanner(O).scanSource(VulnSource);
  // Level 1 (native traversals) fits in the same budget: the DB import
  // and matcher steps are gone.
  EXPECT_TRUE(R.timedOut());
  EXPECT_GE(R.Degradation, 1u);
  EXPECT_TRUE(hasCommandInjection(R));
}

TEST(DeadlineAttributionTest, WallClockDeadlineExpiresInParse) {
  scanner::ScanOptions O;
  O.MaxDegradation = 0;
  O.Deadline.WallSeconds = 1e-9;
  ScanResult R = scanner::Scanner(O).scanSource(VulnSource);
  EXPECT_TRUE(R.timedOut());
  EXPECT_TRUE(R.timedOutIn(ScanPhase::Parse));
  const ScanError *T = R.firstTimeout();
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->Kind, ScanErrorKind::Deadline);
}

TEST(DeadlineAttributionTest, EngineStepBudgetIsAQueryBudgetError) {
  // The query engine's own step budget (satellite of the unified-deadline
  // work): exhausting it must surface as Query/Budget, distinct from a
  // graph-construction timeout.
  scanner::ScanOptions O;
  O.MaxDegradation = 0;
  O.Engine.WorkBudget = 5;
  ScanResult R = scanner::Scanner(O).scanSource(VulnSource);
  EXPECT_TRUE(R.timedOut());
  EXPECT_TRUE(R.timedOutIn(ScanPhase::Query));
  EXPECT_FALSE(R.timedOutIn(ScanPhase::Build));
  const ScanError *T = R.firstTimeout();
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->Kind, ScanErrorKind::Budget);
  EXPECT_NE(T->Detail.find("query step budget"), std::string::npos);
}

TEST(DeadlineAttributionTest, BuilderBudgetIsABuildBudgetError) {
  scanner::ScanOptions O;
  O.MaxDegradation = 0;
  O.Builder.WorkBudget = 3;
  ScanResult R = scanner::Scanner(O).scanSource(VulnSource);
  EXPECT_TRUE(R.timedOutIn(ScanPhase::Build));
  EXPECT_FALSE(R.timedOutIn(ScanPhase::Query));
}

//===----------------------------------------------------------------------===//
// Per-file parse containment (the scanPackage regression)
//===----------------------------------------------------------------------===//

TEST(ParseContainmentTest, OneBadFileDoesNotDropThePackage) {
  scanner::Scanner S;
  ScanResult R = S.scanPackage({{"broken.js", "function ( { ]"},
                                {"good.js", VulnSource}});
  EXPECT_TRUE(R.parseFailed());
  // The failure is attributed to the file, not the package.
  bool Attributed = false;
  for (const ScanError &E : R.Errors)
    Attributed |= E.Kind == ScanErrorKind::ParseError && E.File == "broken.js";
  EXPECT_TRUE(Attributed);
  // The good file was still scanned: its finding survives.
  EXPECT_TRUE(hasCommandInjection(R));
  // Parse errors are deterministic: no ladder retry.
  EXPECT_EQ(R.Attempts, 1u);
}

TEST(ParseContainmentTest, AllFilesBadYieldsOnlyParseErrors) {
  scanner::Scanner S;
  ScanResult R = S.scanPackage({{"a.js", "function ( {"},
                                {"b.js", "var = = ;"}});
  EXPECT_TRUE(R.parseFailed());
  EXPECT_TRUE(R.Reports.empty());
  EXPECT_EQ(R.MDGNodes, 0u);
}

//===----------------------------------------------------------------------===//
// ODGen under the shared deadline (all-or-nothing contrast)
//===----------------------------------------------------------------------===//

TEST(ODGenDeadlineTest, DeadlineAbortsAndClearsReports) {
  odgen::ODGenOptions OO;
  Deadline D = Deadline::afterWork(3);
  OO.ScanDeadline = &D;
  odgen::ODGenAnalyzer A(OO);
  odgen::ODGenResult R = A.analyze(VulnSource);
  EXPECT_TRUE(R.TimedOut);
  EXPECT_TRUE(R.Reports.empty()) << "ODGen is all-or-nothing under timeout";
}

//===----------------------------------------------------------------------===//
// Batch driver: journal, fault containment, resume
//===----------------------------------------------------------------------===//

TEST(BatchDriverTest, FaultedPackageIsJournaledAndBatchCompletes) {
  std::string Journal = ::testing::TempDir() + "gjs_batch_fault.jsonl";
  std::remove(Journal.c_str());

  driver::BatchOptions BO;
  BO.Scan.Backend = scanner::QueryBackend::Native;
  BO.Scan.Fault = FaultPlan{ScanPhase::Build, FaultPlan::Action::Fail, 1};
  BO.JournalPath = Journal;
  driver::BatchDriver Driver(BO);

  driver::BatchSummary S = Driver.run({makeInput("alpha", VulnSource),
                                       makeInput("beta", VulnSource),
                                       makeInput("gamma", VulnSource)});
  EXPECT_EQ(S.Scanned, 3u);
  EXPECT_EQ(S.Failed, 0u);
  EXPECT_EQ(S.Ok, 2u);
  EXPECT_EQ(S.Degraded, 1u);
  EXPECT_EQ(S.TotalReports, 3u) << "the faulted package recovered via the "
                                   "ladder and still reported";
  ASSERT_EQ(S.Outcomes.size(), 3u);
  EXPECT_TRUE(S.Outcomes[1].Result.faulted());
  EXPECT_GE(S.Outcomes[1].Result.Degradation, 1u);

  std::vector<std::string> Lines = readLines(Journal);
  ASSERT_EQ(Lines.size(), 3u);
  json::Object Beta = parseLine(Lines[1]);
  EXPECT_EQ(Beta.at("package").asString(), "beta");
  EXPECT_EQ(Beta.at("status").asString(), "degraded");
  EXPECT_GE(Beta.at("degradation").asNumber(), 1.0);
  ASSERT_TRUE(Beta.at("errors").isArray());
  ASSERT_FALSE(Beta.at("errors").asArray().empty());
  const json::Object &E = Beta.at("errors").asArray()[0].asObject();
  EXPECT_EQ(E.at("phase").asString(), "build");
  EXPECT_EQ(E.at("kind").asString(), "injected-fault");
  ASSERT_TRUE(Beta.at("reports").isArray());
  EXPECT_FALSE(Beta.at("reports").asArray().empty());

  json::Object Alpha = parseLine(Lines[0]);
  EXPECT_EQ(Alpha.at("status").asString(), "ok");
  EXPECT_TRUE(Alpha.at("errors").asArray().empty());
}

TEST(BatchDriverTest, ResumeSkipsJournaledPackages) {
  std::string Journal = ::testing::TempDir() + "gjs_batch_resume.jsonl";
  std::remove(Journal.c_str());

  std::vector<driver::BatchInput> Inputs = {makeInput("one", VulnSource),
                                            makeInput("two", VulnSource),
                                            makeInput("three", VulnSource)};

  // First run "dies" after two packages (MaxPackages simulates the kill).
  driver::BatchOptions BO;
  BO.Scan.Backend = scanner::QueryBackend::Native;
  BO.JournalPath = Journal;
  BO.MaxPackages = 2;
  driver::BatchSummary First = driver::BatchDriver(BO).run(Inputs);
  EXPECT_EQ(First.Scanned, 2u);
  EXPECT_EQ(driver::BatchDriver::journaledPackages(Journal).size(), 2u);

  // Resume: only the unjournaled package is scanned; the journal grows to
  // cover everything, with no duplicates.
  driver::BatchOptions RO = BO;
  RO.MaxPackages = 0;
  RO.Resume = true;
  driver::BatchSummary Second = driver::BatchDriver(RO).run(Inputs);
  EXPECT_EQ(Second.Scanned, 1u);
  EXPECT_EQ(Second.SkippedResumed, 2u);
  ASSERT_EQ(Second.Outcomes.size(), 3u);
  EXPECT_TRUE(Second.Outcomes[0].Skipped);
  EXPECT_TRUE(Second.Outcomes[1].Skipped);
  EXPECT_FALSE(Second.Outcomes[2].Skipped);

  std::vector<std::string> Lines = readLines(Journal);
  ASSERT_EQ(Lines.size(), 3u);
  std::set<std::string> Names;
  for (const std::string &L : Lines)
    Names.insert(parseLine(L).at("package").asString());
  EXPECT_EQ(Names, (std::set<std::string>{"one", "two", "three"}));
}

TEST(BatchDriverTest, TruncatedJournalLineIsIgnoredOnResume) {
  std::string Journal = ::testing::TempDir() + "gjs_batch_trunc.jsonl";
  {
    std::ofstream Out(Journal, std::ios::trunc);
    Out << R"({"package": "whole", "status": "ok"})" << "\n";
    Out << R"({"package": "torn", "stat)"; // Killed mid-write.
  }
  std::set<std::string> Done =
      driver::BatchDriver::journaledPackages(Journal);
  EXPECT_EQ(Done, std::set<std::string>{"whole"});
}

TEST(BatchDriverTest, ParseErrorsDegradeButDoNotFailTheBatch) {
  driver::BatchOptions BO;
  BO.Scan.Backend = scanner::QueryBackend::Native;
  driver::BatchSummary S = driver::BatchDriver(BO).run(
      {makeInput("bad", "function ( { ]"), makeInput("good", VulnSource)});
  EXPECT_EQ(S.Scanned, 2u);
  EXPECT_EQ(S.Degraded, 1u);
  EXPECT_EQ(S.Ok, 1u);
  EXPECT_EQ(S.Failed, 0u);
  EXPECT_EQ(S.TotalReports, 1u);
}

//===----------------------------------------------------------------------===//
// `graphjs batch` CLI round trips (the end-to-end robustness demo)
//===----------------------------------------------------------------------===//

#if defined(GRAPHJS_BIN) && defined(GJS_EXAMPLES_JS_DIR)

TEST(BatchCLITest, InjectedFaultBatchCompletesRemainingPackages) {
  std::string Journal = ::testing::TempDir() + "gjs_cli_fault.jsonl";
  std::remove(Journal.c_str());
  std::string Cmd = std::string(GRAPHJS_BIN) +
                    " batch --native --max-degradation 0" +
                    " --inject-fault build:fail:0 --journal " + Journal +
                    " " + GJS_EXAMPLES_JS_DIR + " > /dev/null 2>&1";
  EXPECT_EQ(std::system(Cmd.c_str()), 0)
      << "a contained fault must not fail the batch";

  // All four example packages are journaled; the first (alphabetically
  // clean_utils.js) carries the injected-fault error, the rest are clean.
  std::vector<std::string> Lines = readLines(Journal);
  ASSERT_EQ(Lines.size(), 4u);
  json::Object First = parseLine(Lines[0]);
  EXPECT_EQ(First.at("package").asString(), "clean_utils.js");
  EXPECT_EQ(First.at("status").asString(), "degraded");
  const json::Object &E = First.at("errors").asArray().at(0).asObject();
  EXPECT_EQ(E.at("phase").asString(), "build");
  EXPECT_EQ(E.at("kind").asString(), "injected-fault");
  for (size_t I = 1; I < Lines.size(); ++I)
    EXPECT_EQ(parseLine(Lines[I]).at("status").asString(), "ok");
  // figure1.js must still produce its findings despite the earlier fault.
  json::Object Fig1 = parseLine(Lines[1]);
  EXPECT_EQ(Fig1.at("package").asString(), "figure1.js");
  EXPECT_FALSE(Fig1.at("reports").asArray().empty());
}

TEST(BatchCLITest, ResumeAfterKillRescansOnlyUnjournaled) {
  std::string Journal = ::testing::TempDir() + "gjs_cli_resume.jsonl";
  std::remove(Journal.c_str());
  std::string Base = std::string(GRAPHJS_BIN) + " batch --native --journal " +
                     Journal + " ";
  std::string Dir = GJS_EXAMPLES_JS_DIR;

  // "Killed" run: stops after one package.
  EXPECT_EQ(std::system((Base + "--max 1 " + Dir + " > /dev/null 2>&1")
                            .c_str()),
            0);
  EXPECT_EQ(driver::BatchDriver::journaledPackages(Journal).size(), 1u);

  // Resume: the journal ends up covering all four packages exactly once —
  // four lines total proves the journaled package was not re-scanned.
  EXPECT_EQ(std::system((Base + "--resume " + Dir + " > /dev/null 2>&1")
                            .c_str()),
            0);
  std::vector<std::string> Lines = readLines(Journal);
  ASSERT_EQ(Lines.size(), 4u);
  std::set<std::string> Names;
  for (const std::string &L : Lines)
    Names.insert(parseLine(L).at("package").asString());
  EXPECT_EQ(Names.size(), 4u);
}

TEST(BatchCLITest, ResumeSkipsJournalLinesWithRetiredPruneFields) {
  // Lines written while scans still pruned queries carry the
  // pruned_queries/prune_reason/prune_skipped_import fields and the
  // prune.*, summaries.computed and callgraph.edges_* counters. A resume
  // across the change must treat those packages as done: skipped, neither
  // rescanned nor rejected as malformed.
  std::string Journal = ::testing::TempDir() + "gjs_cli_old_journal.jsonl";
  std::string Out = ::testing::TempDir() + "gjs_cli_old_journal.out";
  const std::vector<std::string> Old = {
      R"J({"attempts":1,"counters":{"callgraph.edges_resolved":0,)J"
      R"J("callgraph.edges_unresolved":0,"prune.imports_skipped":1,)J"
      R"J("prune.queries_skipped":4,"scan.attempts":1,)J"
      R"J("summaries.computed":3},)J"
      R"J("degradation":0,"edges":33,"errors":[],"graph_seconds":0.0003,)J"
      R"J("nodes":32,"package":"clean_utils.js","prune_reason":)J"
      R"J("CWE-78:pruned(no-sink-callsites),CWE-94:pruned(no-sink-callsites),)J"
      R"J(CWE-22:pruned(no-sink-callsites),)J"
      R"J(CWE-1321:pruned(no-dynamic-writes)",)J"
      R"J("prune_skipped_import":true,"pruned_queries":4,"query_seconds":0,)J"
      R"J("reports":[],"retries":0,"seconds":0.0004,"status":"ok"})J",
      R"J({"attempts":1,"counters":{"prune.queries_skipped":2,)J"
      R"J("scan.attempts":1,"summaries.computed":4},"degradation":0,)J"
      R"J("edges":61,"errors":[],"graph_seconds":0.0005,"nodes":48,)J"
      R"J("package":"figure1.js","prune_reason":"CWE-78:kept,)J"
      R"J(CWE-94:pruned(no-sink-callsites),CWE-22:pruned(no-sink-callsites),)J"
      R"J(CWE-1321:kept","pruned_queries":2,"query_seconds":0.0001,)J"
      R"J("reports":[{"cwe":"CWE-78","line":10,"sink":"exec",)J"
      R"J("type":"command-injection"},{"cwe":"CWE-1321","line":8,)J"
      R"J("type":"prototype-pollution"}],"retries":0,"seconds":0.0007,)J"
      R"J("status":"ok"})J"};
  {
    std::ofstream J(Journal, std::ios::trunc);
    for (const std::string &L : Old)
      J << L << "\n";
  }
  size_t Dropped = 0;
  EXPECT_EQ(driver::BatchDriver::journaledPackages(Journal, &Dropped),
            (std::set<std::string>{"clean_utils.js", "figure1.js"}));
  EXPECT_EQ(Dropped, 0u);
  for (const std::string &L : Old) {
    driver::BatchOutcome O;
    EXPECT_TRUE(driver::BatchDriver::parseJournalLine(L, O)) << L;
  }

  std::string Cmd = std::string(GRAPHJS_BIN) +
                    " batch --native --summary --resume --journal " + Journal +
                    " " + GJS_EXAMPLES_JS_DIR + " > " + Out + " 2>/dev/null";
  EXPECT_EQ(std::system(Cmd.c_str()), 0);
  std::vector<std::string> Printed = readLines(Out);
  auto printedFor = [&](const std::string &Pkg) {
    for (const std::string &L : Printed)
      if (L.compare(0, Pkg.size() + 1, Pkg + " ") == 0)
        return L;
    return std::string();
  };
  EXPECT_NE(printedFor("clean_utils.js").find("skipped (journaled)"),
            std::string::npos);
  EXPECT_NE(printedFor("figure1.js").find("skipped (journaled)"),
            std::string::npos);
  EXPECT_EQ(printedFor("promise_chain.js").find("skipped"), std::string::npos);
  EXPECT_NE(printedFor("batch:").find("2 scanned"), std::string::npos);
  EXPECT_NE(printedFor("batch:").find("2 resumed"), std::string::npos);

  // The old lines stay as written; only the two other examples are added.
  std::vector<std::string> Lines = readLines(Journal);
  ASSERT_EQ(Lines.size(), 4u);
  EXPECT_EQ(Lines[0], Old[0]);
  EXPECT_EQ(Lines[1], Old[1]);
  std::set<std::string> Added = {parseLine(Lines[2]).at("package").asString(),
                                 parseLine(Lines[3]).at("package").asString()};
  EXPECT_EQ(Added,
            (std::set<std::string>{"promise_chain.js", "set_value.js"}));
}

TEST(BatchCLITest, JournalLinesCarryNoPruneFields) {
  // Every scan runs all four query classes, so journal lines no longer
  // record a pruning outcome, nor the counters of the retired stage.
  std::string Journal = ::testing::TempDir() + "gjs_cli_no_prune.jsonl";
  std::remove(Journal.c_str());
  std::string Cmd = std::string(GRAPHJS_BIN) + " batch --journal " + Journal +
                    " " + GJS_EXAMPLES_JS_DIR + " > /dev/null 2>&1";
  EXPECT_EQ(std::system(Cmd.c_str()), 0);
  std::vector<std::string> Lines = readLines(Journal);
  ASSERT_EQ(Lines.size(), 4u);
  for (const std::string &L : Lines) {
    json::Object O = parseLine(L);
    for (const char *Key :
         {"pruned_queries", "prune_reason", "prune_skipped_import"})
      EXPECT_EQ(O.count(Key), 0u) << Key << " in " << L;
    ASSERT_TRUE(O.count("counters")) << L;
    for (const auto &[Name, Value] : O.at("counters").asObject()) {
      (void)Value;
      for (const char *Retired : {"prune.", "summaries.", "callgraph."})
        EXPECT_NE(Name.rfind(Retired, 0), 0u) << Name << " in " << L;
    }
  }
}

#endif // GRAPHJS_BIN && GJS_EXAMPLES_JS_DIR
