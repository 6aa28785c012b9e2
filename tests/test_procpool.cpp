//===- tests/test_procpool.cpp - Multi-process batch scanning tests --------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
// The OS-level containment surface: the Subprocess wrapper (fork/exec,
// wait-status decoding, rlimits, kill), the process-fatal fault actions
// (crash/hang/oom), the supervised worker pool (crash containment, the
// kill ladder, deterministic journal merge, retry, resume), and the
// `graphjs batch --jobs N` CLI round trips including resume across a
// SIGKILLed supervisor.
//
//===----------------------------------------------------------------------===//

#include "driver/ProcessPool.h"
#include "obs/Counters.h"
#include "obs/Histogram.h"
#include "obs/Trace.h"
#include "support/JSON.h"
#include "support/Subprocess.h"
#include "workload/Packages.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <thread>

#include <unistd.h>

using namespace gjs;
using scanner::FaultPlan;
using scanner::ScanErrorKind;
using scanner::ScanPhase;

#if defined(__SANITIZE_ADDRESS__)
#define GJS_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GJS_TEST_ASAN 1
#endif
#endif
#ifndef GJS_TEST_ASAN
#define GJS_TEST_ASAN 0
#endif

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

driver::BatchInput makeInput(const std::string &Name, const char *Source) {
  return {Name, {{Name + ".js", Source}}};
}

std::vector<driver::BatchInput> healthyInputs(size_t N) {
  std::vector<driver::BatchInput> Inputs;
  for (size_t I = 0; I < N; ++I)
    Inputs.push_back(makeInput("pkg" + std::to_string(I), VulnSource));
  return Inputs;
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

/// The first driver-phase error kind of a Failed outcome.
ScanErrorKind failureKind(const driver::BatchOutcome &O) {
  EXPECT_FALSE(O.Result.Errors.empty()) << O.Package;
  return O.Result.Errors.empty() ? ScanErrorKind::Internal
                                 : O.Result.Errors.front().Kind;
}

FaultPlan makeFault(ScanPhase Phase, FaultPlan::Action Kind,
                    unsigned Package) {
  FaultPlan F;
  F.Phase = Phase;
  F.Kind = Kind;
  F.Package = Package;
  return F;
}

} // namespace

//===----------------------------------------------------------------------===//
// Subprocess
//===----------------------------------------------------------------------===//

TEST(SubprocessTest, SpawnReportsExitCode) {
  Subprocess P;
  std::string Error;
  ASSERT_TRUE(Subprocess::spawn({"/bin/sh", "-c", "exit 7"}, P, &Error))
      << Error;
  WaitStatus S = P.wait();
  EXPECT_TRUE(S.exitedWith(7)) << S.str();
  EXPECT_EQ(S.str(), "exit 7");
}

TEST(SubprocessTest, SpawnReportsFatalSignal) {
  Subprocess P;
  std::string Error;
  ASSERT_TRUE(
      Subprocess::spawn({"/bin/sh", "-c", "kill -SEGV $$"}, P, &Error))
      << Error;
  WaitStatus S = P.wait();
  ASSERT_TRUE(S.signaled()) << S.str();
  EXPECT_EQ(S.Signal, SIGSEGV);
  EXPECT_EQ(S.str(), "signal 11 (SIGSEGV)");
}

TEST(SubprocessTest, CapturesStdoutToEOF) {
  Subprocess P;
  std::string Error;
  ASSERT_TRUE(Subprocess::spawn({"/bin/echo", "hello pool"}, P, &Error,
                                /*CaptureStdout=*/true))
      << Error;
  EXPECT_EQ(P.readAll(), "hello pool\n");
  EXPECT_TRUE(P.wait().exitedWith(0));
}

TEST(SubprocessTest, KillTerminatesChild) {
  Subprocess P;
  std::string Error;
  ASSERT_TRUE(Subprocess::spawn({"/bin/sleep", "30"}, P, &Error)) << Error;
  WaitStatus S;
  EXPECT_FALSE(P.poll(S)); // Still sleeping.
  EXPECT_TRUE(P.kill(SIGKILL));
  S = P.wait();
  ASSERT_TRUE(S.signaled());
  EXPECT_EQ(S.Signal, SIGKILL);
}

TEST(SubprocessTest, ExecFailureExits127) {
  Subprocess P;
  std::string Error;
  ASSERT_TRUE(
      Subprocess::spawn({"/nonexistent/no-such-binary"}, P, &Error))
      << Error;
  EXPECT_TRUE(P.wait().exitedWith(127));
}

TEST(SubprocessTest, ForkChildPropagatesReturnCode) {
  Subprocess P;
  std::string Error;
  ASSERT_TRUE(Subprocess::forkChild([] { return 42; }, P, &Error)) << Error;
  EXPECT_TRUE(P.wait().exitedWith(42));
}

TEST(SubprocessTest, ForkChildExceptionExits125) {
  Subprocess P;
  std::string Error;
  ASSERT_TRUE(Subprocess::forkChild(
      []() -> int { throw std::runtime_error("worker bug"); }, P, &Error))
      << Error;
  EXPECT_TRUE(P.wait().exitedWith(125));
}

TEST(SubprocessTest, MemLimitTurnsAllocationIntoOomExit) {
  if (GJS_TEST_ASAN)
    GTEST_SKIP() << "RLIMIT_AS is skipped under AddressSanitizer";
  Subprocess P;
  std::string Error;
  SubprocessLimits Limits;
  Limits.MemLimitMB = 64;
  ASSERT_TRUE(Subprocess::forkChild(
      [] {
        installOomExitHandler();
        // Touch every page and keep every chunk live so the compiler
        // cannot elide the allocations.
        volatile char Sink = 0;
        std::vector<char *> Keep;
        for (int I = 0; I < 64; ++I) {
          char *Chunk = new char[16u << 20];
          for (size_t J = 0; J < (16u << 20); J += 4096)
            Chunk[J] = 1;
          Keep.push_back(Chunk);
          Sink ^= Chunk[0];
        }
        return Sink ? 1 : 0;
      },
      P, &Error, Limits))
      << Error;
  EXPECT_TRUE(P.wait().exitedWith(WorkerOomExit)) << P.status().str();
}

//===----------------------------------------------------------------------===//
// Process-fatal fault plans and name round trips
//===----------------------------------------------------------------------===//

TEST(FaultPlanTest, ParsesProcessFatalActions) {
  FaultPlan F;
  ASSERT_TRUE(FaultPlan::parse("build:crash:1", F));
  EXPECT_EQ(F.Kind, FaultPlan::Action::Crash);
  EXPECT_EQ(F.Package, 1u);
  EXPECT_TRUE(F.processFatal());
  ASSERT_TRUE(FaultPlan::parse("query:hang", F));
  EXPECT_EQ(F.Kind, FaultPlan::Action::Hang);
  EXPECT_TRUE(F.processFatal());
  ASSERT_TRUE(FaultPlan::parse("import:oom:2", F));
  EXPECT_EQ(F.Kind, FaultPlan::Action::Oom);
  EXPECT_TRUE(F.processFatal());
  ASSERT_TRUE(FaultPlan::parse("build:fail:0", F));
  EXPECT_FALSE(F.processFatal());
  std::string Error;
  EXPECT_FALSE(FaultPlan::parse("build:explode", F, &Error));
  EXPECT_NE(Error.find("crash"), std::string::npos);
}

TEST(NamesTest, ScanErrorKindRoundTrips) {
  for (ScanErrorKind K :
       {ScanErrorKind::ParseError, ScanErrorKind::Deadline,
        ScanErrorKind::Budget, ScanErrorKind::InjectedFault,
        ScanErrorKind::Schema, ScanErrorKind::Internal,
        ScanErrorKind::Crashed, ScanErrorKind::KilledOom,
        ScanErrorKind::KilledDeadline}) {
    ScanErrorKind Back;
    ASSERT_TRUE(
        scanner::scanErrorKindFromName(scanner::scanErrorKindName(K), Back));
    EXPECT_EQ(Back, K);
  }
  ScanErrorKind K;
  EXPECT_FALSE(scanner::scanErrorKindFromName("no-such-kind", K));
}

TEST(NamesTest, BatchStatusRoundTrips) {
  for (driver::BatchStatus S :
       {driver::BatchStatus::Ok, driver::BatchStatus::Degraded,
        driver::BatchStatus::Failed}) {
    driver::BatchStatus Back;
    ASSERT_TRUE(
        driver::batchStatusFromName(driver::batchStatusName(S), Back));
    EXPECT_EQ(Back, S);
  }
  driver::BatchStatus S;
  EXPECT_FALSE(driver::batchStatusFromName("exploded", S));
}

TEST(JournalTest, LineParsesBackToOutcome) {
  driver::BatchOutcome Out;
  Out.Package = "left-pad";
  Out.Status = driver::BatchStatus::Degraded;
  Out.Seconds = 1.25;
  Out.Result.Degradation = 1;
  Out.Result.Attempts = 2;
  Out.Result.Retries = 1;
  Out.Result.CumulativeTimes.GraphBuild = 0.5;
  Out.Result.CumulativeTimes.Query = 0.25;
  Out.Result.MDGNodes = 42;
  Out.Result.MDGEdges = 99;
  Out.Result.Errors.push_back({ScanPhase::Build, ScanErrorKind::Deadline,
                               "wall clock expired", "index.js"});
  queries::VulnReport R;
  R.Type = queries::VulnType::CommandInjection;
  R.SinkLoc.Line = 17;
  R.SinkName = "exec";
  Out.Result.Reports.push_back(R);

  driver::BatchOutcome Back;
  ASSERT_TRUE(driver::BatchDriver::parseJournalLine(
      driver::BatchDriver::journalLine(Out), Back));
  EXPECT_EQ(Back.Package, "left-pad");
  EXPECT_EQ(Back.Status, driver::BatchStatus::Degraded);
  EXPECT_DOUBLE_EQ(Back.Seconds, 1.25);
  EXPECT_EQ(Back.Result.Degradation, 1u);
  EXPECT_EQ(Back.Result.Retries, 1u);
  EXPECT_DOUBLE_EQ(Back.Result.CumulativeTimes.Query, 0.25);
  EXPECT_EQ(Back.Result.MDGNodes, 42u);
  EXPECT_EQ(Back.Result.MDGEdges, 99u);
  ASSERT_EQ(Back.Result.Errors.size(), 1u);
  EXPECT_EQ(Back.Result.Errors[0].Kind, ScanErrorKind::Deadline);
  EXPECT_EQ(Back.Result.Errors[0].Phase, ScanPhase::Build);
  EXPECT_EQ(Back.Result.Errors[0].File, "index.js");
  ASSERT_EQ(Back.Result.Reports.size(), 1u);
  EXPECT_EQ(Back.Result.Reports[0], R);

  EXPECT_FALSE(driver::BatchDriver::parseJournalLine("not json", Back));
  EXPECT_FALSE(driver::BatchDriver::parseJournalLine("{\"x\":1}", Back));
}

TEST(StatsTest, BreakdownPrintsWallVsCpuAndWorkers) {
  driver::BatchSummary S;
  S.Scanned = 8;
  S.TotalSeconds = 4.0; // Summed per-package CPU across workers.
  S.WallSeconds = 2.0;  // End-to-end wall-clock.
  S.Crashed = 1;
  S.OomKilled = 2;
  S.DeadlineKilled = 3;
  S.Retried = 4;
  std::string Text = driver::batchStatsText(S);
  EXPECT_NE(Text.find("wall 2.000s"), std::string::npos) << Text;
  EXPECT_NE(Text.find("cpu 4.000s"), std::string::npos) << Text;
  // Throughput is wall-clock based: 8 / 2.0.
  EXPECT_NE(Text.find("4.00 packages/sec"), std::string::npos) << Text;
  EXPECT_NE(Text.find("workers: 1 crashed, 2 oom-killed, 3 deadline-killed, "
                      "4 retried"),
            std::string::npos)
      << Text;

  // Without worker deaths the breakdown line stays out of the way.
  driver::BatchSummary Clean;
  Clean.Scanned = 1;
  Clean.TotalSeconds = 1;
  EXPECT_EQ(driver::batchStatsText(Clean).find("workers:"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// ProcessPool (library)
//===----------------------------------------------------------------------===//

TEST(ProcessPoolTest, HealthyBatchMatchesInProcessDriver) {
  std::vector<driver::BatchInput> Inputs = healthyInputs(6);

  driver::BatchOptions BO;
  driver::BatchSummary InProc = driver::BatchDriver(BO).run(Inputs);

  driver::PoolOptions PO;
  PO.Jobs = 3;
  driver::BatchSummary Pooled = driver::ProcessPool(PO).run(Inputs);

  EXPECT_EQ(Pooled.Scanned, 6u);
  EXPECT_EQ(Pooled.Ok, InProc.Ok);
  EXPECT_EQ(Pooled.Failed, 0u);
  EXPECT_EQ(Pooled.TotalReports, InProc.TotalReports);
  ASSERT_EQ(Pooled.Outcomes.size(), InProc.Outcomes.size());
  for (size_t I = 0; I < Pooled.Outcomes.size(); ++I) {
    // Input order regardless of worker completion order, same verdicts,
    // same report sets (journal-persisted fields: type, sink line, sink —
    // the pool round-trips outcomes through the journal format).
    EXPECT_EQ(Pooled.Outcomes[I].Package, Inputs[I].Name);
    EXPECT_EQ(Pooled.Outcomes[I].Status, InProc.Outcomes[I].Status);
    const auto &PR = Pooled.Outcomes[I].Result.Reports;
    const auto &IR = InProc.Outcomes[I].Result.Reports;
    ASSERT_EQ(PR.size(), IR.size()) << Inputs[I].Name;
    for (size_t J = 0; J < PR.size(); ++J) {
      EXPECT_EQ(PR[J].Type, IR[J].Type);
      EXPECT_EQ(PR[J].SinkLoc.Line, IR[J].SinkLoc.Line);
      EXPECT_EQ(PR[J].SinkName, IR[J].SinkName);
    }
  }
}

namespace {

/// The two ends of the pool's isolation range: a fresh worker process per
/// package (RecycleAfter = 1) and workers that live for the whole run (0).
/// Every containment and merge assertion must hold at both.
constexpr unsigned RecycleSettings[] = {1, 0};

/// A journal line with its wall-clock fields ("seconds", "graph_seconds",
/// "query_seconds", also inside the attempt log) zeroed: everything else a
/// scan journals is deterministic.
std::string withoutTimings(const std::string &Line) {
  static const std::regex Timing("(\"[a-z_]*seconds\"):[-+.eE0-9]+");
  return std::regex_replace(Line, Timing, "$1:0");
}

} // namespace

TEST(ProcessPoolTest, RecycleAfterOneMatchesResidentWorkers) {
  std::vector<driver::BatchInput> Inputs = healthyInputs(6);
  std::map<unsigned, driver::BatchSummary> ByRecycle;
  std::map<unsigned, std::vector<std::string>> Journals;
  for (unsigned RecycleAfter : RecycleSettings) {
    std::string Journal = testing::TempDir() + "procpool_recycle" +
                          std::to_string(RecycleAfter) + "_" +
                          std::to_string(::getpid()) + ".jsonl";
    driver::PoolOptions PO;
    PO.Jobs = 3;
    PO.RecycleAfter = RecycleAfter;
    PO.Batch.JournalPath = Journal;
    ByRecycle[RecycleAfter] = driver::ProcessPool(PO).run(Inputs);
    for (const std::string &Line : readLines(Journal))
      Journals[RecycleAfter].push_back(withoutTimings(Line));
    std::remove(Journal.c_str());
  }
  const driver::BatchSummary &Isolated = ByRecycle[1];
  const driver::BatchSummary &Resident = ByRecycle[0];

  EXPECT_EQ(Isolated.Scanned, 6u);
  EXPECT_EQ(Isolated.Failed, 0u);
  EXPECT_EQ(Isolated.Recycled, 6u);
  EXPECT_EQ(Resident.Recycled, 0u);
  EXPECT_EQ(Isolated.Ok, Resident.Ok);
  EXPECT_EQ(Isolated.TotalReports, Resident.TotalReports);
  ASSERT_EQ(Isolated.Outcomes.size(), Resident.Outcomes.size());
  for (size_t I = 0; I < Isolated.Outcomes.size(); ++I) {
    EXPECT_EQ(Isolated.Outcomes[I].Package, Inputs[I].Name);
    EXPECT_EQ(Isolated.Outcomes[I].Status, Resident.Outcomes[I].Status);
    const auto &IR = Isolated.Outcomes[I].Result.Reports;
    const auto &RR = Resident.Outcomes[I].Result.Reports;
    ASSERT_EQ(IR.size(), RR.size()) << Inputs[I].Name;
    for (size_t J = 0; J < IR.size(); ++J) {
      EXPECT_EQ(IR[J].Type, RR[J].Type);
      EXPECT_EQ(IR[J].SinkLoc.Line, RR[J].SinkLoc.Line);
      EXPECT_EQ(IR[J].SinkName, RR[J].SinkName);
    }
  }
  // Same journal bytes apart from wall-clock timings.
  ASSERT_EQ(Journals[1].size(), 6u);
  EXPECT_EQ(Journals[1], Journals[0]);
}

TEST(ProcessPoolTest, FaultsAndResumeMatchInProcessRun) {
  // One fault list, one plan: an index fault counts scanned packages
  // (the resumed one is not counted), a name fault follows its package,
  // and both runs journal the same lines.
  std::vector<driver::BatchInput> Inputs = healthyInputs(5);
  FaultPlan ByName;
  ASSERT_TRUE(FaultPlan::parse("build:fail@pkg0", ByName));
  std::map<unsigned, driver::BatchSummary> ByJobs;
  std::map<unsigned, std::vector<std::string>> Journals;
  for (unsigned Jobs : {0u, 2u}) {
    std::string Journal = testing::TempDir() + "procpool_parity" +
                          std::to_string(Jobs) + "_" +
                          std::to_string(::getpid()) + ".jsonl";
    {
      std::ofstream Out(Journal, std::ios::trunc);
      Out << R"({"package":"pkg1","status":"ok"})" << "\n";
    }
    driver::PoolOptions PO;
    PO.Jobs = Jobs;
    PO.Batch.JournalPath = Journal;
    PO.Batch.Resume = true;
    PO.Batch.Faults.push_back(
        makeFault(ScanPhase::Query, FaultPlan::Action::Fail, 2));
    PO.Batch.Faults.push_back(ByName);
    ByJobs[Jobs] = driver::ProcessPool(PO).run(Inputs);
    for (const std::string &Line : readLines(Journal))
      Journals[Jobs].push_back(withoutTimings(Line));
    std::remove(Journal.c_str());
  }
  for (unsigned Jobs : {0u, 2u}) {
    SCOPED_TRACE("Jobs=" + std::to_string(Jobs));
    const driver::BatchSummary &S = ByJobs[Jobs];
    EXPECT_EQ(S.Scanned, 4u);
    EXPECT_EQ(S.SkippedResumed, 1u);
    ASSERT_EQ(S.Outcomes.size(), 5u);
    std::set<std::string> Faulted;
    for (const driver::BatchOutcome &O : S.Outcomes)
      if (O.Result.faulted())
        Faulted.insert(O.Package);
    // pkg3 is the third package scanned (index 2): pkg1 is resumed.
    EXPECT_EQ(Faulted, (std::set<std::string>{"pkg0", "pkg3"}));
    EXPECT_TRUE(S.Outcomes[1].Skipped);
    EXPECT_EQ(S.Outcomes[0].Status, driver::BatchStatus::Degraded);
    EXPECT_EQ(S.Outcomes[3].Status, driver::BatchStatus::Degraded);
  }
  for (size_t I = 0; I < Inputs.size(); ++I) {
    EXPECT_EQ(ByJobs[0].Outcomes[I].Status, ByJobs[2].Outcomes[I].Status);
    EXPECT_EQ(ByJobs[0].Outcomes[I].Skipped, ByJobs[2].Outcomes[I].Skipped);
  }
  // Same journal bytes apart from wall-clock timings.
  ASSERT_EQ(Journals[0].size(), 5u);
  EXPECT_EQ(Journals[0], Journals[2]);
}

TEST(ProcessPoolTest, CrashIsContainedAndAttributed) {
  for (unsigned RecycleAfter : RecycleSettings) {
    SCOPED_TRACE("RecycleAfter=" + std::to_string(RecycleAfter));
    driver::PoolOptions PO;
    PO.Jobs = 2;
    PO.RecycleAfter = RecycleAfter;
    PO.Batch.Faults.push_back(
        makeFault(ScanPhase::Build, FaultPlan::Action::Crash, 1));
    driver::BatchSummary S = driver::ProcessPool(PO).run(healthyInputs(4));

    EXPECT_EQ(S.Scanned, 4u);
    EXPECT_EQ(S.Failed, 1u);
    EXPECT_EQ(S.Ok, 3u);
    EXPECT_EQ(S.Crashed, 1u);
    ASSERT_EQ(S.Outcomes.size(), 4u);
    EXPECT_EQ(S.Outcomes[1].Status, driver::BatchStatus::Failed);
    EXPECT_EQ(failureKind(S.Outcomes[1]), ScanErrorKind::Crashed);
    // SIGABRT shows up in the detail string.
    EXPECT_NE(S.Outcomes[1].Result.Errors[0].Detail.find("SIGABRT"),
              std::string::npos)
        << S.Outcomes[1].Result.Errors[0].Detail;
  }
}

TEST(ProcessPoolTest, OomIsContainedAndAttributed) {
  for (unsigned RecycleAfter : RecycleSettings) {
    SCOPED_TRACE("RecycleAfter=" + std::to_string(RecycleAfter));
    driver::PoolOptions PO;
    PO.Jobs = 2;
    PO.RecycleAfter = RecycleAfter;
    PO.MemLimitMB = 128;
    PO.Batch.Faults.push_back(
        makeFault(ScanPhase::Build, FaultPlan::Action::Oom, 0));
    driver::BatchSummary S = driver::ProcessPool(PO).run(healthyInputs(3));

    EXPECT_EQ(S.Failed, 1u);
    EXPECT_EQ(S.OomKilled, 1u);
    EXPECT_EQ(S.Outcomes[0].Status, driver::BatchStatus::Failed);
    EXPECT_EQ(failureKind(S.Outcomes[0]), ScanErrorKind::KilledOom);
    EXPECT_EQ(S.Ok, 2u);
  }
}

TEST(ProcessPoolTest, HangIsKilledAtSupervisorDeadline) {
  for (unsigned RecycleAfter : RecycleSettings) {
    SCOPED_TRACE("RecycleAfter=" + std::to_string(RecycleAfter));
    driver::PoolOptions PO;
    PO.Jobs = 2;
    PO.RecycleAfter = RecycleAfter;
    PO.KillAfterSeconds = 1.0;
    PO.Batch.Faults.push_back(
        makeFault(ScanPhase::Build, FaultPlan::Action::Hang, 0));
    driver::BatchSummary S = driver::ProcessPool(PO).run(healthyInputs(4));

    EXPECT_EQ(S.Failed, 1u);
    EXPECT_EQ(S.DeadlineKilled, 1u);
    EXPECT_EQ(S.Outcomes[0].Status, driver::BatchStatus::Failed);
    EXPECT_EQ(failureKind(S.Outcomes[0]), ScanErrorKind::KilledDeadline);
    // The healthy packages finished despite the spinning worker, and its
    // replacement drained the rest of the queue.
    EXPECT_EQ(S.Ok, 3u);
  }
}

TEST(ProcessPoolTest, RetryCrashedRecoversTransientFault) {
  for (unsigned RecycleAfter : RecycleSettings) {
    SCOPED_TRACE("RecycleAfter=" + std::to_string(RecycleAfter));
    driver::PoolOptions PO;
    PO.Jobs = 2;
    PO.RecycleAfter = RecycleAfter;
    PO.RetryCrashed = true;
    PO.Batch.Faults.push_back(
        makeFault(ScanPhase::Build, FaultPlan::Action::Crash, 0));
    driver::BatchSummary S = driver::ProcessPool(PO).run(healthyInputs(3));

    // The fault is dropped on retry (one-shot transient semantics), so the
    // package recovers; the death is still on the books.
    EXPECT_EQ(S.Retried, 1u);
    EXPECT_EQ(S.Crashed, 1u);
    EXPECT_EQ(S.Failed, 0u);
    EXPECT_EQ(S.Ok, 3u);
    EXPECT_EQ(S.Outcomes[0].Status, driver::BatchStatus::Ok);
  }
}

TEST(ProcessPoolTest, EffectiveKillAfterDerivesFromDeadline) {
  driver::PoolOptions PO;
  EXPECT_EQ(driver::ProcessPool::effectiveKillAfter(PO), 0.0);
  PO.Batch.Scan.Deadline.WallSeconds = 2.0;
  EXPECT_DOUBLE_EQ(driver::ProcessPool::effectiveKillAfter(PO), 5.0);
  PO.KillAfterSeconds = 0.5;
  EXPECT_DOUBLE_EQ(driver::ProcessPool::effectiveKillAfter(PO), 0.5);
}

TEST(ProcessPoolTest, JournalMergeIsInputOrderAndResumable) {
  for (unsigned RecycleAfter : RecycleSettings) {
    SCOPED_TRACE("RecycleAfter=" + std::to_string(RecycleAfter));
    std::string Journal = testing::TempDir() + "procpool_resume_" +
                          std::to_string(::getpid()) + ".jsonl";
    std::remove(Journal.c_str());
    std::vector<driver::BatchInput> Inputs = healthyInputs(6);

    // Shard 1: scan the first three packages only.
    driver::PoolOptions PO;
    PO.Jobs = 3;
    PO.RecycleAfter = RecycleAfter;
    PO.Batch.JournalPath = Journal;
    PO.Batch.MaxPackages = 3;
    driver::BatchSummary First = driver::ProcessPool(PO).run(Inputs);
    EXPECT_EQ(First.Scanned, 3u);

    std::vector<std::string> Lines = readLines(Journal);
    ASSERT_EQ(Lines.size(), 3u);
    for (size_t I = 0; I < Lines.size(); ++I) {
      driver::BatchOutcome O;
      ASSERT_TRUE(driver::BatchDriver::parseJournalLine(Lines[I], O));
      EXPECT_EQ(O.Package, Inputs[I].Name); // Input order, not finish order.
    }

    // Shard 2: resume scans only the unjournaled half.
    PO.Batch.MaxPackages = 0;
    PO.Batch.Resume = true;
    driver::BatchSummary Second = driver::ProcessPool(PO).run(Inputs);
    EXPECT_EQ(Second.SkippedResumed, 3u);
    EXPECT_EQ(Second.Scanned, 3u);

    std::set<std::string> Seen;
    for (const std::string &Line : readLines(Journal)) {
      driver::BatchOutcome O;
      ASSERT_TRUE(driver::BatchDriver::parseJournalLine(Line, O));
      EXPECT_TRUE(Seen.insert(O.Package).second)
          << O.Package << " journaled twice";
    }
    EXPECT_EQ(Seen.size(), 6u);
    std::remove(Journal.c_str());
  }
}

//===----------------------------------------------------------------------===//
// ProcessPool worker lifecycle
//===----------------------------------------------------------------------===//

TEST(PersistentPoolTest, CrashMidQueueFailsOnlyItsPackage) {
  // One worker draining a six-package queue; the crash on package 2 must
  // fail exactly that package, and the re-forked replacement must drain
  // everything after it.
  driver::PoolOptions PO;
  PO.Jobs = 1;
  PO.Batch.Faults.push_back(
      makeFault(ScanPhase::Build, FaultPlan::Action::Crash, 2));
  driver::BatchSummary S = driver::ProcessPool(PO).run(healthyInputs(6));

  EXPECT_EQ(S.Scanned, 6u);
  EXPECT_EQ(S.Failed, 1u);
  EXPECT_EQ(S.Ok, 5u);
  EXPECT_EQ(S.Crashed, 1u);
  ASSERT_EQ(S.Outcomes.size(), 6u);
  EXPECT_EQ(S.Outcomes[2].Status, driver::BatchStatus::Failed);
  EXPECT_EQ(failureKind(S.Outcomes[2]), ScanErrorKind::Crashed);
  for (size_t I : {0u, 1u, 3u, 4u, 5u})
    EXPECT_EQ(S.Outcomes[I].Status, driver::BatchStatus::Ok) << I;
}

TEST(PersistentPoolTest, RecycleQuotaRetiresAndReplacesWorkers) {
  driver::PoolOptions PO;
  PO.Jobs = 1;
  PO.RecycleAfter = 2;
  driver::BatchSummary S = driver::ProcessPool(PO).run(healthyInputs(6));

  EXPECT_EQ(S.Scanned, 6u);
  EXPECT_EQ(S.Failed, 0u);
  EXPECT_EQ(S.Ok, 6u);
  // 6 packages / quota 2 = 3 planned retirements, none of them failures.
  EXPECT_EQ(S.Recycled, 3u);
  EXPECT_EQ(S.Crashed, 0u);
}

TEST(ProcessPoolTest, RecycleAfterOneDoesNotWaitForTheTick) {
  // A retiring worker has answered its last job and holds no slot: its
  // replacement is forked as soon as the response arrives. Were it to keep
  // the slot until reaped, the supervisor — its EOF already consumed, no
  // fd left to poll — would sleep out the 50 ms activity tick between
  // every two packages.
  obs::TraceRecorder TR;
  driver::PoolOptions PO;
  PO.Jobs = 1;
  PO.RecycleAfter = 1;
  PO.Trace = &TR;
  driver::BatchSummary S = driver::ProcessPool(PO).run(healthyInputs(16));
  ASSERT_EQ(S.Ok, 16u);
  EXPECT_EQ(S.Recycled, 16u);

  std::vector<const obs::SpanRecord *> Jobs;
  for (const obs::SpanRecord &Span : TR.spans())
    if (Span.Name.rfind("job:", 0) == 0)
      Jobs.push_back(&Span);
  ASSERT_EQ(Jobs.size(), 16u);
  std::sort(Jobs.begin(), Jobs.end(),
            [](const obs::SpanRecord *A, const obs::SpanRecord *B) {
              return A->StartUs < B->StartUs;
            });
  std::vector<double> GapsUs;
  for (size_t I = 1; I < Jobs.size(); ++I)
    GapsUs.push_back(Jobs[I]->StartUs -
                     (Jobs[I - 1]->StartUs + Jobs[I - 1]->DurUs));
  // The median keeps the bound stable under a loaded parallel test run.
  std::nth_element(GapsUs.begin(), GapsUs.begin() + GapsUs.size() / 2,
                   GapsUs.end());
  EXPECT_LT(GapsUs[GapsUs.size() / 2], 25000.0)
      << "median gap between consecutive jobs, us";
}

//===----------------------------------------------------------------------===//
// CLI round trips
//===----------------------------------------------------------------------===//

//===----------------------------------------------------------------------===//
// Cross-process telemetry: stitched traces and merged counters
//===----------------------------------------------------------------------===//

namespace {

/// Forces the counter gate on for one test and restores it after (the
/// supervisor-side worker.job_us clock and merge assertions need it).
class CounterGate {
public:
  explicit CounterGate(bool On) : Prev(obs::setCountersEnabled(On)) {}
  ~CounterGate() { obs::setCountersEnabled(Prev); }

private:
  bool Prev;
};

/// Shared assertions for a stitched pool trace: supervisor job: spans on
/// the default lane, worker phase spans on per-pid lanes, and every
/// worker package span nested inside some scheduling span.
void checkStitchedTrace(const obs::TraceRecorder &TR, size_t Packages) {
  std::vector<const obs::SpanRecord *> Jobs, Pkgs;
  for (const obs::SpanRecord &S : TR.spans()) {
    if (S.Name.rfind("job:", 0) == 0)
      Jobs.push_back(&S);
    else if (S.Name == "package")
      Pkgs.push_back(&S);
  }
  EXPECT_EQ(Jobs.size(), Packages);
  EXPECT_EQ(Pkgs.size(), Packages);
  std::set<int> WorkerPids;
  for (const obs::SpanRecord *J : Jobs)
    EXPECT_EQ(J->Pid, 0) << "job: spans live on the supervisor lane";
  for (const obs::SpanRecord *P : Pkgs) {
    EXPECT_NE(P->Pid, 0) << "package spans live on worker lanes";
    WorkerPids.insert(P->Pid);
    EXPECT_GE(P->StartUs, 0.0);
    EXPECT_GE(P->DurUs, 0.0);
    bool Enclosed = false;
    for (const obs::SpanRecord *J : Jobs)
      Enclosed |= J->StartUs <= P->StartUs + 1e-6 &&
                  P->StartUs + P->DurUs <= J->StartUs + J->DurUs + 1e-6;
    EXPECT_TRUE(Enclosed) << "package span at " << P->StartUs
                          << "us outside every job: scheduling span";
  }
  EXPECT_GE(WorkerPids.size(), 1u);
}

} // namespace

TEST(ProcessPoolTest, TraceStitchesWorkerSpansOntoPidLanes) {
  for (unsigned RecycleAfter : RecycleSettings) {
    SCOPED_TRACE("RecycleAfter=" + std::to_string(RecycleAfter));
    obs::TraceRecorder TR;
    driver::PoolOptions PO;
    PO.Jobs = 2;
    PO.RecycleAfter = RecycleAfter;
    PO.Trace = &TR;
    driver::BatchSummary S = driver::ProcessPool(PO).run(healthyInputs(4));
    EXPECT_EQ(S.Ok, 4u);
    checkStitchedTrace(TR, 4);
    // The Chrome export carries one lane label per process.
    std::string JSON = TR.toChromeJSON();
    EXPECT_NE(JSON.find("process_name"), std::string::npos);
    EXPECT_NE(JSON.find("supervisor"), std::string::npos);
    EXPECT_NE(JSON.find("worker "), std::string::npos);
  }
}

TEST(ProcessPoolTest, WorkerCounterDeltasMergeIntoSupervisor) {
  // The undercount this fixes: before stitching, a --jobs N run left the
  // supervisor's registry blind to all scan-pipeline work (it happened in
  // children). The supervisor merges each journal line's counter delta, so
  // its totals equal the per-outcome journal sums.
  CounterGate Gate(true);
  for (unsigned RecycleAfter : RecycleSettings) {
    SCOPED_TRACE("RecycleAfter=" + std::to_string(RecycleAfter));
    obs::resetCounters();
    obs::resetHistograms();
    driver::PoolOptions PO;
    PO.Jobs = 2;
    PO.RecycleAfter = RecycleAfter;
    driver::BatchSummary S = driver::ProcessPool(PO).run(healthyInputs(4));
    ASSERT_EQ(S.Ok, 4u);

    uint64_t JournalTokens = 0, JournalNodes = 0;
    for (const driver::BatchOutcome &O : S.Outcomes) {
      auto It = O.Result.Counters.find("lex.tokens");
      ASSERT_NE(It, O.Result.Counters.end()) << O.Package;
      JournalTokens += It->second;
      JournalNodes += O.Result.Counters.count("build.mdg_nodes")
                          ? O.Result.Counters.at("build.mdg_nodes")
                          : 0;
    }
    obs::CounterSnapshot Snap = obs::snapshotCounters();
    EXPECT_GT(JournalTokens, 0u);
    EXPECT_EQ(Snap.at("lex.tokens"), JournalTokens);
    EXPECT_GT(JournalNodes, 0u);
    EXPECT_EQ(Snap.at("build.mdg_nodes"), JournalNodes);
    EXPECT_EQ(Snap.at("scan.attempts"), 4u);

    // Histogram deltas rode the same frames: one scan-latency sample per
    // package, plus the supervisor's own per-job turnaround clock.
    obs::HistogramSnapshotMap Hists = obs::snapshotHistograms();
    EXPECT_EQ(Hists.at("scan.latency_us").count(), 4u);
    EXPECT_EQ(Hists.at("worker.job_us").count(), 4u);
    EXPECT_GT(Hists.at("phase.parse_us").count(), 0u);
  }
  obs::resetCounters();
  obs::resetHistograms();
}

TEST(ProcessPoolTest, MetricsOutWritesPrometheusSnapshot) {
  CounterGate Gate(true);
  obs::resetCounters();
  obs::resetHistograms();
  std::string Prom = testing::TempDir() + "gjs_pool_metrics_" +
                     std::to_string(::getpid()) + ".prom";
  std::remove(Prom.c_str());
  driver::PoolOptions PO;
  PO.Jobs = 2;
  PO.Batch.MetricsPath = Prom;
  driver::BatchSummary S = driver::ProcessPool(PO).run(healthyInputs(3));
  ASSERT_EQ(S.Ok, 3u);
  std::ifstream In(Prom);
  std::stringstream SS;
  SS << In.rdbuf();
  std::string Page = SS.str();
  EXPECT_NE(Page.find("# TYPE graphjs_scan_latency_us summary"),
            std::string::npos)
      << Page;
  EXPECT_NE(Page.find("graphjs_scan_latency_us_count 3"), std::string::npos);
  EXPECT_NE(Page.find("# TYPE graphjs_lex_tokens counter"), std::string::npos)
      << "merged worker counters must reach the snapshot";
  std::remove(Prom.c_str());
  obs::resetCounters();
  obs::resetHistograms();
}

TEST(ProcessPoolTest, FrameBytesCountsEachFrameOnceInBothDirections) {
  // Each frame is recorded by its reader: the scan requests by the workers
  // (shipped on their histogram deltas), the responses by the supervisor.
  // Exit frames are read after a worker's last delta and never ship.
  CounterGate Gate(true);
  for (unsigned RecycleAfter : {0u, 3u}) {
    SCOPED_TRACE("RecycleAfter=" + std::to_string(RecycleAfter));
    obs::resetHistograms();
    driver::PoolOptions PO;
    PO.Jobs = 2;
    PO.RecycleAfter = RecycleAfter;
    driver::BatchSummary S = driver::ProcessPool(PO).run(healthyInputs(6));
    ASSERT_EQ(S.Ok, 6u);
    const obs::HistogramSnapshot Frames =
        obs::snapshotHistograms().at("proto.frame_bytes");
    EXPECT_EQ(Frames.count(), 12u) << "one request and one response per job";
    // Every response carries its package's journal line.
    uint64_t LineBytes = 0;
    for (const driver::BatchOutcome &O : S.Outcomes)
      LineBytes += O.RawJournalLine.size();
    EXPECT_GE(Frames.Sum, LineBytes);
  }
  obs::resetHistograms();
}

//===----------------------------------------------------------------------===//
// Pipelining: a running job and one queued behind it per worker
//===----------------------------------------------------------------------===//

namespace {

/// Workers that live for the whole run, and a recycle quota that is not a
/// multiple of the two-job queue, so a worker's last job is sent alone.
constexpr unsigned PipelineRecycleSettings[] = {0, 3};

uint64_t counterValue(const std::string &Name) {
  obs::CounterSnapshot Snap = obs::snapshotCounters();
  auto It = Snap.find(Name);
  return It == Snap.end() ? 0 : It->second;
}

} // namespace

TEST(PipelinedPoolTest, CrashSparesTheJobQueuedBehindIt) {
  CounterGate Gate(true);
  for (bool Retry : {false, true})
    for (unsigned RecycleAfter : PipelineRecycleSettings) {
      SCOPED_TRACE("RecycleAfter=" + std::to_string(RecycleAfter) +
                   " RetryCrashed=" + std::to_string(Retry));
      obs::resetCounters();
      // One worker: the first assignment pass queues pkg1 behind pkg0.
      // pkg0 is large, so its build (where the crash fires) starts long
      // after both requests are written.
      std::vector<driver::BatchInput> Inputs = healthyInputs(4);
      Inputs[0].Files = workload::PackageGenerator(7).benign(3000).Files;
      driver::PoolOptions PO;
      PO.Jobs = 1;
      PO.RecycleAfter = RecycleAfter;
      PO.RetryCrashed = Retry;
      PO.Batch.Faults.push_back(
          makeFault(ScanPhase::Build, FaultPlan::Action::Crash, 0));
      std::map<std::string, unsigned> Starts;
      PO.Batch.OnPackageStart = [&](const std::string &Pkg) { ++Starts[Pkg]; };
      driver::BatchSummary S = driver::ProcessPool(PO).run(Inputs);

      EXPECT_EQ(counterValue("worker.requeued"), 1u)
          << "pkg1 went back to the queue unstarted";
      // Sent twice, started once: the start hook (the shared ledger's
      // strike record) fires only when a job reaches the head.
      EXPECT_EQ(Starts["pkg0"], Retry ? 2u : 1u);
      EXPECT_EQ(Starts["pkg1"], 1u);
      EXPECT_EQ(S.Scanned, 4u);
      EXPECT_EQ(S.Crashed, 1u);
      EXPECT_EQ(S.Retried, Retry ? 1u : 0u);
      EXPECT_EQ(counterValue("worker.crashed"), 1u);
      EXPECT_EQ(counterValue("worker.retried"), Retry ? 1u : 0u);
      ASSERT_EQ(S.Outcomes.size(), 4u);
      EXPECT_EQ(S.Outcomes[1].Status, driver::BatchStatus::Ok);
      if (Retry) {
        EXPECT_EQ(S.Ok, 4u);
      } else {
        EXPECT_EQ(S.Ok, 3u);
        EXPECT_EQ(S.Failed, 1u);
        EXPECT_EQ(failureKind(S.Outcomes[0]), ScanErrorKind::Crashed);
      }
    }
  obs::resetCounters();
}

TEST(PipelinedPoolTest, HangKillsOnlyTheHungJob) {
  CounterGate Gate(true);
  for (unsigned RecycleAfter : PipelineRecycleSettings) {
    SCOPED_TRACE("RecycleAfter=" + std::to_string(RecycleAfter));
    obs::resetCounters();
    // One worker: pkg1 becomes the head once pkg0 is answered, and pkg2 is
    // queued behind it for the whole second the hang lasts.
    driver::PoolOptions PO;
    PO.Jobs = 1;
    PO.RecycleAfter = RecycleAfter;
    PO.KillAfterSeconds = 1.0;
    PO.Batch.Faults.push_back(
        makeFault(ScanPhase::Build, FaultPlan::Action::Hang, 1));
    driver::BatchSummary S = driver::ProcessPool(PO).run(healthyInputs(4));

    EXPECT_EQ(counterValue("worker.requeued"), 1u);
    EXPECT_EQ(S.DeadlineKilled, 1u);
    EXPECT_EQ(S.Failed, 1u);
    EXPECT_EQ(S.Ok, 3u);
    ASSERT_EQ(S.Outcomes.size(), 4u);
    EXPECT_EQ(failureKind(S.Outcomes[1]), ScanErrorKind::KilledDeadline);
    EXPECT_EQ(S.Outcomes[2].Status, driver::BatchStatus::Ok);
  }
  obs::resetCounters();
}

TEST(PipelinedPoolTest, JobClockStartsAtTheHeadOfTheLine) {
  // One worker runs its jobs back to back. Timed from when each became
  // the head, the jobs' worker.job_us intervals are disjoint and fit in
  // the run's wall clock; timed from assignment, every queued job would
  // also count its wait behind the one ahead, and the sum would approach
  // twice the wall clock.
  CounterGate Gate(true);
  for (unsigned RecycleAfter : PipelineRecycleSettings) {
    SCOPED_TRACE("RecycleAfter=" + std::to_string(RecycleAfter));
    obs::resetHistograms();
    driver::PoolOptions PO;
    PO.Jobs = 1;
    PO.RecycleAfter = RecycleAfter;
    driver::BatchSummary S = driver::ProcessPool(PO).run(healthyInputs(8));
    ASSERT_EQ(S.Ok, 8u);
    const obs::HistogramSnapshot Jobs =
        obs::snapshotHistograms().at("worker.job_us");
    EXPECT_EQ(Jobs.count(), 8u);
    EXPECT_LE(static_cast<double>(Jobs.Sum), S.WallSeconds * 1e6);
  }
  obs::resetHistograms();
}

TEST(PipelinedPoolTest, RecycleAfterOneSendsEachJobOnce) {
  // A worker is sent at most its quota: with one job per process nothing
  // is ever queued behind a job, so nothing is handed back and sent again.
  CounterGate Gate(true);
  obs::resetCounters();
  obs::resetHistograms();
  driver::PoolOptions PO;
  PO.Jobs = 2;
  PO.RecycleAfter = 1;
  driver::BatchSummary S = driver::ProcessPool(PO).run(healthyInputs(6));
  ASSERT_EQ(S.Ok, 6u);
  EXPECT_EQ(S.Recycled, 6u);
  EXPECT_EQ(counterValue("worker.spawned"), 6u);
  EXPECT_EQ(counterValue("worker.requeued"), 0u);
  // Six requests read by workers, six responses read by the supervisor.
  EXPECT_EQ(obs::snapshotHistograms().at("proto.frame_bytes").count(), 12u);
  obs::resetCounters();
  obs::resetHistograms();
}

TEST(PipelinedPoolTest, SigtermDrainLeavesAResumableInputOrderPrefix) {
  for (unsigned RecycleAfter : PipelineRecycleSettings) {
    SCOPED_TRACE("RecycleAfter=" + std::to_string(RecycleAfter));
    std::string Journal = testing::TempDir() + "procpool_sigterm_" +
                          std::to_string(::getpid()) + ".jsonl";
    std::remove(Journal.c_str());
    std::vector<driver::BatchInput> Inputs = healthyInputs(12);

    // SIGTERM at the third job start, while both workers hold a queued
    // job: the pool stops assigning and finishes the jobs already sent.
    driver::PoolOptions PO;
    PO.Jobs = 2;
    PO.RecycleAfter = RecycleAfter;
    PO.Batch.JournalPath = Journal;
    unsigned Starts = 0;
    PO.Batch.OnPackageStart = [&](const std::string &) {
      if (++Starts == 3)
        ::raise(SIGTERM);
    };
    driver::BatchSummary First = driver::ProcessPool(PO).run(Inputs);

    std::vector<std::string> Lines = readLines(Journal);
    ASSERT_GE(Lines.size(), 3u);
    ASSERT_LT(Lines.size(), Inputs.size()) << "the drain stopped assigning";
    EXPECT_EQ(First.Scanned, Lines.size());
    EXPECT_EQ(First.Failed, 0u);

    // Resume scans exactly the rest; the journal ends up complete, each
    // package once, in input order.
    PO.Batch.OnPackageStart = nullptr;
    PO.Batch.Resume = true;
    driver::BatchSummary Second = driver::ProcessPool(PO).run(Inputs);
    EXPECT_EQ(Second.SkippedResumed, Lines.size());
    EXPECT_EQ(Second.Scanned, Inputs.size() - Lines.size());
    Lines = readLines(Journal);
    ASSERT_EQ(Lines.size(), Inputs.size());
    for (size_t I = 0; I < Lines.size(); ++I) {
      driver::BatchOutcome O;
      ASSERT_TRUE(driver::BatchDriver::parseJournalLine(Lines[I], O));
      EXPECT_EQ(O.Package, Inputs[I].Name);
      EXPECT_EQ(O.Status, driver::BatchStatus::Ok);
    }
    std::remove(Journal.c_str());
  }
}

#if defined(GRAPHJS_BIN)

namespace {

/// Writes a corpus of generated single-file packages to a fresh temp dir.
std::string writeCorpus(size_t N, size_t FillerLoC) {
  std::string Dir = testing::TempDir() + "procpool_corpus_" +
                    std::to_string(::getpid()) + "_" +
                    std::to_string(FillerLoC);
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  workload::PackageGenerator Gen(7);
  for (size_t I = 0; I < N; ++I) {
    workload::Package P =
        I % 2 ? Gen.benign(FillerLoC)
              : Gen.vulnerable(queries::VulnType::CommandInjection,
                               workload::Complexity::Wrapped,
                               workload::VariantKind::Plain, FillerLoC);
    char Name[64];
    std::snprintf(Name, sizeof(Name), "%s/pkg%03zu.js", Dir.c_str(), I);
    std::ofstream Out(Name);
    Out << P.Files[0].Contents;
  }
  return Dir;
}

/// Package name -> serialized "reports" array from a journal.
std::map<std::string, std::string> reportsByPackage(const std::string &Path) {
  std::map<std::string, std::string> Out;
  for (const std::string &Line : readLines(Path)) {
    json::Value V;
    if (!json::parse(Line, V) || !V.isObject())
      continue;
    const json::Object &O = V.asObject();
    if (!O.count("package") || !O.count("reports"))
      continue;
    Out[O.at("package").asString()] = O.at("reports").str();
  }
  return Out;
}

int runCLI(const std::string &Cmd) { return std::system(Cmd.c_str()); }

/// The non-zero counter series of a Prometheus page, by metric name.
std::map<std::string, uint64_t> promCounters(const std::string &Path) {
  std::map<std::string, uint64_t> Out;
  std::set<std::string> Counters;
  for (const std::string &Line : readLines(Path)) {
    std::istringstream In(Line);
    std::string A, B, C, D;
    In >> A >> B >> C >> D;
    if (A == "#" && B == "TYPE" && D == "counter")
      Counters.insert(C);
    else if (Counters.count(A) && B != "0")
      Out[A] = std::stoull(B);
  }
  return Out;
}

} // namespace

TEST(ProcessPoolCLITest, JobsFourContainsCrashAndHang) {
  std::string Dir = writeCorpus(6, 0);
  std::string J1 = Dir + "/j1.jsonl";
  std::string J4 = Dir + "/j4.jsonl";
  std::string Bin = GRAPHJS_BIN;

  ASSERT_EQ(runCLI(Bin + " batch --quiet --journal " + J1 + " " + Dir +
                   " > /dev/null 2>&1"),
            0);
  // Crash package 1, hang package 3; the hang dies at the supervisor's
  // kill deadline. A fresh worker per package: the maximum-isolation end of
  // the pool (PersistentContainsCrashAndMatchesReports covers the other).
  int RC = runCLI(Bin + " batch --quiet --jobs 4 --recycle-after 1"
                  " --journal " + J4 +
                  " --inject-fault build:crash:1"
                  " --inject-fault build:hang:3"
                  " --kill-after-ms 2000 " +
                  Dir + " > /dev/null 2>&1");
  EXPECT_NE(RC, 0); // Failures present -> nonzero exit.

  std::vector<std::string> Lines = readLines(J4);
  ASSERT_EQ(Lines.size(), 6u);
  std::map<std::string, std::string> KindByPkg;
  for (const std::string &Line : Lines) {
    driver::BatchOutcome O;
    ASSERT_TRUE(driver::BatchDriver::parseJournalLine(Line, O));
    if (O.Status == driver::BatchStatus::Failed)
      KindByPkg[O.Package] =
          scanner::scanErrorKindName(O.Result.Errors.at(0).Kind);
  }
  ASSERT_EQ(KindByPkg.size(), 2u);
  EXPECT_EQ(KindByPkg.count("pkg001.js"), 1u);
  EXPECT_EQ(KindByPkg["pkg001.js"], "crashed");
  EXPECT_EQ(KindByPkg.count("pkg003.js"), 1u);
  EXPECT_EQ(KindByPkg["pkg003.js"], "killed-deadline");

  // Healthy-package report sets identical between --jobs 1 and --jobs 4
  // (timing fields differ run to run; the findings must not).
  std::map<std::string, std::string> R1 = reportsByPackage(J1);
  std::map<std::string, std::string> R4 = reportsByPackage(J4);
  for (const auto &[Pkg, Reports] : R4)
    if (!KindByPkg.count(Pkg)) {
      ASSERT_EQ(R1.count(Pkg), 1u) << Pkg;
      EXPECT_EQ(Reports, R1[Pkg]) << Pkg;
    }
  std::filesystem::remove_all(Dir);
}

TEST(ProcessPoolCLITest, WorkerCountersMatchInProcessTotals) {
  // Worker counters reach the supervisor only on journal lines; every
  // scan-pipeline total must equal the in-process run's. The worker.*
  // counters are the pool's own bookkeeping.
  std::string Dir = writeCorpus(6, 0);
  std::string InProc = Dir + "/inproc.prom";
  std::string Pooled = Dir + "/pooled.prom";
  std::string Bin = GRAPHJS_BIN;
  ASSERT_EQ(runCLI(Bin + " batch --quiet --metrics-out " + InProc + " " +
                   Dir + " > /dev/null 2>&1"),
            0);
  ASSERT_EQ(runCLI(Bin + " batch --quiet --jobs 2 --metrics-out " + Pooled +
                   " " + Dir + " > /dev/null 2>&1"),
            0);
  std::map<std::string, uint64_t> Want = promCounters(InProc);
  std::map<std::string, uint64_t> Got = promCounters(Pooled);
  for (auto It = Got.begin(); It != Got.end();)
    It = It->first.rfind("graphjs_worker_", 0) == 0 ? Got.erase(It)
                                                     : std::next(It);
  EXPECT_TRUE(Want.count("graphjs_lex_tokens"));
  EXPECT_EQ(Got, Want);
  std::filesystem::remove_all(Dir);
}

TEST(ProcessPoolCLITest, PoolOnlyFlagsRequireJobs) {
  std::string Dir = writeCorpus(1, 0);
  std::string Bin = GRAPHJS_BIN;
  EXPECT_NE(runCLI(Bin + " batch --quiet --inject-fault build:crash:0 " +
                   Dir + " > /dev/null 2>&1"),
            0);
  EXPECT_NE(runCLI(Bin + " batch --quiet --mem-limit-mb 64 " + Dir +
                   " > /dev/null 2>&1"),
            0);
  EXPECT_NE(runCLI(Bin + " batch --quiet --retry-crashed " + Dir +
                   " > /dev/null 2>&1"),
            0);
  // Recycling is a worker policy: it needs workers.
  EXPECT_NE(runCLI(Bin + " batch --quiet --recycle-after 1 " + Dir +
                   " > /dev/null 2>&1"),
            0);
  EXPECT_NE(runCLI(Bin + " batch --quiet --recycle-mem-mb 64 " + Dir +
                   " > /dev/null 2>&1"),
            0);
  EXPECT_EQ(runCLI(Bin + " batch --quiet --jobs 2 --recycle-after 1 " + Dir +
                   " > /dev/null 2>&1"),
            0);
  std::filesystem::remove_all(Dir);
}

TEST(ProcessPoolCLITest, PersistentContainsCrashAndMatchesReports) {
  std::string Dir = writeCorpus(6, 0);
  std::string J1 = Dir + "/j1.jsonl";
  std::string JP = Dir + "/jp.jsonl";
  std::string Bin = GRAPHJS_BIN;

  ASSERT_EQ(runCLI(Bin + " batch --quiet --journal " + J1 + " " + Dir +
                   " > /dev/null 2>&1"),
            0);
  int RC = runCLI(Bin + " batch --quiet --jobs 2"
                  " --recycle-after 2 --journal " + JP +
                  " --inject-fault build:crash:1 " + Dir +
                  " > /dev/null 2>&1");
  EXPECT_NE(RC, 0); // The crashed package -> nonzero exit.

  std::vector<std::string> Lines = readLines(JP);
  ASSERT_EQ(Lines.size(), 6u);
  std::set<std::string> FailedPkgs;
  for (const std::string &Line : Lines) {
    driver::BatchOutcome O;
    ASSERT_TRUE(driver::BatchDriver::parseJournalLine(Line, O));
    if (O.Status == driver::BatchStatus::Failed) {
      FailedPkgs.insert(O.Package);
      EXPECT_EQ(failureKind(O), ScanErrorKind::Crashed);
    }
  }
  EXPECT_EQ(FailedPkgs, std::set<std::string>{"pkg001.js"});

  // Healthy-package report sets identical between in-process and
  // resident-worker scans (detection neutrality across execution modes).
  std::map<std::string, std::string> R1 = reportsByPackage(J1);
  std::map<std::string, std::string> RP = reportsByPackage(JP);
  for (const auto &[Pkg, Reports] : RP)
    if (!FailedPkgs.count(Pkg)) {
      ASSERT_EQ(R1.count(Pkg), 1u) << Pkg;
      EXPECT_EQ(Reports, R1[Pkg]) << Pkg;
    }
  std::filesystem::remove_all(Dir);
}

TEST(ProcessPoolCLITest, PersistentResumeAfterSupervisorSigkill) {
  // The resident-worker variant of the exactly-once guarantee: SIGKILL
  // the supervisor mid-run (workers see EOF on their job pipe and exit),
  // then --resume must rescan only unjournaled packages.
  std::string Dir = writeCorpus(40, 401);
  std::string Journal = Dir + "/kill.jsonl";
  std::string Bin = GRAPHJS_BIN;

  Subprocess P;
  std::string Error;
  ASSERT_TRUE(Subprocess::spawn(
      {"/bin/sh", "-c",
       "exec " + Bin + " batch --quiet --jobs 2 --journal " +
           Journal + " " + Dir + " > /dev/null 2>&1"},
      P, &Error))
      << Error;

  WaitStatus WS;
  bool SelfFinished = false;
  for (int Spin = 0; Spin < 2000; ++Spin) {
    if (P.poll(WS)) {
      SelfFinished = true;
      break;
    }
    if (readLines(Journal).size() >= 2)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!SelfFinished) {
    ::kill(P.pid(), SIGKILL);
    P.wait();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  size_t Journaled = readLines(Journal).size();
  ASSERT_GE(Journaled, 1u);

  ASSERT_EQ(runCLI(Bin + " batch --quiet --jobs 2 --resume"
                   " --journal " + Journal + " " + Dir +
                   " > /dev/null 2>&1"),
            0);

  std::set<std::string> Seen;
  std::vector<std::string> Lines = readLines(Journal);
  for (const std::string &Line : Lines) {
    driver::BatchOutcome O;
    ASSERT_TRUE(driver::BatchDriver::parseJournalLine(Line, O));
    EXPECT_TRUE(Seen.insert(O.Package).second)
        << O.Package << " journaled twice";
  }
  EXPECT_EQ(Seen.size(), 40u);
  EXPECT_EQ(Lines.size(), 40u);
  std::filesystem::remove_all(Dir);
}

TEST(ProcessPoolCLITest, ResumeAfterSupervisorSigkill) {
  // A corpus big enough that jobs=2 takes a while: SIGKILL the supervisor
  // mid-run, then --resume must rescan only unjournaled packages. Runs at
  // maximum isolation (a fresh worker per package); the resident-worker
  // variant is PersistentResumeAfterSupervisorSigkill.
  std::string Dir = writeCorpus(40, 400);
  std::string Journal = Dir + "/kill.jsonl";
  std::string Bin = GRAPHJS_BIN;

  Subprocess P;
  std::string Error;
  // `exec` so P.pid() IS the supervisor, not an sh wrapper around it.
  ASSERT_TRUE(Subprocess::spawn(
      {"/bin/sh", "-c",
       "exec " + Bin + " batch --quiet --jobs 2 --recycle-after 1 --journal " +
           Journal + " " + Dir + " > /dev/null 2>&1"},
      P, &Error))
      << Error;

  // Wait for a valid journal prefix, then SIGKILL the supervisor
  // (orphaned workers see EOF on their job pipe and exit on their own).
  WaitStatus WS;
  bool SelfFinished = false;
  for (int Spin = 0; Spin < 2000; ++Spin) {
    if (P.poll(WS)) {
      SelfFinished = true;
      break;
    }
    if (readLines(Journal).size() >= 2)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!SelfFinished) {
    ::kill(P.pid(), SIGKILL);
    P.wait();
    // Give any in-flight worker a moment to drain before resuming.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  size_t Journaled = readLines(Journal).size();
  ASSERT_GE(Journaled, 1u);

  ASSERT_EQ(runCLI(Bin + " batch --quiet --jobs 2 --recycle-after 1"
                   " --resume --journal " + Journal + " " + Dir +
                   " > /dev/null 2>&1"),
            0);

  // Every package exactly once across both runs.
  std::set<std::string> Seen;
  std::vector<std::string> Lines = readLines(Journal);
  for (const std::string &Line : Lines) {
    driver::BatchOutcome O;
    ASSERT_TRUE(driver::BatchDriver::parseJournalLine(Line, O));
    EXPECT_TRUE(Seen.insert(O.Package).second)
        << O.Package << " journaled twice";
  }
  EXPECT_EQ(Seen.size(), 40u);
  // The resume run appended, never rewrote, the first run's prefix.
  EXPECT_EQ(Lines.size(), 40u);
  std::filesystem::remove_all(Dir);
}

#endif // GRAPHJS_BIN
