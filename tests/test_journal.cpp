//===- tests/test_journal.cpp - Journal-line bytes against an oracle ------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
//
// BatchDriver::journalLine writes each line straight into one string. Its
// bytes must stay those of the json::Object tree it replaced: resumes,
// merges and journal consumers key on them, and `--jobs N` journals splice
// worker lines verbatim. The tree builder survives here as the oracle.
//
//===----------------------------------------------------------------------===//

#include "GoldenCorpus.h"

#include "driver/BatchDriver.h"
#include "obs/Counters.h"
#include "support/JSON.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace gjs;
using driver::BatchDriver;
using driver::BatchOutcome;

namespace {

/// The journal-line builder journalLine replaced: a json::Object tree,
/// rendered compact by Value::str.
std::string oracleJournalLine(const BatchOutcome &Outcome) {
  json::Object O;
  O["package"] = json::Value(Outcome.Package);
  O["status"] = json::Value(driver::batchStatusName(Outcome.Status));
  O["degradation"] = json::Value(Outcome.Result.Degradation);
  O["attempts"] = json::Value(Outcome.Result.Attempts);
  O["retries"] = json::Value(Outcome.Result.Retries);
  O["seconds"] = json::Value(Outcome.Seconds);
  const scanner::PhaseTimes &CT = Outcome.Result.CumulativeTimes;
  O["graph_seconds"] = json::Value(CT.Parse + CT.GraphBuild + CT.DbImport);
  O["query_seconds"] = json::Value(CT.Query);
  O["nodes"] = json::Value(static_cast<unsigned long>(Outcome.Result.MDGNodes));
  O["edges"] = json::Value(static_cast<unsigned long>(Outcome.Result.MDGEdges));
  if (Outcome.Result.LinkedPackages)
    O["linked_packages"] = json::Value(Outcome.Result.LinkedPackages);
  if (!Outcome.Result.MissingDeps.empty()) {
    json::Array Deps;
    for (const std::string &Dep : Outcome.Result.MissingDeps)
      Deps.push_back(json::Value(Dep));
    O["missing_deps"] = json::Value(std::move(Deps));
  }
  if (!Outcome.Result.AttemptLog.empty()) {
    json::Array Attempts;
    for (const scanner::AttemptRecord &A : Outcome.Result.AttemptLog) {
      json::Object AO;
      AO["level"] = json::Value(A.Level);
      AO["graph_seconds"] =
          json::Value(A.Times.Parse + A.Times.GraphBuild + A.Times.DbImport);
      AO["query_seconds"] = json::Value(A.Times.Query);
      AO["deadline_work"] =
          json::Value(static_cast<unsigned long>(A.DeadlineWork));
      AO["timed_out"] = json::Value(A.TimedOut);
      Attempts.push_back(json::Value(std::move(AO)));
    }
    O["attempt_log"] = json::Value(std::move(Attempts));
  }
  if (!Outcome.Result.Counters.empty()) {
    json::Object Counters;
    for (const auto &[Name, Value] : Outcome.Result.Counters)
      Counters[Name] = json::Value(static_cast<unsigned long>(Value));
    O["counters"] = json::Value(std::move(Counters));
  }
  json::Array Errors;
  for (const scanner::ScanError &E : Outcome.Result.Errors) {
    json::Object EO;
    EO["phase"] = json::Value(scanner::scanPhaseName(E.Phase));
    EO["kind"] = json::Value(scanner::scanErrorKindName(E.Kind));
    if (!E.Detail.empty())
      EO["detail"] = json::Value(E.Detail);
    if (!E.File.empty())
      EO["file"] = json::Value(E.File);
    Errors.push_back(json::Value(std::move(EO)));
  }
  O["errors"] = json::Value(std::move(Errors));
  json::Array Reports;
  for (const queries::VulnReport &R : Outcome.Result.Reports) {
    json::Object RO;
    RO["cwe"] = json::Value(queries::cweOf(R.Type));
    RO["type"] = json::Value(queries::vulnTypeName(R.Type));
    RO["line"] = json::Value(static_cast<unsigned>(R.SinkLoc.Line));
    if (!R.SinkName.empty())
      RO["sink"] = json::Value(R.SinkName);
    Reports.push_back(json::Value(std::move(RO)));
  }
  O["reports"] = json::Value(std::move(Reports));
  return json::Value(std::move(O)).str();
}

/// What parseJournalLine must give back for \p Want's line.
void expectRoundTrip(const BatchOutcome &Want) {
  const std::string Line = BatchDriver::journalLine(Want);
  BatchOutcome Back;
  ASSERT_TRUE(BatchDriver::parseJournalLine(Line, Back)) << Line;
  EXPECT_EQ(Back.Package, Want.Package);
  EXPECT_EQ(Back.Status, Want.Status);
  EXPECT_EQ(Back.Seconds, Want.Seconds);
  EXPECT_EQ(Back.Result.Degradation, Want.Result.Degradation);
  EXPECT_EQ(Back.Result.Attempts, Want.Result.Attempts);
  EXPECT_EQ(Back.Result.Retries, Want.Result.Retries);
  EXPECT_EQ(Back.Result.MDGNodes, Want.Result.MDGNodes);
  EXPECT_EQ(Back.Result.MDGEdges, Want.Result.MDGEdges);
  EXPECT_EQ(Back.Result.LinkedPackages, Want.Result.LinkedPackages);
  EXPECT_EQ(Back.Result.MissingDeps, Want.Result.MissingDeps);
  EXPECT_EQ(Back.Result.Counters, Want.Result.Counters);
  EXPECT_EQ(Back.Result.CumulativeTimes.Query,
            Want.Result.CumulativeTimes.Query);
  ASSERT_EQ(Back.Result.Errors.size(), Want.Result.Errors.size());
  for (size_t I = 0; I < Want.Result.Errors.size(); ++I) {
    EXPECT_EQ(Back.Result.Errors[I].Phase, Want.Result.Errors[I].Phase);
    EXPECT_EQ(Back.Result.Errors[I].Kind, Want.Result.Errors[I].Kind);
    EXPECT_EQ(Back.Result.Errors[I].Detail, Want.Result.Errors[I].Detail);
    EXPECT_EQ(Back.Result.Errors[I].File, Want.Result.Errors[I].File);
  }
  ASSERT_EQ(Back.Result.Reports.size(), Want.Result.Reports.size());
  for (size_t I = 0; I < Want.Result.Reports.size(); ++I) {
    EXPECT_EQ(Back.Result.Reports[I].Type, Want.Result.Reports[I].Type);
    EXPECT_EQ(Back.Result.Reports[I].SinkLoc.Line,
              Want.Result.Reports[I].SinkLoc.Line);
    EXPECT_EQ(Back.Result.Reports[I].SinkName, Want.Result.Reports[I].SinkName);
  }
  // What the parse keeps, written again, is a line that parses the same:
  // framed, too.
  BatchOutcome Again;
  ASSERT_TRUE(BatchDriver::parseJournalLine(
      driver::frameJournalLine(BatchDriver::journalLine(Back)), Again));
  EXPECT_EQ(BatchDriver::journalLine(Again), BatchDriver::journalLine(Back));
}

/// An outcome with every optional field set, and strings and numbers that
/// exercise escaping and both number forms.
BatchOutcome everyFieldOutcome() {
  BatchOutcome O;
  O.Package = "pkg \"quoted\" \\ back\nslash\t\x01";
  O.Status = driver::BatchStatus::Degraded;
  O.Seconds = 0.000123;
  scanner::ScanResult &R = O.Result;
  R.Degradation = 1;
  R.Attempts = 2;
  R.Retries = 1;
  R.MDGNodes = 1000000000000000ull; // 1e15: past the integral form.
  R.MDGEdges = 0;
  R.LinkedPackages = 3;
  R.MissingDeps = {"left-pad", "we\"ird\\dep"};
  R.CumulativeTimes.Parse = 0.1;
  R.CumulativeTimes.GraphBuild = 0.2;
  R.CumulativeTimes.Query = -0.0;
  scanner::AttemptRecord First;
  First.Level = 0;
  First.Times.Parse = 0.25;
  First.Times.Query = 0.1;
  First.DeadlineWork = 123456;
  First.TimedOut = true;
  scanner::AttemptRecord Second;
  Second.Level = 1;
  Second.Times.Query = 1e15;
  Second.DeadlineWork = 0;
  R.AttemptLog = {First, Second};
  R.Counters = {{"build.mdg_nodes", 12}, {"query.steps", 999999999999999ull},
                {"scan.attempts", 2}};
  R.Errors.push_back({scanner::ScanPhase::Build,
                      scanner::ScanErrorKind::Deadline, "wall clock\nexpired",
                      "dir/a \"b\".js", {}});
  R.Errors.push_back(
      {scanner::ScanPhase::Driver, scanner::ScanErrorKind::Internal, "", "",
       {}});
  R.Errors.push_back({scanner::ScanPhase::Parse,
                      scanner::ScanErrorKind::ParseError, "", "only-file.js",
                      {}});
  R.Errors.push_back({scanner::ScanPhase::Query, scanner::ScanErrorKind::Budget,
                      "only detail \x1f", "", {}});
  queries::VulnReport WithSink;
  WithSink.Type = queries::VulnType::CommandInjection;
  WithSink.SinkLoc.Line = 7;
  WithSink.SinkName = "exec";
  queries::VulnReport NoSink;
  NoSink.Type = queries::VulnType::PrototypePollution;
  NoSink.SinkLoc.Line = 12;
  R.Reports = {WithSink, NoSink};
  return O;
}

} // namespace

TEST(JournalLineTest, MatchesTheTreeBuilderOnEveryOptionalField) {
  BatchOutcome O = everyFieldOutcome();
  const std::string Line = BatchDriver::journalLine(O);
  EXPECT_EQ(Line, oracleJournalLine(O));
  EXPECT_NE(Line.find("\"seconds\":0.00012300000000000001"), std::string::npos)
      << Line;
  EXPECT_NE(Line.find("\"nodes\":1000000000000000"), std::string::npos) << Line;
  EXPECT_NE(Line.find("\"query_seconds\":-0,"), std::string::npos) << Line;
  EXPECT_NE(Line.find("\"graph_seconds\":0.30000000000000004"),
            std::string::npos)
      << Line;
  EXPECT_NE(Line.find("\"timed_out\":true"), std::string::npos) << Line;
  expectRoundTrip(O);

  // Each optional field alone, and none of them.
  BatchOutcome Bare;
  Bare.Package = "bare";
  EXPECT_EQ(BatchDriver::journalLine(Bare), oracleJournalLine(Bare));
  expectRoundTrip(Bare);
  BatchOutcome NoErrors = O;
  NoErrors.Result.Errors.clear();
  NoErrors.Result.AttemptLog.resize(1);
  NoErrors.Result.Counters.clear();
  NoErrors.Result.MissingDeps.clear();
  NoErrors.Result.LinkedPackages = 0;
  EXPECT_EQ(BatchDriver::journalLine(NoErrors), oracleJournalLine(NoErrors));
  expectRoundTrip(NoErrors);
}

TEST(JournalLineTest, MatchesTheTreeBuilderOverTheGoldenCorpus) {
  // Counters on, so each outcome carries its counter delta as in a batch.
  bool Prev = obs::setCountersEnabled(true);
  size_t Lines = 0, WithReports = 0, WithErrors = 0;
  for (const golden::Input &In : golden::corpus()) {
    BatchOutcome O = driver::scanPackageIsolated({In.Name, In.Files}, {});
    const std::string Line = BatchDriver::journalLine(O);
    ASSERT_EQ(Line, oracleJournalLine(O)) << In.Name;
    expectRoundTrip(O);
    ++Lines;
    WithReports += !O.Result.Reports.empty();
    WithErrors += !O.Result.Errors.empty();
  }
  obs::setCountersEnabled(Prev);
  // The corpus covers reports and errors both.
  EXPECT_GT(Lines, 50u);
  EXPECT_GT(WithReports, 0u);
  EXPECT_GT(WithErrors, 0u);
}
