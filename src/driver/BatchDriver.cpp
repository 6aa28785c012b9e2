//===- driver/BatchDriver.cpp - Resumable batch scan driver ----------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//

#include "driver/BatchDriver.h"

#include "obs/Counters.h"
#include "obs/Histogram.h"
#include "obs/Metrics.h"
#include "support/JSON.h"
#include "support/Timer.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <exception>
#include <fstream>

using namespace gjs;
using namespace gjs::driver;

const char *driver::batchStatusName(BatchStatus S) {
  switch (S) {
  case BatchStatus::Ok:
    return "ok";
  case BatchStatus::Degraded:
    return "degraded";
  case BatchStatus::Failed:
    return "failed";
  case BatchStatus::Quarantined:
    return "quarantined";
  }
  return "unknown";
}

bool driver::batchStatusFromName(const std::string &Name, BatchStatus &Out) {
  for (BatchStatus S : {BatchStatus::Ok, BatchStatus::Degraded,
                        BatchStatus::Failed, BatchStatus::Quarantined}) {
    if (Name == batchStatusName(S)) {
      Out = S;
      return true;
    }
  }
  return false;
}

BatchDriver::BatchDriver(BatchOptions Options) : Options(std::move(Options)) {}

//===----------------------------------------------------------------------===//
// CRC32 + length framing
//===----------------------------------------------------------------------===//

uint32_t driver::journalCrc32(const std::string &Data) {
  // IEEE 802.3 / zlib polynomial, table built on first use. Journal lines
  // are short; a 256-entry byte-at-a-time table is plenty.
  static const auto Table = [] {
    std::array<uint32_t, 256> T{};
    for (uint32_t I = 0; I < 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K < 8; ++K)
        C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
      T[I] = C;
    }
    return T;
  }();
  uint32_t C = 0xFFFFFFFFu;
  for (unsigned char B : Data)
    C = Table[(C ^ B) & 0xFFu] ^ (C >> 8);
  return C ^ 0xFFFFFFFFu;
}

std::string driver::frameJournalLine(const std::string &Payload) {
  char Head[32];
  std::snprintf(Head, sizeof(Head), "@%zu:%08x:", Payload.size(),
                journalCrc32(Payload));
  return Head + Payload;
}

bool driver::unframeJournalLine(const std::string &Line, std::string &Payload,
                                bool *WasFramed) {
  if (Line.empty() || Line[0] != '@') {
    // Bare line: pass through. Callers that need JSON still validate it.
    Payload = Line;
    if (WasFramed)
      *WasFramed = false;
    return true;
  }
  if (WasFramed)
    *WasFramed = true;
  size_t LenEnd = Line.find(':', 1);
  if (LenEnd == std::string::npos || LenEnd == 1)
    return false;
  size_t Len = 0;
  for (size_t I = 1; I < LenEnd; ++I) {
    if (Line[I] < '0' || Line[I] > '9')
      return false;
    Len = Len * 10 + static_cast<size_t>(Line[I] - '0');
  }
  // 8 hex CRC digits + the second ':' separator.
  size_t CrcEnd = LenEnd + 9;
  if (CrcEnd >= Line.size() || Line[CrcEnd] != ':')
    return false;
  uint32_t Crc = 0;
  for (size_t I = LenEnd + 1; I < CrcEnd; ++I) {
    char C = Line[I];
    uint32_t Nibble;
    if (C >= '0' && C <= '9')
      Nibble = static_cast<uint32_t>(C - '0');
    else if (C >= 'a' && C <= 'f')
      Nibble = static_cast<uint32_t>(C - 'a') + 10;
    else
      return false;
    Crc = (Crc << 4) | Nibble;
  }
  // A SIGKILL mid-write leaves a short payload; anything but an exact
  // length + CRC match is a torn/corrupt record.
  std::string Body = Line.substr(CrcEnd + 1);
  if (Body.size() != Len || journalCrc32(Body) != Crc)
    return false;
  Payload = std::move(Body);
  return true;
}

ProgressMeter::ProgressMeter(size_t Total, size_t EveryPackages,
                             double EverySeconds, bool Quiet)
    : Total(Total), EveryPackages(EveryPackages), EverySeconds(EverySeconds),
      Quiet(Quiet) {}

void ProgressMeter::completed(bool DidFail) {
  ++Done;
  if (DidFail)
    ++Failed;
  if (!enabled())
    return;
  double Now = Clock.elapsedSeconds();
  bool OnCount = EveryPackages && Done - LastEmitDone >= EveryPackages;
  bool OnTime = EverySeconds > 0 && Now - LastEmitSeconds >= EverySeconds;
  if (OnCount || OnTime)
    emit();
}

void ProgressMeter::finish() {
  if (EmittedAny && Done != LastEmitDone)
    emit();
}

void ProgressMeter::emit() {
  // Every ratio is guarded: a flush before any package has completed
  // (Done == 0, possible when a resume run journals only skips) or a
  // sub-microsecond first package (Now == 0) must print a zero rate and no
  // ETA, never NaN/inf.
  auto safeDiv = [](double Num, double Den) {
    return Den > 0 ? Num / Den : 0.0;
  };
  double Now = Clock.elapsedSeconds();
  double Rate = safeDiv(static_cast<double>(Done), Now);
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "progress: %zu/%zu done, %zu failed, %.2f pkg/s", Done, Total,
                Failed, Rate);
  std::string Line = Buf;
  if (Rate > 0 && Total > Done) {
    std::snprintf(Buf, sizeof(Buf), ", eta %.1fs",
                  safeDiv(static_cast<double>(Total - Done), Rate));
    Line += Buf;
  }
  // Stderr, one line per emit: visible under `--journal`/piped stdout and
  // trivially filtered from captured tool output.
  std::fprintf(stderr, "%s\n", Line.c_str());
  std::fflush(stderr);
  LastEmitDone = Done;
  LastEmitSeconds = Now;
  EmittedAny = true;
}

std::string BatchDriver::journalLine(const BatchOutcome &Outcome) {
  json::Object O;
  O["package"] = json::Value(Outcome.Package);
  O["status"] = json::Value(batchStatusName(Outcome.Status));
  O["degradation"] = json::Value(Outcome.Result.Degradation);
  O["attempts"] = json::Value(Outcome.Result.Attempts);
  O["retries"] = json::Value(Outcome.Result.Retries);
  O["seconds"] = json::Value(Outcome.Seconds);
  // Cumulative over every ladder attempt (not just the final one): the
  // package's true phase-time attribution.
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

  // Compact (indent 0): exactly one line per package.
  return json::Value(std::move(O)).str();
}

bool BatchDriver::parseJournalLine(const std::string &Line, BatchOutcome &Out) {
  // Accept both framed (`@len:crc:payload`, the shared-ledger format) and
  // bare journal lines; a framed line with a bad length/CRC is malformed.
  std::string Payload;
  if (!unframeJournalLine(Line, Payload))
    return false;
  json::Value V;
  if (!json::parse(Payload, V) || !V.isObject())
    return false;
  const json::Object &O = V.asObject();

  auto Str = [&](const char *Key, std::string &Dst) {
    auto It = O.find(Key);
    if (It == O.end() || !It->second.isString())
      return false;
    Dst = It->second.asString();
    return true;
  };
  auto Num = [&](const char *Key, double &Dst) {
    auto It = O.find(Key);
    if (It == O.end() || !It->second.isNumber())
      return false;
    Dst = It->second.asNumber();
    return true;
  };

  Out = BatchOutcome();
  std::string Status;
  if (!Str("package", Out.Package) || !Str("status", Status) ||
      !batchStatusFromName(Status, Out.Status))
    return false;

  double D = 0;
  if (Num("seconds", D))
    Out.Seconds = D;
  if (Num("degradation", D))
    Out.Result.Degradation = static_cast<unsigned>(D);
  if (Num("attempts", D))
    Out.Result.Attempts = static_cast<unsigned>(D);
  if (Num("retries", D))
    Out.Result.Retries = static_cast<unsigned>(D);
  // graph_seconds folds parse+build+import together in the journal; claim
  // it all for GraphBuild so PhaseTimes::total() round-trips.
  if (Num("graph_seconds", D))
    Out.Result.CumulativeTimes.GraphBuild = D;
  if (Num("query_seconds", D))
    Out.Result.CumulativeTimes.Query = D;
  Out.Result.Times = Out.Result.CumulativeTimes;
  if (Num("nodes", D))
    Out.Result.MDGNodes = static_cast<size_t>(D);
  if (Num("edges", D))
    Out.Result.MDGEdges = static_cast<size_t>(D);
  if (Num("linked_packages", D))
    Out.Result.LinkedPackages = static_cast<unsigned>(D);
  {
    auto It = O.find("missing_deps");
    if (It != O.end() && It->second.isArray())
      for (const json::Value &DV : It->second.asArray())
        if (DV.isString())
          Out.Result.MissingDeps.push_back(DV.asString());
  }

  {
    auto It = O.find("counters");
    if (It != O.end() && It->second.isObject())
      for (const auto &[Name, Value] : It->second.asObject())
        if (Value.isNumber())
          Out.Result.Counters[Name] =
              static_cast<uint64_t>(Value.asNumber());
  }

  auto It = O.find("errors");
  if (It != O.end() && It->second.isArray()) {
    for (const json::Value &EV : It->second.asArray()) {
      if (!EV.isObject())
        return false;
      const json::Object &EO = EV.asObject();
      scanner::ScanError E;
      auto PIt = EO.find("phase");
      auto KIt = EO.find("kind");
      if (PIt == EO.end() || !PIt->second.isString() ||
          !scanner::scanPhaseFromName(PIt->second.asString(), E.Phase))
        return false;
      if (KIt == EO.end() || !KIt->second.isString() ||
          !scanner::scanErrorKindFromName(KIt->second.asString(), E.Kind))
        return false;
      auto DIt = EO.find("detail");
      if (DIt != EO.end() && DIt->second.isString())
        E.Detail = DIt->second.asString();
      auto FIt = EO.find("file");
      if (FIt != EO.end() && FIt->second.isString())
        E.File = FIt->second.asString();
      Out.Result.Errors.push_back(std::move(E));
    }
  }

  It = O.find("reports");
  if (It != O.end() && It->second.isArray()) {
    for (const json::Value &RV : It->second.asArray()) {
      if (!RV.isObject())
        return false;
      const json::Object &RO = RV.asObject();
      queries::VulnReport R;
      auto TIt = RO.find("type");
      if (TIt == RO.end() || !TIt->second.isString() ||
          !queries::vulnTypeFromName(TIt->second.asString(), R.Type))
        return false;
      auto LIt = RO.find("line");
      if (LIt != RO.end() && LIt->second.isNumber())
        R.SinkLoc.Line = static_cast<uint32_t>(LIt->second.asNumber());
      auto SIt = RO.find("sink");
      if (SIt != RO.end() && SIt->second.isString())
        R.SinkName = SIt->second.asString();
      Out.Result.Reports.push_back(std::move(R));
    }
  }
  return true;
}

std::set<std::string> BatchDriver::journaledPackages(const std::string &Path,
                                                     size_t *DroppedLines) {
  std::set<std::string> Done;
  size_t Dropped = 0;
  std::ifstream In(Path);
  if (!In) {
    if (DroppedLines)
      *DroppedLines = 0;
    return Done;
  }
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    // A killed run can leave a truncated final line (or, framed, a CRC
    // mismatch); skip-and-count anything unparseable rather than poisoning
    // the resume set or failing the whole resume.
    std::string Payload;
    json::Value V;
    if (!unframeJournalLine(Line, Payload) || !json::parse(Payload, V) ||
        !V.isObject()) {
      ++Dropped;
      continue;
    }
    const json::Object &O = V.asObject();
    auto It = O.find("package");
    if (It != O.end() && It->second.isString())
      Done.insert(It->second.asString());
  }
  if (Dropped) {
    // merge(), not add(): dropped resume lines must be visible in metrics
    // even before the run flips the counter gate on.
    obs::counters::JournalDroppedLines.merge(Dropped);
    std::fprintf(stderr,
                 "batch: journal %s: skipped %zu torn/corrupt line(s)\n",
                 Path.c_str(), Dropped);
  }
  if (DroppedLines)
    *DroppedLines = Dropped;
  return Done;
}

BatchOutcome driver::scanPackageIsolated(const BatchInput &Input,
                                         const scanner::ScanOptions &Scan) {
  BatchOutcome Out;
  Out.Package = Input.Name;
  Timer T;
  try {
    scanner::Scanner Scanner(Scan);
    Out.Result = Scanner.scanPackage(Input.Files);
    Out.Status = Out.Result.Errors.empty() ? BatchStatus::Ok
                                           : BatchStatus::Degraded;
  } catch (const std::exception &E) {
    Out.Status = BatchStatus::Failed;
    Out.Result.Errors.push_back({scanner::ScanPhase::Driver,
                                 scanner::ScanErrorKind::Internal,
                                 std::string("scan threw: ") + E.what(), ""});
  } catch (...) {
    Out.Status = BatchStatus::Failed;
    Out.Result.Errors.push_back({scanner::ScanPhase::Driver,
                                 scanner::ScanErrorKind::Internal,
                                 "scan threw a non-standard exception", ""});
  }
  Out.Seconds = T.elapsedSeconds();
  obs::hists::ScanLatency.recordSeconds(Out.Seconds);
  return Out;
}

BatchOutcome BatchDriver::scanOne(scanner::Scanner &Scanner,
                                  const BatchInput &Input) {
  BatchOutcome Out;
  Out.Package = Input.Name;
  Timer T;
  try {
    Out.Result = Scanner.scanPackage(Input.Files);
    Out.Status = Out.Result.Errors.empty() ? BatchStatus::Ok
                                           : BatchStatus::Degraded;
  } catch (const std::exception &E) {
    Out.Status = BatchStatus::Failed;
    Out.Result.Errors.push_back({scanner::ScanPhase::Driver,
                                 scanner::ScanErrorKind::Internal,
                                 std::string("scan threw: ") + E.what(), ""});
  } catch (...) {
    Out.Status = BatchStatus::Failed;
    Out.Result.Errors.push_back({scanner::ScanPhase::Driver,
                                 scanner::ScanErrorKind::Internal,
                                 "scan threw a non-standard exception", ""});
  }
  Out.Seconds = T.elapsedSeconds();
  obs::hists::ScanLatency.recordSeconds(Out.Seconds);
  return Out;
}

BatchSummary BatchDriver::run(const std::vector<BatchInput> &Inputs) {
  BatchSummary Summary;
  Timer Wall;

  std::set<std::string> Done;
  if (Options.Resume && !Options.JournalPath.empty())
    Done = journaledPackages(Options.JournalPath);

  std::ofstream Journal;
  if (!Options.JournalPath.empty()) {
    // Resume appends to the existing journal; a fresh run truncates it.
    Journal.open(Options.JournalPath, Options.Resume
                                          ? std::ios::out | std::ios::app
                                          : std::ios::out | std::ios::trunc);
  }

  // One Scanner for the whole batch: its scan sequence number is what a
  // FaultPlan targets ("fail the build of the 3rd package").
  scanner::Scanner Scanner(Options.Scan);

  // Counter lifecycle: on for the run, reset per package so each journal
  // line carries exactly that package's telemetry, prior state restored on
  // exit.
  bool PrevCounters = obs::countersEnabled();
  if (Options.EnableCounters)
    obs::setCountersEnabled(true);

  ProgressMeter Progress(Inputs.size(), Options.ProgressEveryPackages,
                         Options.ProgressEverySeconds, Options.Quiet);

  // The live counter registry is reset per package (journal attribution),
  // so metrics snapshots render these accumulated run totals instead.
  obs::CounterSnapshot RunCounters;
  Timer MetricsClock;
  for (const BatchInput &Input : Inputs) {
    if (Done.count(Input.Name) || Options.AlreadyDone.count(Input.Name)) {
      BatchOutcome Skip;
      Skip.Package = Input.Name;
      Skip.Skipped = true;
      Summary.Outcomes.push_back(std::move(Skip));
      ++Summary.SkippedResumed;
      continue;
    }
    if (Options.MaxPackages && Summary.Scanned >= Options.MaxPackages)
      break;
    if (Options.OnTick && !Options.OnTick())
      break;

    if (Options.EnableCounters)
      obs::resetCounters();
    if (Options.OnPackageStart)
      Options.OnPackageStart(Input.Name);
    BatchOutcome Outcome = scanOne(Scanner, Input);
    ++Summary.Scanned;
    Summary.TotalSeconds += Outcome.Seconds;
    switch (Outcome.Status) {
    case BatchStatus::Ok:
      ++Summary.Ok;
      break;
    case BatchStatus::Degraded:
      ++Summary.Degraded;
      break;
    case BatchStatus::Failed:
      ++Summary.Failed;
      break;
    case BatchStatus::Quarantined:
      // The in-process scanner never issues this verdict itself (the
      // shared-ledger driver journals quarantined packages before the scan
      // loop), but the accounting stays total over the enum.
      ++Summary.Quarantined;
      break;
    }
    Summary.TotalReports += Outcome.Result.Reports.size();

    // Journal incrementally: the line is flushed before the next package
    // starts, so a kill at any point leaves a valid resumable prefix.
    if (Journal.is_open()) {
      std::string Line = journalLine(Outcome);
      if (Options.FramedJournal)
        Line = frameJournalLine(Line);
      Journal << Line << '\n';
      Journal.flush();
    }
    Progress.completed(Outcome.Status == BatchStatus::Failed);
    Summary.Outcomes.push_back(std::move(Outcome));

    if (!Options.MetricsPath.empty()) {
      for (const auto &[Name, Value] :
           Summary.Outcomes.back().Result.Counters)
        RunCounters[Name] += Value;
      if (MetricsClock.elapsedSeconds() >= Options.MetricsEverySeconds) {
        obs::writePrometheusFile(Options.MetricsPath, RunCounters,
                                 obs::snapshotHistograms());
        MetricsClock.reset();
      }
    }
  }

  Progress.finish();
  if (Options.EnableCounters)
    obs::setCountersEnabled(PrevCounters);
  Summary.WallSeconds = Wall.elapsedSeconds();
  // Final snapshot regardless of cadence: a scraper (or the smoke test)
  // always sees the completed run's totals.
  if (!Options.MetricsPath.empty())
    obs::writePrometheusFile(Options.MetricsPath, RunCounters,
                             obs::snapshotHistograms());
  return Summary;
}

std::string driver::batchStatsText(const BatchSummary &Summary) {
  std::string Out;
  char Buf[160];
  // Every ratio below goes through safeDiv/safePct: an empty corpus, a
  // resume-only run (everything skipped), or a zero-query scan must print
  // zeros, never NaN or inf.
  auto safeDiv = [](double Num, double Den) {
    return Den > 0 ? Num / Den : 0.0;
  };
  auto safePct = [&safeDiv](double Num, double Den) {
    return 100.0 * safeDiv(Num, Den);
  };
  // Throughput is measured on wall-clock; TotalSeconds is the summed
  // per-package scan time (aggregate CPU under --jobs N, where it exceeds
  // the wall by up to the parallelism factor).
  double Wall =
      Summary.WallSeconds > 0 ? Summary.WallSeconds : Summary.TotalSeconds;
  double Rate = safeDiv(static_cast<double>(Summary.Scanned), Wall);
  std::snprintf(Buf, sizeof(Buf),
                "packages: %zu scanned, %zu resumed-skip (%zu ok, %zu "
                "degraded, %zu failed)\n",
                Summary.Scanned, Summary.SkippedResumed, Summary.Ok,
                Summary.Degraded, Summary.Failed);
  Out += Buf;
  if (Summary.Quarantined || Summary.LedgerClaims || Summary.LedgerSteals ||
      Summary.LedgerExpired) {
    std::snprintf(Buf, sizeof(Buf),
                  "ledger: %zu claims, %zu steals, %zu expired leases, %zu "
                  "quarantined\n",
                  Summary.LedgerClaims, Summary.LedgerSteals,
                  Summary.LedgerExpired, Summary.Quarantined);
    Out += Buf;
  }
  std::snprintf(Buf, sizeof(Buf),
                "throughput: %.2f packages/sec (wall %.3fs, cpu %.3fs, avg "
                "%.3fs/package)\n",
                Rate, Wall, Summary.TotalSeconds,
                safeDiv(Summary.TotalSeconds,
                        static_cast<double>(Summary.Scanned)));
  Out += Buf;
  if (Summary.Crashed || Summary.OomKilled || Summary.DeadlineKilled ||
      Summary.Retried || Summary.Recycled) {
    std::snprintf(Buf, sizeof(Buf),
                  "workers: %zu crashed, %zu oom-killed, %zu "
                  "deadline-killed, %zu retried, %zu recycled\n",
                  Summary.Crashed, Summary.OomKilled, Summary.DeadlineKilled,
                  Summary.Retried, Summary.Recycled);
    Out += Buf;
  }

  size_t TimedOut = 0;
  std::vector<const BatchOutcome *> Scanned;
  for (const BatchOutcome &O : Summary.Outcomes) {
    if (O.Skipped)
      continue;
    Scanned.push_back(&O);
    if (O.Result.timedOut())
      ++TimedOut;
  }
  std::snprintf(Buf, sizeof(Buf), "timeouts: %zu (%.1f%%)\n", TimedOut,
                safePct(static_cast<double>(TimedOut),
                        static_cast<double>(Scanned.size())));
  Out += Buf;

  size_t LinkedScans = 0, MissingDeps = 0;
  for (const BatchOutcome *O : Scanned) {
    if (O->Result.LinkedPackages)
      ++LinkedScans;
    MissingDeps += O->Result.MissingDeps.size();
  }
  if (LinkedScans || MissingDeps) {
    std::snprintf(Buf, sizeof(Buf),
                  "linking: %zu dependency-tree scans, %zu missing deps\n",
                  LinkedScans, MissingDeps);
    Out += Buf;
  }

  std::sort(Scanned.begin(), Scanned.end(),
            [](const BatchOutcome *A, const BatchOutcome *B) {
              return A->Seconds > B->Seconds;
            });
  size_t N = std::min<size_t>(3, Scanned.size());
  if (N) {
    Out += "slowest:\n";
    for (size_t I = 0; I < N; ++I) {
      std::snprintf(Buf, sizeof(Buf), "  %zu. %s %.3fs (%s)\n", I + 1,
                    Scanned[I]->Package.c_str(), Scanned[I]->Seconds,
                    batchStatusName(Scanned[I]->Status));
      Out += Buf;
    }
  }
  return Out;
}
