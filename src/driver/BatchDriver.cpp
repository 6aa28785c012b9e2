//===- driver/BatchDriver.cpp - Resumable batch scan driver ----------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//

#include "driver/BatchDriver.h"

#include "driver/ProcessPool.h"
#include "obs/Counters.h"
#include "obs/Histogram.h"
#include "support/JSON.h"
#include "support/Timer.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string_view>
#include <type_traits>
#include <utility>

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
  const scanner::ScanResult &R = Outcome.Result;
  std::string Out;
  Out.reserve(1024);
  // Compact, one line per package. Numbers go through json::writeNumber as
  // doubles, exactly as a json::Value holding them would print.
  auto Attempt = [&](const scanner::AttemptRecord &A) {
    json::ObjectWriter AO(Out);
    AO.num("deadline_work", static_cast<double>(A.DeadlineWork));
    AO.num("graph_seconds",
           A.Times.Parse + A.Times.GraphBuild + A.Times.DbImport);
    AO.num("level", A.Level);
    AO.num("query_seconds", A.Times.Query);
    AO.boolean("timed_out", A.TimedOut);
    AO.close();
  };
  auto Error = [&](const scanner::ScanError &E) {
    json::ObjectWriter EO(Out);
    if (!E.Detail.empty())
      EO.str("detail", E.Detail);
    if (!E.File.empty())
      EO.str("file", E.File);
    EO.str("kind", scanner::scanErrorKindName(E.Kind));
    EO.str("phase", scanner::scanPhaseName(E.Phase));
    EO.close();
  };
  auto Report = [&](const queries::VulnReport &V) {
    json::ObjectWriter RO(Out);
    RO.str("cwe", queries::cweOf(V.Type));
    RO.num("line", V.SinkLoc.Line);
    if (!V.SinkName.empty())
      RO.str("sink", V.SinkName);
    RO.str("type", queries::vulnTypeName(V.Type));
    RO.close();
  };

  json::ObjectWriter O(Out);
  if (!R.AttemptLog.empty())
    json::writeArray(O.key("attempt_log"), R.AttemptLog, Attempt);
  O.num("attempts", R.Attempts);
  if (!R.Counters.empty()) {
    json::ObjectWriter CO(O.key("counters"));
    for (const auto &[Name, Value] : R.Counters)
      CO.num(Name, static_cast<double>(Value));
    CO.close();
  }
  O.num("degradation", R.Degradation);
  O.num("edges", static_cast<double>(R.MDGEdges));
  json::writeArray(O.key("errors"), R.Errors, Error);
  // Cumulative over every ladder attempt (not just the final one): the
  // package's true phase-time attribution.
  const scanner::PhaseTimes &CT = R.CumulativeTimes;
  O.num("graph_seconds", CT.Parse + CT.GraphBuild + CT.DbImport);
  if (R.LinkedPackages)
    O.num("linked_packages", R.LinkedPackages);
  if (!R.MissingDeps.empty())
    json::writeArray(O.key("missing_deps"), R.MissingDeps,
                     [&](const std::string &D) { json::writeString(Out, D); });
  O.num("nodes", static_cast<double>(R.MDGNodes));
  O.str("package", Outcome.Package);
  O.num("query_seconds", CT.Query);
  json::writeArray(O.key("reports"), R.Reports, Report);
  O.num("retries", R.Retries);
  O.num("seconds", Outcome.Seconds);
  O.str("status", batchStatusName(Outcome.Status));
  O.close();
  return Out;
}

bool BatchDriver::parseJournalLine(const std::string &Line, BatchOutcome &Out) {
  // Accept both framed (`@len:crc:payload`, the shared-ledger format) and
  // bare journal lines; a framed line with a bad length/CRC is malformed.
  std::string Unframed;
  std::string_view Payload = Line;
  if (!Line.empty() && Line[0] == '@') {
    if (!unframeJournalLine(Line, Unframed))
      return false;
    Payload = Unframed;
  }

  // One pass over the line, no Value tree. A field of the wrong type is
  // skipped, as an unknown key is; an error or report entry that does not
  // name a known phase, kind or type makes the line malformed.
  json::Reader R(Payload);
  // Numbers land in fields of several types, as the casts always did.
  auto Num = [&](auto &Dst, bool *Read = nullptr) {
    double D = 0;
    bool Got = false;
    if (!R.numberOrSkip(D, &Got))
      return false;
    if (Got)
      Dst = static_cast<std::remove_reference_t<decltype(Dst)>>(D);
    if (Read)
      *Read = Got;
    return true;
  };
  auto Str = [&](std::string &Dst) { return R.stringOrSkip(Dst); };
  // Reads an array of objects, each through \p Entry, when one is there.
  auto Objects = [&](auto Entry) {
    if (R.peek() != '[')
      return R.skip();
    return R.array([&] { return R.peek() == '{' && Entry(); });
  };

  Out = BatchOutcome();
  std::string Status;
  bool HasPackage = false;
  bool Ok = R.object([&](std::string_view Key) {
    scanner::ScanResult &Res = Out.Result;
    if (Key == "package")
      return R.stringOrSkip(Out.Package, &HasPackage);
    if (Key == "status")
      return Str(Status);
    if (Key == "seconds")
      return Num(Out.Seconds);
    if (Key == "degradation")
      return Num(Res.Degradation);
    if (Key == "attempts")
      return Num(Res.Attempts);
    if (Key == "retries")
      return Num(Res.Retries);
    // graph_seconds folds parse+build+import together in the journal;
    // claim it all for GraphBuild so PhaseTimes::total() round-trips.
    if (Key == "graph_seconds")
      return Num(Res.CumulativeTimes.GraphBuild);
    if (Key == "query_seconds")
      return Num(Res.CumulativeTimes.Query);
    if (Key == "nodes")
      return Num(Res.MDGNodes);
    if (Key == "edges")
      return Num(Res.MDGEdges);
    if (Key == "linked_packages")
      return Num(Res.LinkedPackages);
    if (Key == "missing_deps") {
      if (R.peek() != '[')
        return R.skip();
      return R.array([&] {
        std::string Dep;
        bool Got = false;
        if (!R.stringOrSkip(Dep, &Got))
          return false;
        if (Got)
          Res.MissingDeps.push_back(std::move(Dep));
        return true;
      });
    }
    if (Key == "counters") {
      if (R.peek() != '{')
        return R.skip();
      return R.object([&](std::string_view Name) {
        uint64_t V = 0;
        bool Got = false;
        if (!Num(V, &Got))
          return false;
        if (Got)
          Res.Counters.emplace(Name, V);
        return true;
      });
    }
    if (Key == "errors")
      return Objects([&] {
        scanner::ScanError E;
        std::string Phase, Kind;
        bool Read = R.object([&](std::string_view K) {
          if (K == "phase")
            return Str(Phase);
          if (K == "kind")
            return Str(Kind);
          if (K == "detail")
            return Str(E.Detail);
          if (K == "file")
            return Str(E.File);
          return R.skip();
        });
        if (!Read || !scanner::scanPhaseFromName(Phase, E.Phase) ||
            !scanner::scanErrorKindFromName(Kind, E.Kind))
          return false;
        Res.Errors.push_back(std::move(E));
        return true;
      });
    if (Key == "reports")
      return Objects([&] {
        queries::VulnReport V;
        std::string Type;
        bool Read = R.object([&](std::string_view K) {
          if (K == "type")
            return Str(Type);
          if (K == "line")
            return Num(V.SinkLoc.Line);
          if (K == "sink")
            return Str(V.SinkName);
          return R.skip();
        });
        if (!Read || !queries::vulnTypeFromName(Type, V.Type))
          return false;
        Res.Reports.push_back(std::move(V));
        return true;
      });
    return R.skip();
  });
  if (!Ok || !R.atEnd() || !HasPackage ||
      !batchStatusFromName(Status, Out.Status))
    return false;
  Out.Result.Times = Out.Result.CumulativeTimes;
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

void BatchSummary::tally(const BatchOutcome &Outcome) {
  ++Scanned;
  TotalSeconds += Outcome.Seconds;
  TotalReports += Outcome.Result.Reports.size();
  switch (Outcome.Status) {
  case BatchStatus::Ok:
    ++Ok;
    break;
  case BatchStatus::Degraded:
    ++Degraded;
    break;
  case BatchStatus::Failed:
    ++Failed;
    break;
  case BatchStatus::Quarantined:
    // Scanners never issue this verdict themselves (the shared-ledger
    // driver journals quarantined packages), but the accounting stays
    // total over the enum.
    ++Quarantined;
    break;
  }
}

BatchOutcome driver::scanPackageIsolated(const BatchInput &Input,
                                         scanner::ScanOptions Scan) {
  scanner::Scanner Scanner(std::move(Scan));
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
  return ProcessPool(PoolOptions{.Batch = Options, .Jobs = 0}).run(Inputs);
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
