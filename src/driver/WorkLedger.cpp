//===- driver/WorkLedger.cpp - Crash-only distributed corpus draining ------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//

#include "driver/WorkLedger.h"

#include "obs/AtomicFile.h"
#include "obs/Counters.h"
#include "obs/Histogram.h"
#include "obs/Metrics.h"
#include "support/JSON.h"
#include "support/Timer.h"

#include <algorithm>
#include <cctype>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

#include <sys/stat.h>
#include <sys/time.h>
#include <unistd.h>

using namespace gjs;
using namespace gjs::driver;

namespace fs = std::filesystem;

namespace {

/// Whole-file read; empty string when missing/unreadable.
std::string readFileAll(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return {};
  std::string S((std::istreambuf_iterator<char>(In)),
                std::istreambuf_iterator<char>());
  return S;
}

/// Atomic exclusive publication: the synced temp file is link(2)ed to the
/// final name. link fails with EEXIST when the name exists, so exactly one
/// contender ever sees success — the claim/steal token ratchet is built
/// entirely on that — and a reader that finds the name always finds the
/// whole content.
bool createExclusive(const std::string &Path, const std::string &Content) {
  std::string Tmp = obs::writeSyncedTemp(Path, Content);
  if (Tmp.empty())
    return false;
  bool Ok = ::link(Tmp.c_str(), Path.c_str()) == 0;
  ::unlink(Tmp.c_str());
  return Ok;
}

double fileMtime(const std::string &Path) {
  struct stat St;
  if (::stat(Path.c_str(), &St) != 0)
    return 0;
  return static_cast<double>(St.st_mtime);
}

/// Single-record framed file (owner/done/quarantine markers): unframe +
/// parse the first line, false on torn/corrupt content.
bool readFramedObject(const std::string &Path, json::Value &Out) {
  std::string Raw = readFileAll(Path);
  if (Raw.empty())
    return false;
  size_t NL = Raw.find('\n');
  if (NL != std::string::npos)
    Raw.resize(NL);
  std::string Payload;
  if (!unframeJournalLine(Raw, Payload))
    return false;
  return json::parse(Payload, Out) && Out.isObject();
}

std::string sanitizeName(const std::string &Name) {
  std::string Out;
  for (char C : Name)
    Out += (std::isalnum(static_cast<unsigned char>(C)) || C == '.' ||
            C == '_' || C == '-')
               ? C
               : '_';
  if (Out.size() > 80)
    Out.resize(80);
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// WorkLedger
//===----------------------------------------------------------------------===//

WorkLedger::WorkLedger(LedgerOptions O) : Options(std::move(O)) {
  if (Options.ShardSize == 0)
    Options.ShardSize = 1;
  if (Options.HeartbeatSeconds <= 0)
    Options.HeartbeatSeconds = Options.LeaseExpirySeconds / 3.0;
  if (Options.SupervisorId.empty()) {
    char Buf[48];
    std::snprintf(Buf, sizeof(Buf), "%d-%llx", ::getpid(),
                  static_cast<unsigned long long>(nowUnixSeconds() * 1e6));
    Options.SupervisorId = Buf;
  }
}

double WorkLedger::nowUnixSeconds() {
  struct timeval TV;
  ::gettimeofday(&TV, nullptr);
  return static_cast<double>(TV.tv_sec) +
         static_cast<double>(TV.tv_usec) / 1e6;
}

bool WorkLedger::init(const std::vector<std::string> &PackageNames,
                      std::string *Error) {
  std::error_code EC;
  fs::create_directories(Options.Dir + "/shards", EC);
  fs::create_directories(Options.Dir + "/quarantine", EC);
  if (EC) {
    if (Error)
      *Error = "cannot create ledger directory " + Options.Dir + ": " +
               EC.message();
    return false;
  }

  Names = PackageNames;
  Shards.clear();
  for (size_t I = 0; I < Names.size(); I += Options.ShardSize) {
    std::vector<size_t> Shard;
    for (size_t J = I; J < std::min(I + Options.ShardSize, Names.size()); ++J)
      Shard.push_back(J);
    Shards.push_back(std::move(Shard));
  }

  json::Object M;
  M["version"] = json::Value(1u);
  M["shard_size"] = json::Value(static_cast<unsigned long>(Options.ShardSize));
  json::Array Pkgs;
  for (const std::string &N : Names)
    Pkgs.push_back(json::Value(N));
  M["packages"] = json::Value(std::move(Pkgs));
  std::string Manifest = frameJournalLine(json::Value(std::move(M)).str());

  std::string Path = Options.Dir + "/manifest.json";
  if (createExclusive(Path, Manifest + "\n"))
    return true;

  // A joiner: the manifest must describe the exact same corpus partition,
  // otherwise two different batches are fighting over one ledger. The
  // creator publishes it whole, so it is complete or absent; while it is
  // absent (the create above failed for a reason other than losing the
  // race) give the creator a moment.
  json::Value V;
  bool Read = readFramedObject(Path, V);
  for (int Retry = 0; !Read && Retry < 200 && !fs::exists(Path); ++Retry) {
    ::usleep(10 * 1000);
    Read = readFramedObject(Path, V);
  }
  if (!Read) {
    if (Error)
      *Error = fs::exists(Path)
                   ? "ledger manifest at " + Path + " is torn or corrupt"
                   : "cannot publish ledger manifest at " + Path;
    return false;
  }
  {
    const json::Object &O = V.asObject();
    auto SIt = O.find("shard_size");
    auto PIt = O.find("packages");
    if (SIt == O.end() || !SIt->second.isNumber() || PIt == O.end() ||
        !PIt->second.isArray()) {
      if (Error)
        *Error = "ledger manifest at " + Path + " is malformed";
      return false;
    }
    if (static_cast<size_t>(SIt->second.asNumber()) != Options.ShardSize) {
      if (Error)
        *Error = "ledger at " + Options.Dir +
                 " was created with a different --shard-size";
      return false;
    }
    const json::Array &A = PIt->second.asArray();
    if (A.size() != Names.size()) {
      if (Error)
        *Error = "ledger at " + Options.Dir +
                 " was created for a different corpus (" +
                 std::to_string(A.size()) + " packages, got " +
                 std::to_string(Names.size()) + ")";
      return false;
    }
    for (size_t I = 0; I < A.size(); ++I) {
      if (!A[I].isString() || A[I].asString() != Names[I]) {
        if (Error)
          *Error = "ledger at " + Options.Dir +
                   " was created for a different corpus (package " +
                   std::to_string(I) + " mismatch)";
        return false;
      }
    }
  }
  return true;
}

std::string WorkLedger::shardPrefix(size_t Shard) const {
  return Options.Dir + "/shards/s" + std::to_string(Shard);
}

uint64_t WorkLedger::maxToken(size_t Shard) const {
  // Tokens are dense by construction: claims create tok.1, steals create
  // exactly max+1. Walking up from 1 is correct and cheap (steals are rare).
  uint64_t K = 0;
  while (fs::exists(shardPrefix(Shard) + ".tok." +
                    std::to_string(K + 1)))
    ++K;
  return K;
}

bool WorkLedger::writeOwnerFile(const LeaseInfo &Lease) {
  json::Object O;
  O["shard"] = json::Value(static_cast<unsigned long>(Lease.Shard));
  O["token"] = json::Value(static_cast<unsigned long>(Lease.Token));
  O["holder"] = json::Value(Lease.Holder);
  O["heartbeat"] = json::Value(Lease.HeartbeatUnix);
  std::string Path = shardPrefix(Lease.Shard) + ".owner.t" +
                     std::to_string(Lease.Token);
  return obs::writeFileAtomic(
      Path, frameJournalLine(json::Value(std::move(O)).str()) + "\n");
}

std::optional<LeaseInfo> WorkLedger::claimFresh() {
  for (size_t S = 0; S < Shards.size(); ++S) {
    if (shardDone(S))
      continue;
    std::string Tok1 = shardPrefix(S) + ".tok.1";
    if (fs::exists(Tok1))
      continue;
    if (!createExclusive(Tok1, Options.SupervisorId + "\n"))
      continue; // Lost the race; move on.
    LeaseInfo L;
    L.Shard = S;
    L.Token = 1;
    L.Holder = Options.SupervisorId;
    L.HeartbeatUnix = nowUnixSeconds();
    writeOwnerFile(L);
    ++ClaimsN;
    obs::counters::LedgerClaims.merge(1);
    return L;
  }
  return std::nullopt;
}

std::optional<LeaseInfo> WorkLedger::owner(size_t Shard) const {
  uint64_t K = maxToken(Shard);
  if (K == 0)
    return std::nullopt;
  LeaseInfo L;
  L.Shard = Shard;
  L.Token = K;
  json::Value V;
  std::string OwnerPath = shardPrefix(Shard) + ".owner.t" + std::to_string(K);
  if (readFramedObject(OwnerPath, V)) {
    const json::Object &O = V.asObject();
    auto HIt = O.find("holder");
    if (HIt != O.end() && HIt->second.isString())
      L.Holder = HIt->second.asString();
    auto BIt = O.find("heartbeat");
    if (BIt != O.end() && BIt->second.isNumber())
      L.HeartbeatUnix = BIt->second.asNumber();
  } else {
    // Claimed (the token exists) but the owner record never landed — the
    // claimant died in the window between the two writes. The token file's
    // mtime stands in for the heartbeat so the lease still expires.
    L.HeartbeatUnix =
        fileMtime(shardPrefix(Shard) + ".tok." + std::to_string(K));
  }
  return L;
}

std::optional<LeaseInfo> WorkLedger::stealStale() {
  double Now = nowUnixSeconds();
  for (size_t S = 0; S < Shards.size(); ++S) {
    if (shardDone(S))
      continue;
    std::optional<LeaseInfo> Cur = owner(S);
    if (!Cur)
      continue; // Never claimed: claimFresh territory.
    if (Now - Cur->HeartbeatUnix <= Options.LeaseExpirySeconds)
      continue; // Holder is live.
    ++ExpiredN;
    obs::counters::LedgerExpired.merge(1);
    // Ratchet the fencing token: link's EEXIST picks exactly one thief, and
    // every artifact the stale holder keeps writing stays under its old
    // token — the late writer loses structurally.
    std::string NextTok =
        shardPrefix(S) + ".tok." + std::to_string(Cur->Token + 1);
    if (!createExclusive(NextTok, Options.SupervisorId + "\n"))
      continue; // Someone else stole it first.
    LeaseInfo L;
    L.Shard = S;
    L.Token = Cur->Token + 1;
    L.Holder = Options.SupervisorId;
    L.HeartbeatUnix = nowUnixSeconds();
    writeOwnerFile(L);
    ++StealsN;
    obs::counters::LedgerSteals.merge(1);
    return L;
  }
  return std::nullopt;
}

bool WorkLedger::heartbeat(LeaseInfo &Lease) {
  if (maxToken(Lease.Shard) > Lease.Token)
    return false; // Fenced: someone stole this shard.
  Lease.HeartbeatUnix = nowUnixSeconds();
  writeOwnerFile(Lease);
  // Re-check after the write: a steal that raced the rewrite already owns
  // the shard regardless of what the old owner file now says.
  return maxToken(Lease.Shard) <= Lease.Token;
}

bool WorkLedger::shardDone(size_t Shard) const {
  uint64_t Max = maxToken(Shard);
  for (uint64_t K = 1; K <= Max; ++K)
    if (fs::exists(shardPrefix(Shard) + ".done.t" + std::to_string(K)))
      return true;
  return false;
}

bool WorkLedger::allDone() const {
  for (size_t S = 0; S < Shards.size(); ++S)
    if (!shardDone(S))
      return false;
  return true;
}

void WorkLedger::markDone(const LeaseInfo &Lease, size_t Terminals) {
  json::Object O;
  O["shard"] = json::Value(static_cast<unsigned long>(Lease.Shard));
  O["token"] = json::Value(static_cast<unsigned long>(Lease.Token));
  O["terminals"] = json::Value(static_cast<unsigned long>(Terminals));
  obs::writeFileAtomic(
      shardPrefix(Lease.Shard) + ".done.t" + std::to_string(Lease.Token),
      frameJournalLine(json::Value(std::move(O)).str()) + "\n");
}

std::string WorkLedger::shardJournalPath(const LeaseInfo &Lease) const {
  return shardPrefix(Lease.Shard) + ".journal.t" +
         std::to_string(Lease.Token) + ".jsonl";
}

void WorkLedger::appendRecord(const LeaseInfo &Lease,
                              const std::string &Payload) {
  std::ofstream Out(shardJournalPath(Lease),
                    std::ios::out | std::ios::app);
  Out << frameJournalLine(Payload) << '\n';
  Out.flush();
}

WorkLedger::ShardHistory WorkLedger::readShardHistory(size_t Shard) const {
  ShardHistory H;
  std::map<std::string, unsigned> Starts, CleanTerms;
  uint64_t Max = maxToken(Shard);
  for (uint64_t K = 1; K <= Max; ++K) {
    LeaseInfo L;
    L.Shard = Shard;
    L.Token = K;
    std::ifstream In(shardJournalPath(L));
    if (!In)
      continue;
    std::set<std::string> SeenThisToken;
    std::string Line;
    while (std::getline(In, Line)) {
      if (Line.empty())
        continue;
      std::string Payload;
      json::Value V;
      if (!unframeJournalLine(Line, Payload) || !json::parse(Payload, V) ||
          !V.isObject()) {
        ++H.DroppedLines;
        continue;
      }
      const json::Object &O = V.asObject();
      auto SIt = O.find("start");
      if (SIt != O.end() && SIt->second.isString()) {
        ++Starts[SIt->second.asString()];
        continue;
      }
      auto PIt = O.find("package");
      if (PIt == O.end() || !PIt->second.isString())
        continue;
      const std::string &Pkg = PIt->second.asString();
      // Highest token wins, first record within a token: deterministic
      // under steal races, and the *fencing* semantics — when a stale
      // holder's late write races the thief's scan of the same package,
      // the thief (higher token, the legitimate owner) provides the
      // record of record. Tokens iterate ascending here, so a later
      // token's first record overwrites an earlier token's.
      if (!SeenThisToken.count(Pkg)) {
        SeenThisToken.insert(Pkg);
        H.Terminals[Pkg] = Payload;
      }
      // Strike accounting: kill-class failed terminals keep their start's
      // strike; every other terminal consumes it.
      bool KillClass = false;
      auto StIt = O.find("status");
      if (StIt != O.end() && StIt->second.isString() &&
          StIt->second.asString() == "failed") {
        auto EIt = O.find("errors");
        if (EIt != O.end() && EIt->second.isArray() &&
            !EIt->second.asArray().empty() &&
            EIt->second.asArray()[0].isObject()) {
          const json::Object &EO = EIt->second.asArray()[0].asObject();
          auto KIt = EO.find("kind");
          if (KIt != EO.end() && KIt->second.isString()) {
            const std::string &Kind = KIt->second.asString();
            KillClass = Kind == "crashed" || Kind == "killed-oom" ||
                        Kind == "killed-deadline";
          }
        }
      }
      if (!KillClass)
        ++CleanTerms[Pkg];
    }
  }
  if (H.DroppedLines)
    obs::counters::JournalDroppedLines.merge(H.DroppedLines);
  for (const auto &[Pkg, N] : Starts) {
    unsigned Clean = CleanTerms.count(Pkg) ? CleanTerms[Pkg] : 0;
    if (N > Clean)
      H.Strikes[Pkg] = N - Clean;
  }
  return H;
}

bool WorkLedger::isQuarantined(const std::string &Package) const {
  char Crc[16];
  std::snprintf(Crc, sizeof(Crc), "%08x", journalCrc32(Package));
  return fs::exists(Options.Dir + "/quarantine/" + sanitizeName(Package) +
                    "-" + Crc + ".json");
}

void WorkLedger::quarantine(const std::string &Package, unsigned Strikes) {
  json::Object O;
  O["package"] = json::Value(Package);
  O["strikes"] = json::Value(Strikes);
  O["supervisor"] = json::Value(Options.SupervisorId);
  O["time"] = json::Value(nowUnixSeconds());
  char Crc[16];
  std::snprintf(Crc, sizeof(Crc), "%08x", journalCrc32(Package));
  // Exclusive: the first supervisor to trip the breaker records the history;
  // concurrent trippers are harmless no-ops.
  createExclusive(Options.Dir + "/quarantine/" + sanitizeName(Package) + "-" +
                      Crc + ".json",
                  frameJournalLine(json::Value(std::move(O)).str()) + "\n");
}

std::vector<std::string> WorkLedger::quarantinedPackages() const {
  std::vector<std::string> Out;
  std::error_code EC;
  for (const auto &E :
       fs::directory_iterator(Options.Dir + "/quarantine", EC)) {
    if (E.path().filename().string().starts_with("."))
      continue; // An unpublished marker (createExclusive's temp file).
    json::Value V;
    if (!readFramedObject(E.path().string(), V))
      continue;
    const json::Object &O = V.asObject();
    auto It = O.find("package");
    if (It != O.end() && It->second.isString())
      Out.push_back(It->second.asString());
  }
  std::sort(Out.begin(), Out.end());
  return Out;
}

std::string WorkLedger::corpusJournalPath() const {
  return Options.Dir + "/corpus.jsonl";
}

bool WorkLedger::merge(std::string *Error) {
  if (!allDone()) {
    if (Error)
      *Error = "corpus has open shards";
    return false;
  }
  std::string Out;
  for (size_t S = 0; S < Shards.size(); ++S) {
    ShardHistory H = readShardHistory(S);
    for (size_t Idx : Shards[S]) {
      const std::string &Pkg = Names[Idx];
      auto It = H.Terminals.find(Pkg);
      if (It != H.Terminals.end()) {
        Out += frameJournalLine(It->second) + "\n";
        continue;
      }
      if (isQuarantined(Pkg)) {
        // The breaker tripped but its holder died before the journal line
        // landed: synthesize the terminal from the marker.
        BatchOutcome Q;
        Q.Package = Pkg;
        Q.Status = BatchStatus::Quarantined;
        Q.Result.Errors.push_back(
            {scanner::ScanPhase::Driver, scanner::ScanErrorKind::Crashed,
             "quarantined by the poison-package circuit breaker", ""});
        Out += frameJournalLine(BatchDriver::journalLine(Q)) + "\n";
        continue;
      }
      if (Error)
        *Error = "shard " + std::to_string(S) + " is marked done but '" +
                 Pkg + "' has no terminal record";
      return false;
    }
  }
  if (!obs::writeFileAtomic(corpusJournalPath(), Out)) {
    if (Error)
      *Error = "cannot write " + corpusJournalPath();
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// runSharedBatch
//===----------------------------------------------------------------------===//

namespace {

/// Builds the quarantined journal outcome for a poison package.
BatchOutcome quarantinedOutcome(const std::string &Pkg, unsigned Strikes) {
  BatchOutcome Q;
  Q.Package = Pkg;
  Q.Status = BatchStatus::Quarantined;
  Q.Result.Errors.push_back(
      {scanner::ScanPhase::Driver, scanner::ScanErrorKind::Crashed,
       "quarantined after " + std::to_string(Strikes) +
           " kill-class failures across supervisors",
       ""});
  return Q;
}

} // namespace

SharedBatchResult driver::runSharedBatch(const SharedBatchOptions &Options,
                                         const std::vector<BatchInput> &Inputs) {
  SharedBatchResult R;
  Timer Wall;

  WorkLedger Ledger(Options.Ledger);
  std::vector<std::string> Names;
  Names.reserve(Inputs.size());
  for (const BatchInput &In : Inputs)
    Names.push_back(In.Name);
  std::string Err;
  if (!Ledger.init(Names, &Err)) {
    std::fprintf(stderr, "batch: shared ledger: %s\n", Err.c_str());
    R.Summary.Failed = Inputs.size();
    return R;
  }

  // Chaos harness state: supervisor-global dispatch count, killed right
  // after the start record of dispatch ChaosKillAfter+1 hits disk — the
  // torn-state worst case (start without terminal).
  unsigned StartsSeen = 0;

  const double PollSeconds =
      std::min(0.1, std::max(0.02, Ledger.options().LeaseExpirySeconds / 5));
  Timer WaitClock;

  while (true) {
    std::optional<LeaseInfo> Lease = Ledger.claimFresh();
    if (!Lease)
      Lease = Ledger.stealStale();
    if (!Lease) {
      if (Ledger.allDone())
        break;
      // Some other supervisor holds the remaining shards and is live;
      // wait for it to finish or for its lease to expire.
      ::usleep(static_cast<useconds_t>(PollSeconds * 1e6));
      continue;
    }
    obs::hists::LeaseWait.recordSeconds(WaitClock.elapsedSeconds());

    // ----- Drain one shard under this lease -----
    LeaseInfo &L = *Lease;
    WorkLedger::ShardHistory History = Ledger.readShardHistory(L.Shard);
    std::set<std::string> DoneSet;
    for (const auto &[Pkg, Line] : History.Terminals)
      DoneSet.insert(Pkg);

    // Quarantine pass before any scan: a package with enough strikes (or
    // an existing marker) is journaled as quarantined, never dispatched.
    const auto &ShardIdx = Ledger.shards()[L.Shard];
    for (size_t Idx : ShardIdx) {
      const std::string &Pkg = Ledger.packageNames()[Idx];
      if (DoneSet.count(Pkg))
        continue;
      unsigned Strikes =
          History.Strikes.count(Pkg) ? History.Strikes[Pkg] : 0;
      if (!Ledger.isQuarantined(Pkg) &&
          Strikes < Ledger.options().QuarantineAfter)
        continue;
      Ledger.quarantine(Pkg, Strikes);
      BatchOutcome Q = quarantinedOutcome(Pkg, Strikes);
      Ledger.appendRecord(L, BatchDriver::journalLine(Q));
      obs::counters::QuarantinePackages.merge(1);
      ++R.Summary.Quarantined;
      R.Summary.Outcomes.push_back(std::move(Q));
      DoneSet.insert(Pkg);
    }

    std::vector<BatchInput> ShardInputs;
    std::vector<size_t> CorpusIndex; // ShardInputs position -> corpus index.
    for (size_t Idx : ShardIdx) {
      ShardInputs.push_back(Inputs[Idx]);
      CorpusIndex.push_back(Idx);
    }

    // Rebase corpus-global faults onto this shard's dispatch sequence (the
    // position among packages that will actually be scanned). Index faults
    // target the corpus *input* index in shared mode; name faults follow
    // the package.
    std::vector<scanner::FaultPlan> ShardFaults;
    {
      unsigned Seq = 0;
      for (size_t P = 0; P < ShardInputs.size(); ++P) {
        if (DoneSet.count(ShardInputs[P].Name))
          continue;
        for (const scanner::FaultPlan &F : Options.Pool.Faults) {
          bool Match = F.PackageName.empty()
                           ? F.Package == CorpusIndex[P]
                           : F.PackageName == ShardInputs[P].Name;
          if (Match) {
            scanner::FaultPlan FP = F;
            FP.Package = Seq;
            FP.PackageName.clear();
            ShardFaults.push_back(FP);
          }
        }
        ++Seq;
      }
    }

    BatchOptions BO = Options.Pool.Batch;
    BO.JournalPath = Ledger.shardJournalPath(L);
    BO.Resume = true; // Appends after the quarantine records above.
    BO.FramedJournal = true;
    BO.AlreadyDone = DoneSet;
    BO.MaxPackages = 0;

    bool Fenced = false;
    Timer HeartbeatClock;
    BO.OnTick = [&]() {
      if (Fenced)
        return false;
      if (HeartbeatClock.elapsedSeconds() >=
          Ledger.options().HeartbeatSeconds) {
        HeartbeatClock.reset();
        if (!Ledger.heartbeat(L)) {
          Fenced = true;
          return false;
        }
      }
      return true;
    };
    BO.OnPackageStart = [&](const std::string &Pkg) {
      json::Object S;
      S["start"] = json::Value(Pkg);
      S["token"] = json::Value(static_cast<unsigned long>(L.Token));
      S["supervisor"] = json::Value(Ledger.supervisorId());
      Ledger.appendRecord(L, json::Value(std::move(S)).str());
      if (Options.ChaosKillAfter && ++StartsSeen > Options.ChaosKillAfter)
        ::raise(SIGKILL);
    };

    BatchSummary Sub;
    if (Options.Pool.Jobs > 0) {
      PoolOptions PO = Options.Pool;
      PO.Batch = BO;
      PO.Faults = ShardFaults;
      Sub = ProcessPool(PO).run(ShardInputs);
    } else {
      // In-process drain: a process-fatal fault here kills this whole
      // supervisor after the start record — the crash loop the quarantine
      // breaker is built to end.
      if (!ShardFaults.empty())
        BO.Scan.Fault = ShardFaults.front();
      Sub = BatchDriver(BO).run(ShardInputs);
    }

    // Fold this shard's work into the supervisor-local summary (skips are
    // other tokens' terminals; don't re-report them as outcomes).
    R.Summary.Scanned += Sub.Scanned;
    R.Summary.SkippedResumed += Sub.SkippedResumed;
    R.Summary.Ok += Sub.Ok;
    R.Summary.Degraded += Sub.Degraded;
    R.Summary.Failed += Sub.Failed;
    R.Summary.Quarantined += Sub.Quarantined;
    R.Summary.TotalReports += Sub.TotalReports;
    R.Summary.TotalSeconds += Sub.TotalSeconds;
    R.Summary.Crashed += Sub.Crashed;
    R.Summary.OomKilled += Sub.OomKilled;
    R.Summary.DeadlineKilled += Sub.DeadlineKilled;
    R.Summary.Retried += Sub.Retried;
    R.Summary.Recycled += Sub.Recycled;
    std::set<std::string> ScannedNow;
    for (BatchOutcome &O : Sub.Outcomes) {
      if (O.Skipped)
        continue;
      ScannedNow.insert(O.Package);
      R.Summary.Outcomes.push_back(std::move(O));
    }

    // The shard is complete when every package has a terminal somewhere
    // (prior tokens, the quarantine pass, or this run). Anything less and
    // we were fenced or interrupted: leave the shard open for its new (or
    // next) owner and, on interrupt, stop taking work.
    bool Complete = true;
    for (size_t Idx : ShardIdx) {
      const std::string &Pkg = Ledger.packageNames()[Idx];
      if (!DoneSet.count(Pkg) && !ScannedNow.count(Pkg)) {
        Complete = false;
        break;
      }
    }
    if (Complete) {
      Ledger.markDone(L, ShardIdx.size());
      ++R.ShardsDrained;
    } else if (!Fenced) {
      // Not fenced and not complete: the drain was interrupted (SIGINT
      // drain, worker-launch collapse). Stop claiming; the lease expires
      // and another supervisor finishes the shard.
      break;
    }
    WaitClock.reset();
  }

  R.Summary.LedgerClaims = Ledger.claims();
  R.Summary.LedgerSteals = Ledger.steals();
  R.Summary.LedgerExpired = Ledger.expired();

  if (Ledger.allDone() && Ledger.merge(&Err)) {
    R.Merged = true;
    R.MergedJournal = Ledger.corpusJournalPath();
    // --journal in shared mode: a private copy of the merged corpus
    // journal, so downstream tooling keeps one well-known path.
    if (!Options.Pool.Batch.JournalPath.empty()) {
      std::error_code EC;
      fs::copy_file(Ledger.corpusJournalPath(), Options.Pool.Batch.JournalPath,
                    fs::copy_options::overwrite_existing, EC);
    }
  }

  R.Summary.WallSeconds = Wall.elapsedSeconds();
  if (!Options.Pool.Batch.MetricsPath.empty())
    obs::writePrometheusFile(Options.Pool.Batch.MetricsPath);
  return R;
}
