//===- tests/test_distributed.cpp - Distributed draining tests -------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
// The crash-only distributed draining surface: CRC32+length journal
// framing and torn-tail recovery, the shared work ledger (exclusive
// claims, lease stealing, fencing tokens, heartbeats), poison-package
// quarantine, the deterministic merge, runSharedBatch end to end, the
// overloaded client retry path, and chaos CLI round trips — concurrent
// supervisors SIGKILLed mid-drain with exactly-once accounting against a
// single-supervisor baseline.
//
//===----------------------------------------------------------------------===//

#include "driver/BatchDriver.h"
#include "driver/ScanService.h"
#include "driver/WorkLedger.h"
#include "obs/AtomicFile.h"
#include "obs/Counters.h"
#include "support/JSON.h"
#include "support/Subprocess.h"
#include "workload/Packages.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace gjs;

namespace {

const char *VulnSource =
    "var cp = require('child_process');\n"
    "function run(cmd, cb) {\n"
    "  var prefixed = 'git ' + cmd;\n"
    "  cp.exec(prefixed, cb);\n"
    "}\n"
    "module.exports = run;\n";

const char *CleanSource =
    "function add(a, b) { return a + b; }\n"
    "module.exports = add;\n";

std::string tempDir(const std::string &Tag) {
  std::string Dir =
      testing::TempDir() + "dist_" + Tag + "_" + std::to_string(::getpid());
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
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

driver::BatchInput makeInput(const std::string &Name, const char *Source) {
  return {Name, {{Name + ".js", Source}}};
}

std::vector<driver::BatchInput> fourInputs() {
  return {makeInput("alpha", VulnSource), makeInput("bravo", CleanSource),
          makeInput("charlie", VulnSource), makeInput("delta", CleanSource)};
}

std::vector<std::string> namesOf(const std::vector<driver::BatchInput> &In) {
  std::vector<std::string> N;
  for (const driver::BatchInput &I : In)
    N.push_back(I.Name);
  return N;
}

/// Unframes (when framed) and parses one journal line.
json::Object parseAnyLine(const std::string &Line) {
  std::string Payload;
  EXPECT_TRUE(driver::unframeJournalLine(Line, Payload)) << Line;
  json::Value V;
  std::string Error;
  EXPECT_TRUE(json::parse(Payload, V, &Error)) << Error << "\n" << Payload;
  EXPECT_TRUE(V.isObject());
  return V.asObject();
}

/// Package -> status from a (possibly framed) journal.
std::map<std::string, std::string> statusByPackage(const std::string &Path) {
  std::map<std::string, std::string> Out;
  for (const std::string &Line : readLines(Path)) {
    json::Object O = parseAnyLine(Line);
    if (O.count("package") && O.count("status"))
      Out[O.at("package").asString()] = O.at("status").asString();
  }
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Journal framing (CRC32 + length)
//===----------------------------------------------------------------------===//

TEST(JournalFramingTest, RoundTrip) {
  std::string Payload = "{\"package\":\"p\",\"status\":\"ok\"}";
  std::string Framed = driver::frameJournalLine(Payload);
  ASSERT_FALSE(Framed.empty());
  EXPECT_EQ(Framed[0], '@');
  std::string Back;
  bool WasFramed = false;
  ASSERT_TRUE(driver::unframeJournalLine(Framed, Back, &WasFramed));
  EXPECT_TRUE(WasFramed);
  EXPECT_EQ(Back, Payload);
}

TEST(JournalFramingTest, BareLinePassesThrough) {
  std::string Back;
  bool WasFramed = true;
  ASSERT_TRUE(driver::unframeJournalLine("{\"a\":1}", Back, &WasFramed));
  EXPECT_FALSE(WasFramed);
  EXPECT_EQ(Back, "{\"a\":1}");
}

TEST(JournalFramingTest, TornTailRejected) {
  std::string Framed = driver::frameJournalLine("{\"package\":\"torn\"}");
  // A SIGKILL mid-write leaves a prefix: every strict prefix must fail the
  // length/CRC check rather than parse as a shorter record.
  for (size_t Cut = 1; Cut < Framed.size(); ++Cut) {
    std::string Back;
    EXPECT_FALSE(
        driver::unframeJournalLine(Framed.substr(0, Cut), Back))
        << "prefix of length " << Cut << " accepted";
  }
}

TEST(JournalFramingTest, CorruptPayloadRejected) {
  std::string Framed = driver::frameJournalLine("{\"package\":\"x\"}");
  std::string Flipped = Framed;
  Flipped[Framed.size() - 2] ^= 0x20; // Flip a payload byte; length intact.
  std::string Back;
  EXPECT_FALSE(driver::unframeJournalLine(Flipped, Back));
}

TEST(JournalFramingTest, CorruptCrcRejected) {
  std::string Framed = driver::frameJournalLine("{\"package\":\"x\"}");
  size_t Colon = Framed.find(':');
  ASSERT_NE(Colon, std::string::npos);
  std::string Flipped = Framed;
  Flipped[Colon + 1] = Flipped[Colon + 1] == '0' ? '1' : '0';
  std::string Back;
  EXPECT_FALSE(driver::unframeJournalLine(Flipped, Back));
}

TEST(JournalFramingTest, MalformedHeadersRejected) {
  std::string Back;
  EXPECT_FALSE(driver::unframeJournalLine("@", Back));
  EXPECT_FALSE(driver::unframeJournalLine("@12", Back));
  EXPECT_FALSE(driver::unframeJournalLine("@12:deadbeef", Back));
  EXPECT_FALSE(driver::unframeJournalLine("@x:deadbeef:{}", Back));
  EXPECT_FALSE(driver::unframeJournalLine("@2:nothex8:{}", Back));
}

TEST(JournalFramingTest, Crc32KnownVector) {
  // The IEEE polynomial's classic check value.
  EXPECT_EQ(driver::journalCrc32("123456789"), 0xcbf43926u);
}

//===----------------------------------------------------------------------===//
// Torn/corrupt journal hardening (resume skip-and-log)
//===----------------------------------------------------------------------===//

TEST(JournalHardeningTest, JournaledPackagesSkipsAndCountsBadLines) {
  std::string Dir = tempDir("harden");
  std::string Path = Dir + "/j.jsonl";
  {
    std::ofstream Out(Path);
    Out << "{\"package\":\"good-bare\",\"status\":\"ok\"}\n";
    Out << driver::frameJournalLine(
               "{\"package\":\"good-framed\",\"status\":\"ok\"}")
        << '\n';
    // Torn framed tail (truncated), then plain garbage.
    std::string Torn = driver::frameJournalLine(
        "{\"package\":\"torn\",\"status\":\"ok\"}");
    Out << Torn.substr(0, Torn.size() / 2) << '\n';
    Out << "%% not a journal line %%\n";
  }
  size_t Dropped = 0;
  std::set<std::string> Done = driver::BatchDriver::journaledPackages(
      Path, &Dropped);
  EXPECT_EQ(Done, (std::set<std::string>{"good-bare", "good-framed"}));
  EXPECT_EQ(Dropped, 2u);
  std::filesystem::remove_all(Dir);
}

TEST(JournalHardeningTest, ResumeAcrossCorruptCrcMidFile) {
  std::string Dir = tempDir("resume_crc");
  std::string Path = Dir + "/j.jsonl";
  std::vector<driver::BatchInput> Inputs = fourInputs();

  driver::BatchOptions O;
  O.JournalPath = Path;
  O.FramedJournal = true;
  O.Quiet = true;
  driver::BatchSummary S1 = driver::BatchDriver(O).run(Inputs);
  EXPECT_EQ(S1.Scanned, 4u);

  // Corrupt the CRC of the second line: the record for that package is now
  // torn, everything around it intact.
  std::vector<std::string> Lines = readLines(Path);
  ASSERT_EQ(Lines.size(), 4u);
  std::string Victim = parseAnyLine(Lines[1]).at("package").asString();
  size_t Colon = Lines[1].find(':');
  Lines[1][Colon + 1] = Lines[1][Colon + 1] == 'f' ? '0' : 'f';
  {
    std::ofstream Out(Path);
    for (const std::string &L : Lines)
      Out << L << '\n';
  }

  // Resume re-scans exactly the corrupted package and skips the rest.
  driver::BatchOptions O2 = O;
  O2.Resume = true;
  driver::BatchSummary S2 = driver::BatchDriver(O2).run(Inputs);
  EXPECT_EQ(S2.Scanned, 1u);
  EXPECT_EQ(S2.SkippedResumed, 3u);
  ASSERT_EQ(S2.Outcomes.size(), 4u);
  for (const driver::BatchOutcome &Out : S2.Outcomes)
    if (!Out.Skipped) {
      EXPECT_EQ(Out.Package, Victim);
    }

  // The journal now resolves every package again (appended rescan line).
  size_t Dropped = 0;
  std::set<std::string> Done =
      driver::BatchDriver::journaledPackages(Path, &Dropped);
  EXPECT_EQ(Done.size(), 4u);
  EXPECT_EQ(Dropped, 1u);
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// WorkLedger: claims, steals, fencing, quarantine, merge
//===----------------------------------------------------------------------===//

namespace {

driver::LedgerOptions ledgerOpts(const std::string &Dir, size_t ShardSize,
                                 double ExpirySeconds,
                                 const std::string &Id) {
  driver::LedgerOptions L;
  L.Dir = Dir;
  L.ShardSize = ShardSize;
  L.LeaseExpirySeconds = ExpirySeconds;
  L.SupervisorId = Id;
  return L;
}

} // namespace

TEST(WorkLedgerTest, InitShardsAndClaimUntilExhausted) {
  std::string Dir = tempDir("claims");
  driver::WorkLedger L(ledgerOpts(Dir, 2, 10.0, "sup-a"));
  std::string Error;
  ASSERT_TRUE(L.init({"a", "b", "c", "d", "e"}, &Error)) << Error;
  ASSERT_EQ(L.numShards(), 3u); // 2 + 2 + 1.
  EXPECT_EQ(L.shards()[2], (std::vector<size_t>{4}));

  std::set<size_t> Claimed;
  for (int I = 0; I < 3; ++I) {
    std::optional<driver::LeaseInfo> Lease = L.claimFresh();
    ASSERT_TRUE(Lease.has_value());
    EXPECT_EQ(Lease->Token, 1u);
    EXPECT_EQ(Lease->Holder, "sup-a");
    Claimed.insert(Lease->Shard);
  }
  EXPECT_EQ(Claimed.size(), 3u);
  EXPECT_FALSE(L.claimFresh().has_value());
  EXPECT_EQ(L.claims(), 3u);
  std::filesystem::remove_all(Dir);
}

TEST(WorkLedgerTest, JoinerVerifiesManifest) {
  std::string Dir = tempDir("manifest");
  driver::WorkLedger A(ledgerOpts(Dir, 2, 10.0, "sup-a"));
  std::string Error;
  ASSERT_TRUE(A.init({"a", "b"}, &Error)) << Error;

  driver::WorkLedger B(ledgerOpts(Dir, 2, 10.0, "sup-b"));
  EXPECT_TRUE(B.init({"a", "b"}, &Error)) << Error;

  driver::WorkLedger C(ledgerOpts(Dir, 2, 10.0, "sup-c"));
  EXPECT_FALSE(C.init({"a", "zzz"}, &Error));
  EXPECT_FALSE(Error.empty());
  std::filesystem::remove_all(Dir);
}

TEST(WorkLedgerTest, ConcurrentJoinersNeverSeeAPartialManifest) {
  // Every contender races to publish the manifest; the losers read it at
  // once. A name that became visible before its content (create, then
  // write) showed up here as a "torn or corrupt" joiner.
  std::vector<std::string> Names;
  for (int I = 0; I < 400; ++I)
    Names.push_back("package-with-a-long-name-" + std::to_string(I));
  for (int Round = 0; Round < 25; ++Round) {
    std::string Dir = tempDir("race" + std::to_string(Round));
    std::vector<std::thread> Threads;
    std::vector<std::string> Errors(6);
    std::vector<int> Ok(6, 0);
    for (size_t T = 0; T < Errors.size(); ++T)
      Threads.emplace_back([&, T] {
        driver::WorkLedger L(
            ledgerOpts(Dir, 4, 10.0, "sup-" + std::to_string(T)));
        Ok[T] = L.init(Names, &Errors[T]);
      });
    for (std::thread &Th : Threads)
      Th.join();
    for (size_t T = 0; T < Errors.size(); ++T)
      EXPECT_TRUE(Ok[T]) << "round " << Round << ": " << Errors[T];
    std::filesystem::remove_all(Dir);
  }
}

TEST(WorkLedgerTest, AtomicWriteLeavesNoTempFileBehind) {
  std::string Dir = tempDir("atomic");
  auto Temps = [&] {
    std::vector<std::string> Out;
    for (const auto &E : std::filesystem::recursive_directory_iterator(Dir))
      if (E.path().filename().string().find(".tmp.") != std::string::npos)
        Out.push_back(E.path().string());
    return Out;
  };
  // Success replaces the content whole.
  std::string Path = Dir + "/owner";
  ASSERT_TRUE(obs::writeFileAtomic(Path, "first\n"));
  ASSERT_TRUE(obs::writeFileAtomic(Path, "second\n"));
  EXPECT_EQ(readLines(Path), std::vector<std::string>{"second"});
  EXPECT_TRUE(Temps().empty());

  // rename fails: the target is a non-empty directory. The temp file was
  // written and synced, and must be unlinked again.
  std::string Blocked = Dir + "/blocked";
  std::filesystem::create_directories(Blocked + "/inside");
  EXPECT_FALSE(obs::writeFileAtomic(Blocked, "lost\n"));
  EXPECT_TRUE(std::filesystem::is_directory(Blocked));
  EXPECT_TRUE(Temps().empty()) << Temps().front();

  // The temp file cannot even be created: the parent is missing.
  EXPECT_FALSE(obs::writeFileAtomic(Dir + "/missing/owner", "x\n"));
  EXPECT_TRUE(Temps().empty()) << Temps().front();
  std::filesystem::remove_all(Dir);
}

TEST(WorkLedgerTest, StealOnlyAfterExpiryAndFencingWins) {
  std::string Dir = tempDir("steal");
  driver::WorkLedger A(ledgerOpts(Dir, 1, 0.2, "sup-a"));
  driver::WorkLedger B(ledgerOpts(Dir, 1, 0.2, "sup-b"));
  std::string Error;
  ASSERT_TRUE(A.init({"only"}, &Error)) << Error;
  ASSERT_TRUE(B.init({"only"}, &Error)) << Error;

  std::optional<driver::LeaseInfo> Held = A.claimFresh();
  ASSERT_TRUE(Held.has_value());

  // Fresh lease: nothing to steal yet, and the claim is gone.
  EXPECT_FALSE(B.claimFresh().has_value());
  EXPECT_FALSE(B.stealStale().has_value());

  // Heartbeats keep the lease alive past its nominal expiry.
  ::usleep(120 * 1000);
  ASSERT_TRUE(A.heartbeat(*Held));
  ::usleep(120 * 1000);
  EXPECT_FALSE(B.stealStale().has_value());

  // Silence past the expiry: the steal succeeds with the next token and
  // the original holder is fenced out of its own heartbeat.
  ::usleep(300 * 1000);
  std::optional<driver::LeaseInfo> Stolen = B.stealStale();
  ASSERT_TRUE(Stolen.has_value());
  EXPECT_EQ(Stolen->Shard, Held->Shard);
  EXPECT_EQ(Stolen->Token, 2u);
  EXPECT_EQ(Stolen->Holder, "sup-b");
  EXPECT_EQ(B.steals(), 1u);
  EXPECT_FALSE(A.heartbeat(*Held)) << "fenced holder must lose heartbeat";

  std::optional<driver::LeaseInfo> Owner = B.owner(Stolen->Shard);
  ASSERT_TRUE(Owner.has_value());
  EXPECT_EQ(Owner->Holder, "sup-b");
  EXPECT_EQ(Owner->Token, 2u);
  std::filesystem::remove_all(Dir);
}

TEST(WorkLedgerTest, MergeIsDeterministicInputOrder) {
  std::string Dir = tempDir("merge");
  driver::WorkLedger L(ledgerOpts(Dir, 2, 10.0, "sup-a"));
  std::string Error;
  ASSERT_TRUE(L.init({"w", "x", "y", "z"}, &Error)) << Error;

  // Drain shard 1 before shard 0: the merge must still come out in corpus
  // input order, not completion order.
  for (int I = 0; I < 2; ++I) {
    std::optional<driver::LeaseInfo> Lease = L.claimFresh();
    ASSERT_TRUE(Lease.has_value());
    for (size_t Idx : L.shards()[Lease->Shard]) {
      const std::string &Pkg = L.packageNames()[Idx];
      L.appendRecord(*Lease, "{\"package\":\"" + Pkg +
                                 "\",\"status\":\"ok\"}");
    }
    L.markDone(*Lease, L.shards()[Lease->Shard].size());
  }
  ASSERT_TRUE(L.allDone());
  ASSERT_TRUE(L.merge(&Error)) << Error;

  std::vector<std::string> Lines = readLines(L.corpusJournalPath());
  ASSERT_EQ(Lines.size(), 4u);
  std::vector<std::string> Order;
  for (const std::string &Line : Lines)
    Order.push_back(parseAnyLine(Line).at("package").asString());
  EXPECT_EQ(Order, (std::vector<std::string>{"w", "x", "y", "z"}));

  // Re-merge is idempotent.
  ASSERT_TRUE(L.merge(&Error)) << Error;
  EXPECT_EQ(readLines(L.corpusJournalPath()).size(), 4u);
  std::filesystem::remove_all(Dir);
}

TEST(WorkLedgerTest, LateStaleWriteLosesToFencedThief) {
  std::string Dir = tempDir("fence_write");
  driver::WorkLedger A(ledgerOpts(Dir, 1, 0.15, "sup-a"));
  driver::WorkLedger B(ledgerOpts(Dir, 1, 0.15, "sup-b"));
  std::string Error;
  ASSERT_TRUE(A.init({"contested"}, &Error)) << Error;
  ASSERT_TRUE(B.init({"contested"}, &Error)) << Error;

  std::optional<driver::LeaseInfo> Old = A.claimFresh();
  ASSERT_TRUE(Old.has_value());
  ::usleep(250 * 1000); // A goes silent; its lease expires.
  std::optional<driver::LeaseInfo> New = B.stealStale();
  ASSERT_TRUE(New.has_value());

  // The thief scans and records; then the stale holder's late write for
  // the same package lands in its own (token-1) journal.
  B.appendRecord(*New, "{\"package\":\"contested\",\"status\":\"ok\","
                       "\"writer\":\"thief\"}");
  A.appendRecord(*Old, "{\"package\":\"contested\",\"status\":\"failed\","
                       "\"writer\":\"stale\"}");
  B.markDone(*New, 1);

  // Exactly one record survives the merge, and the fencing token wins:
  // the higher-token (thief) record is the record of record.
  ASSERT_TRUE(B.merge(&Error)) << Error;
  std::vector<std::string> Lines = readLines(B.corpusJournalPath());
  ASSERT_EQ(Lines.size(), 1u);
  json::Object O = parseAnyLine(Lines[0]);
  EXPECT_EQ(O.at("writer").asString(), "thief");
  EXPECT_EQ(O.at("status").asString(), "ok");
  std::filesystem::remove_all(Dir);
}

TEST(WorkLedgerTest, StrikeAccountingAndKillClassTerminals) {
  std::string Dir = tempDir("strikes");
  driver::WorkLedger L(ledgerOpts(Dir, 4, 10.0, "sup-a"));
  std::string Error;
  ASSERT_TRUE(L.init({"poison", "flaky", "fine"}, &Error)) << Error;
  std::optional<driver::LeaseInfo> Lease = L.claimFresh();
  ASSERT_TRUE(Lease.has_value());

  // poison: two starts, no terminal -> 2 strikes, no terminal record.
  L.appendRecord(*Lease, "{\"start\":\"poison\",\"token\":1}");
  L.appendRecord(*Lease, "{\"start\":\"poison\",\"token\":1}");
  // flaky: start + kill-class terminal -> terminal exists, strike kept.
  L.appendRecord(*Lease, "{\"start\":\"flaky\",\"token\":1}");
  L.appendRecord(*Lease,
                 "{\"package\":\"flaky\",\"status\":\"failed\","
                 "\"errors\":[{\"kind\":\"crashed\",\"phase\":\"build\"}]}");
  // fine: start + clean terminal -> no strike.
  L.appendRecord(*Lease, "{\"start\":\"fine\",\"token\":1}");
  L.appendRecord(*Lease, "{\"package\":\"fine\",\"status\":\"ok\"}");

  driver::WorkLedger::ShardHistory H = L.readShardHistory(Lease->Shard);
  EXPECT_EQ(H.Strikes.count("poison"), 1u);
  EXPECT_EQ(H.Strikes.at("poison"), 2u);
  EXPECT_EQ(H.Strikes.count("flaky"), 1u);
  EXPECT_EQ(H.Strikes.at("flaky"), 1u);
  EXPECT_EQ(H.Strikes.count("fine"), 0u);
  EXPECT_EQ(H.Terminals.count("poison"), 0u);
  EXPECT_EQ(H.Terminals.count("flaky"), 1u);
  EXPECT_EQ(H.Terminals.count("fine"), 1u);
  std::filesystem::remove_all(Dir);
}

TEST(WorkLedgerTest, QuarantinePersistsAcrossRestart) {
  std::string Dir = tempDir("quarantine");
  {
    driver::WorkLedger L(ledgerOpts(Dir, 1, 10.0, "sup-a"));
    std::string Error;
    ASSERT_TRUE(L.init({"bad pkg/name", "ok"}, &Error)) << Error;
    EXPECT_FALSE(L.isQuarantined("bad pkg/name"));
    L.quarantine("bad pkg/name", 3);
    EXPECT_TRUE(L.isQuarantined("bad pkg/name"));
  }
  // A brand-new supervisor process (fresh WorkLedger instance) sees the
  // marker: quarantine is corpus-global and restart-proof.
  driver::WorkLedger L2(ledgerOpts(Dir, 1, 10.0, "sup-b"));
  std::string Error;
  ASSERT_TRUE(L2.init({"bad pkg/name", "ok"}, &Error)) << Error;
  EXPECT_TRUE(L2.isQuarantined("bad pkg/name"));
  EXPECT_FALSE(L2.isQuarantined("ok"));
  EXPECT_EQ(L2.quarantinedPackages().size(), 1u);
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// runSharedBatch (library, in-process)
//===----------------------------------------------------------------------===//

TEST(SharedBatchTest, SingleSupervisorDrainsAndMerges) {
  std::string Dir = tempDir("shared_single");
  driver::SharedBatchOptions SO;
  SO.Ledger = ledgerOpts(Dir, 2, 10.0, "solo");
  SO.Pool.Batch.Quiet = true;
  std::vector<driver::BatchInput> Inputs = fourInputs();

  driver::SharedBatchResult R = driver::runSharedBatch(SO, Inputs);
  EXPECT_EQ(R.Summary.Scanned, 4u);
  EXPECT_EQ(R.Summary.Failed, 0u);
  EXPECT_EQ(R.Summary.LedgerClaims, 2u);
  EXPECT_EQ(R.Summary.LedgerSteals, 0u);
  EXPECT_EQ(R.ShardsDrained, 2u);
  ASSERT_TRUE(R.Merged);

  std::map<std::string, std::string> Status = statusByPackage(R.MergedJournal);
  ASSERT_EQ(Status.size(), 4u);
  for (const std::string &Name : namesOf(Inputs))
    EXPECT_EQ(Status[Name], "ok") << Name;

  // A second supervisor joining a converged corpus scans nothing and the
  // re-merge stays put.
  driver::SharedBatchOptions SO2 = SO;
  SO2.Ledger.SupervisorId = "late";
  driver::SharedBatchResult R2 = driver::runSharedBatch(SO2, Inputs);
  EXPECT_EQ(R2.Summary.Scanned, 0u);
  EXPECT_TRUE(R2.Merged);
  EXPECT_EQ(readLines(R2.MergedJournal).size(), 4u);
  std::filesystem::remove_all(Dir);
}

TEST(SharedBatchTest, InProcessShardFiresEveryFault) {
  // Both faults land in one in-process shard: the index fault (corpus
  // input index 2, charlie) and the name fault each degrade their package.
  std::string Dir = tempDir("shared_faults");
  driver::SharedBatchOptions SO;
  SO.Ledger = ledgerOpts(Dir, 4, 10.0, "solo");
  SO.Pool.Batch.Quiet = true;
  scanner::FaultPlan ByIndex, ByName;
  ASSERT_TRUE(scanner::FaultPlan::parse("build:fail:2", ByIndex));
  ASSERT_TRUE(scanner::FaultPlan::parse("build:fail@alpha", ByName));
  SO.Pool.Batch.Faults = {ByIndex, ByName};
  driver::SharedBatchResult R = driver::runSharedBatch(SO, fourInputs());
  EXPECT_EQ(R.Summary.Scanned, 4u);
  EXPECT_EQ(R.Summary.Degraded, 2u);
  ASSERT_TRUE(R.Merged);
  std::map<std::string, std::string> Status = statusByPackage(R.MergedJournal);
  EXPECT_EQ(Status["alpha"], "degraded");
  EXPECT_EQ(Status["bravo"], "ok");
  EXPECT_EQ(Status["charlie"], "degraded");
  EXPECT_EQ(Status["delta"], "ok");
  std::filesystem::remove_all(Dir);
}

TEST(SharedBatchTest, CopiesMergedJournalToBatchJournalPath) {
  std::string Dir = tempDir("shared_copy");
  driver::SharedBatchOptions SO;
  SO.Ledger = ledgerOpts(Dir, 4, 10.0, "solo");
  SO.Pool.Batch.Quiet = true;
  SO.Pool.Batch.JournalPath = Dir + "/copy.jsonl";
  driver::SharedBatchResult R = driver::runSharedBatch(SO, fourInputs());
  ASSERT_TRUE(R.Merged);
  EXPECT_EQ(readLines(Dir + "/copy.jsonl").size(), 4u);
  std::filesystem::remove_all(Dir);
}

TEST(SharedBatchTest, QuarantinesPackageWithStrikeHistory) {
  std::string Dir = tempDir("shared_quar");
  std::vector<driver::BatchInput> Inputs = fourInputs();
  std::vector<std::string> Names = namesOf(Inputs);

  // Forge the aftermath of three supervisors that each started "charlie"
  // and died: three start records across three tokens, no terminal, and
  // an expired lease.
  {
    driver::WorkLedger L(ledgerOpts(Dir, 4, 0.1, "ghost"));
    std::string Error;
    ASSERT_TRUE(L.init(Names, &Error)) << Error;
    std::optional<driver::LeaseInfo> Lease = L.claimFresh();
    ASSERT_TRUE(Lease.has_value());
    for (int I = 0; I < 3; ++I)
      L.appendRecord(*Lease,
                     "{\"start\":\"charlie\",\"token\":1,"
                     "\"supervisor\":\"ghost\"}");
    ::usleep(200 * 1000); // Let the ghost's lease expire.
  }

  driver::SharedBatchOptions SO;
  SO.Ledger = ledgerOpts(Dir, 4, 0.1, "medic");
  SO.Ledger.QuarantineAfter = 3;
  SO.Pool.Batch.Quiet = true;
  driver::SharedBatchResult R = driver::runSharedBatch(SO, Inputs);

  EXPECT_EQ(R.Summary.Quarantined, 1u);
  EXPECT_EQ(R.Summary.Scanned, 3u);
  EXPECT_GE(R.Summary.LedgerSteals, 1u);
  ASSERT_TRUE(R.Merged);
  std::map<std::string, std::string> Status = statusByPackage(R.MergedJournal);
  EXPECT_EQ(Status["charlie"], "quarantined");
  EXPECT_EQ(Status["alpha"], "ok");

  driver::WorkLedger L(ledgerOpts(Dir, 4, 0.1, "check"));
  std::string Error;
  ASSERT_TRUE(L.init(Names, &Error)) << Error;
  EXPECT_TRUE(L.isQuarantined("charlie"));
  std::filesystem::remove_all(Dir);
}

TEST(SharedBatchTest, InitMismatchFailsEveryPackage) {
  std::string Dir = tempDir("shared_mismatch");
  driver::SharedBatchOptions SO;
  SO.Ledger = ledgerOpts(Dir, 2, 10.0, "a");
  SO.Pool.Batch.Quiet = true;
  driver::SharedBatchResult R1 = driver::runSharedBatch(SO, fourInputs());
  ASSERT_TRUE(R1.Merged);

  // Same ledger dir, different corpus: refuse outright, fail everything.
  std::vector<driver::BatchInput> Other = {makeInput("zeta", CleanSource)};
  driver::SharedBatchResult R2 = driver::runSharedBatch(SO, Other);
  EXPECT_FALSE(R2.Merged);
  EXPECT_EQ(R2.Summary.Failed, 1u);
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Overloaded-rejection client retry
//===----------------------------------------------------------------------===//

namespace {

/// A minimal Unix-socket server that answers every request line with a
/// canned response: the admission-rejection half of the daemon, without
/// the daemon.
class CannedServer {
public:
  CannedServer(const std::string &Path, std::string Response,
               size_t OverloadedUntil)
      : Response(std::move(Response)), OverloadedUntil(OverloadedUntil) {
    ::unlink(Path.c_str());
    FD = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
    ::bind(FD, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr));
    ::listen(FD, 8);
    Server = std::thread([this] { loop(); });
  }

  ~CannedServer() {
    Stop = true;
    Server.join();
    ::close(FD);
  }

  size_t requests() const { return Requests.load(); }

private:
  void loop() {
    while (!Stop) {
      pollfd P{FD, POLLIN, 0};
      if (::poll(&P, 1, 20) <= 0)
        continue;
      int C = ::accept(FD, nullptr, nullptr);
      if (C < 0)
        continue;
      char Buf[512];
      ssize_t N = ::recv(C, Buf, sizeof(Buf), 0);
      (void)N;
      size_t Seq = ++Requests;
      std::string Out =
          (Seq <= OverloadedUntil
               ? std::string("{\"ok\":false,\"error\":\"overloaded\"}")
               : Response) +
          "\n";
      ::send(C, Out.data(), Out.size(), MSG_NOSIGNAL);
      ::close(C);
    }
  }

  int FD = -1;
  std::string Response;
  size_t OverloadedUntil;
  std::atomic<bool> Stop{false};
  std::atomic<size_t> Requests{0};
  std::thread Server;
};

} // namespace

TEST(ClientRetryTest, RetriesOverloadedUntilAdmitted) {
  std::string Dir = tempDir("retry_ok");
  std::string Sock = Dir + "/s.sock";
  CannedServer Server(Sock, "{\"ok\":true,\"op\":\"status\"}", 2);

  std::string Response, Error;
  size_t Retries = 0;
  ASSERT_TRUE(driver::ScanService::requestWithRetry(
      Sock, "{\"op\":\"status\"}", Response, &Error, /*RetryBudgetMs=*/5000,
      &Retries));
  EXPECT_NE(Response.find("\"ok\":true"), std::string::npos) << Response;
  EXPECT_EQ(Retries, 2u);
  EXPECT_EQ(Server.requests(), 3u);
  std::filesystem::remove_all(Dir);
}

TEST(ClientRetryTest, ZeroBudgetIsSingleAttempt) {
  std::string Dir = tempDir("retry_zero");
  std::string Sock = Dir + "/s.sock";
  CannedServer Server(Sock, "{\"ok\":true}", 1000000);

  std::string Response, Error;
  size_t Retries = 7;
  ASSERT_TRUE(driver::ScanService::requestWithRetry(
      Sock, "{\"op\":\"status\"}", Response, &Error, /*RetryBudgetMs=*/0,
      &Retries));
  EXPECT_NE(Response.find("overloaded"), std::string::npos);
  EXPECT_EQ(Retries, 0u);
  EXPECT_EQ(Server.requests(), 1u);
  std::filesystem::remove_all(Dir);
}

TEST(ClientRetryTest, BudgetExhaustionSurfacesOverloaded) {
  std::string Dir = tempDir("retry_budget");
  std::string Sock = Dir + "/s.sock";
  CannedServer Server(Sock, "{\"ok\":true}", 1000000);

  std::string Response, Error;
  size_t Retries = 0;
  ASSERT_TRUE(driver::ScanService::requestWithRetry(
      Sock, "{\"op\":\"status\"}", Response, &Error, /*RetryBudgetMs=*/150,
      &Retries));
  EXPECT_NE(Response.find("overloaded"), std::string::npos);
  EXPECT_GE(Retries, 1u);
  EXPECT_GE(Server.requests(), 2u);
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Chaos CLI round trips (concurrent supervisors, SIGKILL, exactly-once)
//===----------------------------------------------------------------------===//

#if defined(GRAPHJS_BIN)

namespace {

/// Writes a corpus of generated single-file packages to a fresh temp dir.
std::string writeCorpus(size_t N, const std::string &Tag) {
  std::string Dir = tempDir("corpus_" + Tag);
  workload::PackageGenerator Gen(11);
  for (size_t I = 0; I < N; ++I) {
    workload::Package P =
        I % 2 ? Gen.benign(0)
              : Gen.vulnerable(queries::VulnType::CommandInjection,
                               workload::Complexity::Wrapped,
                               workload::VariantKind::Plain, 0);
    char Name[64];
    std::snprintf(Name, sizeof(Name), "%s/pkg%03zu.js", Dir.c_str(), I);
    std::ofstream Out(Name);
    Out << P.Files[0].Contents;
  }
  return Dir;
}

std::set<std::string> corpusNames(size_t N) {
  std::set<std::string> Names;
  for (size_t I = 0; I < N; ++I) {
    char Name[32];
    std::snprintf(Name, sizeof(Name), "pkg%03zu.js", I);
    Names.insert(Name);
  }
  return Names;
}

/// Package name -> serialized "reports" array from a (maybe framed)
/// journal.
std::map<std::string, std::string>
reportsByPackage(const std::string &Path) {
  std::map<std::string, std::string> Out;
  for (const std::string &Line : readLines(Path)) {
    json::Object O = parseAnyLine(Line);
    if (O.count("package") && O.count("reports"))
      Out[O.at("package").asString()] = O.at("reports").str();
  }
  return Out;
}

int runCLI(const std::string &Cmd) { return std::system(Cmd.c_str()); }

/// Counts terminal records per package across every shard journal of a
/// ledger — the raw exactly-once ground truth before the merge dedups.
std::map<std::string, size_t>
terminalsAcrossShardJournals(const std::string &LedgerDir) {
  std::map<std::string, size_t> Count;
  for (const auto &E :
       std::filesystem::directory_iterator(LedgerDir + "/shards")) {
    if (E.path().extension() != ".jsonl")
      continue;
    for (const std::string &Line : readLines(E.path().string())) {
      std::string Payload;
      json::Value V;
      if (!driver::unframeJournalLine(Line, Payload) ||
          !json::parse(Payload, V) || !V.isObject())
        continue;
      const json::Object &O = V.asObject();
      if (O.count("package"))
        ++Count[O.at("package").asString()];
    }
  }
  return Count;
}

} // namespace

TEST(DistributedCLITest, ChaosKilledSupervisorIsStolenExactlyOnce) {
  size_t N = 6;
  std::string Dir = writeCorpus(N, "chaos");
  std::string Ledger = Dir + "/ledger";
  std::string Bin = GRAPHJS_BIN;
  std::string Flags =
      " --shared " + Ledger + " --shard-size 2 --lease-expiry-ms 300 ";

  // Supervisor 1 SIGKILLs itself right after its second start record:
  // one package completed, one started-but-torn, the rest unclaimed.
  int RC1 = runCLI(Bin + " batch --quiet" + Flags +
                   "--chaos-kill-after 1 --supervisor-id victim " + Dir +
                   " > /dev/null 2>&1");
  EXPECT_NE(RC1, 0);
  EXPECT_FALSE(std::filesystem::exists(Ledger + "/corpus.jsonl"));

  // Supervisor 2 steals the orphaned lease after expiry and finishes.
  int RC2 = runCLI(Bin + " batch --quiet" + Flags +
                   "--supervisor-id medic " + Dir + " > /dev/null 2>&1");
  EXPECT_EQ(RC2, 0);

  // Exactly one terminal per package: in the merged corpus AND across the
  // raw per-token shard journals (no lost, no duplicated work).
  std::map<std::string, std::string> Status =
      statusByPackage(Ledger + "/corpus.jsonl");
  ASSERT_EQ(Status.size(), N);
  std::set<std::string> Seen;
  for (const auto &[Pkg, St] : Status) {
    EXPECT_EQ(St, "ok") << Pkg;
    Seen.insert(Pkg);
  }
  EXPECT_EQ(Seen, corpusNames(N));
  for (const auto &[Pkg, Cnt] : terminalsAcrossShardJournals(Ledger))
    EXPECT_EQ(Cnt, 1u) << Pkg;

  // A steal actually happened: some shard reached token 2.
  bool SawToken2 = false;
  for (const auto &E :
       std::filesystem::directory_iterator(Ledger + "/shards"))
    SawToken2 |= E.path().filename().string().find(".tok.2") !=
                 std::string::npos;
  EXPECT_TRUE(SawToken2);

  // Detection parity with a plain single-supervisor run: identical report
  // sets per package (timing fields differ; findings must not).
  std::string Baseline = Dir + "/baseline.jsonl";
  ASSERT_EQ(runCLI(Bin + " batch --quiet --journal " + Baseline + " " + Dir +
                   " > /dev/null 2>&1"),
            0);
  std::map<std::string, std::string> Shared =
      reportsByPackage(Ledger + "/corpus.jsonl");
  std::map<std::string, std::string> Solo = reportsByPackage(Baseline);
  ASSERT_EQ(Shared.size(), Solo.size());
  for (const auto &[Pkg, Reports] : Solo)
    EXPECT_EQ(Shared[Pkg], Reports) << Pkg;
  std::filesystem::remove_all(Dir);
}

TEST(DistributedCLITest, ConcurrentSupervisorsShareOneLedger) {
  size_t N = 8;
  std::string Dir = writeCorpus(N, "concurrent");
  std::string Ledger = Dir + "/ledger";
  std::string Bin = GRAPHJS_BIN;

  // Two supervisors race the same ledger concurrently; a third joins a
  // moment later. All must exit clean.
  std::vector<Subprocess> Sups(3);
  std::string Error;
  for (size_t I = 0; I < Sups.size(); ++I) {
    ASSERT_TRUE(Subprocess::spawn(
        {Bin, "batch", "--quiet", "--shared", Ledger, "--shard-size", "1",
         "--lease-expiry-ms", "2000", "--supervisor-id",
         "sup" + std::to_string(I), Dir},
        Sups[I], &Error, /*CaptureStdout=*/true))
        << Error;
  }
  for (Subprocess &P : Sups) {
    P.readAll();
    WaitStatus St = P.wait();
    EXPECT_TRUE(St.exitedWith(0)) << St.str();
  }

  // Exactly-once accounting across every supervisor's shard journals, and
  // a complete merged corpus.
  std::map<std::string, size_t> Terminals =
      terminalsAcrossShardJournals(Ledger);
  ASSERT_EQ(Terminals.size(), N);
  for (const auto &[Pkg, Cnt] : Terminals)
    EXPECT_EQ(Cnt, 1u) << Pkg;
  std::map<std::string, std::string> Status =
      statusByPackage(Ledger + "/corpus.jsonl");
  ASSERT_EQ(Status.size(), N);
  for (const auto &[Pkg, St] : Status)
    EXPECT_EQ(St, "ok") << Pkg;
  std::filesystem::remove_all(Dir);
}

TEST(DistributedCLITest, CrashLoopingPackageLandsInQuarantine) {
  size_t N = 4;
  std::string Dir = writeCorpus(N, "poison");
  std::string Ledger = Dir + "/ledger";
  std::string Bin = GRAPHJS_BIN;
  std::string Cmd = Bin + " batch --quiet --shared " + Ledger +
                    " --shard-size 4 --lease-expiry-ms 200"
                    " --quarantine-after 2"
                    " --inject-fault build:crash@pkg001.js " +
                    Dir + " > /dev/null 2>&1";

  // Each supervisor run crashes on the poison package (in-process fault
  // == supervisor death); restarts accumulate strikes until the breaker
  // trips and a run converges.
  int RC = -1;
  int Runs = 0;
  for (; Runs < 8 && RC != 0; ++Runs)
    RC = runCLI(Cmd);
  ASSERT_EQ(RC, 0) << "no run converged after " << Runs << " attempts";
  EXPECT_GE(Runs, 3); // >= QuarantineAfter crashes + the converging run.

  std::map<std::string, std::string> Status =
      statusByPackage(Ledger + "/corpus.jsonl");
  ASSERT_EQ(Status.size(), N);
  EXPECT_EQ(Status["pkg001.js"], "quarantined");
  EXPECT_EQ(Status["pkg000.js"], "ok");

  // The marker is on disk and a fresh supervisor never rescans the
  // package: an immediate re-run converges with zero scans.
  EXPECT_FALSE(std::filesystem::is_empty(Ledger + "/quarantine"));
  EXPECT_EQ(runCLI(Cmd), 0);
  std::filesystem::remove_all(Dir);
}

TEST(DistributedCLITest, SharedOnlyFlagsRequireShared) {
  std::string Dir = writeCorpus(1, "flags");
  std::string Bin = GRAPHJS_BIN;
  EXPECT_NE(runCLI(Bin + " batch --quiet --shard-size 2 " + Dir +
                   " > /dev/null 2>&1"),
            0);
  EXPECT_NE(runCLI(Bin + " batch --quiet --chaos-kill-after 1 " + Dir +
                   " > /dev/null 2>&1"),
            0);
  std::filesystem::remove_all(Dir);
}

#endif // GRAPHJS_BIN
