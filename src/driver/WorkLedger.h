//===- driver/WorkLedger.h - Crash-only distributed corpus draining -*- C++ -*-==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared on-disk work ledger behind `graphjs batch --shared <dir>`:
/// any number of supervisor processes (on one host or a shared filesystem)
/// drain one corpus cooperatively, and any of them may be SIGKILLed at any
/// instant without losing or duplicating work. Registry-scale corpus scans
/// (the paper's §5.6 run is 20k packages; the npm studies in PAPERS.md
/// imply 10^5+) need exactly this crash-only shape — a single supervisor
/// owning a single journal is both a throughput and an availability
/// bottleneck.
///
/// Design, in one breath: the corpus is partitioned into fixed *shards*
/// (manifest written once, verified by every joiner); a shard is owned via
/// a *lease* — an exclusively-published token file ratchet (`s<N>.tok.<k>`)
/// that hands out strictly increasing fencing tokens, plus a heartbeat
/// file (`s<N>.owner.t<k>`) the holder rewrites while it works. A
/// supervisor that stops heartbeating past the expiry gets its lease
/// *stolen*: the thief creates `tok.<k+1>`, and because every artifact the
/// holder writes is suffixed with its token, a stale holder's late writes
/// can never clobber the new owner's — the higher fencing token wins
/// structurally, not by politeness. Each holder journals into its own
/// `s<N>.journal.t<k>.jsonl` with every record CRC32+length framed
/// (`@<len>:<crc8>:<payload>`), so a SIGKILL-torn tail is detected and
/// dropped instead of poisoning resume. When every shard carries a done
/// marker, any supervisor merges the per-token journals — highest token
/// wins per package (fencing: the thief's record beats the stale
/// holder's late write), input order — into one deterministic
/// `corpus.jsonl`.
///
/// The *quarantine* circuit breaker stops poison packages from starving
/// the fleet: every dispatch appends a framed start record before the scan
/// begins, so a package whose scan kills its supervisor leaves a
/// start-without-terminal strike behind. Kill-class terminal verdicts
/// (crashed / killed-oom / killed-deadline) count as strikes too. Once a
/// package accumulates QuarantineAfter strikes across *any* set of
/// supervisors without ever producing a clean terminal, the next holder
/// journals it as `quarantined` (with its strike history), writes a marker
/// under `quarantine/`, and nobody ever scans it again.
///
/// See docs/ROBUSTNESS.md ("Distributed draining") for the on-disk format
/// and the full semantics.
///
//===----------------------------------------------------------------------===//

#ifndef GJS_DRIVER_WORKLEDGER_H
#define GJS_DRIVER_WORKLEDGER_H

#include "driver/ProcessPool.h"

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace gjs {
namespace driver {

struct LedgerOptions {
  /// Ledger root directory (created if missing). Everything shared lives
  /// under it; supervisors coordinate through this directory only.
  std::string Dir;
  /// Packages per shard — the work-stealing granule. Small shards steal
  /// faster after a death; large shards amortize lease traffic.
  size_t ShardSize = 4;
  /// A lease whose heartbeat is older than this is up for stealing.
  double LeaseExpirySeconds = 10.0;
  /// Heartbeat cadence; 0 derives LeaseExpirySeconds / 3.
  double HeartbeatSeconds = 0;
  /// Quarantine circuit breaker: strikes before a package is written off.
  unsigned QuarantineAfter = 3;
  /// Stable id recorded in lease/owner records; auto "<pid>-<hex>" when
  /// empty.
  std::string SupervisorId;
};

/// One held (or observed) lease.
struct LeaseInfo {
  size_t Shard = 0;
  uint64_t Token = 0;      ///< Fencing token; strictly increases per steal.
  std::string Holder;      ///< Supervisor id.
  double HeartbeatUnix = 0; ///< Last heartbeat (unix seconds, sub-second).
};

/// The shared on-disk ledger. Every method is crash-safe: state changes go
/// through exclusive publication (write a temp file, fsync, link(2) to the
/// final name — EEXIST fences contenders) or write-temp-then-rename, and
/// every record is CRC-framed.
class WorkLedger {
public:
  explicit WorkLedger(LedgerOptions Options);

  /// Creates the directory layout and the shard manifest (first supervisor
  /// wins the exclusive publication; joiners verify the package list
  /// matches).
  /// False with *Error set when the ledger belongs to a different corpus.
  bool init(const std::vector<std::string> &PackageNames, std::string *Error);

  size_t numShards() const { return Shards.size(); }
  /// Package indices (into the init() name list) per shard, input order.
  const std::vector<std::vector<size_t>> &shards() const { return Shards; }
  const std::vector<std::string> &packageNames() const { return Names; }
  const LedgerOptions &options() const { return Options; }
  const std::string &supervisorId() const { return Options.SupervisorId; }

  /// Claims a never-claimed shard (token 1). nullopt when none remain.
  std::optional<LeaseInfo> claimFresh();
  /// Steals a shard whose current holder stopped heartbeating past the
  /// expiry (token = current + 1). nullopt when nothing is stale.
  std::optional<LeaseInfo> stealStale();
  /// Rewrites the holder's heartbeat. False when the lease has been fenced
  /// (a higher token exists): the caller must stop taking new work from
  /// this shard immediately.
  bool heartbeat(LeaseInfo &Lease);
  /// The current owner (highest-token owner record) of a shard, if any.
  std::optional<LeaseInfo> owner(size_t Shard) const;

  bool shardDone(size_t Shard) const;
  bool allDone() const;
  /// Marks the holder's shard complete (done marker is token-suffixed and
  /// idempotent: a late stale holder's marker is simply redundant).
  void markDone(const LeaseInfo &Lease, size_t Terminals);

  /// The holder's own framed shard journal.
  std::string shardJournalPath(const LeaseInfo &Lease) const;
  /// Appends one framed record to the holder's shard journal, flushed —
  /// the start-record hook and the quarantine writer.
  void appendRecord(const LeaseInfo &Lease, const std::string &Payload);

  /// Everything prior (and current) tokens left behind in one shard.
  struct ShardHistory {
    /// Winning terminal journal payload per package: highest token wins
    /// (first record within a token) — deterministic under steal races,
    /// and a stale holder's late write loses to the fenced-in thief's.
    std::map<std::string, std::string> Terminals;
    /// Quarantine strikes per package: start records minus clean
    /// terminals, plus kill-class terminal verdicts.
    std::map<std::string, unsigned> Strikes;
    size_t DroppedLines = 0; ///< Torn/CRC-corrupt lines skipped.
  };
  ShardHistory readShardHistory(size_t Shard) const;

  /// Quarantine markers (shared across every supervisor, restart-proof).
  bool isQuarantined(const std::string &Package) const;
  void quarantine(const std::string &Package, unsigned Strikes);
  std::vector<std::string> quarantinedPackages() const;

  /// When every shard is done, merges the winning terminal per package —
  /// corpus input order, exactly one record each — into corpus.jsonl
  /// (write-temp-then-rename; idempotent, any finisher may run it). False
  /// when shards are still open or the merge found a package with no
  /// terminal record.
  bool merge(std::string *Error = nullptr);
  std::string corpusJournalPath() const;

  /// Unix seconds with sub-second precision (gettimeofday).
  static double nowUnixSeconds();

  /// This supervisor's lease traffic (feeds BatchSummary / --stats).
  size_t claims() const { return ClaimsN; }
  size_t steals() const { return StealsN; }
  size_t expired() const { return ExpiredN; }

private:
  std::string shardPrefix(size_t Shard) const;
  uint64_t maxToken(size_t Shard) const;
  bool writeOwnerFile(const LeaseInfo &Lease);

  LedgerOptions Options;
  std::vector<std::string> Names;
  std::vector<std::vector<size_t>> Shards;
  size_t ClaimsN = 0, StealsN = 0, ExpiredN = 0;
};

/// Options for one supervisor's shared-ledger drain.
struct SharedBatchOptions {
  SharedBatchOptions() { Pool.Jobs = 0; }

  LedgerOptions Ledger;
  /// Per-shard scheduling and scan settings. Pool.Jobs == 0 (the default
  /// here) drains shards in-process; N > 0 uses the worker pool.
  /// Pool.Batch.JournalPath, when set, receives a copy of the merged
  /// corpus journal after convergence; per-shard journaling always goes
  /// through the ledger. Pool.Batch.Faults are corpus-global: an index
  /// fault targets the corpus input index and becomes a `@name` fault on
  /// that package. Process-fatal faults with Pool.Jobs == 0 kill this
  /// supervisor — exactly the crash loop the quarantine breaker exists
  /// for.
  PoolOptions Pool;
  /// Chaos harness: when N > 0, raise(SIGKILL) immediately after appending
  /// the start record of the (N+1)-th package this supervisor dispatches.
  /// Deterministic supervisor-death injection for the distributed tests.
  unsigned ChaosKillAfter = 0;
};

/// One supervisor's view of a shared drain.
struct SharedBatchResult {
  /// This supervisor's own work (scans, skips, quarantine writes), plus
  /// the ledger traffic in the Ledger* / Quarantined fields.
  BatchSummary Summary;
  bool Merged = false;          ///< Corpus converged and corpus.jsonl exists.
  std::string MergedJournal;    ///< Path when Merged.
  size_t ShardsDrained = 0;     ///< Shards this supervisor completed.
};

/// Drains the corpus as one supervisor among possibly many: claim or steal
/// shards until none remain, heartbeating and honoring fencing, then merge
/// when the corpus converges. Safe to re-run after any crash.
SharedBatchResult runSharedBatch(const SharedBatchOptions &Options,
                                 const std::vector<BatchInput> &Inputs);

} // namespace driver
} // namespace gjs

#endif // GJS_DRIVER_WORKLEDGER_H
