//===- driver/BatchDriver.h - Resumable batch scan driver --------*- C++ -*-==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batch scan driver: runs the scanner over a list of packages the way
/// the paper's evaluation runs it over the vulnerability dataset and the
/// 20k-package npm corpus (§5.2, §5.6) — thousands of mutually independent
/// scans where one pathological package must never take down the run.
///
///  - **Per-package isolation**: each scan runs under a catch-all; a scan
///    that throws is journaled as a failed package (ScanPhase::Driver,
///    ScanErrorKind::Internal) and the batch moves on.
///
///  - **Incremental JSONL journal**: one line per completed package,
///    flushed as soon as the package finishes, recording status, ladder
///    degradation level, structured errors, and the reports themselves.
///    A killed run leaves a valid journal prefix.
///
///  - **Resume**: with BatchOptions::Resume, packages already present in
///    the journal are skipped, so restarting after a crash (or sharding
///    with MaxPackages) re-scans only unjournaled work.
///
/// The evaluation harness (eval::Harness) and the `graphjs batch` CLI mode
/// are both thin layers over this driver.
///
//===----------------------------------------------------------------------===//

#ifndef GJS_DRIVER_BATCHDRIVER_H
#define GJS_DRIVER_BATCHDRIVER_H

#include "scanner/Scanner.h"
#include "support/Timer.h"

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

namespace gjs {
namespace driver {

/// One package of the batch. Name is the journal key (resume matches on
/// it), so it must be unique and stable across runs.
struct BatchInput {
  std::string Name;
  std::vector<scanner::SourceFile> Files;
};

/// Per-package verdict in the journal.
enum class BatchStatus {
  Ok,       ///< Clean scan, no errors recorded.
  Degraded, ///< Finished with recorded errors (timeouts, skipped files,
            ///< injected faults, ladder retries); partial results stand.
  Failed,   ///< The scan itself died (driver-level isolation caught it).
  Quarantined, ///< Poison package: the shared-ledger circuit breaker gave
               ///< up after N kill-class failures across any supervisor.
               ///< Never scanned again; the journal line carries the strike
               ///< history instead of results.
};

/// Stable lowercase names ("ok", "degraded", "failed", "quarantined") for
/// journal lines.
const char *batchStatusName(BatchStatus S);
/// Parses the names back (journal-line parsing); false on unknown.
bool batchStatusFromName(const std::string &Name, BatchStatus &Out);

/// CRC32 (IEEE 802.3 polynomial, the zlib/PNG one) over \p Data. Used to
/// frame ledger/journal records so a SIGKILL-torn tail is detected instead
/// of silently resuming from a corrupt line.
uint32_t journalCrc32(const std::string &Data);

/// Wraps one journal/ledger record payload in CRC32 + length framing:
/// `@<len>:<crc32-hex8>:<payload>`. The payload must not contain a newline.
std::string frameJournalLine(const std::string &Payload);

/// Unframes one journal line. Framed lines (leading '@') are verified:
/// returns false on a short/torn payload or a CRC mismatch. Bare lines pass
/// through unchanged (every reader accepts both formats), with *WasFramed
/// set to false when the caller cares.
bool unframeJournalLine(const std::string &Line, std::string &Payload,
                        bool *WasFramed = nullptr);

/// One journaled package outcome.
struct BatchOutcome {
  std::string Package;
  BatchStatus Status = BatchStatus::Ok;
  scanner::ScanResult Result;
  double Seconds = 0;
  /// True when this package was skipped because a prior run already
  /// journaled it (resume); Result is then empty.
  bool Skipped = false;
  /// Multi-process mode: the exact JSONL line the worker journaled (merged
  /// verbatim into the main journal so worker and in-process output stay
  /// byte-compatible). Empty in in-process mode.
  std::string RawJournalLine;
};

struct BatchOptions {
  scanner::ScanOptions Scan;
  /// JSONL journal path; empty disables journaling (and resume).
  std::string JournalPath;
  /// Skip packages already journaled at JournalPath (appends new lines).
  bool Resume = false;
  /// Stop after scanning this many (unjournaled) packages; 0 = no limit.
  /// With Resume this shards a large batch across successive runs — and
  /// lets tests simulate a run killed partway through.
  size_t MaxPackages = 0;
  /// Enable obs counters for the duration of the run (restoring the prior
  /// state afterwards) and reset them between packages, so every journal
  /// line carries that package's counter values.
  bool EnableCounters = true;
  /// Stderr progress line cadence: emit after every N completed packages
  /// (0 = never on count) and/or every T seconds (0 = never on time).
  /// Both zero (the library default) disables progress entirely; the CLI
  /// turns it on unless `--quiet`.
  size_t ProgressEveryPackages = 0;
  double ProgressEverySeconds = 0;
  /// Hard-suppresses the stderr progress line even when a cadence is set.
  /// Cadences encode "how often"; Quiet encodes "the user said --quiet" —
  /// keeping them separate means a caller that sets cadences
  /// unconditionally cannot accidentally un-silence a quiet run.
  bool Quiet = false;
  /// Prometheus text-format metrics snapshot path (`--metrics-out`): the
  /// run rewrites this file every MetricsEverySeconds and once at the end,
  /// so an external scraper sees live counters and latency percentiles.
  /// Empty disables. Honored by the in-process driver and both pool modes.
  std::string MetricsPath;
  double MetricsEverySeconds = 5.0;
  /// Write journal lines CRC32+length framed (`@<len>:<crc8>:<payload>`).
  /// The shared-ledger shard journals turn this on; the default stays bare
  /// JSONL so existing journal consumers keep parsing lines directly.
  /// Readers (resume, parseJournalLine) accept both formats either way.
  bool FramedJournal = false;
  /// Extra resume set beyond the journal at JournalPath: packages another
  /// supervisor already journaled (a stolen shard's prior-token journals).
  /// Skipped exactly like resumed packages.
  std::set<std::string> AlreadyDone;
  /// Called immediately before each package scan is dispatched (after
  /// resume/AlreadyDone skips); in the worker pool, when the job reaches
  /// the head of its worker's queue, so a job handed back unstarted
  /// leaves no record. The shared-ledger driver appends a framed
  /// start record here, so a supervisor SIGKILLed mid-scan leaves a
  /// start-without-terminal strike for the quarantine circuit breaker.
  std::function<void(const std::string &Package)> OnPackageStart;
  /// Called between packages (and each pool scheduler iteration). Return
  /// false to stop assigning new work and drain — the shared-ledger driver
  /// heartbeats its lease here and bails out when it has been fenced by a
  /// higher token.
  std::function<bool()> OnTick;
};

/// Aggregate counters for a batch run.
struct BatchSummary {
  std::vector<BatchOutcome> Outcomes; ///< In input order, skips included.
  size_t Scanned = 0;
  size_t SkippedResumed = 0;
  size_t Ok = 0;
  size_t Degraded = 0;
  size_t Failed = 0;
  size_t TotalReports = 0;
  /// Summed per-package scan time. In-process this tracks wall-clock
  /// closely; under `--jobs N` it is the aggregate CPU spent across
  /// workers and exceeds WallSeconds by up to the parallelism factor.
  double TotalSeconds = 0;
  /// End-to-end wall-clock of the whole run (launch to drain).
  double WallSeconds = 0;
  /// Worker-level failure breakdown (multi-process mode; all zero for the
  /// in-process driver).
  size_t Crashed = 0;
  size_t OomKilled = 0;
  size_t DeadlineKilled = 0;
  size_t Retried = 0;
  /// Planned worker replacements (recycle quota or memory
  /// watermark) — worker hygiene, not failures.
  size_t Recycled = 0;
  /// Shared-ledger mode: packages the quarantine circuit breaker wrote off
  /// this run, and the lease traffic this supervisor generated.
  size_t Quarantined = 0;
  size_t LedgerClaims = 0;
  size_t LedgerSteals = 0;
  size_t LedgerExpired = 0;
};

/// One isolated package scan with a fresh Scanner: exceptions become a
/// Failed outcome (ScanPhase::Driver, ScanErrorKind::Internal) instead of
/// propagating. This is the worker-side scan body shared by the process
/// pool and the scan service; BatchDriver itself keeps one Scanner for the
/// whole batch (its scan sequence is what FaultPlan::Package targets) and
/// wraps it with the same containment.
BatchOutcome scanPackageIsolated(const BatchInput &Input,
                                 const scanner::ScanOptions &Scan);

/// Renders throughput stats for a finished batch (`graphjs batch --stats`):
/// packages/sec on wall-clock, CPU vs wall split, timeout rate, worker
/// failure breakdown, and the top-3 slowest packages.
std::string batchStatsText(const BatchSummary &Summary);

/// Stderr progress reporting shared by the in-process driver and the
/// process pool: "progress: 12/40 done, 2 failed, 3.1 pkg/s, eta 9.0s",
/// throttled to every N packages / T seconds.
class ProgressMeter {
public:
  ProgressMeter(size_t Total, size_t EveryPackages, double EverySeconds,
                bool Quiet = false);

  /// Records one more completed package (failed or not) and emits a line
  /// when the cadence says so.
  void completed(bool DidFail);
  /// Emits a final line if anything was reported at all.
  void finish();
  bool enabled() const {
    return !Quiet && (EveryPackages > 0 || EverySeconds > 0);
  }

private:
  void emit();

  size_t Total;
  size_t EveryPackages;
  double EverySeconds;
  bool Quiet;
  size_t Done = 0;
  size_t Failed = 0;
  size_t LastEmitDone = 0;
  double LastEmitSeconds = 0;
  bool EmittedAny = false;
  Timer Clock;
};

/// The batch driver.
class BatchDriver {
public:
  explicit BatchDriver(BatchOptions Options = {});

  /// Runs the whole batch, journaling incrementally.
  BatchSummary run(const std::vector<BatchInput> &Inputs);

  const BatchOptions &options() const { return Options; }

  /// Package names already journaled at \p Path. Torn or corrupt lines
  /// (truncated tail from a killed run, CRC mismatch on a framed line) are
  /// skipped and logged — counted in the journal.dropped_lines obs counter
  /// and in *DroppedLines when given — instead of failing the resume.
  static std::set<std::string>
  journaledPackages(const std::string &Path, size_t *DroppedLines = nullptr);

  /// Renders one outcome as a single JSONL journal line (no newline).
  static std::string journalLine(const BatchOutcome &Outcome);

  /// Parses a journal line back into an outcome (the supervisor reads
  /// worker journals with this; lossy inverse of journalLine — only the
  /// fields the summary and CLI output need are reconstructed). Unknown
  /// keys are ignored, so lines from older writers (e.g. the retired
  /// `pruned_queries`/`prune_reason`/`prune_skipped_import` fields) still
  /// parse. False on malformed input.
  static bool parseJournalLine(const std::string &Line, BatchOutcome &Out);

private:
  BatchOptions Options;

  /// One isolated package scan: exceptions become a Failed outcome with a
  /// Driver/Internal ScanError instead of propagating.
  BatchOutcome scanOne(scanner::Scanner &Scanner, const BatchInput &Input);
};

} // namespace driver
} // namespace gjs

#endif // GJS_DRIVER_BATCHDRIVER_H
