//===- scanner/Scanner.h - The Graph.js scanning pipeline --------*- C++ -*-==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end Graph.js pipeline (§4 Implementation): parse JavaScript,
/// transpile to Core JavaScript, build the MDG, import it into the graph
/// database, and run the vulnerability queries. Reports carry the CWE and
/// the sink line number, which is what the evaluation compares against
/// dataset annotations.
///
/// The scanner is a *fault-tolerant runtime* around that pipeline:
///
///  - One support/Deadline per package bounds every phase together (the
///    evaluation's hard 5-minute per-package timeout, §5.2), combining a
///    wall-clock limit with a deterministic work budget. Each phase
///    checkpoints it cooperatively; ScanResult records which phase hit it
///    as a structured ScanError.
///
///  - A deterministic fault-injection plan (FaultPlan) can fail or stall
///    any phase on the Nth scanned package — how tests prove that every
///    phase's failure is contained.
///
///  - A degradation ladder retries a failed package with cheaper settings
///    (GraphDB backend → native traversals → reduced builder budget) and
///    always queries the partial MDG, reproducing Graph.js's
///    partial-results behavior vs. ODGen's all-or-nothing (§5.2, §5.5).
///
/// Per-phase wall-clock times and graph sizes are recorded for the
/// Table 6 / Table 7 / Figure 7 benchmarks.
///
//===----------------------------------------------------------------------===//

#ifndef GJS_SCANNER_SCANNER_H
#define GJS_SCANNER_SCANNER_H

#include "analysis/MDGBuilder.h"
#include "graphdb/QueryEngine.h"
#include "lint/Finding.h"
#include "obs/Counters.h"
#include "queries/QueryRunner.h"
#include "queries/SinkConfig.h"
#include "scanner/ScanError.h"

#include <optional>
#include <set>
#include <string>
#include <vector>

namespace gjs {
namespace obs {
class TraceRecorder;
}
} // namespace gjs

namespace gjs {
namespace analysis {
class PackageGraph;
}
} // namespace gjs

namespace gjs {
namespace scanner {

/// Which query backend executes Table 2.
enum class QueryBackend {
  GraphDB, ///< Graph database + query language (the paper's pipeline).
  Native,  ///< Direct Table 1 traversals.
};

/// The per-package budget: wall-clock seconds for production batches,
/// abstract work units for deterministic tests/benches. Either may be 0
/// (disabled); both together form one Deadline shared by all phases.
struct DeadlineBudget {
  double WallSeconds = 0;
  uint64_t WorkUnits = 0;
  bool active() const { return WallSeconds > 0 || WorkUnits > 0; }
};

/// Deterministic fault injection: fail or stall one named phase on the
/// Nth package scanned by a Scanner instance. Faults are one-shot (a
/// transient failure): once fired they disarm, so a degradation-ladder
/// retry of the same package proceeds cleanly — which is exactly how the
/// tests demonstrate containment plus recovery.
struct FaultPlan {
  enum class Action {
    Fail,  ///< The phase dies: recorded as an InjectedFault, phase skipped.
    Stall, ///< The phase hangs: the deadline is forced expired at its entry.
    // Process-fatal actions: these take down the whole process at the
    // phase boundary and are only containable by the multi-process
    // supervisor (`graphjs batch --jobs N`). They make the OS-level kill
    // ladder deterministically testable.
    Crash, ///< abort(): models a segfault/assert in native code.
    Hang,  ///< Uninterruptible spin: ignores the cooperative deadline; only
           ///< RLIMIT_CPU or the supervisor's kill-on-deadline ends it.
    Oom,   ///< Allocation storm: dies on the memory rlimit (WorkerOomExit)
           ///< or self-reports OOM after a bounded number of allocations.
  };
  ScanPhase Phase = ScanPhase::Build;
  Action Kind = Action::Fail;
  /// 0-based index of the target package in this Scanner's scan sequence.
  unsigned Package = 0;
  /// Name-targeted fault (`<phase>:<action>@<name>`): the drivers (pool
  /// plan, shared ledger) match this against BatchInput::Name and rebase
  /// Package before the Scanner sees the plan — the Scanner itself only
  /// ever matches on the sequence index. A corpus-global poison package
  /// stays poisoned no matter which shard or supervisor picks it up.
  std::string PackageName;

  /// True for Crash/Hang/Oom — the actions an in-process driver cannot
  /// contain.
  bool processFatal() const {
    return Kind == Action::Crash || Kind == Action::Hang ||
           Kind == Action::Oom;
  }

  /// Parses "<phase>:<fail|stall|crash|hang|oom>[:<n>|@<name>]" (e.g.
  /// "build:fail:0", "query:stall:2", "build:crash@left-pad"); the target
  /// suffix is optional and defaults to package index 0.
  static bool parse(const std::string &Spec, FaultPlan &Out,
                    std::string *Error = nullptr);
};

struct ScanOptions {
  queries::SinkConfig Sinks = queries::SinkConfig::defaults();
  analysis::BuilderOptions Builder;
  graphdb::EngineOptions Engine;
  QueryBackend Backend = QueryBackend::GraphDB;
  /// Runs the MDG well-formedness checker over the freshly built graph and
  /// records its findings in ScanResult::SelfCheckFindings.
  bool SelfCheck = false;
  /// Per-package deadline shared by every phase (inactive by default; the
  /// Builder/Engine work budgets still apply independently).
  DeadlineBudget Deadline;
  /// Deterministic fault injection (tests/CI).
  std::optional<FaultPlan> Fault;
  /// Unread by the scanner, which runs every query class on every package.
  /// Only the benchmark's layer-by-layer replica reads it (to skip its
  /// call-graph + summary step); it goes when that replica changes.
  bool Prune = false;
  /// Async lowering (core/AsyncLower.h): desugar await, promise reactions
  /// (`.then/.catch/.finally`), `new Promise(executor)`, and the Promise.*
  /// statics into Core JS call/return structure right after normalization,
  /// so taint crossing async boundaries appears in the MDG. `graphjs scan
  /// --no-async-lower` clears this (corpus A/B runs, lowering triage).
  bool AsyncLower = true;
  /// Degradation-ladder depth: how many times a package whose scan hit a
  /// containable failure (injected fault, deadline, work budget) is retried
  /// with cheaper settings. 0 disables retries (single attempt, partial
  /// results only). Level 1 switches GraphDB → native traversals; level 2
  /// additionally reduces the builder budget.
  unsigned MaxDegradation = 2;
  /// Optional span recorder (non-owning, branch-on-null): the scan records
  /// a package → attempt → phase span tree under it, with per-file and
  /// per-query children (`graphjs scan --trace` / `--trace-out`).
  obs::TraceRecorder *Trace = nullptr;
};

/// Per-phase timing (seconds) — the Table 6 breakdown.
struct PhaseTimes {
  double Parse = 0;
  double Lower = 0; ///< Async lowering (a sub-phase between parse and build).
  double GraphBuild = 0;
  double DbImport = 0;
  double Query = 0;
  /// Breakdown outside total(): the Core IR lowering share of Parse.
  double Normalize = 0;
  double total() const {
    return Parse + Lower + GraphBuild + DbImport + Query;
  }
  void accumulate(const PhaseTimes &O) {
    Parse += O.Parse;
    Lower += O.Lower;
    Normalize += O.Normalize;
    GraphBuild += O.GraphBuild;
    DbImport += O.DbImport;
    Query += O.Query;
  }
};

/// One degradation-ladder attempt's accounting: which level ran and what it
/// cost. ScanResult::Times only reflects the *final* attempt, so timing
/// attribution for a retried package needs this log — a level-0 attempt
/// that burned the whole deadline building the graph would otherwise
/// vanish from the books.
struct AttemptRecord {
  unsigned Level = 0; ///< Ladder level (0 = full pipeline).
  PhaseTimes Times;
  uint64_t DeadlineWork = 0; ///< Deadline units consumed by this attempt.
  bool TimedOut = false;     ///< This attempt hit a deadline/budget.
};

/// One scanned file/package result.
struct ScanResult {
  std::vector<queries::VulnReport> Reports;
  /// Structured failures, in occurrence order, accumulated across ladder
  /// attempts (replaces the old ParseFailed/TimedOut booleans).
  std::vector<ScanError> Errors;
  /// Ladder level of the final attempt (0 = full pipeline).
  unsigned Degradation = 0;
  /// Number of pipeline attempts (1 + retries).
  unsigned Attempts = 1;
  /// Degradation retries taken (Attempts - 1; explicit for journal/eval).
  unsigned Retries = 0;
  /// Final attempt only (the Table 6 numbers for the settings that won).
  PhaseTimes Times;
  /// Every attempt summed — the package's true wall-clock attribution
  /// under the degradation ladder.
  PhaseTimes CumulativeTimes;
  /// Per-attempt accounting, in ladder order.
  std::vector<AttemptRecord> AttemptLog;
  /// Counter deltas over the whole package scan, keyed by counter name
  /// (empty unless obs counters are enabled; see obs/Counters.h).
  obs::CounterSnapshot Counters;
  /// Graph-size accounting (Table 7). ASTNodes + CoreStmts approximate the
  /// AST/CFG share included for fairness with ODGen's counting.
  size_t MDGNodes = 0;
  size_t MDGEdges = 0;
  size_t ASTNodes = 0;
  size_t CoreStmts = 0;
  uint64_t BuildWork = 0;
  uint64_t QueryWork = 0;
  /// Deadline units consumed by the final attempt (all phases together).
  uint64_t DeadlineWork = 0;
  /// Nonempty when a built-in Table 2 query failed schema validation; the
  /// query phase is skipped (fail fast rather than silently match nothing).
  std::string SchemaError;
  /// MDG checker findings (populated when ScanOptions::SelfCheck is set).
  std::vector<lint::Finding> SelfCheckFindings;
  /// Dependency-tree scans: how many packages were linked into the
  /// flattened build (0 for single-package scans).
  unsigned LinkedPackages = 0;
  /// Dependency-tree scans: declared dependencies that could not be
  /// analyzed — every require of them stayed an unresolved callee.
  std::vector<std::string> MissingDeps;

  /// True when any file failed to parse (the file was skipped; the rest of
  /// the package was still scanned and linked).
  bool parseFailed() const;
  /// True when any deadline or work budget expired in any phase.
  bool timedOut() const;
  /// Per-phase timeout attribution (e.g. distinguishes query step-budget
  /// exhaustion from a graph-construction timeout).
  bool timedOutIn(ScanPhase P) const;
  /// True when an injected fault fired during this scan.
  bool faulted() const;
  /// The first timeout-class error, or nullptr.
  const ScanError *firstTimeout() const;
  /// "build: budget: ..." — first error rendered, or "" when clean.
  std::string errorSummary() const;
};

/// One source file of a package.
struct SourceFile {
  std::string Name;
  std::string Contents;
};

/// Cross-package link request for a dependency-tree scan, parallel to the
/// Files vector: which package owns each file, which files are package
/// mains, and which package names must classify as unresolved callees
/// (missing/unparseable dependencies — the soundness valve).
struct PackageLinkSpec {
  std::vector<std::string> PkgOf;
  std::vector<bool> IsMain;
  std::set<std::string> MissingDeps;
  /// The discovered tree (non-owning), for the pkggraph self-check pass.
  const analysis::PackageGraph *Packages = nullptr;
};

/// The Graph.js scanner.
class Scanner {
public:
  explicit Scanner(ScanOptions Options = {});

  /// Scans one JavaScript source buffer.
  ScanResult scanSource(const std::string &Source);

  /// Scans a multi-file package: each file is analyzed and the reports are
  /// merged (timings and sizes accumulate). A file that fails to parse is
  /// skipped with a per-file ScanError; the rest of the package is still
  /// scanned and linked.
  ScanResult scanPackage(const std::vector<SourceFile> &Files);

  /// Scans a whole dependency tree as one linked unit: the tree is
  /// flattened bottom-up (PackageGraph::flatten), inter-package requires
  /// resolve to the exporting package's code, and taint flows through the
  /// linked MDG across package boundaries — a sink buried N dependency
  /// levels deep is reachable from the root's exported API. Missing or
  /// unparseable dependencies force unresolved callees.
  ScanResult scanDependencyTree(const analysis::PackageGraph &G);

  const ScanOptions &options() const { return Options; }

  /// Packages scanned so far (the FaultPlan::Package sequence number).
  unsigned packagesScanned() const { return ScansDone; }

private:
  ScanOptions Options;
  /// Scan sequence number — drives FaultPlan targeting.
  unsigned ScansDone = 0;
  /// One-shot faults: set once the configured fault has fired.
  bool FaultSpent = false;

  /// One pipeline attempt under \p Cfg at ladder level \p Level.
  /// \p FaultArmed gates injection for this package; the attempt appends to
  /// Out.Errors. \p Link is non-null for dependency-tree scans.
  ScanResult runAttempt(const std::vector<SourceFile> &Files,
                        const ScanOptions &Cfg, bool FaultArmed,
                        unsigned Level, const PackageLinkSpec *Link = nullptr);

  /// Shared degradation-ladder driver for scanPackage/scanDependencyTree.
  ScanResult scanWithLadder(const std::vector<SourceFile> &Files,
                            const PackageLinkSpec *Link);

  /// True when the attempt's errors warrant a cheaper retry.
  static bool wantsDegradation(const ScanResult &R);

  /// Settings for ladder level \p Level (1-based).
  static ScanOptions degrade(const ScanOptions &Base, unsigned Level);
};

/// Serializes reports as a JSON array (tool output).
std::string reportsToJSON(const std::vector<queries::VulnReport> &Reports);

} // namespace scanner
} // namespace gjs

#endif // GJS_SCANNER_SCANNER_H
