//===- scanner/Scanner.h - The Graph.js scanning pipeline --------*- C++ -*-==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end Graph.js pipeline (§4 Implementation): parse JavaScript,
/// transpile to Core JavaScript, build the MDG, open it as the graph
/// database (in place: the paper's import, minus the copy), and run the
/// vulnerability queries. Reports carry the CWE and
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
///  - A degradation ladder retries a failed package once with a cheaper
///    MDG builder, and a deadline that kills the graph-DB phases still
///    queries the partial MDG with the native traversals, reproducing
///    Graph.js's partial-results behavior vs. ODGen's all-or-nothing
///    (§5.2, §5.5).
///
/// Per-phase wall-clock times and graph sizes are recorded for the
/// Table 6 / Table 7 / Figure 7 benchmarks.
///
//===----------------------------------------------------------------------===//

#ifndef GJS_SCANNER_SCANNER_H
#define GJS_SCANNER_SCANNER_H

#include "analysis/CallGraph.h"
#include "analysis/MDGBuilder.h"
#include "frontend/AST.h"
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
class Deadline;
namespace obs {
class TraceRecorder;
}
namespace analysis {
class PackageGraph;
}
} // namespace gjs

namespace gjs {
namespace scanner {

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
  /// Degradation-ladder depth: whether a package whose scan hit a
  /// containable failure (injected fault, deadline, work budget) is retried
  /// once with a cheaper builder (level 1). 0 disables the retry (single
  /// attempt, partial results only); any value above 1 acts as 1.
  unsigned MaxDegradation = 1;
  /// Optional span recorder (non-owning, branch-on-null): the scan records
  /// a package → attempt → phase span tree under it, with per-file and
  /// per-query children (`graphjs scan --trace` / `--trace-out`).
  obs::TraceRecorder *Trace = nullptr;

  /// The MDG builder settings a scan uses: Builder, with the sink
  /// configuration's sanitizers as taint barriers (§6).
  analysis::BuilderOptions builderOptions() const;
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

  /// Flattens \p G (PackageGraph::flatten): appends its modules to \p Files
  /// in link order, returns their link request, and hands the flattening's
  /// warnings to \p Warnings when given.
  static PackageLinkSpec ofTree(const analysis::PackageGraph &G,
                                std::vector<SourceFile> &Files,
                                std::vector<std::string> *Warnings = nullptr);
};

/// One package on its way through the pipeline's front half (§4: parse →
/// Core JavaScript → MDG). Scanner::runAttempt runs the steps in order
/// between its fault points and deadline checks; `graphjs query`, `lint`
/// and `callgraph` run the same steps through runFrontHalf. Module stems,
/// function-name prefixes and the cross-package link rules live here once.
struct PackageBuild {
  PackageBuild() = default;
  /// Sizes the per-file vectors for \p Files and takes their stems.
  explicit PackageBuild(const std::vector<SourceFile> &Files);

  /// Per input file: the module stem, the AST and the Core program (null
  /// when the file failed to parse or was skipped).
  std::vector<std::string> Stems;
  std::vector<std::unique_ptr<ast::Program>> ASTs;
  std::vector<std::unique_ptr<core::Program>> Programs;
  /// The normalized modules in file order and their stems (the call graph's
  /// and the self-check's inputs; Link's module indices).
  std::vector<const core::Program *> Mods;
  std::vector<std::string> ModStems;
  /// Dependency-tree scans: the cross-package link map (empty otherwise).
  analysis::ModuleLinkInfo Link;
  /// The MDG; Built is false when the build step did not run.
  analysis::BuildResult Build;
  bool Built = false;

  /// Step 1: parses each file; a parse failure is a per-file ScanError.
  void parse(const std::vector<SourceFile> &Files, Deadline &D,
             obs::TraceRecorder *TR, ScanResult &Out);
  /// Step 2: normalizes each parsed file to Core JavaScript and, with
  /// \p AsyncLower, lowers its async forms. Names get a per-module prefix:
  /// `<stem>$`, `<pkg>$<stem>$` under \p Spec, none for a lone file.
  void normalize(const PackageLinkSpec *Spec, bool AsyncLower, Deadline &D,
                 obs::TraceRecorder *TR, ScanResult &Out);
  /// Step 3: lists Mods and ModStems and, under \p Spec, fills Link.
  void link(const PackageLinkSpec *Spec);
  /// Step 4: builds the MDG over Mods, dependencies first.
  void build(const std::vector<SourceFile> &Files, const PackageLinkSpec *Spec,
             const analysis::BuilderOptions &BO);
};

/// The front half on its own, for tools that want the programs or the graph
/// rather than reports: a scan's steps under \p Cfg's async-lowering and
/// builder settings, without deadline, fault, spans or retry; \p WithBuild
/// false stops before the build. Returns the parse errors.
std::vector<ScanError> runFrontHalf(const std::vector<SourceFile> &Files,
                                    const ScanOptions &Cfg, PackageBuild &Pkg,
                                    bool WithBuild = true,
                                    const PackageLinkSpec *Link = nullptr);

/// The Graph.js scanner.
class Scanner {
public:
  explicit Scanner(ScanOptions Options = {});

  /// Scans one JavaScript source buffer.
  ScanResult scanSource(const std::string &Source);

  /// Scans a multi-file package: each file is analyzed and the reports are
  /// merged (timings and sizes accumulate). A file that fails to parse is
  /// skipped with a per-file ScanError; the rest of the package is still
  /// scanned and linked. \p Kept, when given, receives the final attempt's
  /// front half: the programs and the graph the reports came from.
  ScanResult scanPackage(const std::vector<SourceFile> &Files,
                         PackageBuild *Kept = nullptr);

  /// Scans a whole dependency tree as one linked unit: the tree is
  /// flattened bottom-up (PackageGraph::flatten), inter-package requires
  /// resolve to the exporting package's code, and taint flows through the
  /// linked MDG across package boundaries — a sink buried N dependency
  /// levels deep is reachable from the root's exported API. Missing or
  /// unparseable dependencies force unresolved callees. \p Kept as in
  /// scanPackage.
  ScanResult scanDependencyTree(const analysis::PackageGraph &G,
                                PackageBuild *Kept = nullptr);

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
  /// Out.Errors. \p Link is non-null for dependency-tree scans. \p Kept,
  /// when given, receives the attempt's front half.
  ScanResult runAttempt(const std::vector<SourceFile> &Files,
                        const ScanOptions &Cfg, bool FaultArmed,
                        unsigned Level, const PackageLinkSpec *Link,
                        PackageBuild *Kept);

  /// Shared degradation-ladder driver for scanPackage/scanDependencyTree.
  ScanResult scanWithLadder(const std::vector<SourceFile> &Files,
                            const PackageLinkSpec *Link, PackageBuild *Kept);

  /// True when the attempt's errors warrant a cheaper retry.
  static bool wantsDegradation(const ScanResult &R);

  /// Settings for the ladder's one retry (level 1).
  static ScanOptions degrade(const ScanOptions &Base);
};

/// Serializes reports as a JSON array (tool output).
std::string reportsToJSON(const std::vector<queries::VulnReport> &Reports);

} // namespace scanner
} // namespace gjs

#endif // GJS_SCANNER_SCANNER_H
