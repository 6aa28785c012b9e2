//===- scanner/ScanError.h - Structured scan-failure taxonomy ----*- C++ -*-==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structured error taxonomy of the fault-tolerant scan runtime. A
/// package scan no longer collapses every failure into ParseFailed/TimedOut
/// booleans: each problem is recorded as a ScanError naming the pipeline
/// phase that hit it, the failure kind, and (when applicable) the file.
/// The evaluation's headline robustness claim — Graph.js degrades
/// gracefully under the 5-minute timeout where ODGen fails all-or-nothing
/// (§5.2, §5.5) — needs exactly this attribution: a batch journal entry must
/// say *which phase* of *which package* exhausted the budget, so reruns and
/// the degradation ladder can react per phase.
///
//===----------------------------------------------------------------------===//

#ifndef GJS_SCANNER_SCANERROR_H
#define GJS_SCANNER_SCANERROR_H

#include "support/Deadline.h"
#include "support/SourceLocation.h"

#include <string>

namespace gjs {
namespace scanner {

/// The pipeline phases a failure can be attributed to. Driver is the batch
/// runner itself (package-level isolation: a scan that threw).
enum class ScanPhase { Parse, Normalize, Build, Import, Query, Driver };

/// What went wrong. The last three are OS-level verdicts only the
/// multi-process supervisor (driver::ProcessPool) can issue: the failure
/// killed the whole worker process, so no in-process handler saw it.
enum class ScanErrorKind {
  ParseError,     ///< Malformed input (per-file; the file is skipped).
  Deadline,       ///< Wall-clock (or injected-stall) deadline expired.
  Budget,         ///< An abstract work budget was exhausted.
  InjectedFault,  ///< A FaultPlan fired (deterministic fault injection).
  Schema,         ///< A built-in query failed schema validation.
  Internal,       ///< Unexpected failure (e.g. an exception the driver caught).
  Crashed,        ///< Worker died on a signal (SIGSEGV, SIGABRT, ...) or
                  ///< exited without producing a result.
  KilledOom,      ///< Worker ran out of memory: rlimit-attributed allocation
                  ///< failure, or an unexplained SIGKILL (kernel OOM killer).
  KilledDeadline, ///< Worker blew its hard deadline and the supervisor (or
                  ///< the RLIMIT_CPU cap) killed it.
};

/// Stable lowercase names (used in journals and CLI flags).
const char *scanPhaseName(ScanPhase P);
const char *scanErrorKindName(ScanErrorKind K);

/// Parses the names back (for FaultPlan specs and journal-line parsing);
/// false on unknown.
bool scanPhaseFromName(const std::string &Name, ScanPhase &Out);
bool scanErrorKindFromName(const std::string &Name, ScanErrorKind &Out);

/// Maps a Deadline's expiry reason onto the taxonomy: a work-budget expiry
/// is Budget, wall-clock and forced (stall) expiries are Deadline.
inline ScanErrorKind kindOfDeadline(Deadline::Reason R) {
  return R == Deadline::Reason::Work ? ScanErrorKind::Budget
                                     : ScanErrorKind::Deadline;
}

/// One structured failure: which phase, what kind, with detail.
struct ScanError {
  ScanPhase Phase = ScanPhase::Driver;
  ScanErrorKind Kind = ScanErrorKind::Internal;
  std::string Detail;
  /// Per-file attribution (parse errors, per-file deadline hits); empty when
  /// the error concerns the whole package.
  std::string File;
  /// The offending token's position (parse errors): structured line/column
  /// for corpus triage, so consumers need not re-parse Detail. Invalid
  /// (0:0) when the error has no single source position.
  SourceLocation Loc;

  /// "parse: parse-error [a.js]:3:7: error: expected '(' ...".
  std::string str() const;

  bool isTimeout() const {
    return Kind == ScanErrorKind::Deadline || Kind == ScanErrorKind::Budget;
  }
};

} // namespace scanner
} // namespace gjs

#endif // GJS_SCANNER_SCANERROR_H
