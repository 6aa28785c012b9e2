//===- driver/ProcessPool.h - Supervised multi-process batch scan *- C++ -*-==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-process batch scanner: a supervisor that forks worker
/// processes and reaps whatever happens to them. The in-process BatchDriver
/// contains everything *cooperative* — exceptions, deadlines, work budgets
/// — but a segfault in native code, an abort(), a kernel OOM kill, or an
/// uninterruptible loop takes the whole process down, journal and all. At
/// the paper's 20k-npm corpus scale (§5.6) that single-package blast radius
/// is unacceptable; the pool reduces it to one worker.
///
/// Each forked worker is resident: it drains a pipe-fed queue of jobs
/// (length-prefixed frames over a socketpair, driver/WorkerProtocol.h),
/// amortizing the fork across packages. A worker is re-forked only after a
/// crash, a kill, or a *recycle* — a planned exit after RecycleAfter
/// packages or when its resident set passes the RecycleRssMB watermark,
/// bounding leak/fragmentation accumulation. RecycleAfter = 1 is the
/// maximum-isolation setting: a fresh process image per package. A retiring
/// worker holds no slot, so its replacement is forked as soon as the last
/// response arrives.
///
/// Each worker holds up to two jobs: the one it runs (the *head*) and one
/// queued behind it, so it starts its next scan without idling through a
/// supervisor round trip. Assignment is depth-first (every worker gets a
/// job before any gets a second), and a worker is sent at most
/// RecycleAfter jobs. The head-of-line rules:
///
///  - a response settles the head only if its job id matches; anything
///    else is stale;
///  - the head's clock (kill ladder, `worker.job_us`, the `job:` trace
///    span, the OnPackageStart hook) starts when it becomes the head — at
///    assignment to an idle worker, else at the previous head's verdict —
///    so a job waiting behind a slow one is never killed for its wait;
///  - when a worker dies, only the head takes the wait-status verdict (and
///    the RetryCrashed retry). Jobs behind it go back to the front of the
///    queue in their original order: not retries, fault kept, no Crashed
///    or Retried count. A worker announcing a recycle hands its queued job
///    back the same way.
///
/// The pool preserves:
///
///  - **Crash containment**: a worker that dies on a signal or exits
///    without a result fails only the package it was scanning (Crashed /
///    KilledOom / KilledDeadline, attributed from the wait status and the
///    kill ladder); the replacement worker drains the rest of the queue.
///    Accounting is per *job*, not per process — exactly-once per package
///    regardless of how many workers died.
///  - **Kill ladder**: cooperative Deadline inside the worker, then the
///    supervisor's per-job wall-clock kill (SIGKILL), then RLIMIT_CPU as
///    the backstop (sized per worker lifetime, so only with a recycle
///    quota).
///  - **Deterministic journal**: per-worker lines merge into the main
///    journal in *input order* regardless of completion order, and healthy
///    packages' lines are the worker's bytes verbatim.
///  - **Resume / graceful drain**: already-journaled packages are skipped;
///    SIGINT/SIGTERM stops assigning and drains the jobs already sent
///    (queued ones included), leaving a
///    valid resumable journal prefix — as does SIGKILLing the supervisor
///    itself (the merge cursor only writes completed prefixes).
///
//===----------------------------------------------------------------------===//

#ifndef GJS_DRIVER_PROCESSPOOL_H
#define GJS_DRIVER_PROCESSPOOL_H

#include "driver/BatchDriver.h"
#include "obs/Trace.h"

namespace gjs {
namespace driver {

struct PoolOptions {
  /// The underlying batch options (scan settings, journal, resume,
  /// MaxPackages, progress cadence). BatchOptions::Scan::Fault is ignored
  /// here — the pool takes its (possibly multiple) faults via Faults.
  BatchOptions Batch;
  /// Concurrent resident worker processes. 1 still forks (containment
  /// without parallelism); the CLI routes a batch without --jobs to
  /// BatchDriver instead.
  unsigned Jobs = 2;
  /// Read by no code: every pool runs resident workers (RecycleAfter = 1
  /// for a fresh process per package). Kept only because the benchmark
  /// harness (perfbench), which changes only together with the benchmark,
  /// still assigns it; drop the field with that assignment.
  bool Persistent = false;
  /// Planned worker recycle after this many scanned packages (0 =
  /// unlimited; 1 = a fresh process image per package). The supervisor
  /// sends a worker at most this many jobs; the worker answers its last
  /// one, exits WorkerRecycleExit, and the supervisor forks a fresh image.
  unsigned RecycleAfter = 0;
  /// Recycle a worker whose resident set exceeds this many MiB after a job
  /// (0 = off; measured from /proc/self/statm, a no-op on systems without
  /// it).
  size_t RecycleRssMB = 0;
  /// RLIMIT_AS per worker in MiB (0 = uncapped; ignored under ASan).
  size_t MemLimitMB = 0;
  /// Supervisor kill-on-deadline: SIGKILL a worker whose *current job* (the
  /// head, timed from when it became the head) has run longer than this
  /// many wall-clock seconds. 0 derives a default from the scan deadline
  /// (2*wall + 1s) when one is set, else disables the killer.
  double KillAfterSeconds = 0;
  /// Retry a crashed/oom/deadline-killed package once, without its
  /// injected fault and at half the wall-clock budget (the transient-
  /// failure model the one-shot FaultPlan semantics encode).
  bool RetryCrashed = false;
  /// Deterministic faults, each targeting the Nth *scanned* package of
  /// the run (same sequence a single in-process Scanner would count).
  /// Unlike BatchOptions::Scan::Fault this is a list: one run can crash
  /// package 1 and hang package 3.
  std::vector<scanner::FaultPlan> Faults;
  /// Cross-process trace stitching (`graphjs batch --trace-out`): when set,
  /// every job request asks its worker for a span tree rebased onto this
  /// recorder's epoch, and the supervisor splices worker spans (one Chrome
  /// pid lane per worker process) next to its own retroactive scheduling
  /// spans. Null disables worker-side tracing entirely.
  obs::TraceRecorder *Trace = nullptr;
};

/// The supervised worker pool. Same contract as BatchDriver::run — same
/// inputs, same journal format, same summary — plus OS-level containment.
class ProcessPool {
public:
  explicit ProcessPool(PoolOptions Options);

  BatchSummary run(const std::vector<BatchInput> &Inputs);

  const PoolOptions &options() const { return Options; }

  /// The wall-clock seconds after which the supervisor SIGKILLs a worker
  /// (resolving the KillAfterSeconds=0 default); 0 = killer disabled.
  static double effectiveKillAfter(const PoolOptions &Options);

private:
  PoolOptions Options;
};

} // namespace driver
} // namespace gjs

#endif // GJS_DRIVER_PROCESSPOOL_H
