//===- driver/ProcessPool.h - Batch run, in-process or pooled ----*- C++ -*-==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batch run, in-process or across supervised worker processes. One
/// body plans the run (resume and AlreadyDone skips, MaxPackages, the
/// fault list), journals outcomes in input order, meters progress, keeps
/// the counters on and writes the metrics page; PoolOptions::Jobs picks
/// where each planned job is scanned. With Jobs == 0 every job is scanned
/// in this process, with a fresh Scanner each, and nothing is forked (the
/// form BatchDriver::run and `graphjs batch` without --jobs use). The
/// in-process run contains everything *cooperative* — exceptions,
/// deadlines, work budgets — but a segfault in native code, an abort(), a
/// kernel OOM kill, or an uninterruptible loop takes the whole process
/// down, journal and all. At the paper's 20k-npm corpus scale (§5.6) that
/// single-package blast radius is unacceptable; with Jobs > 0 a supervisor
/// forks worker processes and reaps whatever happens to them, reducing it
/// to one worker.
///
/// Each forked worker is resident: it drains a pipe-fed queue of jobs
/// (length-prefixed frames over a socketpair, driver/WorkerProtocol.h),
/// amortizing the fork across packages. A worker is re-forked only after a
/// crash, a kill, or a *recycle* — a planned exit after RecycleAfter
/// packages or when its resident set passes the RecycleRssMB watermark,
/// bounding leak/fragmentation accumulation. RecycleAfter = 1 is the
/// maximum-isolation setting: a fresh process image per package.
///
/// The workers, their job FIFOs and the head-of-line rules (a job's clock
/// starts when it becomes the head; a death gives the head the wait-status
/// verdict and hands the jobs behind it back) are driver::WorkerSet's,
/// shared with `graphjs serve`. The pool adds its policy: the queue, two
/// jobs per worker assigned depth-first (every worker gets a job before any
/// gets a second), RetryCrashed for a head that died (handed-back jobs are
/// not retries and keep their fault), a strike that fails one job after
/// three idle deaths in a row, and failing the queue when no worker can
/// fork. The plan and the merge cursor over the journal are the run's.
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
  /// The underlying batch options (scan settings, fault list, journal,
  /// resume, MaxPackages, progress cadence, metrics).
  BatchOptions Batch;
  /// Concurrent resident worker processes. 0 scans in this process: no
  /// fork, no worker set, no signal handler (`graphjs batch` without
  /// --jobs, BatchDriver). 1 still forks (containment without
  /// parallelism).
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
  /// The run's trace recorder (`graphjs batch --trace-out`); null traces
  /// nothing. In-process it is every scan's ScanOptions::Trace. With
  /// workers it stitches across processes: every job request asks its
  /// worker for a span tree rebased onto this recorder's epoch, and the
  /// supervisor splices worker spans (one Chrome pid lane per worker
  /// process) next to its own retroactive scheduling spans.
  obs::TraceRecorder *Trace = nullptr;
};

/// The batch run. In-process and pooled runs take the same inputs and
/// write the same journal and summary; Jobs > 0 adds OS-level
/// containment.
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
