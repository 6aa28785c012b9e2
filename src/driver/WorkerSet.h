//===- driver/WorkerSet.h - Supervisor side of resident workers --*- C++ -*-==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The supervisor core of driver::ProcessPool (`graphjs batch --jobs`) and
/// driver::ScanService (`graphjs serve`): resident worker processes
/// (driver/WorkerProtocol.h) and the jobs each one holds. It owns what the
/// two supervisors do alike:
///
///  - forking: a non-blocking comm channel, the RLIMIT_AS cap, and the
///    RLIMIT_CPU backstop, sized per worker lifetime (so only with a
///    recycle quota) from a kill-after the caller vouches for;
///  - each worker's job FIFO, at most Depth deep. A response settles the
///    head only if its job id matches. The head's clock (kill ladder,
///    `worker.job_us`, the `job:` span, OnStart) starts when it
///    becomes the head, so a job is never killed for its wait behind a
///    slow one; each job carries its own kill-after;
///  - responses: the header is decoded and the journal line parsed once;
///    the histogram delta and journal-line counters merge into the
///    registries, and with a trace recorder the worker's spans land on its
///    own pid lane beside a `job:` span holding a `result` span (decode,
///    parse and merges);
///  - deaths: frames flushed before a death are read first, recycles are
///    counted, the head takes the wait-status verdict (Crashed, KilledOom
///    or KilledDeadline) and the jobs behind it are handed back unstarted;
///    an idle death is told planned (exit 0, recycle, retiring) or not;
///  - the poll wait, the SIGINT/SIGTERM drain flag and the `exit`-frame
///    drain.
///
/// Policy stays with the caller, which hears how each job ended through
/// the hooks in WorkerSetConfig: what runs in what order, how many workers
/// to keep, and what a failure means.
///
//===----------------------------------------------------------------------===//

#ifndef GJS_DRIVER_WORKERSET_H
#define GJS_DRIVER_WORKERSET_H

#include "driver/WorkerProtocol.h"
#include "support/Timer.h"

#include <csignal>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include <poll.h>

namespace gjs {
namespace driver {

/// The supervisor's SIGKILL deadline for one job: \p ExplicitSeconds when
/// set, else twice the job's cooperative budget plus a second (the worker
/// gets every chance to degrade gracefully first), else 0: no kill.
double defaultKillAfter(double ExplicitSeconds, double DeadlineSeconds);

/// One job sent to a worker and not yet settled.
struct WorkerJob {
  uint64_t Id = 0;      ///< Correlation id on the wire.
  size_t Ref = 0;       ///< The caller's handle (plan index, request id).
  double KillAfter = 0; ///< Seconds as the head before SIGKILL (0 = never).
};

/// One resident worker: a forked image draining job frames off its
/// socketpair until crash, kill, or recycle.
struct Worker {
  Subprocess Proc;
  FrameReader Reader;
  /// In the order the worker runs them; the head is running.
  std::deque<WorkerJob> Jobs;
  /// The next exit is planned (announced recycle, or a job that completed
  /// after the kill ladder fired): no more work, and no failure on death.
  bool Retiring = false;
  /// Jobs sent over the worker's lifetime (the recycle quota).
  unsigned Sent = 0;
  /// The head-of-line clock, and its trace-recorder timestamp.
  Timer JobStarted;
  double TraceStartUs = 0;
  /// The kill ladder fired at the head.
  bool KillSent = false;
  /// Since the worker was forked or last answered a job or a ping.
  Timer IdleSince;
  /// A heartbeat ping is out, sent at PingStarted; the pong clears it.
  bool PingSent = false;
  Timer PingStarted;
};

/// A job that ended without a journal line.
struct JobFailure {
  scanner::ScanErrorKind Kind = scanner::ScanErrorKind::Crashed;
  std::string Detail;
  /// The head-of-line clock at the verdict.
  double Seconds = 0;
  /// The wait status of a worker that died with the job in hand; null when
  /// it answered with a line that does not parse.
  const WaitStatus *Death = nullptr;
  int Pid = 0;

  /// \p Package's Failed outcome, this failure its one Driver error, with
  /// its journal line.
  BatchOutcome outcome(const std::string &Package) const;
};

/// One caller's workers and how it hears about their jobs. The hooks run
/// inside WorkerSet calls and must not spawn or drain workers.
struct WorkerSetConfig {
  /// The forked worker's body, given its end of the socketpair.
  std::function<int(int FD)> WorkerMain;
  /// Jobs a worker is sent over its life (0 = unlimited).
  unsigned RecycleAfter = 0;
  /// RLIMIT_AS per worker in MiB (0 = uncapped; ignored under ASan).
  size_t MemLimitMB = 0;
  /// A kill-after no job of a worker's life exceeds (0 = none known).
  double LifetimeKillAfter = 0;
  /// Cross-process stitching: each job asks for a span tree rebased onto
  /// this recorder's epoch. Null disables worker-side tracing.
  obs::TraceRecorder *Trace = nullptr;

  /// The job's name, for OnStart and the `job:` span.
  std::function<const std::string &(size_t Ref)> JobName;
  /// A job became its worker's head and starts now (optional).
  std::function<void(const std::string &Name)> OnStart;
  /// The head answered: its journal line parsed, RawJournalLine set.
  std::function<void(size_t Ref, BatchOutcome &Out)> OnResult;
  /// The head ended without a journal line.
  std::function<void(size_t Ref, const JobFailure &F)> OnFailure;
  /// A job queued behind a dead or recycling head never started and is
  /// the caller's again; called last job first (only with Depth > 1).
  std::function<void(size_t Ref)> OnHandBack;
  /// A worker with no job in hand died unplanned (optional).
  std::function<void(const WaitStatus &WS)> OnIdleDeath;
};

class WorkerSet {
public:
  /// \p Depth is how many jobs a worker holds at once, the head included.
  /// Until destruction, SIGINT/SIGTERM set the drain flag and SIGPIPE is
  /// ignored (a write to a dead worker fails instead).
  WorkerSet(size_t Depth, WorkerSetConfig Config);
  ~WorkerSet();
  WorkerSet(const WorkerSet &) = delete;
  WorkerSet &operator=(const WorkerSet &) = delete;

  /// SIGINT or SIGTERM arrived since the set was made.
  static bool stopRequested();

  /// Forks one worker; false, with the reason in \p Error, on failure.
  bool spawn(std::string *Error = nullptr);

  /// Whether \p W takes another job: alive, neither retiring nor being
  /// killed, under its recycle quota, and holding fewer than Depth jobs.
  bool accepts(const Worker &W) const;

  /// Sends \p Req to \p W as job \p Ref, stamping its id and trace fields.
  /// False when the worker is gone: the job stays the caller's.
  bool assign(Worker &W, size_t Ref, double KillAfter, WorkerRequest &Req);

  /// Reads every worker's frames, reaps the dead and fires the kill
  /// ladder. True when a frame arrived or a worker died.
  bool tick();

  /// Sleeps until a worker's channel or one of \p ExtraFDs is readable, or
  /// \p TimeoutMs passes (the kill ladder's clock). False when poll fails.
  bool wait(int TimeoutMs, const std::vector<int> &ExtraFDs = {});

  /// Asks every live worker to exit, then reaps them all.
  void drain();

  std::vector<Worker> &workers() { return Workers; }
  /// Workers holding a job.
  size_t busy() const;
  /// Workers not retiring: a retiring worker holds no slot, so its
  /// replacement can be forked before it is reaped.
  size_t serving() const;
  /// Workers ever forked, and planned recycle exits reaped.
  size_t spawned() const { return Spawned; }
  size_t recycled() const { return Recycled; }

private:
  void startHead(Worker &W, size_t Ref);
  void handBack(Worker &W, size_t Keep);
  void handleFrame(Worker &W, const std::string &Text);
  bool readFrames(Worker &W);
  void reap(Worker &W, const WaitStatus &WS);

  const size_t Depth;
  WorkerSetConfig Config;
  SubprocessLimits Limits;
  uint64_t TraceEpochUs = 0;
  std::vector<Worker> Workers;
  uint64_t NextJobId = 1;
  size_t Spawned = 0, Recycled = 0;
  std::vector<struct pollfd> PollFDs;
  ScopedSigpipeIgnore NoSigpipe;
  struct sigaction OldInt {};
  struct sigaction OldTerm {};
};

} // namespace driver
} // namespace gjs

#endif // GJS_DRIVER_WORKERSET_H
