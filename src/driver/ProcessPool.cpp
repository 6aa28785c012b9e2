//===- driver/ProcessPool.cpp - Supervised multi-process batch scan --------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//

#include "driver/ProcessPool.h"

#include "driver/WorkerProtocol.h"
#include "obs/Counters.h"
#include "obs/Histogram.h"
#include "obs/Metrics.h"
#include "support/Subprocess.h"
#include "support/Timer.h"

#include <algorithm>
#include <csignal>
#include <deque>
#include <fstream>
#include <optional>
#include <set>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

using namespace gjs;
using namespace gjs::driver;

namespace {

/// SIGINT/SIGTERM drain flag: the supervisor stops launching and waits for
/// in-flight workers, leaving a valid resumable journal prefix.
volatile std::sig_atomic_t PoolStopRequested = 0;

void poolStopHandler(int) { PoolStopRequested = 1; }

/// Installs the drain handlers for the duration of a run, restoring the
/// prior dispositions on exit (tests run pools back to back).
struct DrainSignalGuard {
  struct sigaction OldInt {};
  struct sigaction OldTerm {};
  DrainSignalGuard() {
    PoolStopRequested = 0;
    struct sigaction SA {};
    SA.sa_handler = poolStopHandler;
    sigemptyset(&SA.sa_mask);
    ::sigaction(SIGINT, &SA, &OldInt);
    ::sigaction(SIGTERM, &SA, &OldTerm);
  }
  ~DrainSignalGuard() {
    ::sigaction(SIGINT, &OldInt, nullptr);
    ::sigaction(SIGTERM, &OldTerm, nullptr);
  }
};

/// One planned (non-skipped) package scan.
struct WorkItem {
  size_t InputIndex = 0;
  size_t SlotIndex = 0;
  /// Fault targeting this package, already rebased to Package=0 for the
  /// worker's single-package Scanner.
  std::optional<scanner::FaultPlan> Fault;
};

/// One outcome slot, in input order. The merge cursor flushes the longest
/// complete prefix to the journal.
struct Slot {
  BatchOutcome Outcome;
  bool Complete = false;
};

/// Jobs a worker holds at once: the one it runs and one queued behind it,
/// so the worker starts its next scan without waiting for the supervisor
/// to read its last response and answer with a new request.
constexpr size_t PipelineDepth = 2;

/// One job sent to a worker and not yet settled.
struct PoolJob {
  size_t WorkIdx = 0;
  bool IsRetry = false;
  uint64_t JobId = 0;
};

/// One live worker: a forked image draining job frames off its socketpair
/// until crash, kill, or recycle.
struct PoolWorker {
  Subprocess Proc;
  FrameReader Reader;
  /// Jobs sent to the worker, in the order it runs them (at most
  /// PipelineDepth). The head is the running job: its verdict is either a
  /// response frame or, if the worker dies first, a wait-status
  /// attribution — never both (per-job exactly-once). Jobs behind the
  /// head have not started; a death hands them back to the queue.
  std::deque<PoolJob> Jobs;
  /// The worker's next exit is planned (announced recycle, or a job that
  /// completed after the kill ladder fired): don't assign it work and
  /// don't count its death as a launch failure.
  bool Retiring = false;
  /// Scan requests sent over the worker's lifetime (the recycle quota).
  unsigned Sent = 0;
  /// Head-of-line clock: started when the head became the head, never at
  /// assignment, so a job is not charged (or killed) for its wait behind
  /// a slow one. Drives the kill ladder, worker.job_us and the job: span.
  Timer JobStarted;
  /// Supervisor-recorder timestamp of the same moment (job: span start).
  double TraceStartUs = 0;
  /// The kill ladder fired at the head.
  bool KillSent = false;
};

/// Sleeps until one of the workers' comm channels stirs — a response frame,
/// or the EOF hang-up its death leaves behind — or \p TimeoutMs passes.
/// Replaces timer polling: the supervisor contributes zero CPU while the
/// workers scan (which matters on small hosts, where a spinning supervisor
/// competes with its own workers for cores) and wakes the instant a result
/// is ready instead of up to a tick later. The bounded timeout keeps the
/// wall-clock kill ladder firing for workers that are alive but silent —
/// a hang, by definition, writes nothing.
void waitForWorkerActivity(const std::vector<int> &FDs, int TimeoutMs) {
  std::vector<struct pollfd> PFDs;
  PFDs.reserve(FDs.size());
  for (int FD : FDs)
    if (FD >= 0)
      PFDs.push_back({FD, POLLIN, 0});
  if (PFDs.empty())
    ::usleep(static_cast<unsigned>(TimeoutMs) * 1000);
  else
    ::poll(PFDs.data(), PFDs.size(), TimeoutMs); // EINTR = a signal; fine.
}

} // namespace

ProcessPool::ProcessPool(PoolOptions Options) : Options(std::move(Options)) {}

double ProcessPool::effectiveKillAfter(const PoolOptions &Options) {
  if (Options.KillAfterSeconds > 0)
    return Options.KillAfterSeconds;
  double Wall = Options.Batch.Scan.Deadline.WallSeconds;
  // Twice the cooperative budget plus slack: the worker gets every chance
  // to degrade gracefully before the supervisor shoots it.
  return Wall > 0 ? 2 * Wall + 1.0 : 0;
}

BatchSummary ProcessPool::run(const std::vector<BatchInput> &Inputs) {
  BatchSummary Summary;
  Timer Wall;
  const BatchOptions &Batch = Options.Batch;

  std::set<std::string> Done;
  if (Batch.Resume && !Batch.JournalPath.empty())
    Done = BatchDriver::journaledPackages(Batch.JournalPath);

  // Plan: input order, resume skips prefilled complete, scanned packages
  // numbered by the same sequence a single in-process Scanner would count
  // (what FaultPlan::Package targets).
  std::vector<Slot> Slots;
  std::vector<WorkItem> Plan;
  unsigned Seq = 0;
  for (size_t I = 0; I < Inputs.size(); ++I) {
    if (Done.count(Inputs[I].Name) || Batch.AlreadyDone.count(Inputs[I].Name)) {
      Slot S;
      S.Outcome.Package = Inputs[I].Name;
      S.Outcome.Skipped = true;
      S.Complete = true;
      Slots.push_back(std::move(S));
      continue;
    }
    if (Batch.MaxPackages && Seq >= Batch.MaxPackages)
      break;
    Slot S;
    S.Outcome.Package = Inputs[I].Name;
    Slots.push_back(std::move(S));
    WorkItem W;
    W.InputIndex = I;
    W.SlotIndex = Slots.size() - 1;
    for (const scanner::FaultPlan &F : Options.Faults) {
      // A name-targeted fault (`...@pkg`) follows its package wherever it
      // lands in a shard; an index fault targets the scan sequence.
      bool Match = F.PackageName.empty() ? F.Package == Seq
                                         : F.PackageName == Inputs[I].Name;
      if (Match) {
        W.Fault = F;
        W.Fault->Package = 0; // Worker scans exactly one package.
        W.Fault->PackageName.clear();
        break;
      }
    }
    Plan.push_back(std::move(W));
    ++Seq;
  }

  std::ofstream Journal;
  if (!Batch.JournalPath.empty())
    Journal.open(Batch.JournalPath, Batch.Resume
                                        ? std::ios::out | std::ios::app
                                        : std::ios::out | std::ios::trunc);

  bool PrevCounters = obs::countersEnabled();
  if (Batch.EnableCounters)
    obs::setCountersEnabled(true);

  ProgressMeter Progress(Inputs.size(), Batch.ProgressEveryPackages,
                         Batch.ProgressEverySeconds, Batch.Quiet);
  DrainSignalGuard Signals;

  // Cross-process stitching: the supervisor claims its own pid lane and
  // every job request carries the shared trace epoch, so worker spans come
  // back pre-rebased onto one timeline.
  const bool WantTrace = Options.Trace != nullptr;
  const uint64_t TraceEpochUs = WantTrace ? Options.Trace->epochUs() : 0;
  if (WantTrace) {
    Options.Trace->setDefaultPid(::getpid());
    Options.Trace->labelPid(::getpid(), "supervisor");
  }

  // Merges one worker's telemetry frame into the supervisor's registries:
  // histogram buckets and the worker's span tree on its own pid lane.
  // Counters ride the journal line and merge with it (handleFrame).
  auto mergeTelemetry = [&](const WorkerResponse &T, int Pid) {
    if (!T.HistDelta.empty())
      obs::mergeHistograms(T.HistDelta);
    if (WantTrace && !T.Spans.empty()) {
      Options.Trace->labelPid(Pid, "worker " + std::to_string(Pid));
      Options.Trace->addForeignSpans(T.Spans, Pid);
    }
  };

  Timer MetricsClock;
  auto maybeWriteMetrics = [&]() {
    if (Batch.MetricsPath.empty() ||
        MetricsClock.elapsedSeconds() < Batch.MetricsEverySeconds)
      return;
    obs::writePrometheusFile(Batch.MetricsPath);
    MetricsClock.reset();
  };

  const double KillAfter = effectiveKillAfter(Options);
  SubprocessLimits Limits;
  Limits.MemLimitMB = Options.MemLimitMB;
  // RLIMIT_CPU is a backstop above the supervisor's wall-clock killer (it
  // only matters if the supervisor itself dies with a spinning worker
  // behind) and counts the worker's whole lifetime, not one job. With a
  // recycle quota the lifetime is bounded and the backstop scales with it;
  // without one there is no meaningful per-process cap, and the per-job
  // wall-clock killer is the whole ladder.
  if (KillAfter > 0 && Options.RecycleAfter > 0)
    Limits.CpuSeconds =
        static_cast<unsigned>(KillAfter * Options.RecycleAfter) + 2;

  size_t MergeCursor = 0;

  // Completing a slot out of order is fine; only the longest complete
  // prefix is journaled, so a SIGKILLed supervisor always leaves a valid
  // resumable journal.
  auto flushCursor = [&]() {
    while (MergeCursor < Slots.size() && Slots[MergeCursor].Complete) {
      Slot &S = Slots[MergeCursor];
      if (S.Outcome.Skipped) {
        ++Summary.SkippedResumed;
      } else {
        ++Summary.Scanned;
        Summary.TotalSeconds += S.Outcome.Seconds;
        Summary.TotalReports += S.Outcome.Result.Reports.size();
        switch (S.Outcome.Status) {
        case BatchStatus::Ok:
          ++Summary.Ok;
          break;
        case BatchStatus::Degraded:
          ++Summary.Degraded;
          break;
        case BatchStatus::Failed:
          ++Summary.Failed;
          break;
        case BatchStatus::Quarantined:
          ++Summary.Quarantined;
          break;
        }
        if (Journal.is_open()) {
          // Healthy packages: the worker's bytes verbatim, so --jobs N and
          // --jobs 1 journals are byte-identical where both succeed. The
          // shared ledger frames every line it persists (workers always
          // emit bare lines).
          std::string Line = S.Outcome.RawJournalLine.empty()
                                 ? BatchDriver::journalLine(S.Outcome)
                                 : S.Outcome.RawJournalLine;
          if (Options.Batch.FramedJournal)
            Line = frameJournalLine(Line);
          Journal << Line << '\n';
          Journal.flush();
        }
      }
      Summary.Outcomes.push_back(std::move(S.Outcome));
      ++MergeCursor;
    }
  };

  auto completeSlot = [&](size_t SlotIdx, BatchOutcome Out) {
    Slots[SlotIdx].Outcome = std::move(Out);
    Slots[SlotIdx].Complete = true;
    Progress.completed(Slots[SlotIdx].Outcome.Status == BatchStatus::Failed);
    flushCursor();
  };

  auto synthFailure = [&](const WorkItem &W, scanner::ScanErrorKind Kind,
                          std::string Detail, double Seconds) {
    BatchOutcome Out;
    Out.Package = Inputs[W.InputIndex].Name;
    Out.Status = BatchStatus::Failed;
    Out.Seconds = Seconds;
    Out.Result.Errors.push_back(
        {scanner::ScanPhase::Driver, Kind, std::move(Detail), ""});
    Out.RawJournalLine = BatchDriver::journalLine(Out);
    return Out;
  };

  // Supervisor writes to workers that may die at any moment: EPIPE must
  // be an error return on the write, never a fatal SIGPIPE.
  ScopedSigpipeIgnore NoSigpipe;

  // {plan index, is-retry}; retries go to the front so a replacement
  // worker re-attempts the afflicted package before draining the rest.
  std::deque<std::pair<size_t, bool>> Queue;
  for (size_t I = 0; I < Plan.size(); ++I)
    Queue.emplace_back(I, false);

  std::vector<PoolWorker> Workers;
  uint64_t NextJobId = 1;
  // Consecutive worker deaths without a job in hand (e.g. dying before
  // the first frame): backstop against a fork/requeue livelock when the
  // environment is broken.
  unsigned IdleDeaths = 0;

  // The job source: a request names a plan entry the worker inherited at
  // fork. A retry drops the injected fault and halves the wall-clock
  // budget (the transient-failure model).
  WorkerLoopOptions Loop;
  Loop.EnableCounters = Batch.EnableCounters;
  Loop.RecycleAfter = Options.RecycleAfter;
  Loop.RecycleRssMB = Options.RecycleRssMB;
  auto scanPlanned = [&](const WorkerRequest &Req, obs::TraceRecorder *Trace,
                         BatchOutcome &Out) {
    if (!Req.HasPlanIndex || Req.PlanIndex >= Plan.size())
      return false;
    const WorkItem &W = Plan[Req.PlanIndex];
    scanner::ScanOptions Scan = Batch.Scan;
    Scan.Fault = Req.IsRetry ? std::nullopt : W.Fault;
    if (Req.IsRetry && Scan.Deadline.WallSeconds > 0)
      Scan.Deadline.WallSeconds /= 2;
    Scan.Trace = Trace;
    Out = scanPackageIsolated(Inputs[W.InputIndex], Scan);
    return true;
  };

  auto spawnWorker = [&]() -> bool {
    Subprocess P;
    std::string Err;
    bool OK = Subprocess::forkWorker(
        [&](int FD) { return runWorkerLoop(FD, Loop, scanPlanned); }, P, &Err,
        Limits);
    if (!OK)
      return false;
    // The supervisor multiplexes many workers; reads must never block.
    ::fcntl(P.commFD(), F_SETFL, ::fcntl(P.commFD(), F_GETFL, 0) | O_NONBLOCK);
    obs::counters::WorkerSpawned.add();
    PoolWorker W;
    W.Proc = std::move(P);
    Workers.push_back(std::move(W));
    return true;
  };

  // A job becomes the head when it is assigned to an empty FIFO or when
  // the job ahead of it settles. Its clock and its start record begin
  // here: the worker runs its jobs in order, so this is when it starts.
  auto startHead = [&](PoolWorker &W, size_t PlanIdx) {
    if (Batch.OnPackageStart)
      Batch.OnPackageStart(Inputs[Plan[PlanIdx].InputIndex].Name);
    if (WantTrace)
      W.TraceStartUs = Options.Trace->nowUs();
    W.JobStarted = Timer();
    W.KillSent = false;
  };

  // Jobs queued behind a worker's head never started there: they go back
  // to the front of the queue in their original order, keeping their
  // retry flag and injected fault. No verdict, no retry, no strike.
  auto handBack = [&](PoolWorker &W, size_t Keep) {
    while (W.Jobs.size() > Keep) {
      obs::counters::WorkerRequeued.add();
      Queue.emplace_front(W.Jobs.back().WorkIdx, W.Jobs.back().IsRetry);
      W.Jobs.pop_back();
    }
  };

  auto acceptsWork = [&](const PoolWorker &W) {
    return !W.Retiring && !W.KillSent && !W.Reader.dead() &&
           (Options.RecycleAfter == 0 || W.Sent < Options.RecycleAfter);
  };

  auto assignJob = [&](PoolWorker &W) {
    auto [PlanIdx, IsRetry] = Queue.front();
    const bool Head = W.Jobs.empty();
    // Stamped before the frame goes out: the worker may pick the job up
    // before the parent returns from write().
    if (Head)
      startHead(W, PlanIdx);
    WorkerRequest Req;
    Req.Kind = WorkerRequest::Op::Scan;
    Req.JobId = NextJobId++;
    Req.HasPlanIndex = true;
    Req.PlanIndex = PlanIdx;
    Req.IsRetry = IsRetry;
    Req.WantTrace = WantTrace;
    Req.TraceEpochUs = TraceEpochUs;
    if (!writeFrame(W.Proc.commFD(), Req.encode())) {
      // The worker died; the job never started and stays queued. An idle
      // worker is made certainly dead for the reap pass; a busy one keeps
      // its wait status for the head's verdict and just takes no more.
      if (Head)
        W.Proc.kill(SIGKILL);
      else
        W.Retiring = true;
      return;
    }
    Queue.pop_front();
    W.Jobs.push_back({PlanIdx, IsRetry, Req.JobId});
    ++W.Sent;
  };

  auto handleFrame = [&](PoolWorker &W, const std::string &Text) {
    WorkerResponse Resp;
    if (!WorkerResponse::decode(Text, Resp))
      return; // Corrupt frame; the ladder attributes whatever follows.
    if (Resp.Pong)
      return;
    if (W.Jobs.empty() || Resp.JobId != W.Jobs.front().JobId)
      return; // Stale or duplicate response: first verdict wins.
    IdleDeaths = 0;
    const PoolJob Job = W.Jobs.front();
    W.Jobs.pop_front();
    // A response that raced the kill ladder still counts — the job DID
    // complete — but the worker is dying; treat the exit as planned. A
    // recycling worker exits without reading another request. Either way
    // the job queued behind never starts there.
    if (Resp.Recycle || W.KillSent) {
      W.Retiring = true;
      handBack(W, 0);
    }
    mergeTelemetry(Resp, W.Proc.pid());
    const double HeadSeconds = W.JobStarted.elapsedSeconds();
    obs::hists::WorkerJob.recordSeconds(HeadSeconds);
    const WorkItem &Wk = Plan[Job.WorkIdx];
    if (WantTrace) {
      // A queued job starts in the worker as soon as the one ahead is
      // answered, a little before the supervisor reads that answer: open
      // the span at the worker's first span if that is earlier, so the
      // worker's spans nest inside it.
      double StartUs = W.TraceStartUs;
      for (const obs::SpanRecord &Span : Resp.Spans)
        StartUs = std::min(StartUs, Span.StartUs);
      Options.Trace->addCompletedSpan("job:" + Inputs[Wk.InputIndex].Name,
                                      StartUs,
                                      Options.Trace->nowUs() - StartUs);
    }
    BatchOutcome Out;
    if (!Resp.Line.empty() &&
        BatchDriver::parseJournalLine(Resp.Line, Out)) {
      Out.RawJournalLine = Resp.Line;
      // The worker's scan counters: the package's delta on its journal
      // line (the undercount fix for `batch --stats` under --jobs N).
      if (!Out.Result.Counters.empty())
        obs::mergeCounters(Out.Result.Counters);
      completeSlot(Wk.SlotIndex, std::move(Out));
    } else {
      obs::counters::WorkerCrashed.add();
      ++Summary.Crashed;
      completeSlot(Wk.SlotIndex,
                   synthFailure(Wk, scanner::ScanErrorKind::Crashed,
                                "worker sent an unparseable result",
                                HeadSeconds));
    }
    if (!W.Jobs.empty())
      startHead(W, W.Jobs.front().WorkIdx);
  };

  auto reapWorker = [&](PoolWorker &W, const WaitStatus &WS) {
    // Drain frames the worker flushed before dying: a completed response
    // beats a racing kill or crash (the scan finished; use its verdict).
    W.Reader.pump(W.Proc.commFD());
    std::string Text;
    while (W.Reader.next(Text))
      handleFrame(W, Text);

    if (WS.exitedWith(WorkerRecycleExit)) {
      obs::counters::WorkerRecycled.add();
      ++Summary.Recycled;
    }
    if (W.Jobs.empty()) {
      // No job in hand: nothing to attribute. An unplanned idle death
      // still counts against the livelock backstop.
      bool Planned =
          WS.exitedWith(0) || WS.exitedWith(WorkerRecycleExit) || W.Retiring;
      if (!Planned)
        ++IdleDeaths;
      return;
    }
    // Head in hand and no response: the wait status is the head's
    // verdict. The jobs behind it go back first, so a retry lands ahead
    // of them and the queue keeps input order.
    handBack(W, 1);
    const PoolJob Head = W.Jobs.front();
    W.Jobs.clear();
    const WorkItem &Wk = Plan[Head.WorkIdx];
    WorkerDeath Death = attributeWorkerDeath(WS, W.KillSent);
    if (Death.Kind == scanner::ScanErrorKind::KilledOom)
      ++Summary.OomKilled;
    else if (Death.Kind == scanner::ScanErrorKind::KilledDeadline)
      ++Summary.DeadlineKilled;
    else
      ++Summary.Crashed;
    BatchOutcome Out = synthFailure(Wk, Death.Kind, std::move(Death.Detail),
                                    W.JobStarted.elapsedSeconds());
    if (Options.RetryCrashed && !Head.IsRetry) {
      obs::counters::WorkerRetried.add();
      ++Summary.Retried;
      Queue.emplace_front(Head.WorkIdx, /*IsRetry=*/true);
      return;
    }
    completeSlot(Wk.SlotIndex, std::move(Out));
  };

  auto busyWorkers = [&]() {
    return static_cast<size_t>(
        std::count_if(Workers.begin(), Workers.end(),
                      [](const PoolWorker &W) { return !W.Jobs.empty(); }));
  };

  while (true) {
    if (Batch.OnTick && !Batch.OnTick())
      PoolStopRequested = 1;
    size_t BusyCount = busyWorkers();

    if (!PoolStopRequested) {
      // Keep just enough workers alive for the outstanding work. A
      // retiring worker has answered its last job and is exiting: it holds
      // no slot, so its replacement is forked now, not after the reap.
      size_t Want = std::min<size_t>(std::max(1u, Options.Jobs),
                                     Queue.size() + BusyCount);
      size_t Serving = static_cast<size_t>(
          std::count_if(Workers.begin(), Workers.end(),
                        [](const PoolWorker &W) { return !W.Retiring; }));
      while (Serving < Want) {
        if (spawnWorker()) {
          ++Serving;
          continue;
        }
        if (Workers.empty()) {
          // Nothing can run: fail the whole queue rather than spin.
          while (!Queue.empty()) {
            const WorkItem &Wk = Plan[Queue.front().first];
            Queue.pop_front();
            obs::counters::WorkerCrashed.add();
            ++Summary.Crashed;
            completeSlot(Wk.SlotIndex,
                         synthFailure(Wk, scanner::ScanErrorKind::Crashed,
                                      "worker launch failed", 0));
          }
        }
        break;
      }
      if (IdleDeaths >= 3 && !Queue.empty()) {
        // Workers keep dying before accepting work; fail one job per
        // strike-out so the run always makes forward progress.
        const WorkItem &Wk = Plan[Queue.front().first];
        Queue.pop_front();
        obs::counters::WorkerCrashed.add();
        ++Summary.Crashed;
        completeSlot(Wk.SlotIndex,
                     synthFailure(Wk, scanner::ScanErrorKind::Crashed,
                                  "worker died repeatedly before accepting "
                                  "work",
                                  0));
        IdleDeaths = 0;
      }
      // Depth-first: every worker gets a job before any gets a second.
      for (size_t Depth = 0; Depth < PipelineDepth; ++Depth)
        for (PoolWorker &W : Workers) {
          if (Queue.empty())
            break;
          if (W.Jobs.size() == Depth && acceptsWork(W))
            assignJob(W);
        }
      BusyCount = busyWorkers();
    }

    if (BusyCount == 0 && (Queue.empty() || PoolStopRequested))
      break;

    bool Activity = false;
    for (size_t I = 0; I < Workers.size();) {
      PoolWorker &W = Workers[I];
      if (!W.Reader.dead()) {
        W.Reader.pump(W.Proc.commFD());
        std::string Text;
        while (W.Reader.next(Text)) {
          handleFrame(W, Text);
          Activity = true;
        }
      }
      WaitStatus WS;
      if (W.Proc.poll(WS)) {
        PoolWorker Dead = std::move(W);
        Workers.erase(Workers.begin() + static_cast<long>(I));
        reapWorker(Dead, WS);
        Activity = true;
        continue;
      }
      if (!W.Jobs.empty() && !W.KillSent && KillAfter > 0 &&
          W.JobStarted.elapsedSeconds() > KillAfter) {
        W.Proc.kill(SIGKILL);
        W.KillSent = true;
      }
      ++I;
    }
    maybeWriteMetrics();
    if (!Activity) {
      std::vector<int> FDs;
      FDs.reserve(Workers.size());
      for (const PoolWorker &W : Workers)
        // A dead reader's fd may have pending bytes we will never read;
        // polling it would spin hot. The kill ladder owns that worker.
        FDs.push_back(W.Reader.dead() ? -1 : W.Proc.commFD());
      waitForWorkerActivity(FDs, 50);
    }
  }

  // Orderly drain: ask every surviving worker to exit, then reap them
  // all (a worker blocked in readFrame gets the Exit frame; a recycle
  // that raced the shutdown is still counted by reapWorker).
  for (PoolWorker &W : Workers) {
    WaitStatus WS;
    if (W.Proc.poll(WS))
      continue;
    WorkerRequest Req;
    Req.Kind = WorkerRequest::Op::Exit;
    writeFrame(W.Proc.commFD(), Req.encode());
  }
  for (PoolWorker &W : Workers)
    reapWorker(W, W.Proc.wait());

  flushCursor();
  Progress.finish();
  // Final snapshot regardless of cadence; the supervisor registries are
  // cumulative here (workers reset their own, the supervisor never does).
  if (!Batch.MetricsPath.empty())
    obs::writePrometheusFile(Batch.MetricsPath);
  if (Batch.EnableCounters)
    obs::setCountersEnabled(PrevCounters);
  Summary.WallSeconds = Wall.elapsedSeconds();
  return Summary;
}
