//===- driver/ProcessPool.cpp - Batch run, in-process or pooled ------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//

#include "driver/ProcessPool.h"

#include "driver/WorkerSet.h"
#include "obs/Counters.h"
#include "obs/Metrics.h"
#include "support/Timer.h"

#include <algorithm>
#include <deque>
#include <fstream>
#include <optional>
#include <set>
#include <utility>

using namespace gjs;
using namespace gjs::driver;

namespace {

/// One planned (non-skipped) package scan.
struct WorkItem {
  size_t InputIndex = 0;
  size_t SlotIndex = 0;
  /// Fault targeting this package, already rebased to Package=0 for the
  /// fresh Scanner that scans it.
  std::optional<scanner::FaultPlan> Fault;
  /// Sent again after its worker died with it in hand (RetryCrashed): the
  /// worker drops the fault and halves the wall-clock budget.
  bool Retried = false;
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

} // namespace

ProcessPool::ProcessPool(PoolOptions Options) : Options(std::move(Options)) {}

double ProcessPool::effectiveKillAfter(const PoolOptions &Options) {
  return defaultKillAfter(Options.KillAfterSeconds,
                          Options.Batch.Scan.Deadline.WallSeconds);
}

BatchSummary ProcessPool::run(const std::vector<BatchInput> &Inputs) {
  BatchSummary Summary;
  Timer Wall;
  const BatchOptions &Batch = Options.Batch;

  std::set<std::string> Done;
  if (Batch.Resume && !Batch.JournalPath.empty())
    Done = BatchDriver::journaledPackages(Batch.JournalPath);

  // Plan: input order, resume skips prefilled complete, scanned packages
  // numbered in scan order (what an index fault targets).
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
    for (const scanner::FaultPlan &F : Batch.Faults) {
      // A name-targeted fault (`...@pkg`) follows its package wherever it
      // lands in a shard; an index fault targets the scan sequence.
      bool Match = F.PackageName.empty() ? F.Package == Seq
                                         : F.PackageName == Inputs[I].Name;
      if (Match) {
        W.Fault = F;
        W.Fault->Package = 0; // Each scan gets a fresh Scanner.
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

  // Counters stay on for the run and are never reset: each scan measures
  // its own delta into its journal line, and the registry keeps the run's
  // totals for the metrics page (in-process the scans count into it; the
  // pool merges each journal line's delta).
  bool PrevCounters = obs::countersEnabled();
  obs::setCountersEnabled(true);

  ProgressMeter Progress(Plan.size(), Batch.ProgressEveryPackages,
                         Batch.ProgressEverySeconds, Batch.Quiet);

  // The metrics page, on its cadence or (Final) regardless of it: a
  // scraper, or the smoke test, always sees the completed run's totals.
  Timer MetricsClock;
  auto writeMetrics = [&](bool Final) {
    if (Batch.MetricsPath.empty() ||
        (!Final && MetricsClock.elapsedSeconds() < Batch.MetricsEverySeconds))
      return;
    obs::writePrometheusFile(Batch.MetricsPath);
    MetricsClock.reset();
  };

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
        Summary.tally(S.Outcome);
        if (Journal.is_open()) {
          // Healthy pool packages: the worker's bytes verbatim, so --jobs N
          // and in-process journals are byte-identical where both succeed.
          // The shared ledger frames every line it persists (workers always
          // emit bare lines).
          std::string Line = S.Outcome.RawJournalLine.empty()
                                 ? BatchDriver::journalLine(S.Outcome)
                                 : S.Outcome.RawJournalLine;
          if (Batch.FramedJournal)
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

  // One planned job's scan, wherever it runs. A retry drops the injected
  // fault and halves the wall-clock budget (the transient-failure model).
  auto scanPlanned = [&](const WorkItem &W, bool IsRetry,
                         obs::TraceRecorder *Trace) {
    scanner::ScanOptions Scan = Batch.Scan;
    Scan.Fault = IsRetry ? std::nullopt : W.Fault;
    if (IsRetry && Scan.Deadline.WallSeconds > 0)
      Scan.Deadline.WallSeconds /= 2;
    Scan.Trace = Trace;
    return scanPackageIsolated(Inputs[W.InputIndex], std::move(Scan));
  };

  // The end of every run: the rest of the complete prefix, the final
  // progress line and metrics page.
  auto finish = [&]() {
    flushCursor();
    Progress.finish();
    writeMetrics(true);
    obs::setCountersEnabled(PrevCounters);
    Summary.WallSeconds = Wall.elapsedSeconds();
    return std::move(Summary);
  };

  if (Options.Jobs == 0) {
    // In-process: the plan in order, each job scanned here; nothing is
    // forked and no signal handler is installed.
    for (const WorkItem &W : Plan) {
      if (Batch.OnTick && !Batch.OnTick())
        break;
      if (Batch.OnPackageStart)
        Batch.OnPackageStart(Inputs[W.InputIndex].Name);
      completeSlot(W.SlotIndex, scanPlanned(W, false, Options.Trace));
      writeMetrics(false);
    }
    return finish();
  }

  // Plan indices; retries and handed-back jobs go to the front so a
  // replacement worker runs them before draining the rest.
  std::deque<size_t> Queue;
  for (size_t I = 0; I < Plan.size(); ++I)
    Queue.push_back(I);

  // Consecutive worker deaths without a job in hand (e.g. dying before
  // the first frame): backstop against a fork/requeue livelock when the
  // environment is broken.
  unsigned IdleDeaths = 0;

  auto failQueued = [&](const char *Detail) {
    const WorkItem &Wk = Plan[Queue.front()];
    Queue.pop_front();
    obs::counters::WorkerCrashed.add();
    ++Summary.Crashed;
    completeSlot(Wk.SlotIndex,
                 JobFailure{scanner::ScanErrorKind::Crashed, Detail}.outcome(
                     Inputs[Wk.InputIndex].Name));
  };

  // The job source: a request names a plan entry the worker inherited at
  // fork.
  WorkerLoopOptions Loop;
  Loop.RecycleAfter = Options.RecycleAfter;
  Loop.RecycleRssMB = Options.RecycleRssMB;
  auto scanRequested = [&](const WorkerRequest &Req, obs::TraceRecorder *Trace,
                           BatchOutcome &Out) {
    if (!Req.HasPlanIndex || Req.PlanIndex >= Plan.size())
      return false;
    Out = scanPlanned(Plan[Req.PlanIndex], Req.IsRetry, Trace);
    return true;
  };

  const double KillAfter = effectiveKillAfter(Options);
  WorkerSetConfig Config;
  Config.WorkerMain = [&](int FD) {
    return runWorkerLoop(FD, Loop, scanRequested);
  };
  Config.RecycleAfter = Options.RecycleAfter;
  Config.MemLimitMB = Options.MemLimitMB;
  Config.LifetimeKillAfter = KillAfter;
  Config.Trace = Options.Trace;
  Config.JobName = [&](size_t PlanIdx) -> const std::string & {
    return Inputs[Plan[PlanIdx].InputIndex].Name;
  };
  Config.OnStart = Batch.OnPackageStart;
  Config.OnResult = [&](size_t PlanIdx, BatchOutcome &Out) {
    IdleDeaths = 0;
    completeSlot(Plan[PlanIdx].SlotIndex, std::move(Out));
  };
  Config.OnFailure = [&](size_t PlanIdx, const JobFailure &F) {
    if (!F.Death)
      IdleDeaths = 0; // The worker answered, if unreadably.
    WorkItem &Wk = Plan[PlanIdx];
    if (F.Kind == scanner::ScanErrorKind::KilledOom)
      ++Summary.OomKilled;
    else if (F.Kind == scanner::ScanErrorKind::KilledDeadline)
      ++Summary.DeadlineKilled;
    else
      ++Summary.Crashed;
    if (F.Death && Options.RetryCrashed && !Wk.Retried) {
      obs::counters::WorkerRetried.add();
      ++Summary.Retried;
      Wk.Retried = true;
      Queue.push_front(PlanIdx);
      return;
    }
    completeSlot(Wk.SlotIndex, F.outcome(Inputs[Wk.InputIndex].Name));
  };
  // A handed-back job keeps its retry flag and injected fault: no verdict,
  // no retry, no strike.
  Config.OnHandBack = [&](size_t PlanIdx) { Queue.push_front(PlanIdx); };
  Config.OnIdleDeath = [&](const WaitStatus &) { ++IdleDeaths; };
  WorkerSet Set(PipelineDepth, std::move(Config));

  auto assignJob = [&](Worker &W) {
    const size_t PlanIdx = Queue.front();
    WorkerRequest Req;
    Req.HasPlanIndex = true;
    Req.PlanIndex = PlanIdx;
    Req.IsRetry = Plan[PlanIdx].Retried;
    if (Set.assign(W, PlanIdx, KillAfter, Req))
      Queue.pop_front();
  };

  bool Stopping = false;
  while (true) {
    if ((Batch.OnTick && !Batch.OnTick()) || WorkerSet::stopRequested())
      Stopping = true;

    if (!Stopping) {
      // Keep just enough workers alive for the outstanding work. A
      // retiring worker has answered its last job and is exiting: it holds
      // no slot, so its replacement is forked now, not after the reap.
      size_t Want = std::min<size_t>(std::max(1u, Options.Jobs),
                                     Queue.size() + Set.busy());
      for (size_t Serving = Set.serving(); Serving < Want; ++Serving)
        if (!Set.spawn()) {
          // Nothing can run: fail the whole queue rather than spin.
          if (Set.workers().empty())
            while (!Queue.empty())
              failQueued("worker launch failed");
          break;
        }
      if (IdleDeaths >= 3 && !Queue.empty()) {
        // Workers keep dying before accepting work; fail one job per
        // strike-out so the run always makes forward progress.
        failQueued("worker died repeatedly before accepting work");
        IdleDeaths = 0;
      }
      // Depth-first: every worker gets a job before any gets a second.
      for (size_t Depth = 0; Depth < PipelineDepth; ++Depth)
        for (Worker &W : Set.workers()) {
          if (Queue.empty())
            break;
          if (W.Jobs.size() == Depth && Set.accepts(W))
            assignJob(W);
        }
    }

    if (Set.busy() == 0 && (Queue.empty() || Stopping))
      break;

    bool Activity = Set.tick();
    writeMetrics(false);
    if (!Activity)
      Set.wait(50);
  }

  // Orderly drain: every surviving worker is asked to exit and reaped.
  Set.drain();
  Summary.Recycled = Set.recycled();
  return finish();
}
