//===- driver/WorkerSet.cpp - Supervisor side of resident workers ----------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//

#include "driver/WorkerSet.h"

#include "obs/Counters.h"
#include "obs/Histogram.h"

#include <algorithm>
#include <cerrno>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

using namespace gjs;
using namespace gjs::driver;

namespace {

/// SIGINT/SIGTERM drain flag: the caller stops taking work and waits for
/// the jobs in flight.
volatile std::sig_atomic_t StopRequested = 0;

void stopHandler(int) { StopRequested = 1; }

/// The verdict of a worker that died with a job in hand, down the kill
/// ladder: OOM exit code, supervisor kill (\p KillSent), RLIMIT_CPU, an
/// unexplained SIGKILL (the kernel OOM killer), any other signal, then
/// "exited without a result". Bumps the matching worker.* counter.
JobFailure attributeWorkerDeath(const WaitStatus &WS, bool KillSent) {
  using scanner::ScanErrorKind;
  if (WS.exitedWith(WorkerOomExit)) {
    obs::counters::WorkerOomKilled.add();
    return {ScanErrorKind::KilledOom,
            "worker allocation failed under memory cap (" + WS.str() + ")"};
  }
  if (KillSent) {
    obs::counters::WorkerDeadlineKilled.add();
    return {ScanErrorKind::KilledDeadline,
            "supervisor killed worker after hard deadline (" + WS.str() + ")"};
  }
  if (WS.signaled() && WS.Signal == SIGXCPU) {
    obs::counters::WorkerDeadlineKilled.add();
    return {ScanErrorKind::KilledDeadline,
            "worker hit RLIMIT_CPU (" + WS.str() + ")"};
  }
  if (WS.signaled() && WS.Signal == SIGKILL) {
    // We did not send it: the kernel OOM killer is the usual suspect.
    obs::counters::WorkerOomKilled.add();
    return {ScanErrorKind::KilledOom,
            "worker got an unexplained SIGKILL (kernel OOM killer?)"};
  }
  obs::counters::WorkerCrashed.add();
  if (WS.signaled())
    return {ScanErrorKind::Crashed, "worker died on " + WS.str()};
  return {ScanErrorKind::Crashed,
          "worker produced no result (" + WS.str() + ")"};
}

} // namespace

double driver::defaultKillAfter(double ExplicitSeconds,
                                double DeadlineSeconds) {
  if (ExplicitSeconds > 0)
    return ExplicitSeconds;
  return DeadlineSeconds > 0 ? 2 * DeadlineSeconds + 1.0 : 0;
}

BatchOutcome JobFailure::outcome(const std::string &Package) const {
  BatchOutcome Out;
  Out.Package = Package;
  Out.Status = BatchStatus::Failed;
  Out.Seconds = Seconds;
  Out.Result.Errors.push_back({scanner::ScanPhase::Driver, Kind, Detail, ""});
  Out.RawJournalLine = BatchDriver::journalLine(Out);
  return Out;
}

WorkerSet::WorkerSet(size_t Depth, WorkerSetConfig Cfg)
    : Depth(Depth), Config(std::move(Cfg)) {
  Limits.MemLimitMB = Config.MemLimitMB;
  // RLIMIT_CPU backs the kill ladder up should the supervisor itself die,
  // and counts a worker's whole lifetime: only a recycle quota bounds that,
  // and the backstop scales with it.
  if (Config.LifetimeKillAfter > 0 && Config.RecycleAfter > 0)
    Limits.CpuSeconds = static_cast<unsigned>(Config.LifetimeKillAfter *
                                              Config.RecycleAfter) +
                        2;
  // The supervisor claims its own pid lane and every job request carries
  // the shared trace epoch, so worker spans come back on one timeline.
  if (Config.Trace) {
    TraceEpochUs = Config.Trace->epochUs();
    Config.Trace->setDefaultPid(::getpid());
    Config.Trace->labelPid(::getpid(), "supervisor");
  }
  // Restored by the destructor: tests run supervisors back to back.
  StopRequested = 0;
  struct sigaction SA {};
  SA.sa_handler = stopHandler;
  sigemptyset(&SA.sa_mask);
  ::sigaction(SIGINT, &SA, &OldInt);
  ::sigaction(SIGTERM, &SA, &OldTerm);
}

WorkerSet::~WorkerSet() {
  ::sigaction(SIGINT, &OldInt, nullptr);
  ::sigaction(SIGTERM, &OldTerm, nullptr);
}

bool WorkerSet::stopRequested() { return StopRequested != 0; }

bool WorkerSet::spawn(std::string *Error) {
  Subprocess P;
  if (!Subprocess::forkWorker(Config.WorkerMain, P, Error, Limits))
    return false;
  // The supervisor multiplexes many workers; reads must never block.
  ::fcntl(P.commFD(), F_SETFL, ::fcntl(P.commFD(), F_GETFL, 0) | O_NONBLOCK);
  obs::counters::WorkerSpawned.add();
  ++Spawned;
  Workers.emplace_back();
  Workers.back().Proc = std::move(P);
  return true;
}

bool WorkerSet::accepts(const Worker &W) const {
  return W.Jobs.size() < Depth && !W.Retiring && !W.KillSent &&
         !W.Reader.dead() &&
         (Config.RecycleAfter == 0 || W.Sent < Config.RecycleAfter);
}

size_t WorkerSet::busy() const {
  return static_cast<size_t>(
      std::count_if(Workers.begin(), Workers.end(),
                    [](const Worker &W) { return !W.Jobs.empty(); }));
}

size_t WorkerSet::serving() const {
  return static_cast<size_t>(
      std::count_if(Workers.begin(), Workers.end(),
                    [](const Worker &W) { return !W.Retiring; }));
}

// A job becomes the head when it is assigned to an empty FIFO or when the
// job ahead of it settles: the worker runs its jobs in order.
void WorkerSet::startHead(Worker &W, size_t Ref) {
  if (Config.OnStart)
    Config.OnStart(Config.JobName(Ref));
  if (Config.Trace)
    W.TraceStartUs = Config.Trace->nowUs();
  W.JobStarted = Timer();
  W.KillSent = false;
}

// Last first, so a caller pushing each to the front of its queue keeps
// their original order.
void WorkerSet::handBack(Worker &W, size_t Keep) {
  while (W.Jobs.size() > Keep) {
    obs::counters::WorkerRequeued.add();
    Config.OnHandBack(W.Jobs.back().Ref);
    W.Jobs.pop_back();
  }
}

bool WorkerSet::assign(Worker &W, size_t Ref, double KillAfter,
                       WorkerRequest &Req) {
  const bool Head = W.Jobs.empty();
  // Stamped before the frame goes out: the worker may pick the job up
  // before the parent returns from write().
  if (Head)
    startHead(W, Ref);
  Req.Kind = WorkerRequest::Op::Scan;
  Req.JobId = NextJobId++;
  Req.WantTrace = Config.Trace != nullptr;
  Req.TraceEpochUs = TraceEpochUs;
  if (!writeFrame(W.Proc.commFD(), Req.encode())) {
    // The worker died. An idle worker is made certainly dead for the reap;
    // a busy one keeps its wait status for the head's verdict and just
    // takes no more.
    if (Head)
      W.Proc.kill(SIGKILL);
    else
      W.Retiring = true;
    return false;
  }
  W.Jobs.push_back({Req.JobId, Ref, KillAfter});
  ++W.Sent;
  return true;
}

void WorkerSet::handleFrame(Worker &W, const std::string &Text) {
  // The `result` span: everything from here to the verdict.
  const double ResultStartUs = Config.Trace ? Config.Trace->nowUs() : 0;
  WorkerResponse Resp;
  if (!WorkerResponse::decode(Text, Resp))
    return; // Corrupt frame; the reap attributes whatever follows.
  if (Resp.Pong) {
    W.PingSent = false;
    W.IdleSince = Timer();
    return;
  }
  if (W.Jobs.empty() || Resp.JobId != W.Jobs.front().Id)
    return; // Stale or duplicate response: first verdict wins.
  const WorkerJob Job = W.Jobs.front();
  W.Jobs.pop_front();
  // A response that raced the kill ladder still counts — the job DID
  // complete — but the worker is dying; treat the exit as planned. A
  // recycling worker exits without reading another request. Either way the
  // jobs queued behind never start there.
  if (Resp.Recycle || W.KillSent) {
    W.Retiring = true;
    handBack(W, 0);
  }
  // The worker's telemetry: histogram buckets here, its span tree on its
  // own pid lane; counters ride the journal line and merge with it below.
  if (!Resp.HistDelta.empty())
    obs::mergeHistograms(Resp.HistDelta);
  const int Pid = W.Proc.pid();
  double JobStartUs = W.TraceStartUs;
  if (Config.Trace && !Resp.Spans.empty()) {
    // A queued job starts in the worker as soon as the one ahead is
    // answered, a little before the supervisor reads that answer: the
    // `job:` span opens at the worker's first span if that is earlier, so
    // the worker's spans nest inside it.
    for (const obs::SpanRecord &Span : Resp.Spans)
      JobStartUs = std::min(JobStartUs, Span.StartUs);
    Config.Trace->labelPid(Pid, "worker " + std::to_string(Pid));
    Config.Trace->addForeignSpans(std::move(Resp.Spans), Pid);
  }
  BatchOutcome Out;
  const bool Parsed = BatchDriver::parseJournalLine(Resp.Line, Out);
  if (Parsed) {
    Out.RawJournalLine = std::move(Resp.Line);
    // The package's counter delta, measured by the worker's scanner.
    if (!Out.Result.Counters.empty())
      obs::mergeCounters(Out.Result.Counters);
  }
  const double Seconds = W.JobStarted.elapsedSeconds();
  obs::hists::WorkerJob.recordSeconds(Seconds);
  if (Config.Trace) {
    const double NowUs = Config.Trace->nowUs();
    size_t JobSpan = Config.Trace->addCompletedSpan(
        "job:" + Config.JobName(Job.Ref), JobStartUs, NowUs - JobStartUs);
    Config.Trace->addCompletedSpan("result", ResultStartUs,
                                   NowUs - ResultStartUs, 0, JobSpan);
  }
  W.IdleSince = Timer();
  if (Parsed) {
    Config.OnResult(Job.Ref, Out);
  } else {
    obs::counters::WorkerCrashed.add();
    Config.OnFailure(Job.Ref, {scanner::ScanErrorKind::Crashed,
                               "worker sent an unparseable result", Seconds,
                               nullptr, Pid});
  }
  if (!W.Jobs.empty())
    startHead(W, W.Jobs.front().Ref);
}

bool WorkerSet::readFrames(Worker &W) {
  W.Reader.pump(W.Proc.commFD());
  bool Any = false;
  std::string Text;
  while (W.Reader.next(Text)) {
    handleFrame(W, Text);
    Any = true;
  }
  return Any;
}

void WorkerSet::reap(Worker &W, const WaitStatus &WS) {
  // Drain frames the worker flushed before dying: a completed response
  // beats a racing kill or crash (the scan finished; use its verdict).
  readFrames(W);

  if (WS.exitedWith(WorkerRecycleExit)) {
    obs::counters::WorkerRecycled.add();
    ++Recycled;
  }
  if (W.Jobs.empty()) {
    // No job in hand: nothing to attribute, but an unplanned death still
    // tells the caller the environment may be broken.
    bool Planned =
        WS.exitedWith(0) || WS.exitedWith(WorkerRecycleExit) || W.Retiring;
    if (!Planned && Config.OnIdleDeath)
      Config.OnIdleDeath(WS);
    return;
  }
  // Head in hand and no response: the wait status is the head's verdict.
  // The jobs behind it go back first, so a caller's retry lands ahead of
  // them.
  handBack(W, 1);
  const WorkerJob Head = W.Jobs.front();
  W.Jobs.clear();
  JobFailure F = attributeWorkerDeath(WS, W.KillSent);
  F.Seconds = W.JobStarted.elapsedSeconds();
  F.Death = &WS;
  F.Pid = W.Proc.pid();
  Config.OnFailure(Head.Ref, F);
}

bool WorkerSet::tick() {
  bool Activity = false;
  for (size_t I = 0; I < Workers.size();) {
    Worker &W = Workers[I];
    if (!W.Reader.dead() && readFrames(W))
      Activity = true;
    WaitStatus WS;
    if (W.Proc.poll(WS)) {
      Worker Dead = std::move(W);
      Workers.erase(Workers.begin() + static_cast<long>(I));
      reap(Dead, WS);
      Activity = true;
      continue;
    }
    if (!W.Jobs.empty() && !W.KillSent && W.Jobs.front().KillAfter > 0 &&
        W.JobStarted.elapsedSeconds() > W.Jobs.front().KillAfter) {
      W.Proc.kill(SIGKILL);
      W.KillSent = true;
    }
    ++I;
  }
  return Activity;
}

// The supervisor spends no CPU while the workers scan and wakes the
// instant a result is ready.
bool WorkerSet::wait(int TimeoutMs, const std::vector<int> &ExtraFDs) {
  PollFDs.clear();
  for (int FD : ExtraFDs)
    PollFDs.push_back({FD, POLLIN, 0});
  for (const Worker &W : Workers)
    // A dead reader's fd may have pending bytes we will never read;
    // polling it would spin hot. The kill ladder owns that worker.
    if (!W.Reader.dead())
      PollFDs.push_back({W.Proc.commFD(), POLLIN, 0});
  if (PollFDs.empty()) {
    ::usleep(static_cast<unsigned>(TimeoutMs) * 1000);
    return true;
  }
  int R = ::poll(PollFDs.data(), static_cast<nfds_t>(PollFDs.size()),
                 TimeoutMs);
  return R >= 0 || errno == EINTR || errno == EAGAIN; // EINTR: a signal.
}

void WorkerSet::drain() {
  // A worker blocked in readFrame gets the Exit frame; a recycle that raced
  // the shutdown is still counted by the reap.
  for (Worker &W : Workers) {
    WaitStatus WS;
    if (W.Proc.poll(WS))
      continue;
    WorkerRequest Req;
    Req.Kind = WorkerRequest::Op::Exit;
    writeFrame(W.Proc.commFD(), Req.encode());
  }
  for (Worker &W : Workers)
    reap(W, W.Proc.wait());
  Workers.clear();
}
