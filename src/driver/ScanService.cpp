//===- driver/ScanService.cpp - Long-lived graphjs scan daemon -------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//

#include "driver/ScanService.h"

#include "driver/BatchDriver.h"
#include "driver/WorkerSet.h"
#include "obs/Counters.h"
#include "obs/Histogram.h"
#include "obs/Metrics.h"
#include "support/JSON.h"
#include "support/Subprocess.h"
#include "support/Timer.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace gjs;
using namespace gjs::driver;

namespace {

/// The serve-mode job source: the package spec (name + file paths) rides
/// in on each request — jobs arrive from the network after the worker was
/// forked, so nothing can be inherited through the memory image. An
/// unreadable file degrades the package instead of failing the request.
BatchOutcome scanRequested(const WorkerRequest &Req, obs::TraceRecorder *Trace,
                           const scanner::ScanOptions &BaseScan) {
  BatchInput In;
  In.Name = Req.Name;
  std::vector<std::string> Unreadable;
  for (const std::string &Path : Req.Paths) {
    std::ifstream F(Path, std::ios::binary);
    if (!F) {
      Unreadable.push_back(Path);
      continue;
    }
    std::ostringstream SS;
    SS << F.rdbuf();
    In.Files.push_back({Path, SS.str()});
  }

  scanner::ScanOptions Scan = BaseScan;
  if (Req.DeadlineSeconds > 0)
    Scan.Deadline.WallSeconds = Req.DeadlineSeconds;
  if (!Req.FaultSpec.empty()) {
    scanner::FaultPlan Plan;
    if (scanner::FaultPlan::parse(Req.FaultSpec, Plan)) {
      Plan.Package = 0; // Each request is this worker's package 0.
      Scan.Fault = Plan;
    }
  }
  Scan.Trace = Trace;
  BatchOutcome Out = scanPackageIsolated(In, std::move(Scan));
  for (const std::string &Path : Unreadable)
    Out.Result.Errors.push_back({scanner::ScanPhase::Driver,
                                 scanner::ScanErrorKind::Internal,
                                 "unreadable file: " + Path, Path});
  if (!Unreadable.empty() && Out.Status == BatchStatus::Ok)
    Out.Status = BatchStatus::Degraded;
  return Out;
}

/// One admitted scan request waiting for (or on) a worker.
struct PendingScan {
  uint64_t Id = 0;
  /// Where the response goes; -1 once the client disconnected (the scan
  /// still runs and is journaled — the work was admitted).
  int ClientFD = -1;
  WorkerRequest Req;
  /// Admission clock: a request that outwaits its own deadline in the
  /// queue is rejected instead of scanned.
  Timer Waited;
};

std::string errorLine(const char *Err, const std::string &Detail = "") {
  json::Object O;
  O["ok"] = json::Value(false);
  O["error"] = json::Value(Err);
  if (!Detail.empty())
    O["detail"] = json::Value(Detail);
  return json::Value(std::move(O)).str();
}

/// Full EINTR-retried send of one line; false when the peer is gone (the
/// daemon drops the response: it must outlive every client).
bool sendLine(int FD, const std::string &Line) {
  if (FD < 0)
    return false;
  std::string Out = Line;
  Out.push_back('\n');
  size_t Off = 0;
  while (Off < Out.size()) {
    ssize_t N = ::send(FD, Out.data() + Off, Out.size() - Off, MSG_NOSIGNAL);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Off += static_cast<size_t>(N);
  }
  return true;
}

} // namespace

ScanService::ScanService(ServiceOptions Options) : Options(std::move(Options)) {}

int ScanService::run() {
  sockaddr_un Addr{};
  if (Options.SocketPath.empty() ||
      Options.SocketPath.size() >= sizeof(Addr.sun_path)) {
    std::fprintf(stderr, "serve: bad socket path\n");
    return 1;
  }
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Options.SocketPath.c_str(),
               sizeof(Addr.sun_path) - 1);

  int Listen = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Listen < 0) {
    std::fprintf(stderr, "serve: socket failed: %s\n", std::strerror(errno));
    return 1;
  }
  ::unlink(Options.SocketPath.c_str()); // Replace a stale socket file.
  if (::bind(Listen, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0 ||
      ::listen(Listen, 64) != 0) {
    std::fprintf(stderr, "serve: bind/listen on %s failed: %s\n",
                 Options.SocketPath.c_str(), std::strerror(errno));
    ::close(Listen);
    return 1;
  }
  ::fcntl(Listen, F_SETFL, ::fcntl(Listen, F_GETFL, 0) | O_NONBLOCK);

  bool PrevCounters = obs::setCountersEnabled(true);

  std::ofstream Journal;
  if (!Options.JournalPath.empty())
    // Append: a restarted daemon extends the history, never clobbers it.
    Journal.open(Options.JournalPath, std::ios::out | std::ios::app);

  auto log = [&](const std::string &Msg) {
    if (!Options.Quiet) {
      std::fprintf(stderr, "serve: %s\n", Msg.c_str());
      std::fflush(stderr);
    }
  };

  std::deque<PendingScan> Queue;
  // Scans on a worker, by request id (the job's Ref in the worker set).
  std::map<size_t, PendingScan> Running;
  std::map<int, std::string> Clients; // fd -> partial-line input buffer
  uint64_t NextId = 1;
  size_t Accepted = 0, Rejected = 0, Completed = 0;
  // Per-verdict completion splits (status/metrics surface): Completed is
  // their sum, kept separate because it predates the split.
  size_t CompletedOk = 0, CompletedDegraded = 0, CompletedFailed = 0;
  Timer Uptime;
  Timer MetricsClock;
  bool Draining = false, ShuttingDown = false;
  // Re-fork backoff: a worker dying before it ever accepts work must not
  // turn the daemon into a fork bomb. Reset by any completed job.
  unsigned ConsecutiveDeaths = 0;
  Timer LastDeath;

  auto finishScan = [&](size_t Id, const std::string &Line,
                        BatchStatus Status) {
    auto It = Running.find(Id);
    const int ClientFD = It->second.ClientFD;
    Running.erase(It);
    if (Journal.is_open()) {
      Journal << Line << '\n';
      Journal.flush();
    }
    ++Completed;
    switch (Status) {
    case BatchStatus::Ok:
      ++CompletedOk;
      break;
    case BatchStatus::Degraded:
      ++CompletedDegraded;
      break;
    case BatchStatus::Failed:
    case BatchStatus::Quarantined: // not issued by the service; counted as
                                   // a failure if a journal replays one.
      ++CompletedFailed;
      break;
    }
    // The line is a compact JSON object; splice it in as the result.
    sendLine(ClientFD, "{\"ok\":true,\"result\":" + Line + "}");
  };

  auto spawnAllowed = [&]() {
    if (ConsecutiveDeaths == 0)
      return true;
    double Delay = std::min(
        5.0, 0.1 * static_cast<double>(
                       1u << std::min(ConsecutiveDeaths - 1, 6u)));
    return LastDeath.elapsedSeconds() >= Delay;
  };

  // Workers record their own scan telemetry; each response carries the
  // job's journal line (with its counter delta) and histogram delta, so
  // the daemon's registries (and its `metrics` op) cover work done in
  // worker processes, not just supervisor bookkeeping.
  WorkerLoopOptions Loop;
  Loop.RecycleAfter = Options.RecycleAfter;
  Loop.RecycleRssMB = Options.RecycleRssMB;
  WorkerSetConfig Config;
  Config.WorkerMain = [&](int FD) {
    // Shed every inherited supervisor fd (listening socket, client
    // connections, journal): a worker holding the listen socket would keep
    // the address alive past daemon shutdown, and one holding a client fd
    // would mask that client's EOF.
    for (int I = 3; I < 1024; ++I)
      if (I != FD)
        ::close(I);
    return runWorkerLoop(
        FD, Loop,
        [&](const WorkerRequest &Req, obs::TraceRecorder *Trace,
            BatchOutcome &Out) {
          Out = scanRequested(Req, Trace, Options.Scan);
          return true;
        });
  };
  Config.RecycleAfter = Options.RecycleAfter;
  Config.MemLimitMB = Options.MemLimitMB;
  // Only an explicit kill-after bounds every job of a worker's life, and
  // so sizes the RLIMIT_CPU backstop: a request may raise its own deadline
  // (and with it the derived kill) above the base.
  Config.LifetimeKillAfter = Options.KillAfterSeconds;
  Config.OnResult = [&](size_t Id, BatchOutcome &Out) {
    ConsecutiveDeaths = 0;
    finishScan(Id, Out.RawJournalLine, Out.Status);
  };
  Config.OnFailure = [&](size_t Id, const JobFailure &F) {
    const PendingScan &Job = Running.at(Id);
    if (F.Death)
      log("worker " + std::to_string(F.Pid) + " died mid-job (" +
          F.Death->str() + "), job " + Job.Req.Name + " failed");
    else
      ConsecutiveDeaths = 0;
    finishScan(Id, F.outcome(Job.Req.Name).RawJournalLine,
               BatchStatus::Failed);
  };
  Config.OnIdleDeath = [&](const WaitStatus &WS) {
    ++ConsecutiveDeaths;
    LastDeath = Timer();
    log("idle worker died (" + WS.str() + "), backoff re-fork");
  };
  // One job per worker: a queued request waits for the first free worker
  // instead of behind one slow scan (docs/SERVICE.md).
  WorkerSet Set(/*Depth=*/1, std::move(Config));

  auto spawnWorker = [&]() -> bool {
    std::string Err;
    if (Set.spawn(&Err))
      return true;
    log("worker fork failed: " + Err);
    ++ConsecutiveDeaths;
    LastDeath = Timer();
    return false;
  };

  auto closeClient = [&](int FD) {
    // Scrub every reference before the fd number can be reused: queued
    // and in-flight jobs for this client keep running, answer nobody.
    for (PendingScan &P : Queue)
      if (P.ClientFD == FD)
        P.ClientFD = -1;
    for (auto &[Id, P] : Running)
      if (P.ClientFD == FD)
        P.ClientFD = -1;
    ::close(FD);
    Clients.erase(FD);
  };

  auto statusLine = [&]() {
    size_t BusyCount = Set.busy();
    size_t Workers = Set.workers().size();
    json::Object O;
    O["ok"] = json::Value(true);
    O["workers"] = json::Value(static_cast<unsigned long>(Workers));
    O["idle"] = json::Value(static_cast<unsigned long>(Workers - BusyCount));
    O["inflight"] = json::Value(static_cast<unsigned long>(BusyCount));
    O["queued"] = json::Value(static_cast<unsigned long>(Queue.size()));
    O["accepted"] = json::Value(static_cast<unsigned long>(Accepted));
    O["rejected"] = json::Value(static_cast<unsigned long>(Rejected));
    O["completed"] = json::Value(static_cast<unsigned long>(Completed));
    O["completed_ok"] = json::Value(static_cast<unsigned long>(CompletedOk));
    O["completed_degraded"] =
        json::Value(static_cast<unsigned long>(CompletedDegraded));
    O["completed_failed"] =
        json::Value(static_cast<unsigned long>(CompletedFailed));
    O["recycled"] = json::Value(static_cast<unsigned long>(Set.recycled()));
    // Total workers ever forked, including replacements after crashes and
    // recycles — "workers" only says how many are alive now.
    O["generations"] = json::Value(static_cast<unsigned long>(Set.spawned()));
    O["uptime_s"] = json::Value(Uptime.elapsedSeconds());
    O["draining"] = json::Value(Draining);
    return json::Value(std::move(O)).str();
  };

  auto gauges = [&]() {
    return obs::GaugeList{
        {"serve.uptime_s", Uptime.elapsedSeconds()},
        {"serve.queue_depth", static_cast<double>(Queue.size())},
        {"serve.workers", static_cast<double>(Set.workers().size())},
        // "_now" keeps the gauge distinct from the cumulative
        // serve.inflight counter — one Prometheus name, one type.
        {"serve.inflight_now", static_cast<double>(Set.busy())},
    };
  };

  // The `metrics` NDJSON op: counters, per-histogram percentiles, and the
  // same gauges the Prometheus file carries — one line, machine-readable,
  // no scraper required.
  auto metricsLine = [&]() {
    json::Object O;
    O["ok"] = json::Value(true);
    for (const auto &[Name, Value] : gauges())
      O[Name] = json::Value(Value);
    json::Object C;
    for (const auto &[Name, Value] : obs::snapshotCounters())
      if (Value)
        C[Name] = json::Value(static_cast<unsigned long>(Value));
    O["counters"] = json::Value(std::move(C));
    json::Object H;
    for (const auto &[Name, Snap] : obs::snapshotHistograms()) {
      if (Snap.empty())
        continue;
      json::Object S;
      S["unit"] = json::Value(Snap.Unit);
      S["count"] = json::Value(static_cast<unsigned long>(Snap.count()));
      S["sum"] = json::Value(static_cast<double>(Snap.Sum));
      S["mean"] = json::Value(Snap.mean());
      S["p50"] = json::Value(Snap.percentile(0.5));
      S["p90"] = json::Value(Snap.percentile(0.9));
      S["p95"] = json::Value(Snap.percentile(0.95));
      S["p99"] = json::Value(Snap.percentile(0.99));
      H[Name] = json::Value(std::move(S));
    }
    O["histograms"] = json::Value(std::move(H));
    return json::Value(std::move(O)).str();
  };

  auto handleLine = [&](int FD, const std::string &Line) {
    json::Value V;
    if (!json::parse(Line, V) || !V.isObject()) {
      sendLine(FD, errorLine("bad-request", "not a JSON object"));
      return;
    }
    const json::Object &O = V.asObject();
    auto It = O.find("op");
    std::string Op =
        It != O.end() && It->second.isString() ? It->second.asString() : "";
    if (Op == "status") {
      sendLine(FD, statusLine());
      return;
    }
    if (Op == "metrics") {
      sendLine(FD, metricsLine());
      return;
    }
    if (Op == "drain") {
      Draining = true;
      sendLine(FD, "{\"draining\":true,\"ok\":true}");
      log("drain requested");
      return;
    }
    if (Op == "shutdown") {
      Draining = ShuttingDown = true;
      sendLine(FD, "{\"ok\":true,\"shutdown\":true}");
      log("shutdown requested");
      return;
    }
    if (Op != "scan") {
      sendLine(FD, errorLine("bad-request", "unknown op"));
      return;
    }
    WorkerRequest Req;
    if (!WorkerRequest::decode(Line, Req) || Req.Name.empty() ||
        Req.Paths.empty()) {
      sendLine(FD, errorLine("bad-request", "scan needs name and files"));
      return;
    }
    if (Draining) {
      obs::counters::ServeRejected.add();
      ++Rejected;
      sendLine(FD, errorLine("draining"));
      return;
    }
    if (Queue.size() >= Options.QueueMax) {
      obs::counters::ServeRejected.add();
      ++Rejected;
      sendLine(FD, errorLine("overloaded",
                             std::to_string(Queue.size()) +
                                 " requests already queued"));
      return;
    }
    obs::counters::ServeAccepted.add();
    ++Accepted;
    PendingScan P;
    P.Id = NextId++;
    P.ClientFD = FD;
    P.Req = std::move(Req);
    Queue.push_back(std::move(P));
  };

  log("listening on " + Options.SocketPath + ", " +
      std::to_string(Options.Jobs) + " workers");

  while (true) {
    if (WorkerSet::stopRequested() && !ShuttingDown) {
      Draining = ShuttingDown = true;
      log("signal received, draining");
    }

    // Expire queued requests that outwaited their own deadline.
    for (auto It = Queue.begin(); It != Queue.end();) {
      if (It->Req.DeadlineSeconds > 0 &&
          It->Waited.elapsedSeconds() > It->Req.DeadlineSeconds) {
        obs::counters::ServeRejected.add();
        ++Rejected;
        sendLine(It->ClientFD,
                 errorLine("deadline", "request expired in queue"));
        It = Queue.erase(It);
      } else {
        ++It;
      }
    }

    // Maintain the warm pool (shrinking to the remaining work once
    // shutting down), under the re-fork backoff. A retiring worker has
    // answered its last job and holds no slot: its replacement is forked
    // now, not after the reap.
    size_t Want = std::max<size_t>(1, Options.Jobs);
    if (ShuttingDown)
      Want = std::min(Want, Queue.size() + Set.busy());
    for (size_t Serving = Set.serving();
         Serving < Want && spawnAllowed() && spawnWorker(); ++Serving) {
    }

    for (Worker &W : Set.workers()) {
      if (Queue.empty())
        break;
      if (!Set.accepts(W))
        continue;
      PendingScan &Job = Queue.front();
      WorkerRequest Req = Job.Req;
      // Each request's kill follows its own deadline. A worker that died
      // between jobs leaves the request at the head of the line.
      double Deadline = Req.DeadlineSeconds > 0
                            ? Req.DeadlineSeconds
                            : Options.Scan.Deadline.WallSeconds;
      if (!Set.assign(W, Job.Id,
                      defaultKillAfter(Options.KillAfterSeconds, Deadline),
                      Req))
        continue;
      obs::counters::ServeInflight.add();
      obs::hists::QueueWait.recordSeconds(Job.Waited.elapsedSeconds());
      Running.emplace(Job.Id, std::move(Job));
      Queue.pop_front();
    }

    if (ShuttingDown && Queue.empty() && Set.busy() == 0)
      break;

    // Sleep until something is readable (or 50ms, for the timers).
    std::vector<int> FDs{Listen};
    for (const auto &[FD, Buf] : Clients)
      FDs.push_back(FD);
    if (!Set.wait(50, FDs))
      break; // poll() itself failing is unrecoverable.

    // Accept new connections (kept open across requests; reads below are
    // non-blocking).
    for (;;) {
      int C = ::accept(Listen, nullptr, nullptr);
      if (C < 0)
        break;
      Clients.emplace(C, std::string());
    }

    // Drain client input; a complete line is one request.
    std::vector<int> ToClose;
    for (auto &[FD, Buf] : Clients) {
      for (;;) {
        char Tmp[4096];
        ssize_t N = ::recv(FD, Tmp, sizeof(Tmp), MSG_DONTWAIT);
        if (N < 0 && errno == EINTR)
          continue;
        if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
          break;
        if (N <= 0) {
          ToClose.push_back(FD);
          break;
        }
        Buf.append(Tmp, static_cast<size_t>(N));
        if (Buf.size() > (1u << 20)) { // A request line is small; cap it.
          ToClose.push_back(FD);
          break;
        }
      }
      size_t Pos;
      while ((Pos = Buf.find('\n')) != std::string::npos) {
        std::string Line = Buf.substr(0, Pos);
        Buf.erase(0, Pos + 1);
        if (!Line.empty())
          handleLine(FD, Line);
      }
    }
    for (int FD : ToClose)
      closeClient(FD);

    // Workers: frames, deaths, the kill ladder; then idle heartbeats.
    Set.tick();
    for (Worker &W : Set.workers()) {
      if (Options.HeartbeatSeconds <= 0 || !W.Jobs.empty() || W.Retiring)
        continue;
      if (W.PingSent &&
          W.PingStarted.elapsedSeconds() > Options.HeartbeatSeconds) {
        // Wedged while idle: no pong within a whole heartbeat period.
        W.Proc.kill(SIGKILL);
      } else if (!W.PingSent &&
                 W.IdleSince.elapsedSeconds() > Options.HeartbeatSeconds) {
        WorkerRequest Ping;
        Ping.Kind = WorkerRequest::Op::Ping;
        if (writeFrame(W.Proc.commFD(), Ping.encode())) {
          W.PingSent = true;
          W.PingStarted = Timer();
        } else {
          W.Proc.kill(SIGKILL);
        }
      }
    }

    // Periodic Prometheus snapshot, driven off the same 50ms poll tick as
    // the other timers.
    if (!Options.MetricsPath.empty() &&
        MetricsClock.elapsedSeconds() >= Options.MetricsEverySeconds) {
      obs::writePrometheusFile(Options.MetricsPath, gauges());
      MetricsClock.reset();
    }
  }

  // Drain the workers: ask politely, then reap.
  Set.drain();

  for (auto &[FD, Buf] : Clients)
    ::close(FD);
  Clients.clear();
  ::close(Listen);
  ::unlink(Options.SocketPath.c_str());
  if (Journal.is_open())
    Journal.flush();
  // Final snapshot at drain, regardless of cadence.
  if (!Options.MetricsPath.empty())
    obs::writePrometheusFile(Options.MetricsPath, gauges());
  obs::setCountersEnabled(PrevCounters);
  log("drained, exiting (" + std::to_string(Completed) + " scans, " +
      std::to_string(Rejected) + " rejected)");
  return 0;
}

bool ScanService::request(const std::string &SocketPath,
                          const std::string &RequestLine,
                          std::string &Response, std::string *Error,
                          double TimeoutSeconds) {
  sockaddr_un Addr{};
  if (SocketPath.empty() || SocketPath.size() >= sizeof(Addr.sun_path)) {
    if (Error)
      *Error = "bad socket path";
    return false;
  }
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, SocketPath.c_str(), sizeof(Addr.sun_path) - 1);

  Timer T;
  int FD = -1;
  // Retry the connect while the daemon is still coming up: the caller's
  // timeout covers startup, not just the scan itself.
  for (;;) {
    FD = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (FD < 0) {
      if (Error)
        *Error = std::string("socket failed: ") + std::strerror(errno);
      return false;
    }
    if (::connect(FD, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) == 0)
      break;
    ::close(FD);
    FD = -1;
    if (T.elapsedSeconds() > TimeoutSeconds) {
      if (Error)
        *Error = "connect timed out";
      return false;
    }
    ::usleep(50000);
  }

  if (!sendLine(FD, RequestLine)) {
    if (Error)
      *Error = std::string("send failed: ") + std::strerror(errno);
    ::close(FD);
    return false;
  }

  Response.clear();
  char Buf[4096];
  while (T.elapsedSeconds() <= TimeoutSeconds) {
    pollfd P{FD, POLLIN, 0};
    int R = ::poll(&P, 1, 100);
    if (R < 0 && errno != EINTR)
      break;
    if (R <= 0)
      continue;
    ssize_t N = ::recv(FD, Buf, sizeof(Buf), 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break; // Daemon closed the connection without a full line.
    Response.append(Buf, static_cast<size_t>(N));
    size_t Pos = Response.find('\n');
    if (Pos != std::string::npos) {
      Response.resize(Pos);
      ::close(FD);
      return true;
    }
  }
  ::close(FD);
  if (Error)
    *Error = "no response before timeout";
  return false;
}

bool ScanService::requestWithRetry(const std::string &SocketPath,
                                   const std::string &RequestLine,
                                   std::string &Response, std::string *Error,
                                   double RetryBudgetMs, size_t *Retries,
                                   double TimeoutSeconds) {
  Timer Budget;
  size_t Attempt = 0;
  // Deterministic-enough jitter: a xorshift stream seeded per call so two
  // clients rejected in the same admission burst don't re-collide on every
  // subsequent retry.
  uint64_t Rng = static_cast<uint64_t>(::getpid()) * 2654435761u + 1;
  for (;;) {
    bool Ok = request(SocketPath, RequestLine, Response, Error, TimeoutSeconds);
    // Only admission rejections are retryable: transport errors and every
    // other error class (bad request, deadline, shutdown) are final.
    if (!Ok || Response.find("\"error\":\"overloaded\"") == std::string::npos) {
      if (Retries)
        *Retries = Attempt;
      return Ok;
    }
    double SpentMs = Budget.elapsedSeconds() * 1000.0;
    if (SpentMs >= RetryBudgetMs) {
      if (Retries)
        *Retries = Attempt;
      return true; // Budget exhausted: surface the overloaded response.
    }
    Rng ^= Rng << 13;
    Rng ^= Rng >> 7;
    Rng ^= Rng << 17;
    double BaseMs = std::min(25.0 * static_cast<double>(1u << std::min<size_t>(Attempt, 5)), 1000.0);
    double SleepMs = BaseMs / 2 + static_cast<double>(Rng % 1000) / 1000.0 * BaseMs / 2;
    SleepMs = std::min(SleepMs, RetryBudgetMs - SpentMs);
    if (SleepMs > 0)
      ::usleep(static_cast<useconds_t>(SleepMs * 1000.0));
    ++Attempt;
    obs::counters::ServeClientRetries.merge(1);
  }
}
