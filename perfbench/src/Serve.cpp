//===- perfbench/src/Serve.cpp - serve_open daemon and load generator ------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//

#include "Serve.h"

#include "driver/BatchDriver.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstring>
#include <unordered_map>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace gjs;
using namespace gjs::perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

int connectTo(const std::string &Path) {
  sockaddr_un Addr{};
  if (Path.size() >= sizeof(Addr.sun_path))
    return -1;
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  int FD = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (FD < 0)
    return -1;
  if (::connect(FD, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(FD);
    return -1;
  }
  ::fcntl(FD, F_SETFL, ::fcntl(FD, F_GETFL, 0) | O_NONBLOCK);
  return FD;
}

bool sendAll(int FD, const std::string &Line) {
  if (FD < 0)
    return false;
  size_t Off = 0;
  while (Off < Line.size()) {
    ssize_t N = ::send(FD, Line.data() + Off, Line.size() - Off, MSG_NOSIGNAL);
    if (N > 0) {
      Off += static_cast<size_t>(N);
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd P{FD, POLLOUT, 0};
      ::poll(&P, 1, 100);
      continue;
    }
    return false;
  }
  return true;
}

} // namespace

bool ServeDaemon::start(const driver::ServiceOptions &Options,
                        std::string &Error) {
  stop();
  Socket = Options.SocketPath;
  if (!Subprocess::forkChild(
          [Options] { return driver::ScanService(Options).run(); }, Proc,
          &Error))
    return false;
  // Ready means answering `status` with every warm worker forked.
  for (int Try = 0; Try < 600; ++Try) {
    json::Object S = status();
    auto It = S.find("workers");
    if (It != S.end() && It->second.isNumber() &&
        It->second.asNumber() >= Options.Jobs)
      return true;
    WaitStatus WS;
    if (Proc.poll(WS)) {
      Error = "daemon exited during start-up (" + WS.str() + ")";
      return false;
    }
    ::usleep(10000);
  }
  Error = "daemon did not report its workers within 6s";
  return false;
}

json::Object ServeDaemon::status() {
  std::string Resp;
  json::Value V;
  if (!driver::ScanService::request(Socket, "{\"op\":\"status\"}", Resp,
                                    nullptr, 2.0) ||
      !json::parse(Resp, V) || !V.isObject())
    return {};
  return V.asObject();
}

void ServeDaemon::stop() {
  if (!Proc.valid())
    return;
  WaitStatus WS;
  if (!Proc.poll(WS)) {
    std::string Resp;
    driver::ScanService::request(Socket, "{\"op\":\"shutdown\"}", Resp,
                                 nullptr, 2.0);
    for (int Try = 0; Try < 500 && !Proc.poll(WS); ++Try)
      ::usleep(10000);
    if (!Proc.poll(WS)) {
      // A wedged daemon: take it down; its workers see the hang-up and exit.
      Proc.kill(SIGKILL);
      Proc.wait();
    }
  }
  Proc = Subprocess();
}

double PhaseResult::p99WithFailuresMs() const {
  std::vector<double> V = LatencyMs;
  V.resize(Sent, 1e12); // a failed request misses any limit
  return percentile(std::move(V), 0.99);
}

PhaseResult perfbench::runOpenLoop(const std::string &Socket,
                                   const std::vector<std::string> &RequestFiles,
                                   double Rate, double Seconds,
                                   size_t FirstRequest, unsigned Connections,
                                   const ResultSink &Done) {
  PhaseResult R;
  const size_t Total =
      std::max<size_t>(1, static_cast<size_t>(std::llround(Rate * Seconds)));
  const double DrainSeconds = 15.0;

  std::vector<int> FDs;
  for (unsigned C = 0; C < std::max(1u, Connections); ++C) {
    int FD = connectTo(Socket);
    if (FD >= 0)
      FDs.push_back(FD);
  }
  if (FDs.empty()) {
    R.Sent = Total;
    return R;
  }
  std::vector<std::string> Inbox(FDs.size());

  struct InFlight {
    double Due, Sent;
    size_t Pool;
  };
  std::unordered_map<size_t, InFlight> Pending;
  const std::string ResultPrefix = "{\"ok\":true,\"result\":";

  auto handleLine = [&](const std::string &Line, double Now) {
    ++R.Answered;
    // Rejections ("overloaded", "deadline") and errors carry no package
    // name; they count as failed through Sent - Ok.
    if (Line.compare(0, ResultPrefix.size(), ResultPrefix) != 0)
      return;
    driver::BatchOutcome O;
    std::string Journal =
        Line.substr(ResultPrefix.size(), Line.size() - ResultPrefix.size() - 1);
    if (!driver::BatchDriver::parseJournalLine(Journal, O) ||
        O.Package.size() < 2)
      return;
    auto It = Pending.find(std::strtoull(O.Package.c_str() + 1, nullptr, 10));
    if (It == Pending.end())
      return;
    InFlight F = It->second;
    Pending.erase(It);
    Done(F.Pool, O.Result.Reports);
    if (O.Status != driver::BatchStatus::Ok)
      return;
    ++R.Ok;
    R.LatencyMs.push_back((Now - F.Due) * 1e3);
    R.OverheadMs.push_back(((Now - F.Sent) - O.Seconds) * 1e3);
    R.ScanSeconds += O.Seconds;
  };

  std::vector<pollfd> Polls(FDs.size());
  Clock::time_point T0 = Clock::now();
  size_t Next = 0;
  bool SendDone = false;
  while (true) {
    double Now = secondsSince(T0);
    while (Next < Total && Now >= double(Next) / Rate) {
      size_t Idx = FirstRequest + Next;
      size_t Pool = Idx % RequestFiles.size();
      std::string Line = "{\"op\":\"scan\",\"name\":\"r" + std::to_string(Idx) +
                         "\",\"files\":" + RequestFiles[Pool] + "}\n";
      double Due = double(Next) / Rate;
      double At = secondsSince(T0);
      ++R.Sent;
      if (sendAll(FDs[Next % FDs.size()], Line)) {
        Pending[Idx] = {Due, At, Pool};
        R.LagMs.push_back((At - Due) * 1e3);
      } else {
        ++R.Answered; // Never reached the daemon: failed, not pending.
      }
      ++Next;
      if (Next == Total / 2)
        R.OutstandingMid = R.Sent - R.Answered;
      Now = secondsSince(T0);
    }
    if (Next == Total && !SendDone) {
      SendDone = true;
      R.SendSeconds = Now;
      R.OutstandingEnd = R.Sent - R.Answered;
    }
    if (SendDone && (R.Answered >= R.Sent || Now > R.SendSeconds + DrainSeconds))
      break;

    double Wait = Next < Total ? double(Next) / Rate - Now : 0.05;
    Wait = std::clamp(Wait, 0.0, 0.05);
    timespec TS{0, static_cast<long>(Wait * 1e9)};
    for (size_t I = 0; I < FDs.size(); ++I)
      Polls[I] = {FDs[I], POLLIN, 0};
    int PR = ::ppoll(Polls.data(), Polls.size(), &TS, nullptr);
    if (PR <= 0)
      continue;
    for (size_t I = 0; I < FDs.size(); ++I) {
      if (!(Polls[I].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      char Buf[65536];
      for (;;) {
        ssize_t N = ::recv(FDs[I], Buf, sizeof(Buf), MSG_DONTWAIT);
        if (N > 0) {
          Inbox[I].append(Buf, static_cast<size_t>(N));
          continue;
        }
        if (N < 0 && errno == EINTR)
          continue;
        if (N == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
          // The daemon hung up: what was pending on it stays unanswered.
          ::close(FDs[I]);
          FDs[I] = -1;
        }
        break;
      }
      double At = secondsSince(T0);
      size_t Pos;
      while ((Pos = Inbox[I].find('\n')) != std::string::npos) {
        std::string Line = Inbox[I].substr(0, Pos);
        Inbox[I].erase(0, Pos + 1);
        handleLine(Line, At);
      }
    }
  }
  for (int FD : FDs)
    if (FD >= 0)
      ::close(FD);
  return R;
}
