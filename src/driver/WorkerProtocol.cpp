//===- driver/WorkerProtocol.cpp - Supervisor<->worker framing -------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//

#include "driver/WorkerProtocol.h"

#include "support/JSON.h"

#include <cerrno>
#include <csignal>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

using namespace gjs;
using namespace gjs::driver;

namespace {

/// EINTR-retried full write. send(MSG_NOSIGNAL) keeps a dead peer from
/// raising SIGPIPE; falls back to write() for non-socket fds (tests run
/// frames over plain pipes too), where the caller is expected to hold
/// SIGPIPE ignored.
bool fullWrite(int FD, const char *Data, size_t Len, std::string *Error) {
  size_t Off = 0;
  while (Off < Len) {
    ssize_t N = ::send(FD, Data + Off, Len - Off, MSG_NOSIGNAL);
    if (N < 0 && errno == ENOTSOCK)
      N = ::write(FD, Data + Off, Len - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (Error)
        *Error = std::string("write failed: ") + std::strerror(errno);
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

/// EINTR-retried full read; false on EOF before \p Len bytes.
bool fullRead(int FD, char *Data, size_t Len, std::string *Error) {
  size_t Off = 0;
  while (Off < Len) {
    ssize_t N = ::read(FD, Data + Off, Len - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (Error)
        *Error = std::string("read failed: ") + std::strerror(errno);
      return false;
    }
    if (N == 0) {
      if (Error)
        *Error = "peer closed";
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

void putU32LE(char *Out, uint32_t V) {
  Out[0] = static_cast<char>(V & 0xff);
  Out[1] = static_cast<char>((V >> 8) & 0xff);
  Out[2] = static_cast<char>((V >> 16) & 0xff);
  Out[3] = static_cast<char>((V >> 24) & 0xff);
}

uint32_t getU32LE(const char *In) {
  return static_cast<uint32_t>(static_cast<unsigned char>(In[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(In[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(In[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(In[3])) << 24;
}

} // namespace

bool driver::writeFrame(int FD, const std::string &Payload,
                        std::string *Error) {
  if (Payload.size() > MaxFrameBytes) {
    if (Error)
      *Error = "frame too large";
    return false;
  }
  char Hdr[4];
  putU32LE(Hdr, static_cast<uint32_t>(Payload.size()));
  return fullWrite(FD, Hdr, sizeof(Hdr), Error) &&
         fullWrite(FD, Payload.data(), Payload.size(), Error);
}

bool driver::readFrame(int FD, std::string &Out, std::string *Error) {
  char Hdr[4];
  if (!fullRead(FD, Hdr, sizeof(Hdr), Error))
    return false;
  uint32_t Len = getU32LE(Hdr);
  if (Len > MaxFrameBytes) {
    if (Error)
      *Error = "frame too large";
    return false;
  }
  Out.assign(Len, '\0');
  if (Len != 0 && !fullRead(FD, Out.data(), Len, Error))
    return false;
  // Each frame is recorded once, by its reader: the worker records its
  // requests here and ships them in its rolling histogram delta, the
  // supervisor records responses in FrameReader::next, so the supervisor's
  // distribution covers both directions of every socketpair.
  obs::hists::FrameBytes.record(Len);
  return true;
}

bool FrameReader::pump(int FD) {
  if (Dead)
    return false;
  char Buf4k[4096];
  for (;;) {
    ssize_t N = ::read(FD, Buf4k, sizeof(Buf4k));
    if (N > 0) {
      Buf.append(Buf4k, static_cast<size_t>(N));
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return true; // Drained everything currently available.
    Dead = true; // EOF or hard error.
    return false;
  }
}

bool FrameReader::next(std::string &Out) {
  if (Buf.size() < 4)
    return false;
  uint32_t Len = getU32LE(Buf.data());
  if (Len > MaxFrameBytes) {
    Dead = true; // Corrupt stream: nothing after this is trustworthy.
    return false;
  }
  if (Buf.size() < 4 + static_cast<size_t>(Len))
    return false;
  Out = Buf.substr(4, Len);
  Buf.erase(0, 4 + static_cast<size_t>(Len));
  obs::hists::FrameBytes.record(Len);
  return true;
}

std::string WorkerRequest::encode() const {
  json::Object O;
  switch (Kind) {
  case Op::Scan:
    O["op"] = json::Value("scan");
    break;
  case Op::Ping:
    O["op"] = json::Value("ping");
    break;
  case Op::Exit:
    O["op"] = json::Value("exit");
    break;
  }
  O["job"] = json::Value(static_cast<unsigned long>(JobId));
  if (HasPlanIndex)
    O["plan"] = json::Value(static_cast<unsigned long>(PlanIndex));
  if (IsRetry)
    O["retry"] = json::Value(true);
  if (!Name.empty())
    O["name"] = json::Value(Name);
  if (!Paths.empty()) {
    json::Array A;
    for (const std::string &P : Paths)
      A.push_back(json::Value(P));
    O["files"] = json::Value(std::move(A));
  }
  if (DeadlineSeconds > 0)
    O["deadline_s"] = json::Value(DeadlineSeconds);
  if (!FaultSpec.empty())
    O["fault"] = json::Value(FaultSpec);
  if (WantTrace)
    O["trace"] = json::Value(true);
  if (TraceEpochUs)
    O["epoch_us"] = json::Value(static_cast<double>(TraceEpochUs));
  return json::Value(std::move(O)).str();
}

bool WorkerRequest::decode(const std::string &Text, WorkerRequest &Out) {
  json::Value V;
  if (!json::parse(Text, V) || !V.isObject())
    return false;
  const json::Object &O = V.asObject();
  Out = WorkerRequest();

  auto It = O.find("op");
  if (It == O.end() || !It->second.isString())
    return false;
  const std::string &Op = It->second.asString();
  if (Op == "scan")
    Out.Kind = Op::Scan;
  else if (Op == "ping")
    Out.Kind = Op::Ping;
  else if (Op == "exit")
    Out.Kind = Op::Exit;
  else
    return false;

  if ((It = O.find("job")) != O.end() && It->second.isNumber())
    Out.JobId = static_cast<uint64_t>(It->second.asNumber());
  if ((It = O.find("plan")) != O.end() && It->second.isNumber()) {
    Out.HasPlanIndex = true;
    Out.PlanIndex = static_cast<size_t>(It->second.asNumber());
  }
  if ((It = O.find("retry")) != O.end() && It->second.isBool())
    Out.IsRetry = It->second.asBool();
  if ((It = O.find("name")) != O.end() && It->second.isString())
    Out.Name = It->second.asString();
  if ((It = O.find("files")) != O.end() && It->second.isArray())
    for (const json::Value &P : It->second.asArray())
      if (P.isString())
        Out.Paths.push_back(P.asString());
  if ((It = O.find("deadline_s")) != O.end() && It->second.isNumber())
    Out.DeadlineSeconds = It->second.asNumber();
  if ((It = O.find("fault")) != O.end() && It->second.isString())
    Out.FaultSpec = It->second.asString();
  if ((It = O.find("trace")) != O.end() && It->second.isBool())
    Out.WantTrace = It->second.asBool();
  if ((It = O.find("epoch_us")) != O.end() && It->second.isNumber())
    Out.TraceEpochUs = static_cast<uint64_t>(It->second.asNumber());
  return true;
}

std::vector<obs::SpanRecord>
driver::rebasedSpans(const obs::TraceRecorder &Recorder,
                     uint64_t SupervisorEpochUs) {
  // Both epochs sit on the shared CLOCK_MONOTONIC timeline, so the offset
  // between them is exact — no cross-process clock estimation needed.
  double OffsetUs = static_cast<double>(Recorder.epochUs()) -
                    static_cast<double>(SupervisorEpochUs);
  std::vector<obs::SpanRecord> Out = Recorder.spans();
  for (obs::SpanRecord &S : Out) {
    S.StartUs += OffsetUs;
    if (S.DurUs < 0)
      S.DurUs = 0; // Open at serialization: close it at zero width.
  }
  return Out;
}

std::string WorkerResponse::encode() const {
  json::Object O;
  O["job"] = json::Value(static_cast<unsigned long>(JobId));
  if (!Line.empty())
    O["line"] = json::Value(Line);
  if (Pong)
    O["pong"] = json::Value(true);
  if (Recycle)
    O["recycle"] = json::Value(true);
  if (!HistDelta.empty()) {
    json::Object H;
    for (const auto &[Name, Snap] : HistDelta) {
      json::Object S;
      S["u"] = json::Value(Snap.Unit);
      S["s"] = json::Value(static_cast<double>(Snap.Sum));
      json::Array B;
      for (const auto &[Bucket, Count] : Snap.Buckets) {
        json::Array Pair;
        Pair.push_back(json::Value(Bucket));
        Pair.push_back(json::Value(static_cast<unsigned long>(Count)));
        B.push_back(json::Value(std::move(Pair)));
      }
      S["b"] = json::Value(std::move(B));
      H[Name] = json::Value(std::move(S));
    }
    O["hist"] = json::Value(std::move(H));
  }
  if (!Spans.empty()) {
    json::Array A;
    for (const obs::SpanRecord &S : Spans) {
      json::Object SO;
      SO["n"] = json::Value(S.Name);
      SO["ts"] = json::Value(S.StartUs);
      SO["dur"] = json::Value(S.DurUs < 0 ? 0.0 : S.DurUs);
      SO["d"] = json::Value(S.Depth);
      if (S.Parent != obs::SpanRecord::npos)
        SO["p"] = json::Value(static_cast<unsigned long>(S.Parent));
      if (!S.Args.empty()) {
        json::Object AO;
        for (const auto &[Key, Value] : S.Args)
          AO[Key] = json::Value(Value);
        SO["a"] = json::Value(std::move(AO));
      }
      A.push_back(json::Value(std::move(SO)));
    }
    O["spans"] = json::Value(std::move(A));
  }
  return json::Value(std::move(O)).str();
}

bool WorkerResponse::decode(const std::string &Text, WorkerResponse &Out) {
  json::Value V;
  if (!json::parse(Text, V) || !V.isObject())
    return false;
  const json::Object &O = V.asObject();
  Out = WorkerResponse();
  auto It = O.find("job");
  if (It == O.end() || !It->second.isNumber())
    return false;
  Out.JobId = static_cast<uint64_t>(It->second.asNumber());
  if ((It = O.find("line")) != O.end() && It->second.isString())
    Out.Line = It->second.asString();
  if ((It = O.find("pong")) != O.end() && It->second.isBool())
    Out.Pong = It->second.asBool();
  if ((It = O.find("recycle")) != O.end() && It->second.isBool())
    Out.Recycle = It->second.asBool();
  if ((It = O.find("hist")) != O.end() && It->second.isObject()) {
    for (const auto &[Name, HV] : It->second.asObject()) {
      if (!HV.isObject())
        continue;
      const json::Object &HO = HV.asObject();
      obs::HistogramSnapshot Snap;
      auto UIt = HO.find("u");
      if (UIt != HO.end() && UIt->second.isString())
        Snap.Unit = UIt->second.asString();
      auto SIt = HO.find("s");
      if (SIt != HO.end() && SIt->second.isNumber())
        Snap.Sum = static_cast<uint64_t>(SIt->second.asNumber());
      auto BIt = HO.find("b");
      if (BIt != HO.end() && BIt->second.isArray())
        for (const json::Value &Pair : BIt->second.asArray()) {
          if (!Pair.isArray() || Pair.asArray().size() != 2 ||
              !Pair.asArray()[0].isNumber() || !Pair.asArray()[1].isNumber())
            continue;
          Snap.Buckets.emplace_back(
              static_cast<unsigned>(Pair.asArray()[0].asNumber()),
              static_cast<uint64_t>(Pair.asArray()[1].asNumber()));
        }
      if (!Snap.Buckets.empty())
        Out.HistDelta[Name] = std::move(Snap);
    }
  }
  if ((It = O.find("spans")) != O.end() && It->second.isArray()) {
    for (const json::Value &SV : It->second.asArray()) {
      if (!SV.isObject())
        continue;
      const json::Object &SO = SV.asObject();
      obs::SpanRecord S;
      auto NIt = SO.find("n");
      if (NIt == SO.end() || !NIt->second.isString())
        continue;
      S.Name = NIt->second.asString();
      auto TIt = SO.find("ts");
      if (TIt != SO.end() && TIt->second.isNumber())
        S.StartUs = TIt->second.asNumber();
      auto DIt = SO.find("dur");
      if (DIt != SO.end() && DIt->second.isNumber())
        S.DurUs = DIt->second.asNumber();
      auto DepIt = SO.find("d");
      if (DepIt != SO.end() && DepIt->second.isNumber())
        S.Depth = static_cast<unsigned>(DepIt->second.asNumber());
      auto PIt = SO.find("p");
      S.Parent = PIt != SO.end() && PIt->second.isNumber()
                     ? static_cast<size_t>(PIt->second.asNumber())
                     : obs::SpanRecord::npos;
      auto AIt = SO.find("a");
      if (AIt != SO.end() && AIt->second.isObject())
        for (const auto &[Key, Value] : AIt->second.asObject())
          if (Value.isString())
            S.Args.emplace_back(Key, Value.asString());
      Out.Spans.push_back(std::move(S));
    }
  }
  return true;
}

int driver::runWorkerLoop(int FD, const WorkerLoopOptions &Options,
                          const WorkerJobSource &Source) {
  installOomExitHandler();
  if (Options.EnableCounters) {
    obs::setCountersEnabled(true);
    obs::resetCounters();
  }
  // Rolling histogram baseline: one snapshot per job, diffed against the
  // previous job's, so each response carries exactly what was recorded
  // since the last one (this job's scan plus the request frames read in
  // between). Counters need no such bracket: the scanner already measures
  // each package's counter delta into its journal line.
  obs::HistogramSnapshotMap HistPrev;
  if (Options.EnableCounters)
    HistPrev = obs::snapshotHistograms();
  unsigned Done = 0;
  std::string Text;
  while (readFrame(FD, Text)) {
    WorkerRequest Req;
    if (!WorkerRequest::decode(Text, Req))
      return 121; // Protocol corruption: die visibly, never guess a job.
    if (Req.Kind == WorkerRequest::Op::Exit)
      return 0;
    WorkerResponse Resp;
    Resp.JobId = Req.JobId;
    if (Req.Kind == WorkerRequest::Op::Ping) {
      Resp.Pong = true;
      if (!writeFrame(FD, Resp.encode()))
        return 122;
      continue;
    }
    obs::TraceRecorder Recorder;
    BatchOutcome Out;
    if (!Source(Req, Req.WantTrace ? &Recorder : nullptr, Out))
      return 121;
    Resp.Line = BatchDriver::journalLine(Out);
    if (Options.EnableCounters) {
      obs::HistogramSnapshotMap HistNow = obs::snapshotHistograms();
      Resp.HistDelta = obs::histogramDelta(HistPrev, HistNow);
      HistPrev = std::move(HistNow);
    }
    if (Req.WantTrace)
      Resp.Spans = rebasedSpans(Recorder, Req.TraceEpochUs);
    ++Done;
    Resp.Recycle =
        (Options.RecycleAfter && Done >= Options.RecycleAfter) ||
        (Options.RecycleRssMB && currentRssMB() > Options.RecycleRssMB);
    if (!writeFrame(FD, Resp.encode()))
      return 122;
    if (Resp.Recycle)
      return WorkerRecycleExit;
  }
  return 0; // Supervisor hung up: orderly drain.
}

WorkerDeath driver::attributeWorkerDeath(const WaitStatus &WS, bool KillSent) {
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
