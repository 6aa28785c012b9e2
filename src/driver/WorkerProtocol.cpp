//===- driver/WorkerProtocol.cpp - Supervisor<->worker framing -------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//

#include "driver/WorkerProtocol.h"

#include "support/JSON.h"

#include <cerrno>
#include <charconv>
#include <cstring>
#include <string_view>

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
  // Prefix and payload in one buffer: one send per frame.
  std::string Frame(4, '\0');
  putU32LE(Frame.data(), static_cast<uint32_t>(Payload.size()));
  Frame += Payload;
  return fullWrite(FD, Frame.data(), Frame.size(), Error);
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
  Out.assign(Buf, 4, Len);
  Buf.erase(0, 4 + static_cast<size_t>(Len));
  obs::hists::FrameBytes.record(Len);
  return true;
}

std::string WorkerRequest::encode() const {
  std::string Out;
  json::ObjectWriter O(Out);
  if (DeadlineSeconds > 0)
    O.num("deadline_s", DeadlineSeconds);
  if (TraceEpochUs)
    O.num("epoch_us", static_cast<double>(TraceEpochUs));
  if (!FaultSpec.empty())
    O.str("fault", FaultSpec);
  if (!Paths.empty())
    json::writeArray(O.key("files"), Paths, [&](const std::string &P) {
      json::writeString(Out, P);
    });
  O.num("job", static_cast<double>(JobId));
  if (!Name.empty())
    O.str("name", Name);
  O.str("op", Kind == Op::Scan ? "scan" : Kind == Op::Ping ? "ping" : "exit");
  if (HasPlanIndex)
    O.num("plan", static_cast<double>(PlanIndex));
  if (IsRetry)
    O.boolean("retry", true);
  if (WantTrace)
    O.boolean("trace", true);
  O.close();
  return Out;
}

bool WorkerRequest::decode(std::string_view Text, WorkerRequest &Out) {
  Out = WorkerRequest();
  json::Reader R(Text);
  std::string Op;
  double Job = 0, Plan = 0, Epoch = 0;
  bool Ok = R.object([&](std::string_view Key) {
    if (Key == "op")
      return R.stringOrSkip(Op);
    if (Key == "job")
      return R.numberOrSkip(Job);
    if (Key == "plan")
      return R.numberOrSkip(Plan, &Out.HasPlanIndex);
    if (Key == "retry")
      return R.booleanOrSkip(Out.IsRetry);
    if (Key == "name")
      return R.stringOrSkip(Out.Name);
    if (Key == "files") {
      if (R.peek() != '[')
        return R.skip();
      return R.array([&] {
        std::string Path;
        bool Got = false;
        if (!R.stringOrSkip(Path, &Got))
          return false;
        if (Got)
          Out.Paths.push_back(std::move(Path));
        return true;
      });
    }
    if (Key == "deadline_s")
      return R.numberOrSkip(Out.DeadlineSeconds);
    if (Key == "fault")
      return R.stringOrSkip(Out.FaultSpec);
    if (Key == "trace")
      return R.booleanOrSkip(Out.WantTrace);
    if (Key == "epoch_us")
      return R.numberOrSkip(Epoch);
    return R.skip();
  });
  if (!Ok || !R.atEnd())
    return false;
  if (Op == "scan")
    Out.Kind = Op::Scan;
  else if (Op == "ping")
    Out.Kind = Op::Ping;
  else if (Op == "exit")
    Out.Kind = Op::Exit;
  else
    return false;
  Out.JobId = static_cast<uint64_t>(Job);
  Out.PlanIndex = static_cast<size_t>(Plan);
  Out.TraceEpochUs = static_cast<uint64_t>(Epoch);
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

namespace {

void appendUInt(std::string &Out, uint64_t V) {
  char Buf[24];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
}

/// A whole-token unsigned integer; false on anything else.
template <typename T> bool parseUInt(std::string_view Tok, T &Out) {
  auto [Ptr, Ec] = std::from_chars(Tok.data(), Tok.data() + Tok.size(), Out);
  return !Tok.empty() && Ec == std::errc() && Ptr == Tok.data() + Tok.size();
}

/// Splits \p S at the first \p Sep: returns what precedes it and leaves
/// the rest in \p S. Without a separator it returns all of \p S and
/// leaves null, which an empty rest after a trailing separator is not.
std::string_view cut(std::string_view &S, char Sep) {
  size_t At = S.find(Sep);
  std::string_view Head = S.substr(0, At);
  S = At == std::string_view::npos ? std::string_view() : S.substr(At + 1);
  return Head;
}

/// One `h:` token's body: `<name>:<unit>:<sum>:<bucket>=<count>,...`.
bool decodeHistogram(std::string_view Tok, obs::HistogramSnapshotMap &Out) {
  std::string_view Name = cut(Tok, ':');
  std::string_view Unit = cut(Tok, ':');
  obs::HistogramSnapshot Snap;
  if (Name.empty() || !parseUInt(cut(Tok, ':'), Snap.Sum) || Tok.empty())
    return false;
  Snap.Unit = Unit;
  while (Tok.data()) {
    std::string_view Pair = cut(Tok, ',');
    unsigned Bucket = 0;
    uint64_t Count = 0;
    if (!parseUInt(cut(Pair, '='), Bucket) || !parseUInt(Pair, Count))
      return false;
    Snap.Buckets.emplace_back(Bucket, Count);
  }
  Out[std::string(Name)] = std::move(Snap);
  return true;
}

/// The `spans:` token: the span tree as a compact JSON array of objects,
/// `{"a":{args},"d":depth,"dur":us,"n":name,"p":parent,"ts":us}`.
void encodeSpans(const std::vector<obs::SpanRecord> &Spans, std::string &Out) {
  json::writeArray(Out, Spans, [&](const obs::SpanRecord &S) {
    json::ObjectWriter SO(Out);
    if (!S.Args.empty()) {
      // Annotation keys in the order recorded: the reader keeps that order.
      json::ObjectWriter AO(SO.key("a"));
      for (const auto &[Key, Value] : S.Args)
        AO.str(Key, Value);
      AO.close();
    }
    SO.num("d", S.Depth);
    SO.num("dur", S.DurUs < 0 ? 0.0 : S.DurUs);
    SO.str("n", S.Name);
    if (S.Parent != obs::SpanRecord::npos)
      SO.num("p", static_cast<double>(S.Parent));
    SO.num("ts", S.StartUs);
    SO.close();
  });
}

bool decodeSpans(std::string_view Text, std::vector<obs::SpanRecord> &Out) {
  json::Reader R(Text);
  bool Ok = R.array([&] {
    if (R.peek() != '{')
      return R.skip(); // Not a span: dropped, as a nameless one is.
    obs::SpanRecord S;
    double Depth = 0, Parent = -1;
    bool Named = false;
    if (!R.object([&](std::string_view Key) {
          if (Key == "n")
            return R.stringOrSkip(S.Name, &Named);
          if (Key == "ts")
            return R.numberOrSkip(S.StartUs);
          if (Key == "dur")
            return R.numberOrSkip(S.DurUs);
          if (Key == "d")
            return R.numberOrSkip(Depth);
          if (Key == "p")
            return R.numberOrSkip(Parent);
          if (Key == "a" && R.peek() == '{')
            return R.object([&](std::string_view ArgKey) {
              std::string Name(ArgKey), Value;
              bool Got = false;
              if (!R.stringOrSkip(Value, &Got))
                return false;
              if (Got)
                S.Args.emplace_back(std::move(Name), std::move(Value));
              return true;
            });
          return R.skip();
        }))
      return false;
    if (Named) {
      S.Depth = static_cast<unsigned>(Depth);
      S.Parent =
          Parent < 0 ? obs::SpanRecord::npos : static_cast<size_t>(Parent);
      Out.push_back(std::move(S));
    }
    return true;
  });
  return Ok && R.atEnd();
}

} // namespace

std::string WorkerResponse::encode() const {
  std::string Out;
  Out.reserve(256 + Line.size());
  appendUInt(Out, JobId);
  if (Pong)
    Out += " pong";
  if (Recycle)
    Out += " recycle";
  for (const auto &[Name, Snap] : HistDelta) {
    if (Snap.empty())
      continue;
    Out += " h:";
    Out += Name;
    Out += ':';
    Out += Snap.Unit;
    Out += ':';
    appendUInt(Out, Snap.Sum);
    char Sep = ':';
    for (const auto &[Bucket, Count] : Snap.Buckets) {
      Out += Sep;
      Sep = ',';
      appendUInt(Out, Bucket);
      Out += '=';
      appendUInt(Out, Count);
    }
  }
  if (!Spans.empty()) {
    Out += " spans:";
    encodeSpans(Spans, Out);
  }
  Out += '\n';
  Out += Line;
  return Out;
}

bool WorkerResponse::decode(std::string_view Text, WorkerResponse &Out) {
  Out = WorkerResponse();
  size_t NewLine = Text.find('\n');
  if (NewLine == std::string_view::npos)
    return false;
  std::string_view Header = Text.substr(0, NewLine);
  if (!parseUInt(cut(Header, ' '), Out.JobId))
    return false;
  while (Header.data()) {
    if (Header.substr(0, 6) == "spans:") {
      // Always the last token: the rest of the header is its JSON.
      if (!decodeSpans(Header.substr(6), Out.Spans))
        return false;
      break;
    }
    std::string_view Tok = cut(Header, ' ');
    if (Tok == "pong")
      Out.Pong = true;
    else if (Tok == "recycle")
      Out.Recycle = true;
    else if (Tok.substr(0, 2) != "h:" ||
             !decodeHistogram(Tok.substr(2), Out.HistDelta))
      return false;
  }
  Out.Line.assign(Text.substr(NewLine + 1));
  // Only a pong answers without a journal line.
  return Out.Pong || !Out.Line.empty();
}

int driver::runWorkerLoop(int FD, const WorkerLoopOptions &Options,
                          const WorkerJobSource &Source) {
  installOomExitHandler();
  // Counters and histograms on: each journal line carries its package's
  // counter delta, and each response its histogram delta.
  obs::setCountersEnabled(true);
  // Rolling histogram baseline: one flat snapshot per job, so each
  // response carries exactly what was recorded since the last one (this
  // job's scan plus the request frames read in between). Counters need no
  // such bracket: the scanner already measures each package's counter
  // delta into its journal line.
  obs::HistogramValues HistPrev = obs::snapshotHistogramValues();
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
    obs::TraceRecorder *Trace = Req.WantTrace ? &Recorder : nullptr;
    BatchOutcome Out;
    if (!Source(Req, Trace, Out))
      return 121;
    {
      // What answering costs the worker beyond the scan.
      obs::Span Reply(Trace, "reply");
      Resp.Line = BatchDriver::journalLine(Out);
      Resp.HistDelta = obs::histogramDelta(HistPrev);
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
