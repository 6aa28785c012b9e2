//===- tests/test_scanservice.cpp - graphjs serve daemon tests -------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
// The long-lived scan service surface: the supervisor<->worker wire
// protocol (length-prefixed frames, incremental reassembly, the
// request/response codec), and the daemon end to end — scan round trips,
// status, bounded admission ("overloaded") with recovery after the queue
// drains, crash and OOM attribution with worker re-fork, recycling on the
// package quota, drain/shutdown, and the append-mode journal across daemon
// restarts.
//
//===----------------------------------------------------------------------===//

#include "driver/BatchDriver.h"
#include "driver/ScanService.h"
#include "driver/WorkerProtocol.h"
#include "obs/Histogram.h"
#include "obs/Trace.h"
#include "support/JSON.h"
#include "support/Subprocess.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace gjs;
using driver::FrameReader;
using driver::ScanService;
using driver::ServiceOptions;
using driver::WorkerRequest;
using driver::WorkerResponse;

namespace {

const char *VulnSource =
    "var cp = require('child_process');\n"
    "function run(cmd, cb) {\n"
    "  var prefixed = 'git ' + cmd;\n"
    "  cp.exec(prefixed, cb);\n"
    "}\n"
    "module.exports = run;\n";

/// A per-test scratch dir holding the socket, the journal, and package
/// sources (socket paths must stay short: sun_path is ~108 bytes).
struct Scratch {
  std::string Dir;
  explicit Scratch(const std::string &Tag) {
    Dir = "/tmp/gjs_serve_" + Tag + "_" + std::to_string(::getpid());
    std::filesystem::remove_all(Dir);
    std::filesystem::create_directories(Dir);
  }
  ~Scratch() { std::filesystem::remove_all(Dir); }
  std::string path(const std::string &Name) const { return Dir + "/" + Name; }
  std::string writeJS(const std::string &Name, const char *Source) const {
    std::string P = path(Name);
    std::ofstream Out(P);
    Out << Source;
    return P;
  }
};

/// The daemon under test, forked into its own process (run() is blocking).
struct ServiceHandle {
  Subprocess Proc;
  std::string Socket;
};

ServiceHandle startService(const ServiceOptions &O) {
  ServiceHandle H;
  H.Socket = O.SocketPath;
  std::string Error;
  ServiceOptions Copy = O;
  EXPECT_TRUE(Subprocess::forkChild(
      [Copy] { return ScanService(Copy).run(); }, H.Proc, &Error))
      << Error;
  return H;
}

/// Graceful end: `shutdown` op, then the daemon must exit 0.
void shutdownService(ServiceHandle &H) {
  std::string Resp;
  ScanService::request(H.Socket, "{\"op\":\"shutdown\"}", Resp);
  WaitStatus WS = H.Proc.wait();
  EXPECT_TRUE(WS.exitedWith(0)) << WS.str();
}

std::string scanRequest(const std::string &Name, const std::string &File,
                        double DeadlineSeconds = 0,
                        const std::string &Fault = "") {
  json::Object O;
  O["op"] = json::Value("scan");
  O["name"] = json::Value(Name);
  O["files"] = json::Value(json::Array{json::Value(File)});
  if (DeadlineSeconds > 0)
    O["deadline_s"] = json::Value(DeadlineSeconds);
  if (!Fault.empty())
    O["fault"] = json::Value(Fault);
  return json::Value(std::move(O)).str();
}

/// Parses a daemon response line; fails the test on malformed JSON.
json::Object parseResponse(const std::string &Line) {
  json::Value V;
  EXPECT_TRUE(json::parse(Line, V) && V.isObject()) << Line;
  return V.isObject() ? V.asObject() : json::Object();
}

bool responseOk(const json::Object &O) {
  auto It = O.find("ok");
  return It != O.end() && It->second.isBool() && It->second.asBool();
}

std::string responseError(const json::Object &O) {
  auto It = O.find("error");
  return It != O.end() && It->second.isString() ? It->second.asString() : "";
}

/// The scan outcome spliced into an ok response, parsed back through the
/// journal-line reader.
driver::BatchOutcome responseOutcome(const json::Object &O) {
  driver::BatchOutcome Out;
  auto It = O.find("result");
  EXPECT_NE(It, O.end());
  if (It != O.end()) {
    EXPECT_TRUE(driver::BatchDriver::parseJournalLine(It->second.str(), Out));
  }
  return Out;
}

double statusNumber(const std::string &Socket, const char *Key) {
  std::string Resp;
  if (!ScanService::request(Socket, "{\"op\":\"status\"}", Resp, nullptr,
                            10.0))
    return -1;
  json::Object O = parseResponse(Resp);
  auto It = O.find(Key);
  return It != O.end() && It->second.isNumber() ? It->second.asNumber() : -1;
}

/// Spins until \p Pred holds or \p Seconds elapse.
bool waitUntil(double Seconds, const std::function<bool()> &Pred) {
  auto Start = std::chrono::steady_clock::now();
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
             .count() < Seconds) {
    if (Pred())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return Pred();
}

/// A raw NDJSON connection the test keeps open — for parking requests in
/// the daemon's queue without blocking on their responses.
struct RawClient {
  int FD = -1;
  std::string Buf;

  bool connect(const std::string &Path, double TimeoutSeconds = 10.0) {
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
    auto Start = std::chrono::steady_clock::now();
    for (;;) {
      FD = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (FD < 0)
        return false;
      if (::connect(FD, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
          0)
        return true;
      ::close(FD);
      FD = -1;
      if (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        Start)
              .count() > TimeoutSeconds)
        return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  }

  bool sendLine(std::string Line) {
    Line.push_back('\n');
    size_t Off = 0;
    while (Off < Line.size()) {
      ssize_t N =
          ::send(FD, Line.data() + Off, Line.size() - Off, MSG_NOSIGNAL);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Off += static_cast<size_t>(N);
    }
    return true;
  }

  /// One response line, or "" on timeout/EOF.
  std::string recvLine(double TimeoutSeconds) {
    auto Start = std::chrono::steady_clock::now();
    char Tmp[4096];
    for (;;) {
      size_t Pos = Buf.find('\n');
      if (Pos != std::string::npos) {
        std::string Line = Buf.substr(0, Pos);
        Buf.erase(0, Pos + 1);
        return Line;
      }
      if (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        Start)
              .count() > TimeoutSeconds)
        return "";
      pollfd P{FD, POLLIN, 0};
      int R = ::poll(&P, 1, 100);
      if (R <= 0)
        continue;
      ssize_t N = ::recv(FD, Tmp, sizeof(Tmp), 0);
      if (N <= 0)
        return "";
      Buf.append(Tmp, static_cast<size_t>(N));
    }
  }

  ~RawClient() {
    if (FD >= 0)
      ::close(FD);
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Wire protocol
//===----------------------------------------------------------------------===//

TEST(WorkerProtocolTest, FrameRoundTripsOverSocketpair) {
  int SV[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, SV), 0);
  std::string Payload = "{\"hello\":\"frames\"}";
  ASSERT_TRUE(driver::writeFrame(SV[0], Payload));
  std::string Back;
  ASSERT_TRUE(driver::readFrame(SV[1], Back));
  EXPECT_EQ(Back, Payload);

  // Empty frames are legal.
  ASSERT_TRUE(driver::writeFrame(SV[0], ""));
  ASSERT_TRUE(driver::readFrame(SV[1], Back));
  EXPECT_EQ(Back, "");

  // Peer hangup is EOF, not success.
  ::close(SV[0]);
  EXPECT_FALSE(driver::readFrame(SV[1], Back));
  ::close(SV[1]);
}

TEST(WorkerProtocolTest, FrameReaderReassemblesPartialWrites) {
  int SV[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, SV), 0);
  ::fcntl(SV[1], F_SETFL, ::fcntl(SV[1], F_GETFL, 0) | O_NONBLOCK);

  std::string Payload = "{\"job\":7,\"line\":\"x\"}";
  char Hdr[4] = {static_cast<char>(Payload.size() & 0xff), 0, 0, 0};

  FrameReader R;
  // Header only: pump succeeds, no complete frame yet.
  ASSERT_EQ(::send(SV[0], Hdr, 2, 0), 2);
  EXPECT_TRUE(R.pump(SV[1]));
  std::string Out;
  EXPECT_FALSE(R.next(Out));
  ASSERT_EQ(::send(SV[0], Hdr + 2, 2, 0), 2);
  // Half the payload.
  ASSERT_EQ(::send(SV[0], Payload.data(), 5, 0), 5);
  EXPECT_TRUE(R.pump(SV[1]));
  EXPECT_FALSE(R.next(Out));
  // The rest, plus a second complete frame in the same burst.
  ASSERT_EQ(static_cast<size_t>(::send(SV[0], Payload.data() + 5,
                                       Payload.size() - 5, 0)),
            Payload.size() - 5);
  ASSERT_TRUE(driver::writeFrame(SV[0], "second"));
  EXPECT_TRUE(R.pump(SV[1]));
  ASSERT_TRUE(R.next(Out));
  EXPECT_EQ(Out, Payload);
  ASSERT_TRUE(R.next(Out));
  EXPECT_EQ(Out, "second");
  EXPECT_FALSE(R.next(Out));

  // EOF parks the reader in dead(); already-buffered frames would remain.
  ::close(SV[0]);
  EXPECT_FALSE(R.pump(SV[1]));
  EXPECT_TRUE(R.dead());
  ::close(SV[1]);
}

TEST(WorkerProtocolTest, OversizedLengthPrefixKillsTheReader) {
  int SV[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, SV), 0);
  ::fcntl(SV[1], F_SETFL, ::fcntl(SV[1], F_GETFL, 0) | O_NONBLOCK);
  char Hdr[4] = {'\xff', '\xff', '\xff', '\xff'}; // ~4GB "frame".
  ASSERT_EQ(::send(SV[0], Hdr, 4, 0), 4);
  FrameReader R;
  EXPECT_TRUE(R.pump(SV[1]));
  std::string Out;
  EXPECT_FALSE(R.next(Out));
  EXPECT_TRUE(R.dead());
  ::close(SV[0]);
  ::close(SV[1]);
}

TEST(WorkerProtocolTest, RequestCodecRoundTrips) {
  WorkerRequest Req;
  Req.Kind = WorkerRequest::Op::Scan;
  Req.JobId = 42;
  Req.HasPlanIndex = true;
  Req.PlanIndex = 7;
  Req.IsRetry = true;
  Req.Name = "left-pad";
  Req.Paths = {"a.js", "b.js"};
  Req.DeadlineSeconds = 1.5;
  Req.FaultSpec = "build:crash:0";

  WorkerRequest Back;
  ASSERT_TRUE(WorkerRequest::decode(Req.encode(), Back));
  EXPECT_EQ(Back.Kind, WorkerRequest::Op::Scan);
  EXPECT_EQ(Back.JobId, 42u);
  EXPECT_TRUE(Back.HasPlanIndex);
  EXPECT_EQ(Back.PlanIndex, 7u);
  EXPECT_TRUE(Back.IsRetry);
  EXPECT_EQ(Back.Name, "left-pad");
  EXPECT_EQ(Back.Paths, (std::vector<std::string>{"a.js", "b.js"}));
  EXPECT_DOUBLE_EQ(Back.DeadlineSeconds, 1.5);
  EXPECT_EQ(Back.FaultSpec, "build:crash:0");

  WorkerRequest Ping;
  Ping.Kind = WorkerRequest::Op::Ping;
  Ping.JobId = 9;
  ASSERT_TRUE(WorkerRequest::decode(Ping.encode(), Back));
  EXPECT_EQ(Back.Kind, WorkerRequest::Op::Ping);
  EXPECT_FALSE(Back.HasPlanIndex);

  EXPECT_FALSE(WorkerRequest::decode("not json", Back));
  EXPECT_FALSE(WorkerRequest::decode("{\"op\":\"reboot\"}", Back));
  EXPECT_FALSE(WorkerRequest::decode("{\"job\":1}", Back));
}

TEST(WorkerProtocolTest, ResponseCodecRoundTrips) {
  WorkerResponse Resp;
  Resp.JobId = 13;
  Resp.Line = "{\"package\":\"p\"}";
  Resp.Recycle = true;

  WorkerResponse Back;
  ASSERT_TRUE(WorkerResponse::decode(Resp.encode(), Back));
  EXPECT_EQ(Back.JobId, 13u);
  EXPECT_EQ(Back.Line, "{\"package\":\"p\"}");
  EXPECT_TRUE(Back.Recycle);
  EXPECT_FALSE(Back.Pong);

  WorkerResponse Pong;
  Pong.JobId = 4;
  Pong.Pong = true;
  ASSERT_TRUE(WorkerResponse::decode(Pong.encode(), Back));
  EXPECT_TRUE(Back.Pong);
  EXPECT_TRUE(Back.Line.empty());

  EXPECT_FALSE(WorkerResponse::decode("{}", Back)); // A job id is required.
}

TEST(WorkerProtocolTest, TelemetryRidesTheResponseFrame) {
  WorkerResponse Resp;
  Resp.JobId = 21;
  Resp.Line = "{\"package\":\"p\"}";
  obs::HistogramSnapshot H;
  H.Unit = "us";
  H.Sum = 1234;
  H.Buckets = {{3, 2}, {17, 1}};
  Resp.HistDelta["scan.latency_us"] = H;
  obs::SpanRecord Root;
  Root.Name = "package";
  Root.StartUs = 100.5;
  Root.DurUs = 900.25;
  Root.Depth = 0;
  Root.Parent = obs::SpanRecord::npos;
  Root.Args = {{"files", "1"}};
  obs::SpanRecord Child;
  Child.Name = "parse";
  Child.StartUs = 110.0;
  Child.DurUs = 200.0;
  Child.Depth = 1;
  Child.Parent = 0;
  Resp.Spans = {Root, Child};
  ASSERT_TRUE(Resp.hasTelemetry());

  WorkerResponse Back;
  ASSERT_TRUE(WorkerResponse::decode(Resp.encode(), Back));
  EXPECT_EQ(Back.Line, Resp.Line);
  ASSERT_TRUE(Back.hasTelemetry());
  ASSERT_TRUE(Back.HistDelta.count("scan.latency_us"));
  const obs::HistogramSnapshot &HB = Back.HistDelta.at("scan.latency_us");
  EXPECT_EQ(HB.Unit, "us");
  EXPECT_EQ(HB.Sum, 1234u);
  ASSERT_EQ(HB.Buckets.size(), 2u);
  EXPECT_EQ(HB.Buckets[0], (std::pair<unsigned, uint64_t>{3, 2}));
  EXPECT_EQ(HB.count(), 3u);
  ASSERT_EQ(Back.Spans.size(), 2u);
  EXPECT_EQ(Back.Spans[0].Name, "package");
  EXPECT_DOUBLE_EQ(Back.Spans[0].StartUs, 100.5);
  EXPECT_EQ(Back.Spans[0].Parent, obs::SpanRecord::npos);
  ASSERT_EQ(Back.Spans[0].Args.size(), 1u);
  EXPECT_EQ(Back.Spans[0].Args[0].first, "files");
  EXPECT_EQ(Back.Spans[1].Parent, 0u);
  EXPECT_EQ(Back.Spans[1].Depth, 1u);

  // A plain response has no telemetry, and the codec stays tolerant of
  // frames from workers that did not collect any.
  WorkerResponse Plain;
  Plain.JobId = 1;
  Plain.Line = "x";
  EXPECT_FALSE(Plain.hasTelemetry());
  ASSERT_TRUE(WorkerResponse::decode(Plain.encode(), Back));
  EXPECT_FALSE(Back.hasTelemetry());
}

TEST(WorkerProtocolTest, ResponseFrameIsHeaderNewlineThenTheLineVerbatim) {
  WorkerResponse Resp;
  Resp.JobId = 7;
  Resp.Recycle = true;
  Resp.Line = "{\"package\":\"p\"}";
  obs::HistogramSnapshot H;
  H.Unit = "us";
  H.Sum = 1234;
  H.Buckets = {{3, 2}, {17, 1}};
  Resp.HistDelta["scan.latency_us"] = H;
  EXPECT_EQ(Resp.encode(),
            "7 recycle h:scan.latency_us:us:1234:3=2,17=1\n"
            "{\"package\":\"p\"}");
}

TEST(WorkerProtocolTest, MalformedResponseFramesAreRejectedNotThrown) {
  const char *Bad[] = {
      // No newline.
      "", "13", "13 recycle", "{}",
      // Header only: nothing but a pong answers without a journal line.
      "13\n", "13 recycle\n", "13 h:scan.latency_us:us:5:3=1\n",
      // Truncated or unknown header tokens.
      "13 rec\n{}", "13 h:\n{}", "13 h:scan.latency_us\n{}",
      "13 h:scan.latency_us:us\n{}", "13 h:scan.latency_us:us:5\n{}",
      "13 h:scan.latency_us:us:5:\n{}", "13 h:scan.latency_us:us:5:3=\n{}",
      "13 h:scan.latency_us:us:5:3=1,\n{}", "13 h:scan.latency_us:us:x:3=1\n{}",
      "13 spans:[{\"n\":\"a\"\n{}", "13 spans:\n{}", "13  recycle\n{}",
      "13 recycle \n{}",
      // Bad job ids.
      "\n{}", " 13\n{}", "x\n{}", "-1\n{}", "+1\n{}", "12a\n{}", "1.5\n{}",
      "99999999999999999999999\n{}"};
  for (const char *Text : Bad) {
    WorkerResponse Back;
    bool Ok = true;
    EXPECT_NO_THROW(Ok = WorkerResponse::decode(Text, Back)) << Text;
    EXPECT_FALSE(Ok) << "accepted: " << Text;
  }

  // Every prefix of a full frame decodes or is refused, never throws; one
  // cut inside the header is always refused.
  WorkerResponse Full;
  Full.JobId = 21;
  Full.Line = "{\"package\":\"p\"}";
  Full.HistDelta["scan.latency_us"].Unit = "us";
  Full.HistDelta["scan.latency_us"].Sum = 9;
  Full.HistDelta["scan.latency_us"].Buckets = {{3, 2}};
  obs::SpanRecord Root;
  Root.Name = "package";
  Root.Args = {{"name", "a b\nc.js"}};
  Full.Spans = {Root};
  const std::string Text = Full.encode();
  const size_t NewLine = Text.find('\n');
  for (size_t Len = 0; Len < Text.size(); ++Len) {
    WorkerResponse Back;
    bool Ok = true;
    EXPECT_NO_THROW(Ok = WorkerResponse::decode(Text.substr(0, Len), Back));
    if (Len <= NewLine + 1) {
      EXPECT_FALSE(Ok) << Text.substr(0, Len);
    }
  }
  WorkerResponse Back;
  ASSERT_TRUE(WorkerResponse::decode(Text, Back));
  ASSERT_EQ(Back.Spans.size(), 1u);
  EXPECT_EQ(Back.Spans[0].Args[0].second, "a b\nc.js");

  // Span entries that are not spans are dropped, not fatal.
  ASSERT_TRUE(WorkerResponse::decode(
      "4 spans:[7,{\"d\":0},{\"n\":\"x\",\"a\":[1]}]\n{}", Back));
  ASSERT_EQ(Back.Spans.size(), 1u);
  EXPECT_EQ(Back.Spans[0].Name, "x");
  EXPECT_TRUE(Back.Spans[0].Args.empty());
}

TEST(WorkerProtocolTest, JournalLineWithEscapedNewlinesRoundTrips) {
  driver::BatchOutcome Out;
  Out.Package = "multi\nline";
  Out.Status = driver::BatchStatus::Degraded;
  Out.Result.Errors.push_back({scanner::ScanPhase::Parse,
                               scanner::ScanErrorKind::ParseError,
                               "line 1\nline 2\r\ttab \"q\" \\", "a\nb.js",
                               {}});
  const std::string Line = driver::BatchDriver::journalLine(Out);
  ASSERT_EQ(Line.find('\n'), std::string::npos) << Line;

  WorkerResponse Resp;
  Resp.JobId = 5;
  Resp.Line = Line;
  int FDs[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, FDs), 0);
  ASSERT_TRUE(driver::writeFrame(FDs[0], Resp.encode()));
  ::fcntl(FDs[1], F_SETFL, ::fcntl(FDs[1], F_GETFL, 0) | O_NONBLOCK);
  FrameReader Reader;
  Reader.pump(FDs[1]);
  std::string Frame;
  ASSERT_TRUE(Reader.next(Frame));
  ::close(FDs[0]);
  ::close(FDs[1]);

  WorkerResponse Back;
  ASSERT_TRUE(WorkerResponse::decode(Frame, Back));
  EXPECT_EQ(Back.JobId, 5u);
  EXPECT_EQ(Back.Line, Line);
  driver::BatchOutcome Parsed;
  ASSERT_TRUE(driver::BatchDriver::parseJournalLine(Back.Line, Parsed));
  EXPECT_EQ(Parsed.Package, "multi\nline");
  ASSERT_EQ(Parsed.Result.Errors.size(), 1u);
  EXPECT_EQ(Parsed.Result.Errors[0].Detail, "line 1\nline 2\r\ttab \"q\" \\");
  EXPECT_EQ(Parsed.Result.Errors[0].File, "a\nb.js");
}

TEST(WorkerProtocolTest, TraceRequestFlagsRoundTrip) {
  WorkerRequest Req;
  Req.Kind = WorkerRequest::Op::Scan;
  Req.JobId = 3;
  Req.Name = "pkg";
  Req.WantTrace = true;
  Req.TraceEpochUs = 123456789012ull;
  WorkerRequest Back;
  ASSERT_TRUE(WorkerRequest::decode(Req.encode(), Back));
  EXPECT_TRUE(Back.WantTrace);
  EXPECT_EQ(Back.TraceEpochUs, 123456789012ull);

  Req.WantTrace = false;
  ASSERT_TRUE(WorkerRequest::decode(Req.encode(), Back));
  EXPECT_FALSE(Back.WantTrace);
}

TEST(WorkerProtocolTest, RebasedSpansShiftOntoTheSupervisorEpoch) {
  obs::TraceRecorder Worker;
  { obs::Span S(&Worker, "package"); }
  // A supervisor whose epoch predates the worker's by construction order.
  uint64_t SupEpoch = Worker.epochUs() > 5000 ? Worker.epochUs() - 5000 : 0;
  std::vector<obs::SpanRecord> Out = driver::rebasedSpans(Worker, SupEpoch);
  ASSERT_EQ(Out.size(), 1u);
  double Expect = Worker.spans()[0].StartUs +
                  (double(Worker.epochUs()) - double(SupEpoch));
  EXPECT_NEAR(Out[0].StartUs, Expect, 1e-6);
  EXPECT_GE(Out[0].StartUs, Worker.spans()[0].StartUs);
  EXPECT_GE(Out[0].DurUs, 0.0);
}

//===----------------------------------------------------------------------===//
// The daemon, end to end
//===----------------------------------------------------------------------===//

TEST(ScanServiceTest, ScanStatusAndShutdownRoundTrip) {
  Scratch S("roundtrip");
  std::string JS = S.writeJS("vuln.js", VulnSource);

  ServiceOptions O;
  O.SocketPath = S.path("d.sock");
  O.Jobs = 2;
  O.Quiet = true;
  ServiceHandle H = startService(O);

  std::string Resp, Error;
  ASSERT_TRUE(
      ScanService::request(O.SocketPath, scanRequest("vuln", JS), Resp, &Error))
      << Error;
  json::Object RO = parseResponse(Resp);
  EXPECT_TRUE(responseOk(RO)) << Resp;
  driver::BatchOutcome Out = responseOutcome(RO);
  EXPECT_EQ(Out.Package, "vuln");
  EXPECT_EQ(Out.Status, driver::BatchStatus::Ok);
  EXPECT_FALSE(Out.Result.Reports.empty()); // The CWE-78 must be found.

  EXPECT_EQ(statusNumber(O.SocketPath, "completed"), 1);
  EXPECT_EQ(statusNumber(O.SocketPath, "accepted"), 1);
  EXPECT_EQ(statusNumber(O.SocketPath, "rejected"), 0);
  EXPECT_EQ(statusNumber(O.SocketPath, "queued"), 0);

  shutdownService(H);
  // The socket file is unlinked on the way out.
  EXPECT_FALSE(std::filesystem::exists(O.SocketPath));
}

TEST(ScanServiceTest, ScanOfUnreadableFileDegradesNotCrashes) {
  Scratch S("unread");
  ServiceOptions O;
  O.SocketPath = S.path("d.sock");
  O.Jobs = 1;
  O.Quiet = true;
  ServiceHandle H = startService(O);

  std::string Resp;
  ASSERT_TRUE(ScanService::request(
      O.SocketPath, scanRequest("ghost", S.path("missing.js")), Resp));
  json::Object RO = parseResponse(Resp);
  EXPECT_TRUE(responseOk(RO)) << Resp;
  driver::BatchOutcome Out = responseOutcome(RO);
  EXPECT_EQ(Out.Package, "ghost");
  EXPECT_NE(Out.Status, driver::BatchStatus::Ok);

  shutdownService(H);
}

TEST(ScanServiceTest, BadRequestsAreRejectedNotFatal) {
  Scratch S("badreq");
  std::string JS = S.writeJS("ok.js", VulnSource);
  ServiceOptions O;
  O.SocketPath = S.path("d.sock");
  O.Jobs = 1;
  O.Quiet = true;
  ServiceHandle H = startService(O);

  std::string Resp;
  ASSERT_TRUE(ScanService::request(O.SocketPath, "not json at all", Resp));
  EXPECT_EQ(responseError(parseResponse(Resp)), "bad-request");
  ASSERT_TRUE(ScanService::request(O.SocketPath, "{\"op\":\"reboot\"}", Resp));
  EXPECT_EQ(responseError(parseResponse(Resp)), "bad-request");
  ASSERT_TRUE(
      ScanService::request(O.SocketPath, "{\"op\":\"scan\"}", Resp));
  EXPECT_EQ(responseError(parseResponse(Resp)), "bad-request");

  // The daemon is still healthy afterwards.
  ASSERT_TRUE(
      ScanService::request(O.SocketPath, scanRequest("ok", JS), Resp));
  EXPECT_TRUE(responseOk(parseResponse(Resp))) << Resp;

  shutdownService(H);
}

TEST(ScanServiceTest, MalformedNumbersAreBadRequestsNotFatal) {
  // A lone minus sign and a number past double range once threw out of
  // the JSON parser and took the daemon down with them.
  Scratch S("badnum");
  ServiceOptions O;
  O.SocketPath = S.path("d.sock");
  O.Jobs = 1;
  O.Quiet = true;
  ServiceHandle H = startService(O);

  std::string Resp;
  ASSERT_TRUE(ScanService::request(O.SocketPath, "-", Resp));
  EXPECT_EQ(responseError(parseResponse(Resp)), "bad-request");
  ASSERT_TRUE(ScanService::request(O.SocketPath,
                                   "{\"op\":\"status\",\"x\":1e999}", Resp));
  EXPECT_EQ(responseError(parseResponse(Resp)), "bad-request");

  // The daemon still answers.
  ASSERT_TRUE(ScanService::request(O.SocketPath, "{\"op\":\"status\"}", Resp));
  EXPECT_TRUE(responseOk(parseResponse(Resp))) << Resp;

  shutdownService(H);
}

TEST(ScanServiceTest, WorkerCrashIsAttributedAndReForked) {
  Scratch S("crash");
  std::string JS = S.writeJS("pkg.js", VulnSource);
  ServiceOptions O;
  O.SocketPath = S.path("d.sock");
  O.Jobs = 1;
  O.Quiet = true;
  ServiceHandle H = startService(O);

  // The injected crash kills the worker mid-job: the response still
  // arrives, ok:true with a failed outcome attributed "crashed".
  std::string Resp;
  ASSERT_TRUE(ScanService::request(
      O.SocketPath, scanRequest("boom", JS, 0, "build:crash"), Resp));
  json::Object RO = parseResponse(Resp);
  EXPECT_TRUE(responseOk(RO)) << Resp;
  driver::BatchOutcome Out = responseOutcome(RO);
  EXPECT_EQ(Out.Status, driver::BatchStatus::Failed);
  ASSERT_FALSE(Out.Result.Errors.empty());
  EXPECT_EQ(Out.Result.Errors[0].Kind, scanner::ScanErrorKind::Crashed);

  // A fresh worker serves the next scan.
  ASSERT_TRUE(
      ScanService::request(O.SocketPath, scanRequest("after", JS), Resp));
  RO = parseResponse(Resp);
  EXPECT_TRUE(responseOk(RO)) << Resp;
  EXPECT_EQ(responseOutcome(RO).Status, driver::BatchStatus::Ok);

  shutdownService(H);
}

TEST(ScanServiceTest, RecycleQuotaRetiresAndReForks) {
  Scratch S("recycle");
  std::string JS = S.writeJS("pkg.js", VulnSource);
  std::string Journal = S.path("serve.jsonl");
  ServiceOptions O;
  O.SocketPath = S.path("d.sock");
  O.Jobs = 1;
  O.RecycleAfter = 2;
  O.JournalPath = Journal;
  O.Quiet = true;
  ServiceHandle H = startService(O);

  // Each worker answers two scans, announces its recycle on the second and
  // exits; the planned death fails nothing and a fresh image takes over.
  for (int I = 0; I < 5; ++I) {
    std::string Resp;
    ASSERT_TRUE(ScanService::request(
        O.SocketPath, scanRequest("pkg" + std::to_string(I), JS), Resp));
    json::Object RO = parseResponse(Resp);
    EXPECT_TRUE(responseOk(RO)) << Resp;
    EXPECT_EQ(responseOutcome(RO).Status, driver::BatchStatus::Ok) << Resp;
  }
  // Reaping a recycled worker trails its last response: wait for it.
  EXPECT_TRUE(waitUntil(
      10.0, [&] { return statusNumber(O.SocketPath, "recycled") >= 2; }));
  EXPECT_GE(statusNumber(O.SocketPath, "generations"), 3);
  EXPECT_EQ(statusNumber(O.SocketPath, "completed_ok"), 5);
  shutdownService(H);

  std::ifstream In(Journal);
  std::string Line;
  size_t Lines = 0;
  while (std::getline(In, Line)) {
    driver::BatchOutcome Out;
    ASSERT_TRUE(driver::BatchDriver::parseJournalLine(Line, Out)) << Line;
    EXPECT_EQ(Out.Package, "pkg" + std::to_string(Lines));
    ++Lines;
  }
  EXPECT_EQ(Lines, 5u);
}

TEST(ScanServiceTest, OomFaultIsAttributedKilledOom) {
  Scratch S("oom");
  std::string JS = S.writeJS("pkg.js", VulnSource);
  ServiceOptions O;
  O.SocketPath = S.path("d.sock");
  O.Jobs = 1;
  // Under AddressSanitizer RLIMIT_AS is not applied; the fault's allocation
  // storm then self-bounds and exits with the OOM code on its own, so the
  // attribution is the same either way.
  O.MemLimitMB = 128;
  O.Quiet = true;
  ServiceHandle H = startService(O);

  std::string Resp;
  ASSERT_TRUE(ScanService::request(
      O.SocketPath, scanRequest("hog", JS, 0, "build:oom"), Resp));
  json::Object RO = parseResponse(Resp);
  EXPECT_TRUE(responseOk(RO)) << Resp;
  driver::BatchOutcome Out = responseOutcome(RO);
  EXPECT_EQ(Out.Status, driver::BatchStatus::Failed);
  ASSERT_FALSE(Out.Result.Errors.empty());
  EXPECT_EQ(Out.Result.Errors[0].Kind, scanner::ScanErrorKind::KilledOom);

  // The replacement worker serves the next scan.
  ASSERT_TRUE(
      ScanService::request(O.SocketPath, scanRequest("after", JS), Resp));
  RO = parseResponse(Resp);
  EXPECT_TRUE(responseOk(RO)) << Resp;
  EXPECT_EQ(responseOutcome(RO).Status, driver::BatchStatus::Ok);

  shutdownService(H);
}

TEST(ScanServiceTest, OverloadedRejectionAndRecoveryAfterDrain) {
  Scratch S("overload");
  std::string JS = S.writeJS("pkg.js", VulnSource);
  ServiceOptions O;
  O.SocketPath = S.path("d.sock");
  O.Jobs = 1;
  O.QueueMax = 1;
  O.KillAfterSeconds = 1.0; // The hang below dies at 1s.
  O.Quiet = true;
  ServiceHandle H = startService(O);

  // Wedge the single worker.
  RawClient Hanging;
  ASSERT_TRUE(Hanging.connect(O.SocketPath));
  ASSERT_TRUE(Hanging.sendLine(scanRequest("hang", JS, 0, "build:hang")));
  ASSERT_TRUE(waitUntil(
      10.0, [&] { return statusNumber(O.SocketPath, "inflight") == 1; }));

  // Fill the one queue slot.
  RawClient Queued;
  ASSERT_TRUE(Queued.connect(O.SocketPath));
  ASSERT_TRUE(Queued.sendLine(scanRequest("queued", JS)));
  ASSERT_TRUE(waitUntil(
      10.0, [&] { return statusNumber(O.SocketPath, "queued") == 1; }));

  // The next scan must bounce with explicit backpressure.
  std::string Resp;
  ASSERT_TRUE(
      ScanService::request(O.SocketPath, scanRequest("extra", JS), Resp));
  json::Object RO = parseResponse(Resp);
  EXPECT_FALSE(responseOk(RO));
  EXPECT_EQ(responseError(RO), "overloaded");
  EXPECT_GE(statusNumber(O.SocketPath, "rejected"), 1);

  // The kill ladder fires, the wedged job fails deadline-killed, the
  // queued job lands on the replacement worker and completes.
  json::Object HangResp = parseResponse(Hanging.recvLine(20.0));
  EXPECT_TRUE(responseOk(HangResp));
  driver::BatchOutcome HangOut = responseOutcome(HangResp);
  EXPECT_EQ(HangOut.Status, driver::BatchStatus::Failed);
  ASSERT_FALSE(HangOut.Result.Errors.empty());
  EXPECT_EQ(HangOut.Result.Errors[0].Kind,
            scanner::ScanErrorKind::KilledDeadline);

  json::Object QueuedResp = parseResponse(Queued.recvLine(20.0));
  EXPECT_TRUE(responseOk(QueuedResp));
  EXPECT_EQ(responseOutcome(QueuedResp).Status, driver::BatchStatus::Ok);

  // Recovered: admissions work again.
  ASSERT_TRUE(
      ScanService::request(O.SocketPath, scanRequest("after", JS), Resp));
  EXPECT_TRUE(responseOk(parseResponse(Resp))) << Resp;

  shutdownService(H);
}

TEST(ScanServiceTest, DrainStopsAdmissionThenShutdownExitsClean) {
  Scratch S("drain");
  std::string JS = S.writeJS("pkg.js", VulnSource);
  ServiceOptions O;
  O.SocketPath = S.path("d.sock");
  O.Jobs = 1;
  O.Quiet = true;
  ServiceHandle H = startService(O);

  std::string Resp;
  ASSERT_TRUE(
      ScanService::request(O.SocketPath, scanRequest("before", JS), Resp));
  EXPECT_TRUE(responseOk(parseResponse(Resp)));

  ASSERT_TRUE(ScanService::request(O.SocketPath, "{\"op\":\"drain\"}", Resp));
  EXPECT_TRUE(responseOk(parseResponse(Resp)));

  ASSERT_TRUE(
      ScanService::request(O.SocketPath, scanRequest("after", JS), Resp));
  json::Object RO = parseResponse(Resp);
  EXPECT_FALSE(responseOk(RO));
  EXPECT_EQ(responseError(RO), "draining");

  shutdownService(H);
}

TEST(ScanServiceTest, SigtermDrainsAndExitsClean) {
  Scratch S("sigterm");
  std::string JS = S.writeJS("pkg.js", VulnSource);
  ServiceOptions O;
  O.SocketPath = S.path("d.sock");
  O.Jobs = 1;
  O.Quiet = true;
  ServiceHandle H = startService(O);

  std::string Resp;
  ASSERT_TRUE(
      ScanService::request(O.SocketPath, scanRequest("one", JS), Resp));
  EXPECT_TRUE(responseOk(parseResponse(Resp)));

  ASSERT_TRUE(H.Proc.kill(SIGTERM));
  WaitStatus WS = H.Proc.wait();
  EXPECT_TRUE(WS.exitedWith(0)) << WS.str();
  EXPECT_FALSE(std::filesystem::exists(O.SocketPath));
}

TEST(ScanServiceTest, JournalAppendsAcrossRestarts) {
  Scratch S("journal");
  std::string JS = S.writeJS("pkg.js", VulnSource);
  std::string Journal = S.path("serve.jsonl");

  ServiceOptions O;
  O.SocketPath = S.path("d.sock");
  O.Jobs = 1;
  O.JournalPath = Journal;
  O.Quiet = true;

  ServiceHandle H1 = startService(O);
  std::string Resp;
  ASSERT_TRUE(ScanService::request(O.SocketPath, scanRequest("a", JS), Resp));
  ASSERT_TRUE(ScanService::request(O.SocketPath, scanRequest("b", JS), Resp));
  shutdownService(H1);

  // A restarted daemon extends the history, never clobbers it.
  ServiceHandle H2 = startService(O);
  ASSERT_TRUE(ScanService::request(O.SocketPath, scanRequest("c", JS), Resp));
  shutdownService(H2);

  std::vector<std::string> Names;
  std::ifstream In(Journal);
  std::string Line;
  while (std::getline(In, Line)) {
    driver::BatchOutcome Out;
    ASSERT_TRUE(driver::BatchDriver::parseJournalLine(Line, Out)) << Line;
    Names.push_back(Out.Package);
  }
  EXPECT_EQ(Names, (std::vector<std::string>{"a", "b", "c"}));
}

//===----------------------------------------------------------------------===//
// The metrics surface
//===----------------------------------------------------------------------===//

TEST(ScanServiceTest, StatusReportsVerdictCountsGenerationsAndUptime) {
  Scratch S("statplus");
  std::string JS = S.writeJS("pkg.js", VulnSource);
  ServiceOptions O;
  O.SocketPath = S.path("d.sock");
  O.Jobs = 1;
  O.Quiet = true;
  ServiceHandle H = startService(O);

  std::string Resp;
  ASSERT_TRUE(ScanService::request(O.SocketPath, scanRequest("ok1", JS), Resp));
  ASSERT_TRUE(ScanService::request(
      O.SocketPath, scanRequest("boom", JS, 0, "build:crash"), Resp));

  EXPECT_EQ(statusNumber(O.SocketPath, "completed"), 2);
  EXPECT_EQ(statusNumber(O.SocketPath, "completed_ok"), 1);
  EXPECT_EQ(statusNumber(O.SocketPath, "completed_failed"), 1);
  EXPECT_EQ(statusNumber(O.SocketPath, "completed_degraded"), 0);
  // One initial fork plus the re-fork after the crash.
  EXPECT_GE(statusNumber(O.SocketPath, "generations"), 2);
  EXPECT_GT(statusNumber(O.SocketPath, "uptime_s"), 0);

  shutdownService(H);
}

TEST(ScanServiceTest, MetricsOpReportsMergedTelemetry) {
  Scratch S("metrics");
  std::string JS = S.writeJS("pkg.js", VulnSource);
  ServiceOptions O;
  O.SocketPath = S.path("d.sock");
  O.Jobs = 1;
  O.Quiet = true;
  ServiceHandle H = startService(O);

  std::string Resp;
  ASSERT_TRUE(ScanService::request(O.SocketPath, scanRequest("a", JS), Resp));
  ASSERT_TRUE(ScanService::request(O.SocketPath, scanRequest("b", JS), Resp));

  ASSERT_TRUE(ScanService::request(O.SocketPath, "{\"op\":\"metrics\"}", Resp));
  json::Object M = parseResponse(Resp);
  EXPECT_TRUE(responseOk(M)) << Resp;

  // Gauges.
  ASSERT_TRUE(M.count("serve.uptime_s"));
  EXPECT_GT(M.at("serve.uptime_s").asNumber(), 0);
  ASSERT_TRUE(M.count("serve.queue_depth"));
  EXPECT_EQ(M.at("serve.queue_depth").asNumber(), 0);
  ASSERT_TRUE(M.count("serve.workers"));
  EXPECT_EQ(M.at("serve.workers").asNumber(), 1);

  // Counters merged up from worker processes: the scan pipeline ran in a
  // child, so nonzero lex.tokens here proves cross-process stitching.
  ASSERT_TRUE(M.count("counters") && M.at("counters").isObject()) << Resp;
  const json::Object &C = M.at("counters").asObject();
  ASSERT_TRUE(C.count("scan.attempts"));
  EXPECT_GE(C.at("scan.attempts").asNumber(), 2);
  ASSERT_TRUE(C.count("lex.tokens"));
  EXPECT_GT(C.at("lex.tokens").asNumber(), 0);

  // Histograms: scan latency has one sample per scan and non-degenerate
  // percentile structure (the acceptance bar for the metrics surface).
  ASSERT_TRUE(M.count("histograms") && M.at("histograms").isObject()) << Resp;
  const json::Object &Hs = M.at("histograms").asObject();
  ASSERT_TRUE(Hs.count("scan.latency_us")) << Resp;
  const json::Object &Lat = Hs.at("scan.latency_us").asObject();
  EXPECT_EQ(Lat.at("count").asNumber(), 2);
  EXPECT_GT(Lat.at("p50").asNumber(), 0);
  EXPECT_GT(Lat.at("p99").asNumber(), 0);
  EXPECT_LE(Lat.at("p50").asNumber(), Lat.at("p99").asNumber());
  EXPECT_GT(Lat.at("sum").asNumber(), 0);
  // Worker-side phase histograms made it across the pipe too.
  EXPECT_TRUE(Hs.count("phase.parse_us")) << Resp;
  // Supervisor-side queue/turnaround clocks.
  EXPECT_TRUE(Hs.count("queue.wait_us")) << Resp;
  EXPECT_TRUE(Hs.count("worker.job_us")) << Resp;

  shutdownService(H);
}

TEST(ScanServiceTest, MetricsOutWritesPrometheusSnapshotAtDrain) {
  Scratch S("promout");
  std::string JS = S.writeJS("pkg.js", VulnSource);
  std::string Prom = S.path("m.prom");
  ServiceOptions O;
  O.SocketPath = S.path("d.sock");
  O.Jobs = 1;
  O.Quiet = true;
  O.MetricsPath = Prom;
  ServiceHandle H = startService(O);

  std::string Resp;
  ASSERT_TRUE(ScanService::request(O.SocketPath, scanRequest("a", JS), Resp));
  shutdownService(H); // The drain path writes a final snapshot.

  std::ifstream In(Prom);
  std::stringstream SS;
  SS << In.rdbuf();
  std::string Page = SS.str();
  EXPECT_NE(Page.find("# TYPE graphjs_scan_attempts counter"),
            std::string::npos)
      << Page;
  EXPECT_NE(Page.find("# TYPE graphjs_scan_latency_us summary"),
            std::string::npos)
      << Page;
  EXPECT_NE(Page.find("graphjs_scan_latency_us_count 1"), std::string::npos);
  EXPECT_NE(Page.find("# TYPE graphjs_serve_uptime_s gauge"),
            std::string::npos);
}
