//===- driver/WorkerProtocol.h - Supervisor<->worker framing -----*- C++ -*-==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire protocol between a supervisor and its resident workers:
/// request and response messages in length-prefixed frames over a
/// socketpair, plus the worker's side of it (runWorkerLoop), shared by both
/// supervisors. The supervisor's side is driver/WorkerSet.h.
///
/// A resident worker drains many jobs over its lifetime, so each job needs
/// an explicit request (which package, retry or not, per-request deadline)
/// and an explicit response (the journal line, plus whether the worker is
/// about to recycle itself). The same messages serve two supervisors:
///
///  - driver::ProcessPool, where a request names an index into the
///    in-memory work plan the worker inherited at fork; and
///  - driver::ScanService (`graphjs serve`), where a request carries the
///    package spec itself (name + file paths) because jobs arrive from the
///    network after the worker was forked.
///
/// Framing is a 4-byte little-endian length prefix followed by that many
/// payload bytes, written with one send. A request payload is a compact
/// JSON object (the same object a `graphjs serve` client sends). A
/// response payload is a one-line telemetry header, `\n`, then the job's
/// journal line verbatim — the line is serialized once, by the worker's
/// BatchDriver::journalLine, and never escaped into another document:
///
///   <job-id>[ pong][ recycle][ h:<name>:<unit>:<sum>:<b>=<n>[,<b>=<n>]...]...
///           [ spans:<JSON array>]
///
/// One `h:` token per histogram that grew (bucket index `b` gained `n`
/// samples; names and units hold no space, ':' or newline). `spans:`,
/// present only when the request asked for a trace, is the last token and
/// runs to the end of the header (compact JSON holds no raw newline). The
/// supervisor splits at the first newline, reads the rest of the header
/// with integer parsing only, and parses the line once.
///
/// All I/O here is EINTR-retried and SIGPIPE-free (writes use
/// MSG_NOSIGNAL): a signal aimed at the supervisor mid-syscall must never
/// corrupt a frame or misattribute a worker verdict.
///
//===----------------------------------------------------------------------===//

#ifndef GJS_DRIVER_WORKERPROTOCOL_H
#define GJS_DRIVER_WORKERPROTOCOL_H

#include "driver/BatchDriver.h"
#include "obs/Counters.h"
#include "obs/Histogram.h"
#include "obs/Trace.h"
#include "support/Subprocess.h"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace gjs {
namespace driver {

/// Exit code a resident worker uses for a *planned* death: it finished
/// its recycle quota (or tripped the memory watermark), answered its last
/// job, and exited so the supervisor re-forks a fresh image. Distinct from
/// crash codes and from WorkerOomExit (86).
constexpr int WorkerRecycleExit = 88;

/// Frames larger than this are treated as protocol corruption (a journal
/// line is a few KB; nothing legitimate approaches this).
constexpr uint32_t MaxFrameBytes = 64u << 20;

/// Writes one length-prefixed frame. EINTR-retried full write; SIGPIPE is
/// suppressed (a dead peer surfaces as `false`, never a signal).
bool writeFrame(int FD, const std::string &Payload,
                std::string *Error = nullptr);

/// Blocking read of one full frame (the worker side of the pipe). Returns
/// false on EOF (supervisor gone) or a malformed length prefix. Records
/// the frame in proto.frame_bytes, as FrameReader::next does on the
/// supervisor side: every frame is counted once, by whoever reads it.
bool readFrame(int FD, std::string &Out, std::string *Error = nullptr);

/// Supervisor-side incremental frame reassembly over a non-blocking fd.
/// pump() slurps whatever bytes are available; next() pops complete frames.
/// A closed or corrupt peer parks the reader in dead() — the supervisor
/// then falls back to the wait-status verdict for anything in flight.
class FrameReader {
public:
  /// Reads available bytes (non-blocking). Returns false once the peer is
  /// dead (EOF, error, or an oversized frame); buffered complete frames
  /// remain poppable via next().
  bool pump(int FD);

  /// Pops the next complete frame into \p Out. False when no full frame is
  /// buffered yet.
  bool next(std::string &Out);

  bool dead() const { return Dead; }

private:
  std::string Buf;
  bool Dead = false;
};

/// One job request, supervisor -> worker.
struct WorkerRequest {
  enum class Op {
    Scan, ///< Scan one package and respond with its journal line.
    Ping, ///< Liveness probe; the worker answers with Pong.
    Exit, ///< Drain request: the worker exits 0 without answering.
  };
  Op Kind = Op::Scan;
  /// Correlation id echoed back in the response.
  uint64_t JobId = 0;
  /// Pool mode: index into the work plan the worker inherited at fork.
  /// Unset (HasPlanIndex=false) in serve mode.
  bool HasPlanIndex = false;
  size_t PlanIndex = 0;
  /// Retry of a crashed/killed job: the worker drops the injected fault
  /// and halves the wall-clock budget (the transient-failure model).
  bool IsRetry = false;
  /// Serve mode: the package spec itself.
  std::string Name;
  std::vector<std::string> Paths;
  /// Per-request wall-clock budget override in seconds (0 = use the
  /// worker's configured default).
  double DeadlineSeconds = 0;
  /// Deterministic fault injection ("<phase>:<action>[:n]", tests only).
  std::string FaultSpec;
  /// Capture a span tree for this job and return it in the response.
  bool WantTrace = false;
  /// The supervisor recorder's epoch, microseconds on the shared
  /// steady-clock (CLOCK_MONOTONIC) timeline. The worker rebases its span
  /// timestamps onto it before responding, so stitched traces share one
  /// clock instead of interleaving per-process origins.
  uint64_t TraceEpochUs = 0;

  std::string encode() const;
  /// False on malformed JSON, a non-object, or a missing or unknown op.
  static bool decode(std::string_view Text, WorkerRequest &Out);
};

/// One job response, worker -> supervisor.
struct WorkerResponse {
  uint64_t JobId = 0;
  /// The completed package's JSONL journal line (empty for Pong).
  std::string Line;
  /// Answer to Op::Ping.
  bool Pong = false;
  /// The worker recycles (exits WorkerRecycleExit) right after this
  /// response: the supervisor must not assign it further work.
  bool Recycle = false;
  /// Worker-side telemetry for this job, merged by the supervisor into its
  /// own registries (the cross-process stitching payload; both optional —
  /// empty when the worker ran without counters/tracing). The response
  /// carries no counters: the journal line already holds the package's
  /// counter delta (`counters`), and the supervisor merges that.
  /// Histogram bucket deltas recorded since the worker's previous
  /// response (obs::histogramDelta over a flat value snapshot)…
  obs::HistogramSnapshotMap HistDelta;
  /// …and the job's span tree, timestamps already rebased onto the
  /// supervisor epoch from the request.
  std::vector<obs::SpanRecord> Spans;

  bool hasTelemetry() const { return !HistDelta.empty() || !Spans.empty(); }

  /// The frame payload: header, `\n`, Line.
  std::string encode() const;
  /// False, never a throw, on a payload without a newline, a header that
  /// does not parse (job id, flags, `h:` and `spans:` tokens), or an empty
  /// line in anything but a pong.
  static bool decode(std::string_view Text, WorkerResponse &Out);
};

/// Extracts a worker recorder's spans rebased onto the supervisor's epoch
/// (StartUs += own epoch - supervisor epoch), ready for
/// WorkerResponse::Spans. Spans still open serialize with zero duration.
std::vector<obs::SpanRecord>
rebasedSpans(const obs::TraceRecorder &Recorder, uint64_t SupervisorEpochUs);

/// What a resident worker does beyond scanning, the same for every caller.
struct WorkerLoopOptions {
  /// Planned recycle after this many jobs (0 = unlimited)…
  unsigned RecycleAfter = 0;
  /// …or once the resident set exceeds this many MiB after a job (0 = off).
  size_t RecycleRssMB = 0;
};

/// The per-caller half of a worker: turns one Scan request into an
/// outcome, scanning with \p Trace as its recorder (null unless the
/// request asked for spans). False means the request names no job the
/// worker can run — protocol corruption.
using WorkerJobSource = std::function<bool(
    const WorkerRequest &Req, obs::TraceRecorder *Trace, BatchOutcome &Out)>;

/// The resident worker body shared by driver::ProcessPool and
/// driver::ScanService. Drains request frames off \p FD until the
/// supervisor says exit or hangs up: answers pings, scans each job through
/// \p Source, attaches the histogram delta since the previous response
/// (one flat snapshot per job) and the span tree rebased onto the
/// supervisor's epoch (with a `reply` span timing the journal line and the
/// delta), and announces a recycle in the last response before exiting
/// WorkerRecycleExit — so the supervisor never mistakes the planned death
/// for a crash nor assigns the worker a job it would silently drop.
/// Returns the exit code: 0 on an orderly drain, 121 on protocol
/// corruption, 122 when a response cannot be written.
int runWorkerLoop(int FD, const WorkerLoopOptions &Options,
                  const WorkerJobSource &Source);

} // namespace driver
} // namespace gjs

#endif // GJS_DRIVER_WORKERPROTOCOL_H
