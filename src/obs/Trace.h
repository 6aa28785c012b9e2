//===- obs/Trace.h - Pipeline span tracing -----------------------*- C++ -*-==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RAII span tracing for the scan pipeline. A TraceRecorder collects one
/// tree of timed spans per scan (package → attempt → parse/normalize/
/// build/import/query → per-file and per-query children), exportable as
///
///  - Chrome `trace_event` JSON (load in chrome://tracing or Perfetto) via
///    `graphjs scan --trace-out <file>`, and
///  - a compact indented text tree via `graphjs scan --trace`.
///
/// The recorder is opt-in and branch-on-null: every instrumentation site
/// holds a `TraceRecorder *` that is null in production scans, so the
/// disabled cost is a pointer test. The recorder itself is single-threaded
/// (one recorder per scan), matching the single-threaded pipeline.
///
//===----------------------------------------------------------------------===//

#ifndef GJS_OBS_TRACE_H
#define GJS_OBS_TRACE_H

#include <chrono>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace gjs {
namespace obs {

/// One completed (or still open) span. Spans are stored in begin order,
/// which is pre-order for the span tree.
struct SpanRecord {
  std::string Name;
  /// Microseconds since the recorder's epoch.
  double StartUs = 0;
  /// Microseconds; negative while the span is still open.
  double DurUs = -1;
  /// Nesting depth (root spans are 0).
  unsigned Depth = 0;
  /// Index of the enclosing span, or npos for roots.
  size_t Parent = npos;
  /// Process lane for Chrome export. 0 = this recorder's own lane (the
  /// recorder's default pid); merged worker spans carry the worker's pid,
  /// putting every process on its own track in the stitched trace.
  int Pid = 0;
  /// Key/value annotations (phase metrics, file names, query names).
  std::vector<std::pair<std::string, std::string>> Args;

  static constexpr size_t npos = static_cast<size_t>(-1);
  bool open() const { return DurUs < 0; }
};

/// Records one tree of timed spans.
class TraceRecorder {
public:
  TraceRecorder() : Epoch(Clock::now()) {}

  /// Opens a span nested under the innermost open span.
  size_t begin(std::string Name);

  /// Closes \p Id (and, defensively, any span opened after it that was
  /// never closed — a span must not outlive its parent).
  void end(size_t Id);

  /// Attaches an annotation to \p Id.
  void annotate(size_t Id, std::string Key, std::string Value);

  const std::vector<SpanRecord> &spans() const { return Spans; }

  /// Current time in microseconds since this recorder's epoch (what a
  /// supervisor stamps on its retroactive scheduling spans).
  double nowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - Epoch)
        .count();
  }

  /// This recorder's epoch as microseconds since the steady-clock origin.
  /// steady_clock is CLOCK_MONOTONIC — one system-wide timeline — so a
  /// worker can rebase its spans onto the supervisor's epoch exactly:
  /// supervisor-relative start = own start + (own epochUs - supervisor
  /// epochUs). This is what rides in the job request frame.
  uint64_t epochUs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            Epoch.time_since_epoch())
            .count());
  }

  /// The Chrome-trace lane for this recorder's own spans (0 exports as
  /// pid 1, the single-process default). A stitching supervisor sets its
  /// real pid so its scheduling lane sits beside the worker lanes.
  void setDefaultPid(int P) { DefaultPid = P; }
  int defaultPid() const { return DefaultPid; }

  /// Names a pid lane in the Chrome export ("supervisor", "worker 1234")
  /// via process_name metadata events. Re-labeling a pid overwrites.
  void labelPid(int Pid, std::string Label);

  /// Appends one already-timed span, closed, as a root or as a child of
  /// \p Parent (supervisor scheduling spans are recorded retroactively, at
  /// job completion). Returns its id for annotate().
  size_t addCompletedSpan(std::string Name, double StartUs, double DurUs,
                          int Pid = 0, size_t Parent = SpanRecord::npos);

  /// Splices a worker's serialized span tree into this recorder: parent
  /// links are rebased onto the appended range, every span is stamped with
  /// \p Pid, and timestamps are taken as already epoch-normalized (the
  /// worker rebased them before encoding). The open-span stack is
  /// untouched — foreign spans are history, not context.
  void addForeignSpans(std::vector<SpanRecord> Foreign, int Pid);

  /// Chrome trace_event JSON ("X" complete events, ts/dur in microseconds).
  /// Open spans are exported with their elapsed-so-far duration.
  std::string toChromeJSON() const;

  /// Compact indented text tree with millisecond durations.
  std::string toText() const;

private:
  using Clock = std::chrono::steady_clock;

  Clock::time_point Epoch;
  std::vector<SpanRecord> Spans;
  std::vector<size_t> Open; ///< Indices of currently open spans.
  int DefaultPid = 0;
  std::vector<std::pair<int, std::string>> PidLabels;
};

/// RAII span handle. A null recorder makes every operation a no-op, so
/// instrumentation sites need no conditionals of their own.
class Span {
public:
  Span(TraceRecorder *R, std::string Name) : R(R) {
    if (R)
      Id = R->begin(std::move(Name));
  }
  ~Span() { close(); }

  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Attaches a key/value annotation to this span.
  void arg(std::string Key, std::string Value) {
    if (R)
      R->annotate(Id, std::move(Key), std::move(Value));
  }
  void arg(std::string Key, uint64_t Value) {
    if (R)
      arg(std::move(Key), std::to_string(Value));
  }

  /// Closes the span early (before destruction).
  void close() {
    if (R)
      R->end(Id);
    R = nullptr;
  }

private:
  TraceRecorder *R;
  size_t Id = 0;
};

} // namespace obs
} // namespace gjs

#endif // GJS_OBS_TRACE_H
