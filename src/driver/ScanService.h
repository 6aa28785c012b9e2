//===- driver/ScanService.h - Long-lived graphjs scan daemon -----*- C++ -*-==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `graphjs serve`: a long-lived scan daemon with warm resident workers.
/// The batch pool amortizes fork cost across one run; the service amortizes
/// it across *runs* — CI bots, editor integrations, and registry monitors
/// pay worker startup once and then get crash-contained scans on demand.
///
/// Shape:
///
///  - **Transport**: a Unix-domain stream socket. Requests and responses
///    are newline-delimited JSON (one object per line); a connection may
///    carry any number of requests.
///  - **Ops**: `scan` (name + file paths, optional per-request deadline and
///    fault spec), `status` (queue/worker/counter snapshot), `drain` (stop
///    admitting scans; in-flight and queued work still completes), and
///    `shutdown` (drain, then exit once the queue is empty).
///  - **Admission**: a bounded queue. A scan arriving with the queue full
///    is rejected immediately with `{"ok":false,"error":"overloaded"}` —
///    explicit backpressure instead of unbounded buffering — and a queued
///    request that outwaits its own deadline is rejected with `"deadline"`.
///  - **Workers**: the same resident-worker machinery as the pool
///    (driver/WorkerProtocol.h): frames over socketpairs, one shared worker
///    frame loop, the kill ladder for wedged jobs, one crash/oom/deadline
///    attribution, recycling on a package quota or RSS watermark (a
///    retiring worker's replacement is forked at once). A dead worker is re-forked under
///    exponential backoff (a worker that dies on arrival must not turn the
///    daemon into a fork bomb), and idle workers answer heartbeat pings so
///    a wedged-while-idle worker is detected before a job lands on it.
///  - **Durability**: an optional append-mode JSONL journal records every
///    completed scan in the BatchDriver line format, flushed per line.
///    SIGINT/SIGTERM drain gracefully: in-flight requests finish, the
///    journal is flushed, the socket is unlinked.
///
//===----------------------------------------------------------------------===//

#ifndef GJS_DRIVER_SCANSERVICE_H
#define GJS_DRIVER_SCANSERVICE_H

#include "scanner/Scanner.h"

#include <string>

namespace gjs {
namespace driver {

struct ServiceOptions {
  /// Unix-domain socket path to bind (a stale file there is replaced).
  std::string SocketPath;
  /// Base scan settings for every request (per-request deadline_s and
  /// fault override Deadline.WallSeconds / Fault).
  scanner::ScanOptions Scan;
  /// Warm resident workers kept forked and waiting.
  unsigned Jobs = 2;
  /// Admission bound: scans beyond this many queued requests are rejected
  /// with "overloaded".
  size_t QueueMax = 64;
  /// Supervisor kill for a wedged job, seconds of wall-clock (0 derives
  /// 2*deadline+1 from the request's or the base deadline when one is set,
  /// else disables the killer — same policy as the pool).
  double KillAfterSeconds = 0;
  /// Recycle a worker after this many scans (0 = unlimited).
  unsigned RecycleAfter = 0;
  /// Recycle a worker whose RSS exceeds this many MiB after a job (0 = off).
  size_t RecycleRssMB = 0;
  /// RLIMIT_AS per worker in MiB (0 = uncapped; ignored under ASan).
  size_t MemLimitMB = 0;
  /// Append-mode JSONL journal of completed scans (empty = none).
  std::string JournalPath;
  /// Idle-worker heartbeat cadence in seconds: ping after this long idle,
  /// kill if the pong takes longer than this again (0 disables).
  double HeartbeatSeconds = 5.0;
  /// Suppress the per-event stderr log lines.
  bool Quiet = false;
  /// Prometheus text-format snapshot path (`--metrics-out`): rewritten
  /// every MetricsEverySeconds off the poll loop and once at drain, so an
  /// external scraper sees live counters, latency percentiles, and
  /// uptime/queue gauges without speaking the NDJSON protocol. Empty
  /// disables.
  std::string MetricsPath;
  double MetricsEverySeconds = 5.0;
};

/// The scan daemon. Single-threaded: one poll() loop multiplexes the
/// listening socket, client connections, and worker pipes.
class ScanService {
public:
  explicit ScanService(ServiceOptions Options);

  /// Binds the socket and serves until `shutdown` (request or signal).
  /// Returns 0 on a clean drain, 1 when the socket could not be set up.
  int run();

  const ServiceOptions &options() const { return Options; }

  /// One-shot client: connect to \p SocketPath (retrying while the daemon
  /// is still starting, up to \p TimeoutSeconds), send one request line,
  /// and read one response line. The transport behind
  /// `graphjs serve --client` and the service tests.
  static bool request(const std::string &SocketPath,
                      const std::string &RequestLine, std::string &Response,
                      std::string *Error = nullptr,
                      double TimeoutSeconds = 30.0);

  /// Like request(), but retries `overloaded` admission rejections with
  /// exponential backoff plus jitter (25ms, 50ms, 100ms, ... capped at 1s
  /// per sleep) until the response is anything else or \p RetryBudgetMs of
  /// wall time is spent. A zero budget degenerates to a single request().
  /// Each retry bumps the serve.client_retries counter; *Retries, when
  /// given, receives the count for this call. The transport behind
  /// `graphjs serve --client --retry-budget-ms` and `graphjs metrics`.
  static bool requestWithRetry(const std::string &SocketPath,
                               const std::string &RequestLine,
                               std::string &Response,
                               std::string *Error = nullptr,
                               double RetryBudgetMs = 0,
                               size_t *Retries = nullptr,
                               double TimeoutSeconds = 30.0);

private:
  ServiceOptions Options;
};

} // namespace driver
} // namespace gjs

#endif // GJS_DRIVER_SCANSERVICE_H
