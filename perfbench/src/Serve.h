//===- perfbench/src/Serve.h - serve_open daemon and load generator *- C++ -*-//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serve_open workload's two halves: a driver::ScanService daemon forked
/// by the benchmark, and an open-loop NDJSON load generator. The generator
/// sends request i at its due time T0 + i/rate whatever the daemon is doing,
/// spreading requests over a few pipelined connections; each request is
/// timed from when it was due, so a stall also charges the requests queued
/// behind it, and the generator's own lateness is recorded separately.
///
//===----------------------------------------------------------------------===//

#ifndef GJS_PERFBENCH_SERVE_H
#define GJS_PERFBENCH_SERVE_H

#include "Bench.h"
#include "driver/ScanService.h"
#include "support/Subprocess.h"

#include <functional>

namespace gjs {
namespace perfbench {

/// A forked ScanService. start() returns once the daemon answers `status`
/// with every worker forked; stop() shuts it down and reaps it.
class ServeDaemon {
public:
  ServeDaemon() = default;
  ServeDaemon(const ServeDaemon &) = delete;
  ServeDaemon &operator=(const ServeDaemon &) = delete;
  ~ServeDaemon() { stop(); }

  bool start(const driver::ServiceOptions &Options, std::string &Error);
  /// The daemon's `status` object (empty on failure).
  json::Object status();
  void stop();
  const std::string &socket() const { return Socket; }
  int pid() const { return Proc.pid(); }

private:
  Subprocess Proc;
  std::string Socket;
};

/// One open-loop phase at a fixed offered rate.
struct PhaseResult {
  size_t Sent = 0, Answered = 0, Ok = 0;
  /// Per completed request, from due time to response (ms).
  std::vector<double> LatencyMs;
  /// Per completed request: (response - send) minus the scan time the
  /// result line reports (ms) — what the daemon and transport add.
  std::vector<double> OverheadMs;
  /// Per sent request: send time minus due time (ms).
  std::vector<double> LagMs;
  double ScanSeconds = 0; ///< Summed worker-reported scan time.
  double SendSeconds = 0; ///< Length of the sending window.
  size_t OutstandingMid = 0, OutstandingEnd = 0;

  size_t failed() const { return Sent - Ok; }
  /// p99 from due time, counting every failed request as missing the limit.
  double p99WithFailuresMs() const;
};

/// Request i (global index) scans pool package i % Pool.size(); Done
/// receives (pool index, reports) for every result that comes back.
using ResultSink =
    std::function<void(size_t, const std::vector<queries::VulnReport> &)>;

PhaseResult runOpenLoop(const std::string &Socket,
                        const std::vector<std::string> &RequestFiles,
                        double Rate, double Seconds, size_t FirstRequest,
                        unsigned Connections, const ResultSink &Done);

} // namespace perfbench
} // namespace gjs

#endif // GJS_PERFBENCH_SERVE_H
