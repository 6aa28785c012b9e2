//===- obs/Histogram.h - Process-wide latency/size histograms ----*- C++ -*-==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lock-free, log-bucketed histograms for the scan pipeline — the latency
/// side of the telemetry story the counters (obs/Counters.h) tell for
/// volume. The paper reports latency *distributions* (Fig. 7 CDFs), and a
/// long-lived daemon cannot answer "what is p99 scan latency" from a sum
/// and a count; it needs cheap-to-record, mergeable distributions.
///
/// Design mirrors Counter exactly:
///
///  - every Histogram is a static-storage object registered in one global
///    intrusive list at static-initialization time;
///  - record() is gated on the same global enable flag as the counters
///    (countersEnabled()): disabled cost is one relaxed load + branch,
///    the "zero overhead when disabled" contract the bench-guard asserts;
///  - buckets are relaxed atomics, so concurrent recording from many
///    threads (or the same registry touched from signal-adjacent paths)
///    never locks and never tears.
///
/// Buckets are log-spaced: values below 2^SubBits get exact unit buckets,
/// larger values split each power-of-two octave into 2^SubBits sub-buckets
/// (relative error <= 1/2^SubBits per recorded value). Snapshots are
/// sparse (only non-empty buckets), associative under merge() — merging
/// per-worker deltas in any order yields the same distribution — and
/// support p50/p90/p95/p99 extraction by rank interpolation.
///
/// The wired-in histogram catalog lives in obs::hists below and is
/// documented in docs/OBSERVABILITY.md. Names are stable: the `metrics`
/// serve op and Prometheus snapshots key on them.
///
//===----------------------------------------------------------------------===//

#ifndef GJS_OBS_HISTOGRAM_H
#define GJS_OBS_HISTOGRAM_H

#include "obs/Counters.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gjs {
namespace obs {

/// Sub-bucket resolution: 2^SubBits sub-buckets per power-of-two octave.
constexpr unsigned HistogramSubBits = 2;
/// Bucket array size. 64 octaves x 4 sub-buckets covers the full uint64
/// range; index 0..(2^SubBits - 1) are exact small-value buckets.
constexpr unsigned HistogramBucketCount = 256;

/// One named process-wide histogram. Construct only with static storage
/// duration (construction registers it in a global intrusive list and
/// there is no deregistration). Unit is advisory ("us", "bytes") and rides
/// into snapshots for rendering. Name and Unit hold no space, ':' or
/// newline: the worker protocol's response header carries them bare.
class Histogram {
public:
  explicit Histogram(const char *Name, const char *Unit = "us");

  /// Records one value. Gated on the same flag as the counters; the
  /// disabled path is one relaxed load + branch.
  void record(uint64_t Value) {
    if (!countersEnabled())
      return;
    Buckets[bucketFor(Value)].fetch_add(1, std::memory_order_relaxed);
    Sum.fetch_add(Value, std::memory_order_relaxed);
  }

  /// Convenience for the common "Timer measured seconds, histogram stores
  /// microseconds" call sites. Negative durations clamp to zero.
  void recordSeconds(double Seconds) {
    record(Seconds > 0 ? static_cast<uint64_t>(Seconds * 1e6) : 0);
  }

  /// Merges an externally-captured delta (e.g. a worker's) directly into
  /// this histogram. Unconditional — merging is an explicit supervisor
  /// action, not a gated hot path.
  void mergeBucket(unsigned Bucket, uint64_t Count) {
    if (Bucket < HistogramBucketCount)
      Buckets[Bucket].fetch_add(Count, std::memory_order_relaxed);
  }
  void mergeSum(uint64_t Delta) {
    Sum.fetch_add(Delta, std::memory_order_relaxed);
  }

  uint64_t bucketValue(unsigned Bucket) const {
    return Bucket < HistogramBucketCount
               ? Buckets[Bucket].load(std::memory_order_relaxed)
               : 0;
  }
  uint64_t sum() const { return Sum.load(std::memory_order_relaxed); }

  void reset() {
    for (auto &B : Buckets)
      B.store(0, std::memory_order_relaxed);
    Sum.store(0, std::memory_order_relaxed);
  }

  const char *name() const { return Name; }
  const char *unit() const { return Unit; }
  Histogram *next() const { return Next; }

  /// The bucket a value lands in. Exact below 2^SubBits; log-spaced with
  /// 2^SubBits sub-buckets per octave above. Bucket indices are contiguous
  /// and monotone in the value.
  static unsigned bucketFor(uint64_t Value);
  /// Smallest value mapping to \p Bucket.
  static uint64_t bucketLo(unsigned Bucket);
  /// Smallest value mapping to the next bucket (exclusive upper bound).
  static uint64_t bucketHi(unsigned Bucket);

private:
  const char *Name;
  const char *Unit;
  Histogram *Next = nullptr;
  std::atomic<uint64_t> Sum{0};
  std::array<std::atomic<uint64_t>, HistogramBucketCount> Buckets{};
};

/// A point-in-time view of one histogram: sparse (index, count) pairs
/// sorted by bucket index, plus the value sum. Mergeable and associative:
/// merge(a, merge(b, c)) == merge(merge(a, b), c) bucket for bucket.
struct HistogramSnapshot {
  std::string Unit;
  uint64_t Sum = 0;
  std::vector<std::pair<unsigned, uint64_t>> Buckets;

  uint64_t count() const;
  double mean() const;

  /// Rank-based percentile estimate (Q in [0, 1]): finds the bucket
  /// holding the Q-quantile sample and returns the bucket midpoint (exact
  /// small buckets return their value exactly). 0 when empty.
  double percentile(double Q) const;

  /// Adds \p Other's buckets and sum into this snapshot.
  void merge(const HistogramSnapshot &Other);

  bool empty() const { return Buckets.empty(); }
};

/// Snapshots keyed by histogram name.
using HistogramSnapshotMap = std::map<std::string, HistogramSnapshot>;

/// Snapshots every registered histogram (including empty ones, so deltas
/// can subtract against a complete baseline).
HistogramSnapshotMap snapshotHistograms();

/// Every registered histogram's sum and buckets in registry order,
/// HistogramBucketCount + 1 values each: the cheap snapshot a per-job delta
/// starts from (no names, no map, no allocation per histogram).
using HistogramValues = std::vector<uint64_t>;
HistogramValues snapshotHistogramValues();

/// Per-job telemetry: each histogram's growth since \p Baseline (a
/// snapshotHistogramValues() or the baseline a previous call left),
/// keyed by name, dropping histograms that did not grow. \p Baseline
/// moves up to the values read, so consecutive calls give consecutive
/// deltas. The worker->supervisor wire payload.
HistogramSnapshotMap histogramDelta(HistogramValues &Baseline);

/// Merges worker deltas into the live registry by name (cross-process
/// stitching: the supervisor folds each worker's per-job delta into its
/// own histograms). Unknown names are ignored.
void mergeHistograms(const HistogramSnapshotMap &Deltas);

/// Resets every registered histogram to empty.
void resetHistograms();

/// The wired-in histogram catalog (see docs/OBSERVABILITY.md). Time
/// histograms store microseconds; size histograms store bytes.
namespace hists {
extern Histogram ScanLatency; ///< scan.latency_us — per-package scan wall.
extern Histogram PhaseParse;  ///< phase.parse_us — parse+normalize (CFG) time.
extern Histogram PhaseLower;  ///< phase.lower_us — async lowering time.
extern Histogram PhaseNormalize; ///< phase.normalize_us — Core IR
                                 ///< normalization (part of phase.parse_us).
extern Histogram PhaseBuild;  ///< phase.build_us — MDG construction time.
extern Histogram PhaseImport; ///< phase.import_us — graphdb import time.
extern Histogram PhaseQuery;  ///< phase.query_us — query matching time.
extern Histogram QueueWait;   ///< queue.wait_us — serve admission-to-dispatch.
extern Histogram WorkerJob;   ///< worker.job_us — dispatch-to-verdict turnaround.
extern Histogram FrameBytes;  ///< proto.frame_bytes — protocol frame sizes.
extern Histogram LeaseWait;   ///< ledger.lease_wait_us — wanting work to
                              ///< holding a shard lease (claim or steal).
} // namespace hists

} // namespace obs
} // namespace gjs

#endif // GJS_OBS_HISTOGRAM_H
