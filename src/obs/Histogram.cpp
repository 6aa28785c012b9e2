//===- obs/Histogram.cpp - Process-wide latency/size histograms ------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Histogram.h"

#include <cmath>

using namespace gjs;
using namespace gjs::obs;

/// Head of the intrusive registration list. Function-local static so that
/// histograms constructed during static initialization in other translation
/// units never observe an uninitialized head (same pattern as Counters).
static std::atomic<Histogram *> &registryHead() {
  static std::atomic<Histogram *> Head{nullptr};
  return Head;
}

Histogram::Histogram(const char *Name, const char *Unit)
    : Name(Name), Unit(Unit) {
  std::atomic<Histogram *> &Head = registryHead();
  Next = Head.load(std::memory_order_relaxed);
  while (!Head.compare_exchange_weak(Next, this, std::memory_order_release,
                                     std::memory_order_relaxed)) {
  }
}

unsigned Histogram::bucketFor(uint64_t Value) {
  constexpr uint64_t ExactMax = 1ull << HistogramSubBits;
  if (Value < ExactMax)
    return static_cast<unsigned>(Value);
  unsigned Msb = 63u - static_cast<unsigned>(__builtin_clzll(Value));
  unsigned Sub = static_cast<unsigned>(Value >> (Msb - HistogramSubBits)) &
                 (ExactMax - 1);
  return ((Msb - HistogramSubBits + 1) << HistogramSubBits) + Sub;
}

uint64_t Histogram::bucketLo(unsigned Bucket) {
  constexpr unsigned ExactMax = 1u << HistogramSubBits;
  if (Bucket < ExactMax)
    return Bucket;
  unsigned Octave = (Bucket >> HistogramSubBits) + HistogramSubBits - 1;
  if (Octave >= 64)
    return ~0ull;
  unsigned Sub = Bucket & (ExactMax - 1);
  return (1ull << Octave) +
         (static_cast<uint64_t>(Sub) << (Octave - HistogramSubBits));
}

uint64_t Histogram::bucketHi(unsigned Bucket) {
  return Bucket + 1 < HistogramBucketCount ? bucketLo(Bucket + 1) : ~0ull;
}

uint64_t HistogramSnapshot::count() const {
  uint64_t N = 0;
  for (const auto &[Bucket, Count] : Buckets)
    N += Count;
  return N;
}

double HistogramSnapshot::mean() const {
  uint64_t N = count();
  return N ? static_cast<double>(Sum) / static_cast<double>(N) : 0;
}

double HistogramSnapshot::percentile(double Q) const {
  uint64_t N = count();
  if (N == 0)
    return 0;
  if (Q < 0)
    Q = 0;
  if (Q > 1)
    Q = 1;
  // Nearest rank: the ceil(Q*N)-th smallest sample (1-based), so p99 of two
  // samples is the larger one and p50 the smaller — percentiles stay
  // non-degenerate as soon as two samples land in different buckets.
  uint64_t Rank = static_cast<uint64_t>(std::ceil(Q * static_cast<double>(N)));
  if (Rank < 1)
    Rank = 1;
  uint64_t Cum = 0;
  for (const auto &[Bucket, Count] : Buckets) {
    Cum += Count;
    if (Cum >= Rank) {
      uint64_t Lo = Histogram::bucketLo(Bucket);
      uint64_t Hi = Histogram::bucketHi(Bucket);
      if (Bucket < (1u << HistogramSubBits) || Hi == ~0ull)
        return static_cast<double>(Lo); // Exact bucket or open-ended top.
      return (static_cast<double>(Lo) + static_cast<double>(Hi)) / 2.0;
    }
  }
  return static_cast<double>(Histogram::bucketLo(Buckets.back().first));
}

void HistogramSnapshot::merge(const HistogramSnapshot &Other) {
  if (Unit.empty())
    Unit = Other.Unit;
  Sum += Other.Sum;
  std::map<unsigned, uint64_t> Merged;
  for (const auto &[Bucket, Count] : Buckets)
    Merged[Bucket] += Count;
  for (const auto &[Bucket, Count] : Other.Buckets)
    Merged[Bucket] += Count;
  Buckets.assign(Merged.begin(), Merged.end());
}

HistogramSnapshotMap obs::snapshotHistograms() {
  HistogramSnapshotMap Out;
  for (Histogram *H = registryHead().load(std::memory_order_acquire); H;
       H = H->next()) {
    HistogramSnapshot S;
    S.Unit = H->unit();
    S.Sum = H->sum();
    for (unsigned I = 0; I < HistogramBucketCount; ++I)
      if (uint64_t N = H->bucketValue(I))
        S.Buckets.emplace_back(I, N);
    Out[H->name()] = std::move(S);
  }
  return Out;
}

HistogramSnapshotMap obs::histogramDelta(const HistogramSnapshotMap &Before,
                                         const HistogramSnapshotMap &After) {
  HistogramSnapshotMap Out;
  for (const auto &[Name, AfterSnap] : After) {
    auto BIt = Before.find(Name);
    std::map<unsigned, uint64_t> Base;
    uint64_t BaseSum = 0;
    if (BIt != Before.end()) {
      BaseSum = BIt->second.Sum;
      for (const auto &[Bucket, Count] : BIt->second.Buckets)
        Base[Bucket] = Count;
    }
    HistogramSnapshot D;
    D.Unit = AfterSnap.Unit;
    D.Sum = AfterSnap.Sum >= BaseSum ? AfterSnap.Sum - BaseSum : 0;
    for (const auto &[Bucket, Count] : AfterSnap.Buckets) {
      auto It = Base.find(Bucket);
      uint64_t Prior = It == Base.end() ? 0 : It->second;
      if (Count > Prior)
        D.Buckets.emplace_back(Bucket, Count - Prior);
    }
    if (!D.Buckets.empty())
      Out[Name] = std::move(D);
  }
  return Out;
}

void obs::mergeHistograms(const HistogramSnapshotMap &Deltas) {
  for (Histogram *H = registryHead().load(std::memory_order_acquire); H;
       H = H->next()) {
    auto It = Deltas.find(H->name());
    if (It == Deltas.end())
      continue;
    for (const auto &[Bucket, Count] : It->second.Buckets)
      H->mergeBucket(Bucket, Count);
    H->mergeSum(It->second.Sum);
  }
}

void obs::resetHistograms() {
  for (Histogram *H = registryHead().load(std::memory_order_acquire); H;
       H = H->next())
    H->reset();
}

namespace gjs {
namespace obs {
namespace hists {
Histogram ScanLatency("scan.latency_us", "us");
Histogram PhaseParse("phase.parse_us", "us");
Histogram PhaseLower("phase.lower_us", "us");
Histogram PhaseNormalize("phase.normalize_us", "us");
Histogram PhaseBuild("phase.build_us", "us");
Histogram PhaseImport("phase.import_us", "us");
Histogram PhaseQuery("phase.query_us", "us");
Histogram QueueWait("queue.wait_us", "us");
Histogram WorkerJob("worker.job_us", "us");
Histogram FrameBytes("proto.frame_bytes", "bytes");
Histogram LeaseWait("ledger.lease_wait_us", "us");
} // namespace hists
} // namespace obs
} // namespace gjs
