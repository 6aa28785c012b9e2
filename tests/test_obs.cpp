//===- tests/test_obs.cpp - Observability layer tests ----------------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
// The observability surface: RAII span tracing (nesting, annotations,
// Chrome trace_event export), the process-wide counter registry
// (enable/disable gate, snapshots, per-package deltas), the query
// profiler (EXPLAIN plans, PROFILE step metrics), per-attempt timing
// attribution under the degradation ladder, and the `graphjs scan
// --trace-out` / `graphjs query --explain/--profile` CLI round trips.
//
//===----------------------------------------------------------------------===//

#include "analysis/MDGBuilder.h"
#include "core/Normalizer.h"
#include "eval/Metrics.h"
#include "graphdb/QueryEngine.h"
#include "obs/Counters.h"
#include "obs/Histogram.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "queries/QueryRunner.h"
#include "scanner/Scanner.h"
#include "support/JSON.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include <sys/wait.h>

using namespace gjs;
using obs::Span;
using obs::SpanRecord;
using obs::TraceRecorder;

namespace {

/// A small package with one clear CWE-78 (tainted exported parameter into
/// child_process.exec) — enough to drive every pipeline phase.
const char *VulnSource =
    "var cp = require('child_process');\n"
    "function run(cmd, cb) {\n"
    "  var prefixed = 'git ' + cmd;\n"
    "  cp.exec(prefixed, cb);\n"
    "}\n"
    "module.exports = run;\n";

/// RAII guard: forces the global counter gate for one test and restores
/// the previous state afterwards (tests must not leak gate changes).
class CounterGate {
public:
  explicit CounterGate(bool On) : Prev(obs::setCountersEnabled(On)) {}
  ~CounterGate() { obs::setCountersEnabled(Prev); }

private:
  bool Prev;
};

std::set<std::string> spanNames(const TraceRecorder &TR) {
  std::set<std::string> Names;
  for (const SpanRecord &S : TR.spans())
    Names.insert(S.Name);
  return Names;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

} // namespace

//===----------------------------------------------------------------------===//
// Span tracing
//===----------------------------------------------------------------------===//

TEST(TraceTest, SpansNestInPreOrderWithDepthsAndParents) {
  TraceRecorder TR;
  {
    Span Root(&TR, "package");
    {
      Span Parse(&TR, "parse");
      { Span File(&TR, "file"); }
    }
    { Span Query(&TR, "query"); }
  }
  const auto &S = TR.spans();
  ASSERT_EQ(S.size(), 4u);
  // Stored in begin order == pre-order of the tree.
  EXPECT_EQ(S[0].Name, "package");
  EXPECT_EQ(S[1].Name, "parse");
  EXPECT_EQ(S[2].Name, "file");
  EXPECT_EQ(S[3].Name, "query");
  EXPECT_EQ(S[0].Depth, 0u);
  EXPECT_EQ(S[1].Depth, 1u);
  EXPECT_EQ(S[2].Depth, 2u);
  EXPECT_EQ(S[3].Depth, 1u);
  EXPECT_EQ(S[0].Parent, SpanRecord::npos);
  EXPECT_EQ(S[1].Parent, 0u);
  EXPECT_EQ(S[2].Parent, 1u);
  EXPECT_EQ(S[3].Parent, 0u);
  for (const SpanRecord &R : S) {
    EXPECT_FALSE(R.open()) << R.Name;
    EXPECT_GE(R.DurUs, 0.0) << R.Name;
  }
  // A child cannot start before or end after its parent.
  EXPECT_GE(S[1].StartUs, S[0].StartUs);
  EXPECT_LE(S[1].StartUs + S[1].DurUs, S[0].StartUs + S[0].DurUs + 1e-6);
}

TEST(TraceTest, AnnotationsAttachToTheirSpan) {
  TraceRecorder TR;
  {
    Span S(&TR, "build");
    S.arg("mdg_nodes", uint64_t(42));
    S.arg("backend", std::string("graphdb"));
  }
  ASSERT_EQ(TR.spans().size(), 1u);
  const auto &Args = TR.spans()[0].Args;
  ASSERT_EQ(Args.size(), 2u);
  EXPECT_EQ(Args[0].first, "mdg_nodes");
  EXPECT_EQ(Args[0].second, "42");
  EXPECT_EQ(Args[1].first, "backend");
  EXPECT_EQ(Args[1].second, "graphdb");
}

TEST(TraceTest, NullRecorderMakesSpansNoOps) {
  Span S(nullptr, "anything");
  S.arg("k", std::string("v"));
  S.arg("n", uint64_t(7));
  S.close();
  // Nothing to assert beyond "does not crash": the branch-on-null contract.
}

TEST(TraceTest, EndClosesAbandonedChildrenDefensively) {
  TraceRecorder TR;
  size_t Outer = TR.begin("outer");
  TR.begin("inner-never-closed");
  TR.end(Outer);
  ASSERT_EQ(TR.spans().size(), 2u);
  EXPECT_FALSE(TR.spans()[0].open());
  EXPECT_FALSE(TR.spans()[1].open()) << "ending a span must close children";
}

TEST(TraceTest, ChromeJSONIsWellFormedCompleteEvents) {
  TraceRecorder TR;
  {
    Span Root(&TR, "package");
    Span Child(&TR, "parse");
    Child.arg("files", uint64_t(1));
  }
  json::Value V;
  std::string Error;
  ASSERT_TRUE(json::parse(TR.toChromeJSON(), V, &Error)) << Error;
  ASSERT_TRUE(V.isObject());
  const json::Object &Root = V.asObject();
  ASSERT_TRUE(Root.count("traceEvents"));
  const json::Array &Events = Root.at("traceEvents").asArray();
  ASSERT_EQ(Events.size(), 2u);
  std::set<std::string> Names;
  for (const json::Value &E : Events) {
    const json::Object &O = E.asObject();
    EXPECT_EQ(O.at("ph").asString(), "X");
    EXPECT_TRUE(O.count("name"));
    EXPECT_TRUE(O.count("ts"));
    EXPECT_TRUE(O.count("dur"));
    Names.insert(O.at("name").asString());
  }
  EXPECT_TRUE(Names.count("package"));
  EXPECT_TRUE(Names.count("parse"));
}

TEST(TraceTest, TextTreeIndentsChildrenUnderParents) {
  TraceRecorder TR;
  {
    Span Root(&TR, "package");
    Span Child(&TR, "build");
  }
  std::string Text = TR.toText();
  size_t PackageAt = Text.find("package");
  size_t BuildAt = Text.find("build");
  ASSERT_NE(PackageAt, std::string::npos);
  ASSERT_NE(BuildAt, std::string::npos);
  EXPECT_LT(PackageAt, BuildAt) << "pre-order rendering";
}

//===----------------------------------------------------------------------===//
// Counters
//===----------------------------------------------------------------------===//

TEST(CounterTest, DisabledAddsAreDropped) {
  CounterGate Gate(false);
  uint64_t Before = obs::counters::LexTokens.value();
  obs::counters::LexTokens.add(100);
  EXPECT_EQ(obs::counters::LexTokens.value(), Before);
}

TEST(CounterTest, EnabledAddsAccumulateAndResetClears) {
  CounterGate Gate(true);
  obs::resetCounters();
  obs::counters::MdgNodes.add(3);
  obs::counters::MdgNodes.add();
  EXPECT_EQ(obs::counters::MdgNodes.value(), 4u);
  obs::resetCounters();
  EXPECT_EQ(obs::counters::MdgNodes.value(), 0u);
}

TEST(CounterTest, SnapshotCoversTheWiredCatalog) {
  obs::CounterSnapshot Snap = obs::snapshotCounters();
  for (const char *Name :
       {"lex.tokens", "parse.ast_nodes", "normalize.core_stmts",
        "build.mdg_nodes", "import.nodes", "query.steps", "query.rows",
        "deadline.units", "scan.attempts", "scan.retries"})
    EXPECT_TRUE(Snap.count(Name)) << Name;
}

TEST(CounterTest, AggregateCountersSumsAcrossOutcomes) {
  eval::PackageOutcome A, B;
  A.Counters = {{"query.steps", 10}, {"build.mdg_nodes", 3}};
  B.Counters = {{"query.steps", 5}};
  obs::CounterSnapshot Total = eval::aggregateCounters({A, B});
  EXPECT_EQ(Total.at("query.steps"), 15u);
  EXPECT_EQ(Total.at("build.mdg_nodes"), 3u);
}

TEST(CounterTest, DeltaDropsZeroAndReportsChanges) {
  CounterGate Gate(true);
  obs::resetCounters();
  obs::CounterSnapshot Before = obs::snapshotCounters();
  obs::counters::QueryRows.add(5);
  obs::CounterSnapshot Delta =
      obs::counterDelta(Before, obs::snapshotCounters());
  ASSERT_EQ(Delta.size(), 1u);
  EXPECT_EQ(Delta.at("query.rows"), 5u);
}

// The zero-overhead-when-disabled contract: a disabled add must cost no
// more than a relaxed load plus a branch. The guard is deliberately
// generous (slow CI, sanitizers) — it exists to catch the gate being
// accidentally removed (e.g. an unconditional fetch_add), which is an
// order-of-magnitude regression, not a few percent.
TEST(CounterTest, DisabledAddsHaveNegligibleCost) {
  constexpr int N = 2000000;
  using Clock = std::chrono::steady_clock;

  CounterGate Gate(false);
  auto T0 = Clock::now();
  for (int I = 0; I < N; ++I)
    obs::counters::DeadlineUnits.add();
  double DisabledMs =
      std::chrono::duration<double, std::milli>(Clock::now() - T0).count();

  obs::setCountersEnabled(true);
  T0 = Clock::now();
  for (int I = 0; I < N; ++I)
    obs::counters::DeadlineUnits.add();
  double EnabledMs =
      std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
  obs::counters::DeadlineUnits.reset();

  // Disabled must not be substantially slower than enabled, and must be
  // fast in absolute terms (~1ns/add expected; allow 100x headroom).
  EXPECT_LT(DisabledMs, EnabledMs * 3 + 50.0);
  EXPECT_LT(DisabledMs, 200.0);
}

//===----------------------------------------------------------------------===//
// Histograms
//===----------------------------------------------------------------------===//

TEST(HistogramTest, BucketsAreContiguousMonotoneAndSelfConsistent) {
  using obs::Histogram;
  // Small values get exact unit buckets.
  for (uint64_t V = 0; V < (1u << obs::HistogramSubBits); ++V) {
    EXPECT_EQ(Histogram::bucketFor(V), V);
    EXPECT_EQ(Histogram::bucketLo(V), V);
    EXPECT_EQ(Histogram::bucketHi(V), V + 1);
  }
  // Every reachable bucket's bounds round-trip through bucketFor, and
  // the buckets tile the value space without gaps or overlaps. Buckets
  // past bucketFor(~0) are array padding no uint64 sample can land in.
  const unsigned LastReachable = Histogram::bucketFor(~0ull);
  ASSERT_LT(LastReachable, obs::HistogramBucketCount);
  for (unsigned B = 0; B + 1 <= LastReachable; ++B) {
    uint64_t Lo = Histogram::bucketLo(B);
    uint64_t Hi = Histogram::bucketHi(B);
    EXPECT_LT(Lo, Hi) << "bucket " << B;
    EXPECT_EQ(Histogram::bucketFor(Lo), B) << "bucket " << B;
    EXPECT_EQ(Histogram::bucketFor(Hi - 1), B) << "bucket " << B;
    EXPECT_EQ(Histogram::bucketHi(B), Histogram::bucketLo(B + 1))
        << "gap/overlap at bucket " << B;
  }
  // bucketFor is monotone across octave boundaries.
  unsigned Prev = 0;
  for (uint64_t V : {0ull, 1ull, 3ull, 4ull, 5ull, 7ull, 8ull, 100ull,
                     1000ull, 1000000ull, (1ull << 40), ~0ull}) {
    unsigned B = Histogram::bucketFor(V);
    EXPECT_GE(B, Prev) << "value " << V;
    EXPECT_LT(B, obs::HistogramBucketCount) << "value " << V;
    Prev = B;
  }
  // Log-bucket relative error bound: lo and hi-1 of any bucket differ by
  // at most a factor of (1 + 1/2^SubBits) — the advertised resolution.
  for (unsigned B = 8; B + 1 <= LastReachable; ++B) {
    double Lo = double(Histogram::bucketLo(B));
    double Hi = double(Histogram::bucketHi(B));
    if (Lo > 0 && Hi > Lo)
      EXPECT_LE(Hi / Lo, 1.0 + 1.0 / (1u << obs::HistogramSubBits) + 1e-9)
          << "bucket " << B;
  }
}

TEST(HistogramTest, RecordSnapshotAndPercentiles) {
  static obs::Histogram H("test.hist.record_us");
  CounterGate Gate(true);
  H.reset();
  // 100 samples: 1..100us. p50 ~ 50, p99 ~ 99 (within one log bucket).
  for (uint64_t V = 1; V <= 100; ++V)
    H.record(V);
  obs::HistogramSnapshot Snap = obs::snapshotHistograms().at("test.hist.record_us");
  EXPECT_EQ(Snap.Unit, "us");
  EXPECT_EQ(Snap.count(), 100u);
  EXPECT_EQ(Snap.Sum, 5050u);
  EXPECT_NEAR(Snap.mean(), 50.5, 1e-9);
  // Log-bucket error is <= 25% at SubBits=2; allow one bucket of slack.
  EXPECT_GE(Snap.percentile(0.5), 32.0);
  EXPECT_LE(Snap.percentile(0.5), 72.0);
  EXPECT_GE(Snap.percentile(0.99), 72.0);
  EXPECT_LE(Snap.percentile(0.99), 128.0);
  EXPECT_LE(Snap.percentile(0.5), Snap.percentile(0.95));
  EXPECT_LE(Snap.percentile(0.95), Snap.percentile(0.99));
  H.reset();
  EXPECT_TRUE(obs::snapshotHistograms().at("test.hist.record_us").empty());
}

TEST(HistogramTest, TwoSamplesGiveNonDegeneratePercentiles) {
  // The acceptance bar for the serve `metrics` op: after two scans of
  // different cost, p50 and p99 must not collapse to the same sample.
  static obs::Histogram H("test.hist.two_us");
  CounterGate Gate(true);
  H.reset();
  H.record(100);
  H.record(10000);
  obs::HistogramSnapshot Snap = obs::snapshotHistograms().at("test.hist.two_us");
  EXPECT_EQ(Snap.count(), 2u);
  EXPECT_LT(Snap.percentile(0.5), 200.0);
  EXPECT_GT(Snap.percentile(0.99), 5000.0);
}

TEST(HistogramTest, DisabledRecordsAreDropped) {
  static obs::Histogram H("test.hist.gated_us");
  CounterGate Gate(false);
  H.reset();
  H.record(42);
  H.recordSeconds(1.0);
  obs::HistogramSnapshot Snap = obs::snapshotHistograms().at("test.hist.gated_us");
  EXPECT_TRUE(Snap.empty());
  EXPECT_EQ(Snap.Sum, 0u);
}

TEST(HistogramTest, RecordSecondsConvertsAndClampsNegatives) {
  static obs::Histogram H("test.hist.seconds_us");
  CounterGate Gate(true);
  H.reset();
  H.recordSeconds(0.001); // 1000us
  H.recordSeconds(-5.0);  // clamps to 0
  obs::HistogramSnapshot Snap =
      obs::snapshotHistograms().at("test.hist.seconds_us");
  EXPECT_EQ(Snap.count(), 2u);
  EXPECT_EQ(Snap.Sum, 1000u);
}

TEST(HistogramTest, DeltaSubtractsBaselineAndDropsEmpty) {
  static obs::Histogram H("test.hist.delta_us");
  CounterGate Gate(true);
  H.reset();
  H.record(7);
  obs::HistogramSnapshotMap Before = obs::snapshotHistograms();
  obs::HistogramSnapshotMap NoChange = obs::histogramDelta(Before, Before);
  EXPECT_FALSE(NoChange.count("test.hist.delta_us"));
  H.record(7);
  H.record(9000);
  obs::HistogramSnapshotMap Delta =
      obs::histogramDelta(Before, obs::snapshotHistograms());
  ASSERT_TRUE(Delta.count("test.hist.delta_us"));
  EXPECT_EQ(Delta.at("test.hist.delta_us").count(), 2u);
  EXPECT_EQ(Delta.at("test.hist.delta_us").Sum, 9007u);
}

TEST(HistogramTest, MergeIsAssociativeAndOrderIndependent) {
  obs::HistogramSnapshot A, B, C;
  A.Sum = 10;
  A.Buckets = {{1, 2}, {5, 1}};
  B.Sum = 100;
  B.Buckets = {{5, 3}, {9, 4}};
  C.Sum = 7;
  C.Buckets = {{1, 1}};

  obs::HistogramSnapshot AB = A;
  AB.merge(B);
  obs::HistogramSnapshot ABC1 = AB;
  ABC1.merge(C);

  obs::HistogramSnapshot BC = B;
  BC.merge(C);
  obs::HistogramSnapshot ABC2 = A;
  ABC2.merge(BC);

  EXPECT_EQ(ABC1.Sum, ABC2.Sum);
  ASSERT_EQ(ABC1.Buckets.size(), ABC2.Buckets.size());
  for (size_t I = 0; I < ABC1.Buckets.size(); ++I) {
    EXPECT_EQ(ABC1.Buckets[I].first, ABC2.Buckets[I].first);
    EXPECT_EQ(ABC1.Buckets[I].second, ABC2.Buckets[I].second);
  }
  EXPECT_EQ(ABC1.count(), A.count() + B.count() + C.count());
}

TEST(HistogramTest, MergeHistogramsFoldsWorkerDeltasIntoRegistry) {
  static obs::Histogram H("test.hist.stitch_us");
  CounterGate Gate(true);
  H.reset();
  H.record(50); // the supervisor's own sample
  // A "worker delta" as it arrives off the wire.
  obs::HistogramSnapshot WorkerDelta;
  WorkerDelta.Unit = "us";
  WorkerDelta.Sum = 300;
  WorkerDelta.Buckets = {{obs::Histogram::bucketFor(100), 2},
                         {obs::Histogram::bucketFor(100000), 1}};
  obs::HistogramSnapshotMap Deltas;
  Deltas["test.hist.stitch_us"] = WorkerDelta;
  Deltas["no.such.histogram"] = WorkerDelta; // unknown names are ignored
  obs::mergeHistograms(Deltas);
  obs::HistogramSnapshot Snap =
      obs::snapshotHistograms().at("test.hist.stitch_us");
  EXPECT_EQ(Snap.count(), 4u);
  EXPECT_EQ(Snap.Sum, 350u);
  H.reset();
}

TEST(HistogramTest, ConcurrentRecordingLosesNothing) {
  static obs::Histogram H("test.hist.mt_us");
  CounterGate Gate(true);
  H.reset();
  constexpr int Threads = 4, PerThread = 50000;
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([T] {
      for (int I = 0; I < PerThread; ++I)
        H.record(uint64_t(T * PerThread + I) % 1000);
    });
  for (std::thread &T : Pool)
    T.join();
  obs::HistogramSnapshot Snap = obs::snapshotHistograms().at("test.hist.mt_us");
  EXPECT_EQ(Snap.count(), uint64_t(Threads) * PerThread);
  H.reset();
}

// Mirror of CounterTest.DisabledAddsHaveNegligibleCost: the histogram
// record() gate shares the counters' zero-overhead-when-disabled contract.
TEST(HistogramTest, DisabledRecordsHaveNegligibleCost) {
  static obs::Histogram H("test.hist.bench_us");
  constexpr int N = 2000000;
  using Clock = std::chrono::steady_clock;

  CounterGate Gate(false);
  auto T0 = Clock::now();
  for (int I = 0; I < N; ++I)
    H.record(uint64_t(I));
  double DisabledMs =
      std::chrono::duration<double, std::milli>(Clock::now() - T0).count();

  obs::setCountersEnabled(true);
  T0 = Clock::now();
  for (int I = 0; I < N; ++I)
    H.record(uint64_t(I));
  double EnabledMs =
      std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
  H.reset();

  EXPECT_LT(DisabledMs, EnabledMs * 3 + 50.0);
  EXPECT_LT(DisabledMs, 200.0);
}

TEST(HistogramTest, WiredCatalogIsRegistered) {
  obs::HistogramSnapshotMap Snap = obs::snapshotHistograms();
  for (const char *Name :
       {"scan.latency_us", "phase.parse_us", "phase.normalize_us",
        "phase.build_us", "phase.import_us", "phase.query_us",
        "queue.wait_us", "worker.job_us", "proto.frame_bytes"})
    EXPECT_TRUE(Snap.count(Name)) << Name;
}

//===----------------------------------------------------------------------===//
// Prometheus rendering
//===----------------------------------------------------------------------===//

TEST(MetricsTest, RenderPrometheusEmitsCountersSummariesAndGauges) {
  obs::CounterSnapshot Counters;
  Counters["scan.attempts"] = 12;
  Counters["query.rows"] = 0; // zero counters are dropped
  obs::HistogramSnapshot H;
  H.Unit = "us";
  for (uint64_t V : {100ull, 200ull, 400ull, 10000ull}) {
    H.Buckets.push_back({obs::Histogram::bucketFor(V), 1});
    H.Sum += V;
  }
  std::sort(H.Buckets.begin(), H.Buckets.end());
  obs::HistogramSnapshotMap Hists;
  Hists["scan.latency_us"] = H;
  Hists["phase.parse_us"] = {}; // empty histograms are dropped
  obs::GaugeList Gauges = {{"serve.uptime_s", 3.5}, {"serve.queue_depth", 0}};

  std::string Page = obs::renderPrometheus(Counters, Hists, Gauges);
  EXPECT_NE(Page.find("# TYPE graphjs_scan_attempts counter"),
            std::string::npos);
  EXPECT_NE(Page.find("graphjs_scan_attempts 12"), std::string::npos);
  EXPECT_EQ(Page.find("graphjs_query_rows"), std::string::npos)
      << "zero counter must be dropped";
  EXPECT_NE(Page.find("# TYPE graphjs_scan_latency_us summary"),
            std::string::npos);
  for (const char *Q : {"quantile=\"0.5\"", "quantile=\"0.9\"",
                        "quantile=\"0.95\"", "quantile=\"0.99\""})
    EXPECT_NE(Page.find(Q), std::string::npos) << Q;
  EXPECT_NE(Page.find("graphjs_scan_latency_us_sum 10700"), std::string::npos);
  EXPECT_NE(Page.find("graphjs_scan_latency_us_count 4"), std::string::npos);
  EXPECT_EQ(Page.find("graphjs_phase_parse_us"), std::string::npos)
      << "empty histogram must be dropped";
  EXPECT_NE(Page.find("# TYPE graphjs_serve_uptime_s gauge"),
            std::string::npos);
  EXPECT_NE(Page.find("graphjs_serve_queue_depth 0"), std::string::npos);
}

TEST(MetricsTest, WritePrometheusFileIsAtomicAndReadable) {
  std::string Path = ::testing::TempDir() + "gjs_metrics_test.prom";
  std::remove(Path.c_str());
  obs::CounterSnapshot Counters;
  Counters["scan.attempts"] = 1;
  ASSERT_TRUE(obs::writePrometheusFile(Path, Counters, {}, {}));
  std::string Page = slurp(Path);
  EXPECT_NE(Page.find("graphjs_scan_attempts 1"), std::string::npos);
  EXPECT_EQ(slurp(Path + ".tmp"), "") << "temp file must not linger";
  std::remove(Path.c_str());
}

namespace {

/// The writer temp files (`.<name>.tmp.<pid>.<n>`) left in \p Dir.
std::vector<std::string> tempFilesIn(const std::string &Dir) {
  std::vector<std::string> Out;
  for (const auto &E : std::filesystem::recursive_directory_iterator(Dir))
    if (E.path().filename().string().find(".tmp") != std::string::npos)
      Out.push_back(E.path().string());
  return Out;
}

/// A counter page of \p N counters all set to \p Value.
obs::CounterSnapshot bigPage(int N, uint64_t Value) {
  obs::CounterSnapshot C;
  for (int I = 0; I < N; ++I)
    C["race.c" + std::to_string(I)] = Value;
  return C;
}

} // namespace

TEST(MetricsTest, FailedPrometheusWriteLeavesNoTempFile) {
  std::string Dir = ::testing::TempDir() + "gjs_metrics_fail";
  std::filesystem::remove_all(Dir);
  // The final name is a non-empty directory, so the rename fails after the
  // temp file was written and synced.
  std::filesystem::create_directories(Dir + "/page.prom/inside");
  obs::CounterSnapshot Counters = bigPage(3, 1);
  EXPECT_FALSE(obs::writePrometheusFile(Dir + "/page.prom", Counters, {}, {}));
  EXPECT_TRUE(std::filesystem::is_directory(Dir + "/page.prom"));
  EXPECT_EQ(tempFilesIn(Dir), std::vector<std::string>());
  // The parent directory is missing: not even a temp file is created.
  EXPECT_FALSE(
      obs::writePrometheusFile(Dir + "/missing/page.prom", Counters, {}, {}));
  EXPECT_EQ(tempFilesIn(Dir), std::vector<std::string>());
  std::filesystem::remove_all(Dir);
}

TEST(MetricsTest, ConcurrentPrometheusWritersNeverLeaveATornFile) {
  std::string Dir = ::testing::TempDir() + "gjs_metrics_race";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  const std::string Path = Dir + "/page.prom";
  // Two distinct pages of about 60 KB: a torn or interleaved write shows.
  const obs::CounterSnapshot A = bigPage(2000, 1), B = bigPage(2000, 2);
  const std::string TextA = obs::renderPrometheus(A, {}, {});
  const std::string TextB = obs::renderPrometheus(B, {}, {});
  ASSERT_TRUE(obs::writePrometheusFile(Path, A, {}, {}));

  std::atomic<bool> Done{false};
  std::atomic<int> Torn{0}, Failed{0};
  std::thread Reader([&] {
    while (!Done) {
      std::string Page = slurp(Path);
      if (Page != TextA && Page != TextB)
        ++Torn;
    }
  });
  std::vector<std::thread> Writers;
  for (const obs::CounterSnapshot *C : {&A, &B})
    Writers.emplace_back([&, C] {
      for (int I = 0; I < 40; ++I)
        if (!obs::writePrometheusFile(Path, *C, {}, {}))
          ++Failed;
    });
  for (std::thread &W : Writers)
    W.join();
  Done = true;
  Reader.join();
  EXPECT_EQ(Failed.load(), 0);
  EXPECT_EQ(Torn.load(), 0);
  std::string Final = slurp(Path);
  EXPECT_TRUE(Final == TextA || Final == TextB);
  EXPECT_EQ(tempFilesIn(Dir), std::vector<std::string>());
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Cross-process trace stitching primitives
//===----------------------------------------------------------------------===//

TEST(TraceStitchTest, ForeignSpansKeepTreeShapeAndGainPidLane) {
  TraceRecorder Worker;
  {
    Span Root(&Worker, "package");
    Span Child(&Worker, "parse");
  }
  TraceRecorder Sup;
  { Span Own(&Sup, "supervisor-setup"); }
  Sup.addForeignSpans(Worker.spans(), 4242);
  ASSERT_EQ(Sup.spans().size(), 3u);
  const SpanRecord &Pkg = Sup.spans()[1];
  const SpanRecord &Parse = Sup.spans()[2];
  EXPECT_EQ(Pkg.Name, "package");
  EXPECT_EQ(Pkg.Pid, 4242);
  EXPECT_EQ(Pkg.Parent, SpanRecord::npos);
  EXPECT_EQ(Parse.Parent, 1u) << "parent index rebased past existing spans";
  EXPECT_EQ(Sup.spans()[0].Pid, 0) << "own spans keep the default lane";
}

TEST(TraceStitchTest, CompletedSpansBackfillSchedulingWindows) {
  TraceRecorder TR;
  double Start = TR.nowUs();
  TR.addCompletedSpan("job:left-pad", Start, 1500.0);
  TR.addCompletedSpan("job:negative-dur", Start, -3.0);
  ASSERT_EQ(TR.spans().size(), 2u);
  EXPECT_EQ(TR.spans()[0].Name, "job:left-pad");
  EXPECT_NEAR(TR.spans()[0].StartUs, Start, 1e-9);
  EXPECT_NEAR(TR.spans()[0].DurUs, 1500.0, 1e-9);
  EXPECT_EQ(TR.spans()[1].DurUs, 0.0) << "negative durations clamp";
}

TEST(TraceStitchTest, ChromeJSONLabelsPidLanes) {
  TraceRecorder TR;
  TR.setDefaultPid(1000);
  TR.labelPid(1000, "supervisor");
  TR.labelPid(2000, "worker 2000");
  { Span Own(&TR, "schedule"); }
  TraceRecorder Worker;
  { Span Pkg(&Worker, "package"); }
  TR.addForeignSpans(Worker.spans(), 2000);

  json::Value V;
  std::string Error;
  ASSERT_TRUE(json::parse(TR.toChromeJSON(), V, &Error)) << Error;
  const json::Array &Events = V.asObject().at("traceEvents").asArray();
  std::set<int> Pids;
  size_t Metadata = 0;
  for (const json::Value &E : Events) {
    const json::Object &O = E.asObject();
    if (O.at("ph").asString() == "M") {
      ++Metadata;
      EXPECT_EQ(O.at("name").asString(), "process_name");
      continue;
    }
    Pids.insert(int(O.at("pid").asNumber()));
  }
  EXPECT_EQ(Metadata, 2u) << "one process_name record per labelled lane";
  EXPECT_TRUE(Pids.count(1000)) << "own spans on the default lane";
  EXPECT_TRUE(Pids.count(2000)) << "foreign spans on the worker lane";
}

//===----------------------------------------------------------------------===//
// Pipeline integration: spans + per-package counters from a real scan
//===----------------------------------------------------------------------===//

TEST(ScanObsTest, ScanPackageCoversEveryPipelinePhase) {
  TraceRecorder TR;
  scanner::ScanOptions O;
  O.Trace = &TR;
  scanner::Scanner S(O);
  scanner::ScanResult R = S.scanPackage({{"index.js", VulnSource}});
  ASSERT_FALSE(R.Reports.empty());

  std::set<std::string> Names = spanNames(TR);
  for (const char *Phase : {"package", "attempt", "parse", "file", "lex",
                            "ast", "normalize", "build", "import", "query"})
    EXPECT_TRUE(Names.count(Phase)) << "missing span: " << Phase;

  // The package span is the root and encloses everything else.
  const auto &Spans = TR.spans();
  ASSERT_FALSE(Spans.empty());
  EXPECT_EQ(Spans[0].Name, "package");
  EXPECT_EQ(Spans[0].Depth, 0u);
  for (size_t I = 1; I < Spans.size(); ++I)
    EXPECT_GT(Spans[I].Depth, 0u) << Spans[I].Name;
}

TEST(ScanObsTest, BuildSpanAndCountersShowWhereTheBuildIterates) {
  CounterGate Gate(true);
  TraceRecorder TR;
  scanner::ScanOptions O;
  O.Trace = &TR;
  scanner::Scanner S(O);
  obs::HistogramSnapshotMap Before = obs::snapshotHistograms();
  scanner::ScanResult R = S.scanPackage({{"index.js", VulnSource}});

  // One fixpoint per analyzed function body; `run` binds cmd, cb, prefixed
  // and the module-level cp among others.
  EXPECT_GT(R.Counters.at("build.fixpoint_iters"), 0u);
  EXPECT_GE(R.Counters.at("build.store_vars_peak"), 4u);
  std::map<std::string, std::string> Args;
  for (const auto &Sp : TR.spans())
    if (Sp.Name == "build")
      Args.insert(Sp.Args.begin(), Sp.Args.end());
  EXPECT_EQ(Args["fixpoint_iters"],
            std::to_string(R.Counters.at("build.fixpoint_iters")));
  EXPECT_EQ(Args["store_vars_peak"],
            std::to_string(R.Counters.at("build.store_vars_peak")));

  // Normalize gets its own latency distribution.
  obs::HistogramSnapshotMap After = obs::snapshotHistograms();
  EXPECT_EQ(After.at("phase.normalize_us").count(),
            Before.at("phase.normalize_us").count() + 1);
}

TEST(ScanObsTest, NativeBackendTracesNativeQuerySpan) {
  TraceRecorder TR;
  scanner::ScanOptions O;
  O.Trace = &TR;
  O.Backend = scanner::QueryBackend::Native;
  scanner::Scanner S(O);
  S.scanPackage({{"index.js", VulnSource}});
  EXPECT_TRUE(spanNames(TR).count("native-query"));
  EXPECT_FALSE(spanNames(TR).count("import"))
      << "native backend must skip the graph-database import";
}

TEST(ScanObsTest, ScanResultCarriesPerPackageCounterDeltas) {
  CounterGate Gate(true);
  scanner::Scanner S;
  scanner::ScanResult R = S.scanPackage({{"index.js", VulnSource}});
  ASSERT_FALSE(R.Counters.empty());
  EXPECT_GT(R.Counters.at("lex.tokens"), 0u);
  EXPECT_GT(R.Counters.at("build.mdg_nodes"), 0u);
  EXPECT_GT(R.Counters.at("import.nodes"), 0u);
  EXPECT_GT(R.Counters.at("query.steps"), 0u);
  EXPECT_EQ(R.Counters.at("scan.attempts"), 1u);

  // A second package must report its own deltas, not the running totals.
  scanner::ScanResult R2 = S.scanPackage({{"index.js", VulnSource}});
  EXPECT_EQ(R2.Counters.at("lex.tokens"), R.Counters.at("lex.tokens"));
}

TEST(ScanObsTest, CountersDisabledLeavesResultEmpty) {
  CounterGate Gate(false);
  scanner::Scanner S;
  scanner::ScanResult R = S.scanPackage({{"index.js", VulnSource}});
  EXPECT_TRUE(R.Counters.empty());
}

//===----------------------------------------------------------------------===//
// Per-attempt timing attribution under the degradation ladder
//===----------------------------------------------------------------------===//

TEST(AttemptLogTest, RetriedPackageAccountsEveryAttempt) {
  scanner::ScanOptions O;
  scanner::FaultPlan Fault;
  ASSERT_TRUE(scanner::FaultPlan::parse("build:fail:0", Fault));
  O.Fault = Fault;
  scanner::Scanner S(O);
  scanner::ScanResult R = S.scanPackage({{"index.js", VulnSource}});

  // The one-shot fault fails attempt 0 and the ladder retries with
  // cheaper settings; every attempt must be in the log, in level order.
  EXPECT_GE(R.Attempts, 2u);
  EXPECT_EQ(R.Retries, R.Attempts - 1);
  ASSERT_EQ(R.AttemptLog.size(), R.Attempts);
  for (size_t I = 0; I < R.AttemptLog.size(); ++I)
    EXPECT_EQ(R.AttemptLog[I].Level, I);
  EXPECT_FALSE(R.Reports.empty()) << "the retry must still find the vuln";

  // CumulativeTimes sums every attempt; Times is the final attempt only.
  double LogTotal = 0;
  for (const scanner::AttemptRecord &A : R.AttemptLog)
    LogTotal += A.Times.total();
  EXPECT_NEAR(R.CumulativeTimes.total(), LogTotal, 1e-9);
  EXPECT_GE(R.CumulativeTimes.total(), R.Times.total());
}

TEST(AttemptLogTest, SingleAttemptLogMatchesFinalTimes) {
  scanner::Scanner S;
  scanner::ScanResult R = S.scanPackage({{"index.js", VulnSource}});
  EXPECT_EQ(R.Attempts, 1u);
  EXPECT_EQ(R.Retries, 0u);
  ASSERT_EQ(R.AttemptLog.size(), 1u);
  EXPECT_NEAR(R.CumulativeTimes.total(), R.Times.total(), 1e-9);
}

//===----------------------------------------------------------------------===//
// Query profiler: EXPLAIN and PROFILE
//===----------------------------------------------------------------------===//

namespace {

analysis::BuildResult buildFromSource(const char *Source) {
  DiagnosticEngine Diags;
  auto Program = core::normalizeJS(Source, Diags);
  EXPECT_FALSE(Diags.hasErrors());
  return analysis::buildMDG(*Program);
}

} // namespace

TEST(ProfilerTest, ExplainRendersEveryPlanStepWithoutExecuting) {
  auto Builtins =
      queries::GraphDBRunner::builtinQueries(queries::SinkConfig::defaults());
  ASSERT_GE(Builtins.size(), 4u);
  for (const auto &[Name, Text] : Builtins) {
    graphdb::Query Q;
    std::string Error;
    ASSERT_TRUE(graphdb::parseQuery(Text, Q, &Error)) << Name << ": " << Error;
    std::string Plan = graphdb::explainQuery(Q);
    EXPECT_NE(Plan.find("step 0: scan"), std::string::npos) << Name;
    EXPECT_NE(Plan.find("expand"), std::string::npos) << Name;
  }
}

TEST(ProfilerTest, ProfileAnnotatesStepsWithCandidatesMatchesAndTime) {
  analysis::BuildResult Build = buildFromSource(VulnSource);
  queries::GraphDBRunner Runner(Build);
  auto Profiles = Runner.profileBuiltins(queries::SinkConfig::defaults());
  ASSERT_GE(Profiles.size(), 4u);

  size_t QueriesWithRows = 0;
  for (const auto &[Name, P] : Profiles) {
    ASSERT_FALSE(P.Steps.empty()) << Name;
    EXPECT_EQ(P.Steps[0].Pos, 0u) << Name << ": plan starts with a scan";
    for (const graphdb::StepProfile &Step : P.Steps) {
      EXPECT_GE(Step.Candidates, Step.Matches) << Name << " " << Step.Desc;
      EXPECT_GE(Step.Seconds, 0.0) << Name;
      EXPECT_FALSE(Step.Desc.empty()) << Name;
    }
    EXPECT_GE(P.TotalSeconds, 0.0);
    QueriesWithRows += P.Rows > 0;
  }
  EXPECT_GE(QueriesWithRows, 1u) << "the CWE-78 fixture must match something";
}

TEST(ProfilerTest, ProfiledRunReturnsSameRowsAsUnprofiled) {
  analysis::BuildResult Build = buildFromSource(VulnSource);
  queries::GraphDBRunner Runner(Build);
  auto Builtins =
      queries::GraphDBRunner::builtinQueries(queries::SinkConfig::defaults());
  for (const auto &[Name, Text] : Builtins) {
    std::string Error;
    graphdb::QueryProfile P;
    graphdb::ResultSet Plain = Runner.runQuery(Text, &Error);
    ASSERT_TRUE(Error.empty()) << Name << ": " << Error;
    graphdb::ResultSet Profiled = Runner.runQuery(Text, &Error, &P);
    ASSERT_TRUE(Error.empty()) << Name << ": " << Error;
    EXPECT_EQ(Plain.Rows.size(), Profiled.Rows.size()) << Name;
    EXPECT_EQ(P.Rows, Profiled.Rows.size()) << Name;
    EXPECT_EQ(P.Work, Profiled.Work) << Name;
  }
}

TEST(ProfilerTest, RenderProfileListsStepsAndTotals) {
  analysis::BuildResult Build = buildFromSource(VulnSource);
  queries::GraphDBRunner Runner(Build);
  auto Profiles = Runner.profileBuiltins(queries::SinkConfig::defaults());
  ASSERT_FALSE(Profiles.empty());
  std::string Text = graphdb::renderProfile(Profiles[0].second);
  EXPECT_NE(Text.find("candidates="), std::string::npos);
  EXPECT_NE(Text.find("matches="), std::string::npos);
  EXPECT_NE(Text.find("total:"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// CLI round trips
//===----------------------------------------------------------------------===//

#if defined(GRAPHJS_BIN) && defined(GJS_EXAMPLES_JS_DIR)

TEST(ObsCLITest, ScanTraceOutWritesChromeLoadableJSON) {
  std::string TracePath = ::testing::TempDir() + "gjs_obs_trace.json";
  std::remove(TracePath.c_str());
  // The clean example has no sink, yet every scan imports and queries its
  // MDG: the import and query spans must appear.
  std::string Cmd = std::string(GRAPHJS_BIN) + " scan --trace-out " +
                    TracePath + " " + GJS_EXAMPLES_JS_DIR +
                    "/clean_utils.js > /dev/null 2>&1";
  EXPECT_EQ(std::system(Cmd.c_str()), 0);

  json::Value V;
  std::string Error;
  ASSERT_TRUE(json::parse(slurp(TracePath), V, &Error)) << Error;
  const json::Array &Events = V.asObject().at("traceEvents").asArray();
  std::set<std::string> Names;
  for (const json::Value &E : Events)
    Names.insert(E.asObject().at("name").asString());
  for (const char *Phase :
       {"lex", "parse", "normalize", "build", "import", "query"})
    EXPECT_TRUE(Names.count(Phase)) << "missing phase in trace: " << Phase;
}

TEST(ObsCLITest, TraceOutIntoMissingDirectoryFailsWithoutTempFile) {
  std::string Dir = ::testing::TempDir() + "gjs_obs_trace_fail";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir + "/taken.json/inside");
  std::string Example =
      std::string(GJS_EXAMPLES_JS_DIR) + "/clean_utils.js > /dev/null 2>&1";
  for (const char *Mode : {"scan", "batch --quiet"}) {
    SCOPED_TRACE(Mode);
    // The parent directory is missing: the trace cannot be published.
    std::string Cmd = std::string(GRAPHJS_BIN) + " " + Mode +
                      " --trace-out " + Dir + "/missing/t.json " + Example;
    int RC = std::system(Cmd.c_str());
    ASSERT_TRUE(WIFEXITED(RC));
    EXPECT_EQ(WEXITSTATUS(RC), 1);
    EXPECT_FALSE(std::filesystem::exists(Dir + "/missing"));
    // The final name is a non-empty directory: the rename fails after the
    // temp file was written, and the temp file goes with it.
    Cmd = std::string(GRAPHJS_BIN) + " " + Mode + " --trace-out " + Dir +
          "/taken.json " + Example;
    RC = std::system(Cmd.c_str());
    ASSERT_TRUE(WIFEXITED(RC));
    EXPECT_EQ(WEXITSTATUS(RC), 1);
    EXPECT_EQ(tempFilesIn(Dir), std::vector<std::string>());
  }
  std::filesystem::remove_all(Dir);
}

TEST(ObsCLITest, QueryExplainPrintsBuiltinPlans) {
  std::string Out = ::testing::TempDir() + "gjs_obs_explain.txt";
  std::string Cmd = std::string(GRAPHJS_BIN) + " query --explain > " + Out +
                    " 2>/dev/null";
  EXPECT_EQ(std::system(Cmd.c_str()), 0);
  std::string Text = slurp(Out);
  EXPECT_NE(Text.find("step 0: scan"), std::string::npos);
  EXPECT_NE(Text.find("command-injection"), std::string::npos);
  EXPECT_NE(Text.find("prototype-pollution"), std::string::npos);
}

TEST(ObsCLITest, QueryProfileReportsStepMetricsOnExample) {
  std::string Out = ::testing::TempDir() + "gjs_obs_profile.txt";
  std::string Cmd = std::string(GRAPHJS_BIN) + " query --profile " +
                    GJS_EXAMPLES_JS_DIR + "/figure1.js > " + Out +
                    " 2>/dev/null";
  EXPECT_EQ(std::system(Cmd.c_str()), 0);
  std::string Text = slurp(Out);
  EXPECT_NE(Text.find("candidates="), std::string::npos);
  EXPECT_NE(Text.find("matches="), std::string::npos);
  // All four vulnerability classes are profiled.
  for (const char *Class : {"command-injection", "code-injection",
                            "path-traversal", "prototype-pollution"})
    EXPECT_NE(Text.find(Class), std::string::npos) << Class;
}

#endif // GRAPHJS_BIN && GJS_EXAMPLES_JS_DIR
