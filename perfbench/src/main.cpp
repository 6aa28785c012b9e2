//===- perfbench/src/main.cpp - The repository benchmark -------------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
//
// One benchmark for every performance claim about the scan pipeline. It
// drives the shipped pipeline through its public entry points on three
// seeded workloads and prints every metric by name and unit:
//
//   corpus       Table 3 mix scanned in-process by driver::BatchDriver,
//                closed loop, one client;
//   small_batch  small packages through the persistent driver::ProcessPool
//                at nproc / 2 workers, closed loop;
//   serve_open   open-loop NDJSON scans against a forked driver::ScanService
//                at three fixed offered rates, plus a max-rate search.
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// times every layer from the benchmark's own spans (see Replica.h) and
// measures each workload's driver layer. Both check detection results on
// every scan (see Gate.h). Usage:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --expected <expected.json> [--out <dir>] [--smoke]
//             [--perturb-expected] [--revision <rev>]
//   perfbench --record <seeds> --smoke-seeds <seeds> --sweep-seeds <seeds>
//             (writes expected.json content to stdout; <seeds> is "a-b" or
//             "a,b,c")
//
// The last stdout line is the result object {correct, attempted, failed,
// metrics}; the line before it carries the run's provenance.
//
//===----------------------------------------------------------------------===//

#include "Gate.h"
#include "Replica.h"
#include "Serve.h"
#include "Workloads.h"

#include "driver/ProcessPool.h"
#include "support/Timer.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include <unistd.h>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace gjs;
using namespace gjs::perfbench;
namespace fs = std::filesystem;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Smoke = false;
  bool PerturbExpected = false;
  std::string ExpectedPath;
  std::string OutDir = ".bench_build/perfbench-out";
  std::string Revision = "unknown";
  std::string RecordSeeds, RecordSmokeSeeds, RecordSweepSeeds;
};

/// Everything one run shares across its phases.
struct Run {
  const Args &A;
  const Sizes &Z;
  const json::Value *Expected;
  RunReport &Rep;
  std::vector<double> SetupSeconds;
};

unsigned workers() { return std::max(1u, hostCores()); }

/// Complete set-ups per closed-loop run; setup_s is their median. One
/// small_batch set-up takes a few tens of ms, so a handful of them would
/// let a single slow spell of the host move the median.
const int SetupRuns = 15;

//===----------------------------------------------------------------------===//
// Per-layer figures of the traced run
//===----------------------------------------------------------------------===//

/// The in-process, scanner-traced and replica scans every traced run makes
/// of each of the workload's distinct packages. Adds every per-layer
/// metric; the driver, serve and generator figures are the in-process
/// driver's (or 0 where the layer does not exist in-process) until the
/// workload overrides them with setMetric. Writes the replica's spans as a
/// Chrome trace.
void tracedLayers(Run &R, const std::vector<BenchPackage> &Pk, Gate &G) {
  std::vector<driver::BatchInput> Inputs = toInputs(Pk);
  obs::TraceRecorder TR;
  const size_t N = Pk.size();
  scanner::ScanOptions Cfg;

  // Per package, back to back so a slow spell of the shared host hits all
  // three alike: (1) the real pipeline, untraced, through the in-process
  // driver — the wall the traced figures must add up to, and the driver's
  // own overhead; (2) the scanner under its own spans, whose self time is
  // the ladder, query validation and module ordering; (3) the
  // layer-by-layer replica under the benchmark's spans.
  double Untraced = 0, Overhead = 0, PassWall = 0, ScannerSelf = 0;
  uint64_t Attempts = 0;
  std::vector<double> OverheadMs, BuildMs;
  std::map<std::string, double> Self;
  LayerSample Sum;
  size_t ImportsSkipped = 0, Reports = 0;
  // Least-squares fit of log(build time) against log(LoC).
  double SX = 0, SY = 0, SXX = 0, SXY = 0;
  size_t Fit = 0, LoC = 0;
  for (size_t I = 0; I < N; ++I) {
    Timer Call;
    driver::BatchSummary S = driver::BatchDriver().run({Inputs[I]});
    double Wall = Call.elapsedSeconds();
    const driver::BatchOutcome &O = S.Outcomes.at(0);
    G.check(I, O.Result.Reports, "in-process");
    ++R.Rep.Attempted;
    if (O.Status != driver::BatchStatus::Ok)
      ++R.Rep.Failed;
    Untraced += O.Seconds;
    PassWall += Wall;
    Attempts += O.Result.Attempts;
    Overhead += Wall - O.Seconds;
    OverheadMs.push_back((Wall - O.Seconds) * 1e3);

    obs::TraceRecorder STR;
    scanner::ScanOptions SO = Cfg;
    SO.Trace = &STR;
    scanner::ScanResult SR = scanner::Scanner(SO).scanPackage(Pk[I].Pkg.Files);
    G.check(I, SR.Reports, "scanner-traced");
    ScannerSelf += scannerSelfSeconds(STR, 0);

    LayerSample L = replicaScan(Pk[I].Pkg.Files, Cfg, TR, Inputs[I].Name);
    G.check(I, L.Reports, "replica");
    if (reportSet(L.Native) != reportSet(L.Reports))
      R.Rep.mismatch("detectNative disagrees with GraphDBRunner on " +
                     Inputs[I].Name);
    for (const auto &[Name, Sec] : L.SelfSeconds)
      Self[Name] += Sec;
    Sum.AstNodes += L.AstNodes;
    Sum.CoreStmts += L.CoreStmts;
    Sum.AwaitsLowered += L.AwaitsLowered;
    Sum.ClassesPruned += L.ClassesPruned;
    Sum.MDGNodes += L.MDGNodes;
    Sum.MDGEdges += L.MDGEdges;
    Sum.BuildWork += L.BuildWork;
    Sum.DbRels += L.DbRels;
    Sum.QueryWork += L.QueryWork;
    Reports += L.Reports.size();
    ImportsSkipped += L.ImportSkipped;
    double B = L.SelfSeconds.count("analysis.build")
                   ? L.SelfSeconds.at("analysis.build")
                   : 0;
    BuildMs.push_back(B * 1e3);
    LoC += Pk[I].Pkg.LoC;
    if (B > 0 && Pk[I].Pkg.LoC > 0) {
      double X = std::log(double(Pk[I].Pkg.LoC)), Y = std::log(B);
      SX += X, SY += Y, SXX += X * X, SXY += X * Y;
      ++Fit;
    }
  }

  auto ms = [&](const std::string &Span) {
    return (Self.count(Span) ? Self.at(Span) : 0.0) * 1e3 / double(N);
  };
  R.Rep.add("frontend.parse_ms", ms("frontend.parse"), "ms");
  R.Rep.add("frontend.ast_nodes", double(Sum.AstNodes), "count");
  R.Rep.add("frontend.kloc_per_s",
            double(LoC) / 1e3 / std::max(1e-9, Self["frontend.parse"]),
            "kLoC/s");
  R.Rep.add("core.normalize_ms", ms("core.normalize"), "ms");
  R.Rep.add("core.core_stmts", double(Sum.CoreStmts), "count");
  R.Rep.add("core.lower_ms", ms("core.lower"), "ms");
  R.Rep.add("core.awaits_lowered", double(Sum.AwaitsLowered), "count");
  R.Rep.add("analysis.prune_ms", ms("analysis.prune"), "ms");
  R.Rep.add("analysis.classes_pruned_frac",
            double(Sum.ClassesPruned) / double(4 * N), "fraction");
  R.Rep.add("analysis.imports_skipped", double(ImportsSkipped), "count");
  double Slope = 0;
  if (Fit >= 2) {
    double Den = double(Fit) * SXX - SX * SX;
    Slope = Den != 0 ? (double(Fit) * SXY - SX * SY) / Den : 0;
  }
  R.Rep.add("analysis.build_ms", ms("analysis.build"), "ms");
  R.Rep.add("analysis.build_p50_ms", percentile(BuildMs, 0.5), "ms");
  R.Rep.add("analysis.build_p95_ms", percentile(BuildMs, 0.95), "ms");
  R.Rep.add("analysis.build_exponent", Slope, "ratio");
  R.Rep.add("analysis.mdg_nodes", double(Sum.MDGNodes), "count");
  R.Rep.add("analysis.mdg_edges", double(Sum.MDGEdges), "count");
  R.Rep.add("analysis.build_work", double(Sum.BuildWork), "count");
  R.Rep.add("graphdb.import_ms", ms("graphdb.import"), "ms");
  R.Rep.add("graphdb.db_rels", double(Sum.DbRels), "count");
  double QueryMs = 0;
  for (queries::VulnType T : allClasses())
    QueryMs += ms("queries." + cweKey(T));
  R.Rep.add("queries.query_ms", QueryMs, "ms");
  for (queries::VulnType T : allClasses())
    R.Rep.add("queries.query_ms." + cweKey(T), ms("queries." + cweKey(T)),
              "ms");
  R.Rep.add("queries.query_work", double(Sum.QueryWork), "count");
  R.Rep.add("queries.reports", double(Reports), "count");
  R.Rep.add("queries.native_ms", ms("queries.native"), "ms");
  R.Rep.add("scanner.self_ms", ScannerSelf * 1e3 / double(N), "ms");
  R.Rep.add("scanner.attempts", double(Attempts), "count");

  double Layers = 0;
  for (const std::string &Name : layerSpanNames())
    Layers += Self.count(Name) ? Self.at(Name) : 0.0;
  double Frac = Untraced > 0 ? std::fabs(Layers + ScannerSelf - Untraced) /
                                   Untraced
                             : 0;
  R.Rep.add("bench.trace_overhead_frac", Frac, "fraction");
  R.Rep.Provenance["untraced_ms_per_pkg"] = json::Value(Untraced * 1e3 / double(N));
  R.Rep.Provenance["layers_ms_per_pkg"] = json::Value(Layers * 1e3 / double(N));
  if (Frac > 0.5)
    R.Rep.mismatch("traced layer times plus scanner self time miss the "
                   "untraced wall by " +
                   std::to_string(Frac * 100) + "%");

  R.Rep.add("driver.worker_busy_frac", Untraced / std::max(1e-9, PassWall),
            "fraction");
  R.Rep.add("driver.overhead_ms_per_pkg", Overhead * 1e3 / double(N), "ms");
  R.Rep.add("driver.overhead_p50_ms", percentile(OverheadMs, 0.5), "ms");
  R.Rep.add("driver.overhead_p99_ms", percentile(OverheadMs, 0.99), "ms");
  R.Rep.add("driver.rejected", 0, "count");
  R.Rep.add("driver.recycled", 0, "count");
  R.Rep.add("serve.latency_p99_ms_low", 0, "ms");
  R.Rep.add("serve.latency_p99_ms_high", 0, "ms");
  // A closed loop is never late.
  R.Rep.add("bench.generator_lag_p99_ms", 0, "ms");

  std::ofstream(R.A.OutDir + "/trace-" + R.A.Workload + "-" +
                std::to_string(R.A.Seed) + ".json")
      << TR.toChromeJSON();
}

/// Replaces the metric named \p Name (the in-process default) in place.
void setMetric(RunReport &Rep, const std::string &Name, double Value) {
  for (RunReport::Metric &M : Rep.Metrics)
    if (M.Name == Name)
      M.Value = Value;
}

//===----------------------------------------------------------------------===//
// corpus
//===----------------------------------------------------------------------===//

void runCorpus(Run &R) {
  std::vector<BenchPackage> Pk;
  std::vector<driver::BatchInput> Inputs;
  for (int K = 0; K < SetupRuns; ++K) {
    Timer T;
    Pk = makeCorpus(R.A.Seed, R.Z);
    Inputs = toInputs(Pk);
    R.SetupSeconds.push_back(T.elapsedSeconds());
  }
  R.Rep.Provenance["packages"] = json::Value(static_cast<unsigned long>(Pk.size()));
  R.Rep.Provenance["loc"] = json::Value(static_cast<unsigned long>(totalLoC(Pk)));
  Gate G(Pk, R.Expected, "corpus", R.A.Smoke ? "smoke" : "full", R.A.Seed,
         R.Rep);

  if (R.A.Trace) {
    tracedLayers(R, Pk, G);
    G.finish(R.A.PerturbExpected);
    return;
  }

  // Whole passes over the corpus, one BatchDriver run per package so each
  // scan's CPU time is its own. On a shared host a neighbour can slow the
  // CPU by a quarter or more for seconds at a time, so each package's
  // latency and CPU time are its best (least-disturbed) scan across passes,
  // and throughput is packages over the summed best scans.
  std::vector<double> BestMs(Inputs.size(), 1e300), BestCpuMs = BestMs;
  Timer Wall;
  double LastPass = 0;
  size_t Passes = 0;
  do {
    Timer Pass;
    for (size_t I = 0; I < Inputs.size(); ++I) {
      double Cpu0 = cpuSecondsSelfAndChildren();
      driver::BatchSummary S = driver::BatchDriver().run({Inputs[I]});
      double CpuMs = (cpuSecondsSelfAndChildren() - Cpu0) * 1e3;
      const driver::BatchOutcome &O = S.Outcomes.at(0);
      G.check(I, O.Result.Reports, "pass " + std::to_string(Passes));
      BestMs[I] = std::min(BestMs[I], O.Seconds * 1e3);
      BestCpuMs[I] = std::min(BestCpuMs[I], CpuMs);
      ++R.Rep.Attempted;
      if (O.Status != driver::BatchStatus::Ok)
        ++R.Rep.Failed;
    }
    LastPass = Pass.elapsedSeconds();
    ++Passes;
  } while (Wall.elapsedSeconds() + LastPass <= R.A.Seconds * 1.1);
  G.finish(R.A.PerturbExpected);
  R.Rep.Provenance["passes"] = json::Value(static_cast<unsigned long>(Passes));

  double SumMs = 0, SumCpuMs = 0;
  for (size_t I = 0; I < BestMs.size(); ++I)
    SumMs += BestMs[I], SumCpuMs += BestCpuMs[I];
  R.Rep.add("throughput_pkg_s", double(BestMs.size()) * 1e3 / SumMs, "pkg/s");
  R.Rep.add("latency_p50_ms", percentile(BestMs, 0.5), "ms");
  R.Rep.add("latency_p90_ms", percentile(BestMs, 0.9), "ms");
  R.Rep.Provenance["latency_p99_ms"] = json::Value(percentile(BestMs, 0.99));
  R.Rep.add("cpu_ms_per_pkg", SumCpuMs / double(BestCpuMs.size()), "ms");
}

//===----------------------------------------------------------------------===//
// small_batch
//===----------------------------------------------------------------------===//

/// Half the host's cores. The host shares its cores with other tenants: at
/// nproc workers the supervisor preempts them and each scan's time measures
/// the scheduler (per-package p50 spread 13% across seeds, against 5% at
/// nproc - 1), and at nproc - 1 a neighbour's busy spell halved the pool's
/// throughput for minutes (spread 30% across ten seeds).
unsigned poolWorkers() { return std::max(1u, hostCores() / 2); }

driver::PoolOptions poolOptions() {
  driver::PoolOptions PO;
  PO.Jobs = poolWorkers();
  PO.Persistent = true;
  return PO;
}

void runSmallBatch(Run &R) {
  std::vector<BenchPackage> Pk;
  std::vector<driver::BatchInput> Inputs;
  for (int K = 0; K < SetupRuns; ++K) {
    Timer T;
    Pk = makeSmallBatch(R.A.Seed, R.Z.BatchPackages);
    Inputs = toInputs(Pk);
    // Warm-up: the pool forks its workers and they page in the scanner.
    // Sixteen packages a worker, so that the scans, not the scheduling of
    // the forks, are most of what setup_s measures.
    std::vector<driver::BatchInput> Warm(
        Inputs.begin(),
        Inputs.begin() + std::min<size_t>(Inputs.size(), 16 * poolWorkers()));
    driver::ProcessPool(poolOptions()).run(Warm);
    R.SetupSeconds.push_back(T.elapsedSeconds());
  }
  R.Rep.Provenance["packages"] = json::Value(static_cast<unsigned long>(Pk.size()));
  R.Rep.Provenance["loc"] = json::Value(static_cast<unsigned long>(totalLoC(Pk)));
  R.Rep.Provenance["workers"] = json::Value(poolWorkers());
  Gate G(Pk, R.Expected, "small_batch", R.A.Smoke ? "smoke" : "full",
         R.A.Seed, R.Rep);

  // One pool run over \p Part, the inputs from index \p Begin on.
  auto poolPass = [&](obs::TraceRecorder *TR, size_t Begin,
                      const std::vector<driver::BatchInput> &Part,
                      std::vector<double> &LatMs, driver::BatchSummary &S) {
    driver::PoolOptions PO = poolOptions();
    PO.Trace = TR;
    Timer Pass;
    S = driver::ProcessPool(PO).run(Part);
    for (size_t I = 0; I < S.Outcomes.size(); ++I) {
      const driver::BatchOutcome &O = S.Outcomes[I];
      G.check(Begin + I, O.Result.Reports, "pool");
      LatMs.push_back(O.Seconds * 1e3);
      ++R.Rep.Attempted;
      if (O.Status != driver::BatchStatus::Ok)
        ++R.Rep.Failed;
    }
    return Pass.elapsedSeconds();
  };

  if (R.A.Trace) {
    tracedLayers(R, Pk, G);
    // The pool's own spans pair each job's supervisor-side time with the
    // worker-reported scan time.
    obs::TraceRecorder PoolTR;
    std::vector<double> LatMs;
    driver::BatchSummary S;
    double Wall = poolPass(&PoolTR, 0, Inputs, LatMs, S);
    std::map<std::string, double> JobUs;
    for (const obs::SpanRecord &Sp : PoolTR.spans())
      if (Sp.Name.rfind("job:", 0) == 0)
        JobUs[Sp.Name.substr(4)] = Sp.DurUs;
    std::vector<double> OverMs;
    double Scan = 0;
    for (const driver::BatchOutcome &O : S.Outcomes) {
      Scan += O.Seconds;
      if (JobUs.count(O.Package))
        OverMs.push_back(JobUs[O.Package] / 1e3 - O.Seconds * 1e3);
    }
    double Capacity = Wall * double(poolWorkers());
    setMetric(R.Rep, "driver.worker_busy_frac", Scan / Capacity);
    setMetric(R.Rep, "driver.overhead_ms_per_pkg",
              (Capacity - Scan) * 1e3 / double(S.Outcomes.size()));
    setMetric(R.Rep, "driver.overhead_p50_ms", percentile(OverMs, 0.5));
    setMetric(R.Rep, "driver.overhead_p99_ms", percentile(OverMs, 0.99));
    setMetric(R.Rep, "driver.recycled", double(S.Recycled));
    G.finish(R.A.PerturbExpected);
    return;
  }

  // Each pass is two pool runs, one per half of the inputs. Throughput and
  // CPU are the best run's; each package's latency is its best
  // worker-reported scan across passes (see runCorpus). A slow spell of the
  // host spans a whole two-second run more often than a one-second one:
  // with whole-pass runs throughput and CPU spread 11-12% across seeds.
  const size_t Mid = Inputs.size() / 2;
  const std::vector<std::pair<size_t, std::vector<driver::BatchInput>>> Halves =
      {{0, {Inputs.begin(), Inputs.begin() + Mid}},
       {Mid, {Inputs.begin() + Mid, Inputs.end()}}};
  std::vector<double> RunRate, RunCpuMs, BestMs(Inputs.size(), 1e300);
  Timer Wall;
  double LastPass = 0;
  size_t Passes = 0;
  do {
    Timer Pass;
    for (const auto &[Begin, Part] : Halves) {
      driver::BatchSummary S;
      std::vector<double> LatMs;
      double Cpu0 = cpuSecondsSelfAndChildren();
      double Secs = poolPass(nullptr, Begin, Part, LatMs, S);
      RunCpuMs.push_back((cpuSecondsSelfAndChildren() - Cpu0) * 1e3 /
                         double(Part.size()));
      RunRate.push_back(double(Part.size()) / Secs);
      for (size_t I = 0; I < LatMs.size(); ++I)
        BestMs[Begin + I] = std::min(BestMs[Begin + I], LatMs[I]);
    }
    LastPass = Pass.elapsedSeconds();
    ++Passes;
  } while (Wall.elapsedSeconds() + LastPass <= R.A.Seconds * 1.1);
  G.finish(R.A.PerturbExpected);
  R.Rep.Provenance["passes"] = json::Value(static_cast<unsigned long>(Passes));

  R.Rep.add("throughput_pkg_s", percentile(RunRate, 1), "pkg/s");
  R.Rep.add("latency_p50_ms", percentile(BestMs, 0.5), "ms");
  R.Rep.add("latency_p90_ms", percentile(BestMs, 0.9), "ms");
  R.Rep.Provenance["latency_p99_ms"] = json::Value(percentile(BestMs, 0.99));
  R.Rep.add("cpu_ms_per_pkg", percentile(RunCpuMs, 0), "ms");
}

//===----------------------------------------------------------------------===//
// serve_open
//===----------------------------------------------------------------------===//

/// Writes the pool's packages under \p Dir and returns, per package, the
/// JSON array of its file paths.
std::vector<std::string> materialize(const std::vector<BenchPackage> &Pk,
                                     const fs::path &Dir) {
  std::vector<std::string> Out;
  fs::remove_all(Dir);
  for (size_t I = 0; I < Pk.size(); ++I) {
    fs::path PD = Dir / std::to_string(I);
    fs::create_directories(PD);
    json::Array Files;
    for (const scanner::SourceFile &F : Pk[I].Pkg.Files) {
      std::ofstream(PD / F.Name, std::ios::binary) << F.Contents;
      Files.push_back(json::Value((PD / F.Name).string()));
    }
    Out.push_back(json::Value(std::move(Files)).str());
  }
  return Out;
}

void runServeOpen(Run &R) {
  const unsigned Jobs = workers();
  const unsigned Conns = Jobs;
  fs::path Dir = fs::absolute(R.A.OutDir) / ("serve-" + std::to_string(::getpid()));
  driver::ServiceOptions SO;
  // Relative: a checkout path can outgrow sockaddr_un's 108 bytes.
  SO.SocketPath = (fs::path(R.A.OutDir) / ("s" + std::to_string(::getpid()) +
                                          ".sock"))
                      .string();
  SO.Jobs = Jobs;
  SO.Quiet = true;

  std::vector<BenchPackage> Pk;
  std::vector<std::string> Files;
  ServeDaemon D;
  size_t NextReq = 0;
  std::unique_ptr<Gate> G;
  auto sink = [&](size_t Pool, const std::vector<queries::VulnReport> &Rep) {
    G->check(Pool, Rep, "serve");
  };
  for (int K = 0; K < 3; ++K) {
    D.stop();
    Timer T;
    Pk = makeServePool(R.A.Seed, R.Z.ServePool);
    Files = materialize(Pk, Dir);
    G = std::make_unique<Gate>(Pk, R.Expected, "serve_open",
                               R.A.Smoke ? "smoke" : "full", R.A.Seed, R.Rep);
    std::string Err;
    if (!D.start(SO, Err)) {
      R.Rep.mismatch("serve daemon: " + Err);
      fs::remove_all(Dir);
      return;
    }
    // Warm-up: every worker scans a few packages before timing starts.
    PhaseResult Warm = runOpenLoop(D.socket(), Files, R.Z.RateLow,
                                   std::max(0.25, 8.0 * Jobs / R.Z.RateLow),
                                   NextReq, Conns, sink);
    NextReq += Warm.Sent;
    R.SetupSeconds.push_back(T.elapsedSeconds());
  }
  R.Rep.Provenance["packages"] = json::Value(static_cast<unsigned long>(Pk.size()));
  R.Rep.Provenance["loc"] = json::Value(static_cast<unsigned long>(totalLoC(Pk)));
  R.Rep.Provenance["workers"] = json::Value(Jobs);
  R.Rep.Provenance["connections"] = json::Value(Conns);

  auto phase = [&](double Rate, double Seconds) {
    PhaseResult P = runOpenLoop(D.socket(), Files, Rate, Seconds, NextReq,
                                Conns, sink);
    NextReq += P.Sent;
    return P;
  };
  auto counted = [&](const PhaseResult &P) {
    R.Rep.Attempted += P.Sent;
    R.Rep.Failed += P.failed();
  };
  const double S = R.A.Seconds;
  auto meets = [&](const PhaseResult &P) {
    // Loop packages make the outstanding count jitter by a few requests per
    // worker; a backlog that grows faster than that over the second half of
    // the sending window is a rate the daemon cannot sustain.
    bool Growing = P.OutstandingEnd > P.OutstandingMid + 4 * Jobs;
    return P.failed() == 0 && !Growing &&
           P.p99WithFailuresMs() <= R.Z.LatencyLimitMs;
  };

  if (R.A.Trace) {
    // The driver layer at all three fixed rates.
    PhaseResult Low = phase(R.Z.RateLow, 0.25 * S);
    PhaseResult Mid = phase(R.Z.RateMid, 0.25 * S);
    PhaseResult High = phase(R.Z.RateHigh, 0.2 * S);
    for (const PhaseResult *P : {&Low, &Mid, &High})
      counted(*P);
    json::Object St = D.status();
    auto num = [&](const char *K) {
      auto It = St.find(K);
      return It != St.end() && It->second.isNumber() ? It->second.asNumber()
                                                     : 0.0;
    };
    D.stop();
    tracedLayers(R, Pk, *G);
    setMetric(R.Rep, "driver.worker_busy_frac",
              Mid.ScanSeconds / (Mid.SendSeconds * Jobs));
    double Over = 0;
    for (double V : Mid.OverheadMs)
      Over += V;
    setMetric(R.Rep, "driver.overhead_ms_per_pkg",
              Mid.OverheadMs.empty() ? 0 : Over / double(Mid.OverheadMs.size()));
    setMetric(R.Rep, "driver.overhead_p50_ms", percentile(Mid.OverheadMs, 0.5));
    setMetric(R.Rep, "driver.overhead_p99_ms",
              percentile(Mid.OverheadMs, 0.99));
    setMetric(R.Rep, "driver.rejected", num("rejected"));
    setMetric(R.Rep, "driver.recycled", num("recycled"));
    setMetric(R.Rep, "serve.latency_p99_ms_low", Low.p99WithFailuresMs());
    setMetric(R.Rep, "serve.latency_p99_ms_high", High.p99WithFailuresMs());
    std::vector<double> Lag = Low.LagMs;
    Lag.insert(Lag.end(), Mid.LagMs.begin(), Mid.LagMs.end());
    Lag.insert(Lag.end(), High.LagMs.begin(), High.LagMs.end());
    setMetric(R.Rep, "bench.generator_lag_p99_ms", percentile(Lag, 0.99));
    G->finish(R.A.PerturbExpected);
    fs::remove_all(Dir);
    return;
  }

  // The mid rate as consecutive 2-second-or-so windows. On a shared host
  // a neighbour can slow the CPU by a quarter for seconds at a time, so
  // each latency percentile and the CPU cost are taken from the best
  // (least-disturbed) window, as the closed-loop workloads take each
  // package's best scan.
  const int Windows = 6;
  std::vector<double> P50, P90, P99, CpuMs;
  for (int W = 0; W < Windows; ++W) {
    double Cpu0 = cpuSecondsSelfAndChildren() + processTreeCpuSeconds(D.pid());
    PhaseResult P = phase(R.Z.RateMid, 0.4 * S / Windows);
    double Cpu = cpuSecondsSelfAndChildren() + processTreeCpuSeconds(D.pid()) -
                 Cpu0;
    counted(P);
    P50.push_back(percentile(P.LatencyMs, 0.5));
    P90.push_back(percentile(P.LatencyMs, 0.9));
    P99.push_back(P.p99WithFailuresMs());
    CpuMs.push_back(Cpu * 1e3 / double(std::max<size_t>(1, P.Sent)));
  }

  // Max-rate search over a ladder of rates 5% apart anchored at the mid
  // rate: binary search for the highest rung that meets the p99 limit with
  // no failures and no growing backlog. A rung passes if any of three
  // probes does (best of three, for the same reason as above). Probes above
  // capacity overload the daemon on purpose, so their failures do not count
  // against the run.
  auto rung = [&](int K) { return R.Z.RateMid * std::pow(1.05, K); };
  int Lo = -14, Hi = 21;
  const double ProbeSeconds = 0.05 * S;
  while (Hi - Lo > 1) {
    int K = (Lo + Hi) / 2;
    bool Ok = false;
    for (int Try = 0; Try < 3 && !Ok; ++Try)
      Ok = meets(phase(rung(K), ProbeSeconds));
    (Ok ? Lo : Hi) = K;
  }
  D.stop();
  G->finish(R.A.PerturbExpected);
  fs::remove_all(Dir);
  R.Rep.Provenance["max_rate_rung"] = json::Value(Lo);
  R.Rep.Provenance["requests"] = json::Value(static_cast<unsigned long>(NextReq));

  R.Rep.add("throughput_pkg_s", rung(Lo), "pkg/s");
  R.Rep.add("latency_p50_ms", percentile(P50, 0), "ms");
  R.Rep.add("latency_p90_ms", percentile(P90, 0), "ms");
  R.Rep.Provenance["latency_p99_ms"] = json::Value(percentile(P99, 0));
  R.Rep.add("cpu_ms_per_pkg", percentile(CpuMs, 0), "ms");
}

//===----------------------------------------------------------------------===//
// Recording expected.json
//===----------------------------------------------------------------------===//

std::vector<uint64_t> parseSeeds(const std::string &Spec) {
  std::vector<uint64_t> Out;
  std::stringstream SS(Spec);
  std::string Part;
  while (std::getline(SS, Part, ',')) {
    size_t Dash = Part.find('-');
    if (Dash == std::string::npos) {
      Out.push_back(std::stoull(Part));
      continue;
    }
    for (uint64_t S = std::stoull(Part.substr(0, Dash)),
                  E = std::stoull(Part.substr(Dash + 1));
         S <= E; ++S)
      Out.push_back(S);
  }
  return Out;
}

/// Scans every workload's distinct packages in-process for each seed and
/// prints expected.json: per-seed totals plus every outcome seen per shape.
int record(const Args &A) {
  json::Object Totals;
  std::map<std::string, std::set<std::string>> Shapes;
  for (const char *SizeKey : {"full", "smoke"}) {
    bool Smoke = std::strcmp(SizeKey, "smoke") == 0;
    Sizes Z = Smoke ? Sizes::smoke() : Sizes::full();
    json::Object PerWorkload;
    for (const char *W : {"corpus", "small_batch", "serve_open"}) {
      json::Object PerSeed;
      for (uint64_t Seed : parseSeeds(Smoke ? A.RecordSmokeSeeds : A.RecordSeeds)) {
        std::vector<BenchPackage> Pk =
            std::strcmp(W, "corpus") == 0 ? makeCorpus(Seed, Z)
            : std::strcmp(W, "small_batch") == 0
                ? makeSmallBatch(Seed, Z.BatchPackages)
                : makeServePool(Seed, Z.ServePool);
        RunReport Rep;
        Gate G(Pk, nullptr, W, SizeKey, Seed, Rep);
        driver::BatchSummary S = driver::BatchDriver().run(toInputs(Pk));
        for (size_t I = 0; I < Pk.size(); ++I) {
          G.check(I, S.Outcomes[I].Result.Reports, "record");
          Shapes[Pk[I].Shape].insert(G.outcomeKeys()[I]);
          if (S.Outcomes[I].Status != driver::BatchStatus::Ok) {
            std::fprintf(stderr, "record: %s seed %llu: %s not ok\n", W,
                         static_cast<unsigned long long>(Seed),
                         Pk[I].Pkg.Name.c_str());
            return 1;
          }
        }
        PerSeed[std::to_string(Seed)] = json::Value(scoreKey(G.totals()));
        std::fprintf(stderr, "record: %s %s seed %llu done\n", SizeKey, W,
                     static_cast<unsigned long long>(Seed));
      }
      PerWorkload[W] = json::Value(std::move(PerSeed));
    }
    Totals[SizeKey] = json::Value(std::move(PerWorkload));
  }
  // Every shape the corpus generator can draw, so that a seed whose corpus
  // holds a shape the recorded corpora lack still meets a recorded outcome.
  for (uint64_t Seed : parseSeeds(A.RecordSweepSeeds)) {
    std::vector<BenchPackage> Pk =
        makeShapeSweep(Seed, Sizes::full().CorpusMaxLoC);
    RunReport Rep;
    Gate G(Pk, nullptr, "sweep", "full", Seed, Rep);
    driver::BatchSummary S = driver::BatchDriver().run(toInputs(Pk));
    for (size_t I = 0; I < Pk.size(); ++I) {
      G.check(I, S.Outcomes[I].Result.Reports, "record");
      Shapes[Pk[I].Shape].insert(G.outcomeKeys()[I]);
      if (S.Outcomes[I].Status != driver::BatchStatus::Ok) {
        std::fprintf(stderr, "record: sweep seed %llu: %s not ok\n",
                     static_cast<unsigned long long>(Seed),
                     Pk[I].Pkg.Name.c_str());
        return 1;
      }
    }
    std::fprintf(stderr, "record: sweep seed %llu done\n",
                 static_cast<unsigned long long>(Seed));
  }
  json::Object ShapeObj;
  for (const auto &[Shape, Keys] : Shapes) {
    json::Array Arr;
    for (const std::string &K : Keys)
      Arr.push_back(json::Value(K));
    ShapeObj[Shape] = json::Value(std::move(Arr));
  }
  json::Object Root;
  Root["totals"] = json::Value(std::move(Totals));
  Root["shapes"] = json::Value(std::move(ShapeObj));
  std::printf("%s\n", json::Value(std::move(Root)).str(1).c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

bool parseArgs(int Argc, char **Argv, Args &A, std::string &Err) {
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    auto val = [&]() -> std::string {
      if (I + 1 >= Argc) {
        Err = K + " needs a value";
        return "";
      }
      return Argv[++I];
    };
    if (K == "--workload")
      A.Workload = val();
    else if (K == "--seed")
      A.Seed = std::strtoull(val().c_str(), nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = std::atof(val().c_str());
    else if (K == "--trace")
      A.Trace = val() == "1";
    else if (K == "--expected")
      A.ExpectedPath = val();
    else if (K == "--out")
      A.OutDir = val();
    else if (K == "--revision")
      A.Revision = val();
    else if (K == "--record")
      A.RecordSeeds = val();
    else if (K == "--smoke-seeds")
      A.RecordSmokeSeeds = val();
    else if (K == "--sweep-seeds")
      A.RecordSweepSeeds = val();
    else if (K == "--smoke")
      A.Smoke = true;
    else if (K == "--perturb-expected")
      A.PerturbExpected = true;
    else
      Err = "unknown argument " + K;
    if (!Err.empty())
      return false;
  }
  if (!A.RecordSeeds.empty())
    return true;
  if (A.Workload != "corpus" && A.Workload != "small_batch" &&
      A.Workload != "serve_open") {
    Err = "--workload must be corpus, small_batch or serve_open";
    return false;
  }
  if (A.ExpectedPath.empty()) {
    Err = "--expected is required";
    return false;
  }
  if (!(A.Seconds > 0)) {
    Err = "--seconds must be positive";
    return false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  std::string Err;
  if (!parseArgs(Argc, Argv, A, Err)) {
    std::fprintf(stderr, "perfbench: %s\n", Err.c_str());
    return 2;
  }
  if (!A.RecordSeeds.empty())
    return record(A);

  json::Value Expected;
  {
    std::ifstream In(A.ExpectedPath);
    std::stringstream SS;
    SS << In.rdbuf();
    if (!In || !json::parse(SS.str(), Expected) || !Expected.isObject()) {
      std::fprintf(stderr, "perfbench: cannot read %s\n",
                   A.ExpectedPath.c_str());
      return 2;
    }
  }
  fs::create_directories(A.OutDir);

  Sizes Z = A.Smoke ? Sizes::smoke() : Sizes::full();
  RunReport Rep;
  Run R{A, Z, &Expected, Rep, {}};
  if (A.Workload == "corpus")
    runCorpus(R);
  else if (A.Workload == "small_batch")
    runSmallBatch(R);
  else
    runServeOpen(R);

  if (!A.Trace) {
    Rep.Metrics.insert(Rep.Metrics.begin(),
                       {"setup_s", median(R.SetupSeconds), "s"});
    Rep.add("peak_rss_mb", peakRssMB(), "MiB");
  } else {
    Rep.add("bench.failed_frac",
            Rep.Attempted ? double(Rep.Failed) / double(Rep.Attempted) : 0,
            "fraction");
  }

  json::Object &P = Rep.Provenance;
  P["revision"] = json::Value(A.Revision);
  P["build_type"] = json::Value(PERFBENCH_BUILD_TYPE);
  P["compiler"] = json::Value(PERFBENCH_COMPILER);
  P["host_cores"] = json::Value(hostCores());
  P["workload"] = json::Value(A.Workload);
  P["seed"] = json::Value(static_cast<unsigned long>(A.Seed));
  P["seconds"] = json::Value(A.Seconds);
  P["trace"] = json::Value(A.Trace);
  P["sizes"] = json::Value(A.Smoke ? "smoke" : "full");
  P["serve_rates_rps"] = json::Value(json::Array{
      json::Value(Z.RateLow), json::Value(Z.RateMid), json::Value(Z.RateHigh)});
  P["serve_p99_limit_ms"] = json::Value(Z.LatencyLimitMs);
  if (!Rep.Mismatches.empty()) {
    json::Array M;
    for (const std::string &S : Rep.Mismatches) {
      std::fprintf(stderr, "perfbench: MISMATCH: %s\n", S.c_str());
      M.push_back(json::Value(S));
    }
    P["mismatches"] = json::Value(std::move(M));
  }

  json::Object Metrics;
  for (const RunReport::Metric &M : Rep.Metrics) {
    json::Object O;
    O["value"] = json::Value(M.Value);
    O["unit"] = json::Value(M.Unit);
    Metrics[M.Name] = json::Value(std::move(O));
  }
  json::Object Result;
  Result["correct"] = json::Value(Rep.correct());
  Result["attempted"] = json::Value(static_cast<unsigned long>(Rep.Attempted));
  // A correctness mismatch is a failed operation too.
  Result["failed"] = json::Value(static_cast<unsigned long>(
      Rep.Failed + Rep.Mismatches.size()));
  Result["metrics"] = json::Value(std::move(Metrics));

  json::Object Prov;
  Prov["provenance"] = json::Value(P);
  std::string ResultLine = json::Value(Result).str();
  std::ofstream(A.OutDir + "/result-" + A.Workload + "-" +
                std::to_string(A.Seed) + (A.Trace ? "-trace" : "") + ".json")
      << "{\"provenance\":" << json::Value(P).str() << ",\"result\":"
      << ResultLine << "}\n";
  std::printf("%s\n%s\n", json::Value(Prov).str().c_str(), ResultLine.c_str());
  return Rep.correct() ? 0 : 1;
}
