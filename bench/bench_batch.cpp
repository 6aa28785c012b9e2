//===- bench/bench_batch.cpp - Multi-process batch scanning throughput ----==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
// Measures what the supervised worker pool (docs/ROBUSTNESS.md) buys and
// costs: the same generated workload corpus scanned
//
//   - in-process (`graphjs batch`, jobs=1 — the baseline),
//   - through the resident worker pool (`--jobs N`) at jobs=1/2/4, where
//     each worker drains a pipe-fed job queue and the fork cost is paid
//     per worker, not per package, and
//   - through the pool at maximum isolation (`--jobs N --recycle-after 1`,
//     a fresh process image per package) at jobs=1/4.
//
// Reported per mode: best-of-N wall-clock (N runs per mode; the minimum
// is the least-disturbed run on a shared host), summed per-package CPU,
// wall-clock throughput, and speedup over in-process. Speedup over
// in-process needs real hardware parallelism: on a 1-core host every
// multi-process mode is capped at ~1.0x by physics (same total CPU, plus
// fork and IPC), so the JSON records host_cores alongside the numbers.
//
// Detection neutrality is asserted inline on every run: any mode whose
// per-package verdicts or report counts differ from the in-process run
// fails the binary — process isolation must be free in findings, only
// paid in fork/merge overhead.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "driver/BatchDriver.h"
#include "driver/ProcessPool.h"
#include "driver/WorkLedger.h"
#include "obs/Histogram.h"
#include "support/Subprocess.h"
#include "support/TablePrinter.h"
#include "support/Timer.h"

#include <filesystem>
#include <fstream>
#include <map>

#include <unistd.h>

using namespace gjs;
using namespace gjs::bench;

namespace {

struct Mode {
  std::string Name;
  unsigned Jobs; // 0 = in-process BatchDriver.
  unsigned RecycleAfter = 0;
};

struct Measured {
  driver::BatchSummary Summary;
  std::vector<double> PerPackageSeconds;
};

Measured runMode(const Mode &M, const std::vector<driver::BatchInput> &Inputs) {
  Measured Out;
  driver::BatchOptions BO;
  if (M.Jobs == 0) {
    Out.Summary = driver::BatchDriver(BO).run(Inputs);
  } else {
    driver::PoolOptions PO;
    PO.Batch = BO;
    PO.Jobs = M.Jobs;
    PO.RecycleAfter = M.RecycleAfter;
    Out.Summary = driver::ProcessPool(PO).run(Inputs);
  }
  for (const driver::BatchOutcome &O : Out.Summary.Outcomes)
    Out.PerPackageSeconds.push_back(O.Seconds);
  return Out;
}

} // namespace

int main() {
  printHeader("Multi-process batch scanning: pool overhead and speedup",
              "docs/ROBUSTNESS.md");

  // A benign-heavy npm-like mix of *small* packages — the regime resident
  // workers exist for: scans of a few milliseconds, where a per-package
  // fork is a large fraction of the work it ships.
  std::vector<driver::BatchInput> Inputs;
  workload::PackageGenerator Gen(2024);
  for (size_t I = 0; I < scaled(32); ++I) {
    workload::Package P =
        I % 4 ? Gen.benign(40)
              : Gen.vulnerable(queries::VulnType::CommandInjection,
                               workload::Complexity::Wrapped,
                               workload::VariantKind::Plain, 40);
    Inputs.push_back({"pkg" + std::to_string(I), std::move(P.Files)});
  }

  const std::vector<Mode> Modes = {
      {"inproc_jobs1", 0},     {"persistent_jobs1", 1},
      {"persistent_jobs2", 2}, {"persistent_jobs4", 4},
      {"isolated_jobs1", 1, 1}, {"isolated_jobs4", 4, 1}};

  Report Rep("batch");
  TablePrinter Table({"mode", "#pkg", "wall", "cpu", "pkg/s", "speedup",
                      "p50", "p95", "p99", "reports"});
  bool Neutral = true;
  double BaselineWall = 0;
  size_t BaselineReports = 0;
  std::vector<driver::BatchStatus> BaselineStatus;

  const int Repeats = 3;
  std::map<std::string, double> SpeedupByMode;
  for (const Mode &M : Modes) {
    Measured R;
    double Wall = 0;
    // Per-package scan latency distribution over every repeat of this
    // mode, from the scan.latency_us histogram — recorded in-process by
    // the driver, merged from worker telemetry deltas by the pools.
    obs::HistogramSnapshotMap HistBefore = obs::snapshotHistograms();
    for (int It = 0; It < Repeats; ++It) {
      Measured Run = runMode(M, Inputs);
      const driver::BatchSummary &S = Run.Summary;
      double W = S.WallSeconds > 0 ? S.WallSeconds : S.TotalSeconds;

      // Detection neutrality is checked on every run, not just the kept
      // one: a verdict that flickers under load is exactly the bug the
      // assertion exists to catch.
      if (M.Jobs == 0 && It == 0) {
        BaselineReports = S.TotalReports;
        for (const driver::BatchOutcome &O : S.Outcomes)
          BaselineStatus.push_back(O.Status);
      } else {
        if (S.TotalReports != BaselineReports) {
          std::fprintf(stderr, "FAIL: %s: report total %zu vs in-process %zu\n",
                       M.Name.c_str(), S.TotalReports, BaselineReports);
          Neutral = false;
        }
        for (size_t I = 0; I < S.Outcomes.size(); ++I)
          if (S.Outcomes[I].Status != BaselineStatus[I]) {
            std::fprintf(stderr, "FAIL: %s: %s verdict differs\n",
                         M.Name.c_str(), S.Outcomes[I].Package.c_str());
            Neutral = false;
          }
      }

      if (It == 0 || W < Wall) {
        Wall = W;
        R = std::move(Run);
      }
    }
    const driver::BatchSummary &S = R.Summary;

    obs::HistogramSnapshotMap HistDelta =
        obs::histogramDelta(HistBefore, obs::snapshotHistograms());
    obs::HistogramSnapshot Lat;
    if (HistDelta.count("scan.latency_us"))
      Lat = HistDelta.at("scan.latency_us");
    double P50Ms = Lat.percentile(0.50) / 1000.0;
    double P95Ms = Lat.percentile(0.95) / 1000.0;
    double P99Ms = Lat.percentile(0.99) / 1000.0;

    if (M.Jobs == 0)
      BaselineWall = Wall;

    double Speedup = Wall > 0 ? BaselineWall / Wall : 0;
    SpeedupByMode[M.Name] = Speedup;
    Rep.series(M.Name + ".package_seconds", R.PerPackageSeconds);
    Rep.scalar(M.Name + ".wall_seconds", Wall);
    Rep.scalar(M.Name + ".cpu_seconds", S.TotalSeconds);
    Rep.scalar(M.Name + ".packages_per_second",
               Wall > 0 ? double(S.Scanned) / Wall : 0);
    Rep.scalar(M.Name + ".speedup", Speedup);
    Rep.scalar(M.Name + ".scan_p50_ms", P50Ms);
    Rep.scalar(M.Name + ".scan_p95_ms", P95Ms);
    Rep.scalar(M.Name + ".scan_p99_ms", P99Ms);
    Rep.scalar(M.Name + ".scan_hist_samples", double(Lat.count()));
    Rep.scalar(M.Name + ".reports", double(S.TotalReports));
    Table.addRow({M.Name, std::to_string(S.Scanned),
                  TablePrinter::fmt(Wall * 1000.0, 2) + "ms",
                  TablePrinter::fmt(S.TotalSeconds * 1000.0, 2) + "ms",
                  TablePrinter::fmt(Wall > 0 ? double(S.Scanned) / Wall : 0, 2),
                  TablePrinter::fmtRatio(Speedup),
                  TablePrinter::fmt(P50Ms, 2) + "ms",
                  TablePrinter::fmt(P95Ms, 2) + "ms",
                  TablePrinter::fmt(P99Ms, 2) + "ms",
                  std::to_string(S.TotalReports)});
  }

  // Distributed ledger modes: the same corpus drained through the shared
  // on-disk work ledger (docs/ROBUSTNESS.md, "Distributed draining") by
  // one supervisor, then by two racing supervisors — what the
  // crash-safety machinery (exclusive claims, heartbeats, CRC-framed shard
  // journals, merge) costs when nothing crashes, and what a second
  // drainer buys.
  auto runLedger = [&](unsigned Supervisors) {
    struct {
      double Wall = 0;
      size_t Claims = 0, Steals = 0, Reports = 0;
      bool Neutral = true;
    } Out;
    std::string Dir = "/tmp/gjs_bench_ledger_" + std::to_string(::getpid()) +
                      "_" + std::to_string(Supervisors);
    std::filesystem::remove_all(Dir);
    driver::SharedBatchOptions SO;
    SO.Ledger.Dir = Dir;
    SO.Ledger.ShardSize = 4;
    SO.Ledger.SupervisorId = "bench-sup0";
    SO.Pool.Batch.Quiet = true;
    Timer T;
    Subprocess Second;
    if (Supervisors > 1) {
      driver::SharedBatchOptions CO = SO;
      CO.Ledger.SupervisorId = "bench-sup1";
      Subprocess::forkChild(
          [&CO, &Inputs] {
            return driver::runSharedBatch(CO, Inputs).Summary.Failed ? 1 : 0;
          },
          Second);
    }
    driver::SharedBatchResult R = driver::runSharedBatch(SO, Inputs);
    if (Second.valid())
      Second.wait();
    Out.Wall = T.elapsedSeconds();
    Out.Claims = R.Summary.LedgerClaims;
    Out.Steals = R.Summary.LedgerSteals;
    // Detection neutrality straight off the merged corpus journal: same
    // per-package verdicts and report total as the in-process baseline.
    std::ifstream In(Dir + "/corpus.jsonl");
    std::string Line;
    size_t Idx = 0;
    while (std::getline(In, Line)) {
      driver::BatchOutcome O;
      if (!driver::BatchDriver::parseJournalLine(Line, O)) {
        Out.Neutral = false;
        continue;
      }
      Out.Reports += O.Result.Reports.size();
      if (Idx >= BaselineStatus.size() || O.Status != BaselineStatus[Idx])
        Out.Neutral = false;
      ++Idx;
    }
    Out.Neutral &= Idx == Inputs.size() && Out.Reports == BaselineReports;
    std::filesystem::remove_all(Dir);
    return Out;
  };
  for (unsigned Supervisors : {1u, 2u}) {
    auto L = runLedger(Supervisors);
    Neutral &= L.Neutral;
    if (!L.Neutral)
      std::fprintf(stderr, "FAIL: ledger_%usup: merged corpus differs from "
                           "in-process baseline\n",
                   Supervisors);
    std::string Name = "ledger_" + std::to_string(Supervisors) + "sup";
    double Speedup = L.Wall > 0 ? BaselineWall / L.Wall : 0;
    Rep.scalar(Name + ".wall_seconds", L.Wall);
    Rep.scalar(Name + ".packages_per_second",
               L.Wall > 0 ? double(Inputs.size()) / L.Wall : 0);
    Rep.scalar(Name + ".speedup", Speedup);
    Rep.scalar(Name + ".supervisors", double(Supervisors));
    Rep.scalar(Name + ".claims", double(L.Claims));
    Rep.scalar(Name + ".steals", double(L.Steals));
    Rep.scalar(Name + ".reports", double(L.Reports));
    Table.addRow({Name, std::to_string(Inputs.size()),
                  TablePrinter::fmt(L.Wall * 1000.0, 2) + "ms", "-",
                  TablePrinter::fmt(
                      L.Wall > 0 ? double(Inputs.size()) / L.Wall : 0, 2),
                  TablePrinter::fmtRatio(Speedup), "-", "-", "-",
                  std::to_string(L.Reports)});
  }

  std::printf("%s\n", Table.str().c_str());
  long Cores = ::sysconf(_SC_NPROCESSORS_ONLN);
  std::printf("host cores: %ld (speedup over in-process is capped near 1.0x "
              "without hardware parallelism)\n\n",
              Cores);

  // Speedup sanity assertions — gated on real hardware parallelism: a
  // 1-core host caps every multi-process mode near 1.0x by physics, so
  // asserting there would only measure the gate's absence. The floors are
  // deliberately loose (catastrophe detectors, not perf targets): a
  // healthy pool loses at most a constant factor to fork/IPC.
  bool SpeedupOk = true;
  if (Cores > 1) {
    auto Floor = [&](const char *ModeName, double Min) {
      if (SpeedupByMode.count(ModeName) && SpeedupByMode[ModeName] < Min) {
        std::fprintf(stderr, "FAIL: %s speedup %.2fx below floor %.2fx "
                             "(host_cores=%ld)\n",
                     ModeName, SpeedupByMode[ModeName], Min, Cores);
        SpeedupOk = false;
      }
    };
    Floor("persistent_jobs4", 0.5);
    Floor("isolated_jobs4", 0.3);
  } else {
    std::printf("speedup assertions skipped: host_cores <= 1\n");
  }

  Rep.scalar("host_cores", double(Cores > 0 ? Cores : 1));
  Rep.scalar("repeats", double(Repeats));
  Rep.scalar("neutral", Neutral ? 1 : 0);
  Rep.scalar("speedup_asserted", Cores > 1 ? 1 : 0);
  Rep.write();
  return Neutral && SpeedupOk ? 0 : 1;
}
