//===- bench/BenchCommon.h - Shared bench plumbing ---------------*- C++ -*-==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the table/figure reproduction binaries: dataset
/// scaling via the GJS_BENCH_SCALE environment variable (percent of the
/// paper's dataset sizes; default 100), per-class grouping, the tool
/// pair runner, and the machine-readable bench report
/// (BENCH_<name>.json).
///
//===----------------------------------------------------------------------===//

#ifndef GJS_BENCH_BENCHCOMMON_H
#define GJS_BENCH_BENCHCOMMON_H

#include "eval/Harness.h"
#include "obs/AtomicFile.h"
#include "support/JSON.h"
#include "workload/Datasets.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

namespace gjs {
namespace bench {

/// GJS_BENCH_SCALE: percentage of the paper's dataset sizes (default 100).
inline unsigned scalePercent() {
  const char *Env = std::getenv("GJS_BENCH_SCALE");
  if (!Env)
    return 100;
  int V = std::atoi(Env);
  return V < 1 ? 1 : (V > 100 ? 100 : static_cast<unsigned>(V));
}

inline size_t scaled(size_t N) {
  size_t S = (N * scalePercent() + 99) / 100;
  return S == 0 ? 1 : S;
}

/// The combined ground-truth datasets at the configured scale.
inline std::vector<workload::Package> groundTruth(uint64_t Seed = 2024) {
  unsigned P = scalePercent();
  if (P == 100)
    return workload::makeGroundTruth(Seed);
  auto Scale = [&](const workload::DatasetCounts &C) {
    workload::DatasetCounts Out;
    Out.PathTraversal = scaled(C.PathTraversal);
    Out.CommandInjection = scaled(C.CommandInjection);
    Out.CodeInjection = scaled(C.CodeInjection);
    Out.PrototypePollution = scaled(C.PrototypePollution);
    return Out;
  };
  auto A = workload::makeDataset(Seed ^ 0x56554C43, Scale(workload::VulcaNCounts));
  auto B = workload::makeDataset(Seed ^ 0x53454342,
                                 Scale(workload::SecBenchCounts));
  A.insert(A.end(), std::make_move_iterator(B.begin()),
           std::make_move_iterator(B.end()));
  return A;
}

/// The per-class ordering used by the paper's tables.
inline const std::vector<queries::VulnType> &tableOrder() {
  static const std::vector<queries::VulnType> Order = {
      queries::VulnType::PathTraversal, queries::VulnType::CommandInjection,
      queries::VulnType::CodeInjection,
      queries::VulnType::PrototypePollution};
  return Order;
}

/// Which class a package belongs to (by its first annotation; packages
/// without annotations return false).
inline bool classOf(const workload::Package &P, queries::VulnType &Out) {
  if (P.Annotations.empty())
    return false;
  Out = P.Annotations[0].Type;
  return true;
}

/// Summary statistics over one measured sample series.
struct SeriesStats {
  size_t N = 0;
  double Mean = 0, P50 = 0, P95 = 0, Min = 0, Max = 0;
};

inline SeriesStats summarize(std::vector<double> Samples) {
  SeriesStats S;
  if (Samples.empty())
    return S;
  std::sort(Samples.begin(), Samples.end());
  S.N = Samples.size();
  S.Min = Samples.front();
  S.Max = Samples.back();
  double Sum = 0;
  for (double V : Samples)
    Sum += V;
  S.Mean = Sum / double(S.N);
  // Nearest-rank percentiles.
  auto Rank = [&](double Q) {
    size_t I = static_cast<size_t>(Q * double(S.N) + 0.999999);
    return Samples[std::min(I ? I - 1 : 0, S.N - 1)];
  };
  S.P50 = Rank(0.50);
  S.P95 = Rank(0.95);
  return S;
}

/// Stamps the build's provenance into a bench's output through \p Add, a
/// (key, value) sink — benchmark::AddCustomContext for the
/// google-benchmark binaries, whose JSON "context" then records what was
/// measured, and Report for every BENCH_<name>.json: source revision,
/// build type, compiler, host cores and GJS_BENCH_SCALE. The first three
/// are configured by bench/targets.cmake.
template <typename AddFn> void addProvenance(AddFn Add) {
  Add("git_revision", GJS_GIT_REVISION);
  Add("build_type", GJS_BUILD_TYPE);
  Add("compiler", GJS_COMPILER);
  Add("host_cores", std::to_string(std::thread::hardware_concurrency()));
  Add("gjs_bench_scale", std::to_string(scalePercent()));
}

/// Machine-readable bench output: every bench binary writes a
/// BENCH_<name>.json file next to where it runs (override the directory
/// with GJS_BENCH_OUT) holding mean/p50/p95/min/max per sample series
/// plus free-form scalars. The eval tooling and CI diff these instead of
/// scraping the printed tables.
class Report {
public:
  explicit Report(std::string Name) : Name(std::move(Name)) {
    Root["bench"] = json::Value(this->Name);
    Root["scale_percent"] = json::Value(scalePercent());
  }

  void scalar(const std::string &Key, double Value) {
    Scalars[Key] = json::Value(Value);
  }

  /// Samples are kept in whatever unit the bench measured (document it in
  /// the key, e.g. "gj.graph_seconds").
  void series(const std::string &Key, const std::vector<double> &Samples) {
    SeriesStats S = summarize(Samples);
    json::Object O;
    O["n"] = json::Value(static_cast<unsigned long>(S.N));
    O["mean"] = json::Value(S.Mean);
    O["p50"] = json::Value(S.P50);
    O["p95"] = json::Value(S.P95);
    O["min"] = json::Value(S.Min);
    O["max"] = json::Value(S.Max);
    SeriesObj[Key] = json::Value(std::move(O));
  }

  /// Writes BENCH_<name>.json (atomically: a reader never sees half a
  /// file) with the build's provenance; prints the path on success.
  bool write() {
    json::Object Provenance;
    addProvenance([&](const char *Key, const std::string &Value) {
      Provenance[Key] = json::Value(Value);
    });
    Root["provenance"] = json::Value(std::move(Provenance));
    Root["series"] = json::Value(std::move(SeriesObj));
    Root["scalars"] = json::Value(std::move(Scalars));
    std::string Dir = std::getenv("GJS_BENCH_OUT")
                          ? std::getenv("GJS_BENCH_OUT")
                          : std::string(".");
    std::string Path = Dir + "/BENCH_" + Name + ".json";
    if (!obs::writeFileAtomic(Path, json::Value(std::move(Root)).str(2) +
                                        "\n")) {
      std::fprintf(stderr, "warning: cannot write %s\n", Path.c_str());
      return false;
    }
    std::printf("wrote %s\n", Path.c_str());
    return true;
  }

private:
  std::string Name;
  json::Object Root, SeriesObj, Scalars;
};

inline void printHeader(const char *Title, const char *PaperRef) {
  std::printf("\n================================================================\n");
  std::printf("%s\n(reproduces %s; GJS_BENCH_SCALE=%u%%)\n", Title, PaperRef,
              scalePercent());
  std::printf("================================================================\n\n");
}

} // namespace bench
} // namespace gjs

#endif // GJS_BENCH_BENCHCOMMON_H
