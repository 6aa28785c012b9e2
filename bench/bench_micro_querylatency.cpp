//===- bench/bench_micro_querylatency.cpp - Query-backend costs -----------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
// Microbenchmarks of the two Table 2 detectors on the same MDG: the
// interpreted graph-database engine (the paper's Neo4j role) vs. the
// native Table 1 traversals (ODGen's in-process style). The measured gap
// is the mechanism behind Table 6's taint-phase contrast.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "analysis/MDGBuilder.h"
#include "core/Normalizer.h"
#include "queries/QueryRunner.h"
#include "workload/Packages.h"

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <vector>

using namespace gjs;

namespace {

analysis::BuildResult &buildFixture(size_t LoC) {
  static std::map<size_t, analysis::BuildResult> Cache;
  auto It = Cache.find(LoC);
  if (It != Cache.end())
    return It->second;
  workload::PackageGenerator Gen(13);
  workload::Package P =
      Gen.vulnerable(queries::VulnType::CommandInjection,
                     workload::Complexity::Wrapped,
                     workload::VariantKind::Plain, LoC);
  DiagnosticEngine Diags;
  auto Prog = core::normalizeJS(P.Files[0].Contents, Diags);
  return Cache.emplace(LoC, analysis::buildMDG(*Prog)).first->second;
}

} // namespace

static void BM_TaintQuery_GraphDB(benchmark::State &State) {
  analysis::BuildResult &Build =
      buildFixture(static_cast<size_t>(State.range(0)));
  queries::GraphDBRunner Runner(Build);
  queries::SinkConfig Sinks = queries::SinkConfig::defaults();
  size_t Found = 0;
  for (auto _ : State) {
    auto Rs = Runner.detectTaintStyle(queries::VulnType::CommandInjection,
                                      Sinks);
    Found = Rs.size();
    benchmark::DoNotOptimize(Rs);
  }
  State.counters["findings"] = static_cast<double>(Found);
}
BENCHMARK(BM_TaintQuery_GraphDB)->Arg(100)->Arg(400)->Arg(1600);

static void BM_TaintQuery_Native(benchmark::State &State) {
  analysis::BuildResult &Build =
      buildFixture(static_cast<size_t>(State.range(0)));
  queries::SinkConfig Sinks = queries::SinkConfig::defaults();
  size_t Found = 0;
  for (auto _ : State) {
    auto Rs = queries::detectNative(Build, Sinks);
    Found = Rs.size();
    benchmark::DoNotOptimize(Rs);
  }
  State.counters["findings"] = static_cast<double>(Found);
}
BENCHMARK(BM_TaintQuery_Native)->Arg(100)->Arg(400)->Arg(1600);

static void BM_PollutionQuery_GraphDB(benchmark::State &State) {
  workload::PackageGenerator Gen(29);
  workload::Package P = Gen.vulnerable(
      queries::VulnType::PrototypePollution, workload::Complexity::Recursive,
      workload::VariantKind::Plain, static_cast<size_t>(State.range(0)));
  DiagnosticEngine Diags;
  auto Prog = core::normalizeJS(P.Files[0].Contents, Diags);
  analysis::BuildResult Build = analysis::buildMDG(*Prog);
  queries::GraphDBRunner Runner(Build);
  for (auto _ : State) {
    auto Rs = Runner.detectPrototypePollution();
    benchmark::DoNotOptimize(Rs);
  }
}
BENCHMARK(BM_PollutionQuery_GraphDB)->Arg(100)->Arg(400);

static void BM_EndToEndScan(benchmark::State &State) {
  workload::PackageGenerator Gen(31);
  workload::Package P = Gen.vulnerable(
      queries::VulnType::CommandInjection, workload::Complexity::Direct,
      workload::VariantKind::Plain, static_cast<size_t>(State.range(0)));
  scanner::Scanner S;
  for (auto _ : State) {
    scanner::ScanResult R = S.scanPackage(P.Files);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_EndToEndScan)->Arg(100)->Arg(400)->Arg(1600);

// Custom main instead of BENCHMARK_MAIN(): write the results to
// BENCH_micro_querylatency.json (google-benchmark's JSON format) unless
// the caller already passed a --benchmark_out destination. The directory
// is overridable with GJS_BENCH_OUT, matching bench::Report. The JSON
// context carries the build provenance (bench::addProvenance).
int main(int argc, char **argv) {
  std::vector<char *> Args(argv, argv + argc);
  bool HasOut = false;
  for (int I = 1; I < argc; ++I)
    HasOut |= std::string(argv[I]).rfind("--benchmark_out", 0) == 0;
  const char *Env = std::getenv("GJS_BENCH_OUT");
  std::string Out = std::string("--benchmark_out=") + (Env ? Env : ".") +
                    "/BENCH_micro_querylatency.json";
  std::string Fmt = "--benchmark_out_format=json";
  if (!HasOut) {
    Args.push_back(Out.data());
    Args.push_back(Fmt.data());
  }
  int N = static_cast<int>(Args.size());
  benchmark::Initialize(&N, Args.data());
  bench::addProvenance(benchmark::AddCustomContext);
  if (benchmark::ReportUnrecognizedArguments(N, Args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
