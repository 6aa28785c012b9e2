//===- bench/bench_micro_construction.cpp - Pipeline microbenchmarks ------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
// Microbenchmarks of the MDG-generation pipeline phases (parse, lower,
// build, opening the graph-DB store) across program sizes, backing the
// Takeaway-4 claim that "MDGs grow linearly with the number of lines of
// code".
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "analysis/MDGBuilder.h"
#include "core/Normalizer.h"
#include "frontend/Parser.h"
#include "queries/QueryRunner.h"
#include "workload/Packages.h"

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <vector>

using namespace gjs;

namespace {

/// A representative package source of roughly `LoC` lines.
std::string makeSource(size_t LoC) {
  workload::PackageGenerator Gen(7);
  workload::Package P =
      Gen.vulnerable(queries::VulnType::CommandInjection,
                     workload::Complexity::Loop,
                     workload::VariantKind::Plain, LoC);
  return P.Files[0].Contents;
}

} // namespace

static void BM_Parse(benchmark::State &State) {
  std::string Source = makeSource(static_cast<size_t>(State.range(0)));
  for (auto _ : State) {
    DiagnosticEngine Diags;
    auto P = parseJS(Source, Diags);
    benchmark::DoNotOptimize(P);
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_Parse)->Arg(50)->Arg(200)->Arg(800)->Arg(3200)->Complexity();

static void BM_Normalize(benchmark::State &State) {
  std::string Source = makeSource(static_cast<size_t>(State.range(0)));
  for (auto _ : State) {
    DiagnosticEngine Diags;
    auto P = core::normalizeJS(Source, Diags);
    benchmark::DoNotOptimize(P);
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_Normalize)->Arg(50)->Arg(200)->Arg(800)->Arg(3200)
    ->Complexity();

static void BM_BuildMDG(benchmark::State &State) {
  std::string Source = makeSource(static_cast<size_t>(State.range(0)));
  DiagnosticEngine Diags;
  auto Prog = core::normalizeJS(Source, Diags);
  size_t Nodes = 0;
  for (auto _ : State) {
    analysis::BuildResult R = analysis::buildMDG(*Prog);
    Nodes = R.Graph.numNodes();
    benchmark::DoNotOptimize(R);
  }
  State.counters["mdg_nodes"] = static_cast<double>(Nodes);
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_BuildMDG)->Arg(50)->Arg(200)->Arg(800)->Arg(3200)
    ->Complexity();

static void BM_OpenGraphDB(benchmark::State &State) {
  std::string Source = makeSource(static_cast<size_t>(State.range(0)));
  DiagnosticEngine Diags;
  auto Prog = core::normalizeJS(Source, Diags);
  analysis::BuildResult R = analysis::buildMDG(*Prog);
  for (auto _ : State) {
    queries::GraphDBRunner Runner(R);
    benchmark::DoNotOptimize(Runner.database().numRels());
  }
  State.counters["db_rels"] = static_cast<double>(R.Graph.numEdges());
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_OpenGraphDB)->Arg(50)->Arg(200)->Arg(800)->Arg(3200)
    ->Complexity();

// Opening plus the first relationship access, which computes the store's
// relationship index (source-major id offsets and each id's edge): the
// part of the store that grows with the graph, paid once per scan by its
// first walking query.
static void BM_OpenGraphDBFirstWalk(benchmark::State &State) {
  std::string Source = makeSource(static_cast<size_t>(State.range(0)));
  DiagnosticEngine Diags;
  auto Prog = core::normalizeJS(Source, Diags);
  analysis::BuildResult R = analysis::buildMDG(*Prog);
  for (auto _ : State) {
    queries::GraphDBRunner Runner(R);
    benchmark::DoNotOptimize(Runner.database().out(0).size());
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_OpenGraphDBFirstWalk)->Arg(50)->Arg(200)->Arg(800)->Arg(3200)
    ->Complexity();

// Custom main instead of BENCHMARK_MAIN(): write the results to
// BENCH_micro_construction.json (google-benchmark's JSON format) unless
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
                    "/BENCH_micro_construction.json";
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
