//===- perfbench/src/Workloads.cpp - Seeded benchmark inputs ----------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "workload/Datasets.h"

#include <algorithm>
#include <tuple>

using namespace gjs;
using namespace gjs::perfbench;
using queries::VulnType;
using workload::Complexity;
using workload::VariantKind;

namespace {

const char *complexityName(Complexity C) {
  static const char *Names[] = {"Direct", "Wrapped", "Loop", "Recursive",
                                "Deep"};
  return Names[static_cast<int>(C)];
}

const char *variantName(VariantKind V) {
  static const char *Names[] = {"Plain",     "ArgumentsBased", "IndirectCall",
                                "ExtraSink", "Guarded",        "Sanitized"};
  return Names[static_cast<int>(V)];
}

std::string shapeOf(VulnType T, Complexity C, VariantKind V) {
  return std::string(queries::cweOf(T)) + "/" + complexityName(C) + "/" +
         variantName(V);
}

/// Splits \p Total over \p Weights by largest remainder, so the parts sum to
/// exactly Total for every seed.
std::vector<size_t> apportion(size_t Total, const std::vector<double> &Weights) {
  double Sum = 0;
  for (double W : Weights)
    Sum += W;
  std::vector<size_t> Out(Weights.size());
  std::vector<std::pair<double, size_t>> Rem;
  size_t Given = 0;
  for (size_t I = 0; I < Weights.size(); ++I) {
    double Exact = Sum > 0 ? double(Total) * Weights[I] / Sum : 0;
    Out[I] = static_cast<size_t>(Exact);
    Given += Out[I];
    Rem.push_back({Exact - double(Out[I]), I});
  }
  std::sort(Rem.begin(), Rem.end(), [](const auto &A, const auto &B) {
    return A.first != B.first ? A.first > B.first : A.second < B.second;
  });
  for (size_t I = 0; Given < Total && I < Rem.size(); ++I, ++Given)
    ++Out[Rem[I].second];
  return Out;
}

/// The small_batch package mix: index I is benign three times in four; the
/// vulnerable quarter cycles through the four classes.
BenchPackage smallPackage(workload::PackageGenerator &Gen, size_t I) {
  if (I % 4)
    return {Gen.benign(40), "benign"};
  VulnType T = allClasses()[(I / 4) % 4];
  return {Gen.vulnerable(T, Complexity::Wrapped, VariantKind::Plain, 40),
          shapeOf(T, Complexity::Wrapped, VariantKind::Plain)};
}

} // namespace

std::vector<BenchPackage> perfbench::makeCorpus(uint64_t Seed,
                                                const Sizes &S) {
  // The corpus skeleton — each package's class, complexity, variant and
  // size — is a systematic sample, per class ordered by (complexity,
  // variant, LoC), of a pool of ten times the Table 3 ground truth drawn
  // with a fixed seed. The seed decides every package's code (identifiers,
  // constants, filler) and the order. The MDG build grows about cubically
  // in LoC, so a seeded skeleton let a few large loop/recursion packages
  // swing a pass by a third between seeds, measuring the draw rather than
  // the pipeline; the LoC cap keeps one pass within a few seconds.
  const size_t PoolScale = 10;
  const workload::DatasetCounts Pool{
      PoolScale * (workload::VulcaNCounts.PathTraversal +
                   workload::SecBenchCounts.PathTraversal),
      PoolScale * (workload::VulcaNCounts.CommandInjection +
                   workload::SecBenchCounts.CommandInjection),
      PoolScale * (workload::VulcaNCounts.CodeInjection +
                   workload::SecBenchCounts.CodeInjection),
      PoolScale * (workload::VulcaNCounts.PrototypePollution +
                   workload::SecBenchCounts.PrototypePollution)};
  const uint64_t SkeletonSeed = 0x434F52;
  std::vector<workload::Package> All =
      workload::makeDataset(SkeletonSeed, Pool);
  workload::PackageGenerator Gen(Seed * 0x9E3779B97F4A7C15ULL + 0x434F52);
  workload::PackageGenerator Probe(SkeletonSeed);

  const size_t AsyncTwins = 8;
  size_t Drawn = S.CorpusPackages > AsyncTwins ? S.CorpusPackages - AsyncTwins
                                                : 1;
  std::vector<size_t> PerClass = apportion(
      Drawn, {double(Pool.CommandInjection), double(Pool.CodeInjection),
              double(Pool.PathTraversal), double(Pool.PrototypePollution)});

  std::vector<BenchPackage> Out;
  for (VulnType T : allClasses()) {
    std::vector<workload::Package *> Class;
    for (workload::Package &P : All)
      if (!P.Annotations.empty() && P.Annotations[0].Type == T &&
          P.LoC <= S.CorpusMaxLoC)
        Class.push_back(&P);
    std::sort(Class.begin(), Class.end(), [](const auto *A, const auto *B) {
      return std::tie(A->Complex, A->Variant, A->LoC, A->Name) <
             std::tie(B->Complex, B->Variant, B->LoC, B->Name);
    });
    size_t Want = std::min(PerClass[static_cast<size_t>(T)], Class.size());
    for (size_t J = 0; J < Want; ++J) {
      const workload::Package &P =
          *Class[(2 * J + 1) * Class.size() / (2 * Want)];
      size_t Base = Probe.vulnerable(T, P.Complex, P.Variant, 0).LoC;
      size_t Filler = P.LoC > Base ? P.LoC - Base : 0;
      Out.push_back({Gen.vulnerable(T, P.Complex, P.Variant, Filler),
                     shapeOf(T, P.Complex, P.Variant)});
    }
  }

  for (workload::AsyncForm F :
       {workload::AsyncForm::Await, workload::AsyncForm::ThenChain,
        workload::AsyncForm::PromiseExecutor,
        workload::AsyncForm::ErrorFirstCallback}) {
    std::string Form = workload::asyncFormName(F);
    Out.push_back({Gen.asyncVulnerable(F, 40), "async/" + Form + "/vuln"});
    Out.push_back({Gen.asyncBenign(F, 40), "async/" + Form + "/benign"});
  }

  // Interleave classes so a truncated smoke pass still sees every class.
  RNG R(Seed ^ 0x5EED);
  for (size_t I = Out.size(); I > 1; --I)
    std::swap(Out[I - 1], Out[R.below(I)]);
  return Out;
}

std::vector<BenchPackage> perfbench::makeSmallBatch(uint64_t Seed, size_t N) {
  workload::PackageGenerator Gen(Seed * 0x9E3779B97F4A7C15ULL + 0x534D41);
  std::vector<BenchPackage> Out;
  Out.reserve(N);
  for (size_t I = 0; I < N; ++I)
    Out.push_back(smallPackage(Gen, I));
  return Out;
}

std::vector<BenchPackage> perfbench::makeServePool(uint64_t Seed, size_t N) {
  workload::PackageGenerator Gen(Seed * 0x9E3779B97F4A7C15ULL + 0x535256);
  std::vector<BenchPackage> Out;
  Out.reserve(N);
  for (size_t I = 0; I < N; ++I) {
    if (I % 8 == 7) {
      // ~300 LoC: a loop-carried flow whose MDG build needs a fixpoint. One
      // in eight rather than one in ten keeps p90 inside this mode instead
      // of on the edge between the two.
      VulnType T = allClasses()[(I / 8) % 4];
      Out.push_back(
          {Gen.vulnerable(T, Complexity::Loop, VariantKind::Plain, 280),
           shapeOf(T, Complexity::Loop, VariantKind::Plain)});
    } else {
      Out.push_back(smallPackage(Gen, I));
    }
  }
  RNG R(Seed ^ 0x5E4E);
  for (size_t I = Out.size(); I > 1; --I)
    std::swap(Out[I - 1], Out[R.below(I)]);
  return Out;
}

std::vector<BenchPackage> perfbench::makeShapeSweep(uint64_t Seed,
                                                    size_t MaxLoC) {
  workload::PackageGenerator Gen(Seed * 0x9E3779B97F4A7C15ULL + 0x535750);
  std::vector<BenchPackage> Out;
  for (VulnType T : allClasses())
    for (int C = 0; C <= static_cast<int>(Complexity::Deep); ++C)
      for (int V = 0; V <= static_cast<int>(VariantKind::Sanitized); ++V) {
        auto CK = static_cast<Complexity>(C);
        auto VK = static_cast<VariantKind>(V);
        size_t Filler = Gen.rng().below(MaxLoC / 2);
        Out.push_back({Gen.vulnerable(T, CK, VK, Filler), shapeOf(T, CK, VK)});
      }
  return Out;
}

std::vector<driver::BatchInput>
perfbench::toInputs(const std::vector<BenchPackage> &Packages) {
  std::vector<driver::BatchInput> Out;
  Out.reserve(Packages.size());
  for (size_t I = 0; I < Packages.size(); ++I)
    Out.push_back({std::to_string(I) + "-" + Packages[I].Pkg.Name,
                   Packages[I].Pkg.Files});
  return Out;
}

size_t perfbench::totalLoC(const std::vector<BenchPackage> &Packages) {
  size_t N = 0;
  for (const BenchPackage &P : Packages)
    N += P.Pkg.LoC;
  return N;
}
