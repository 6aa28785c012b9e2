//===- perfbench/src/Gate.cpp - The benchmark's correctness gate -----------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//

#include "Gate.h"

#include "eval/Metrics.h"

#include <algorithm>
#include <cstdio>

using namespace gjs;
using namespace gjs::perfbench;

ReportSet perfbench::reportSet(const std::vector<queries::VulnReport> &Reports) {
  ReportSet S;
  for (const queries::VulnReport &R : Reports)
    S.emplace_back(static_cast<int>(R.Type), R.SinkLoc.Line, R.SinkName);
  std::sort(S.begin(), S.end());
  return S;
}

std::string perfbench::scoreKey(const Score &S) {
  std::string K;
  for (const auto &C : S) {
    if (!K.empty())
      K += ' ';
    K += std::to_string(C[0]) + "/" + std::to_string(C[1]) + "/" +
         std::to_string(C[2]);
  }
  return K;
}

Gate::Gate(const std::vector<BenchPackage> &Packages,
           const json::Value *Expected, std::string Workload,
           std::string SizeKey, uint64_t Seed, RunReport &Report)
    : Packages(Packages), Expected(Expected), Workload(std::move(Workload)),
      SizeKey(std::move(SizeKey)), Seed(Seed), Report(Report),
      First(Packages.size()), Keys(Packages.size()) {}

const json::Value *
Gate::lookup(std::initializer_list<std::string> Path) const {
  const json::Value *V = Expected;
  for (const std::string &Key : Path) {
    if (!V || !V->isObject())
      return nullptr;
    auto It = V->asObject().find(Key);
    if (It == V->asObject().end())
      return nullptr;
    V = &It->second;
  }
  return V;
}

void Gate::check(size_t Index, const std::vector<queries::VulnReport> &Reports,
                 const std::string &Via) {
  ReportSet Now = reportSet(Reports);
  const BenchPackage &P = Packages[Index];
  if (First[Index]) {
    if (Now != *First[Index])
      Report.mismatch(Via + ": " + P.Pkg.Name + " report set differs from " +
                      "its first scan");
    return;
  }
  First[Index] = std::move(Now);

  Score S{};
  for (queries::VulnType T : allClasses()) {
    eval::ClassStats St = eval::scorePackage(P.Pkg, Reports, T);
    auto &C = S[static_cast<size_t>(T)];
    C = {St.TP, St.FP, St.Total - St.TP};
    for (int K = 0; K < 3; ++K)
      Totals[static_cast<size_t>(T)][K] += C[K];
  }
  Keys[Index] = scoreKey(S);

  if (!Expected)
    return;
  const json::Value *Allowed = lookup({"shapes", P.Shape});
  if (!Allowed || !Allowed->isArray()) {
    Report.mismatch(Via + ": " + P.Pkg.Name + " has shape '" + P.Shape +
                    "' with no recorded outcome");
    return;
  }
  for (const json::Value &A : Allowed->asArray())
    if (A.isString() && A.asString() == Keys[Index])
      return;
  Report.mismatch(Via + ": " + P.Pkg.Name + " (" + P.Shape + ") scored '" +
                  Keys[Index] + "', not a recorded outcome");
}

void Gate::finish(bool PerturbOne) {
  for (size_t I = 0; I < First.size(); ++I)
    if (!First[I]) {
      Report.mismatch("package " + Packages[I].Pkg.Name + " never scanned");
      return;
    }
  if (!Expected)
    return;
  const json::Value *Rec =
      lookup({"totals", SizeKey, Workload, std::to_string(Seed)});
  if (!Rec || !Rec->isString())
    return; // Not a shipped seed: the per-shape checks above still ran.
  Score Want{};
  std::string Text = Rec->asString();
  if (std::sscanf(Text.c_str(), "%zu/%zu/%zu %zu/%zu/%zu %zu/%zu/%zu %zu/%zu/%zu",
                  &Want[0][0], &Want[0][1], &Want[0][2], &Want[1][0],
                  &Want[1][1], &Want[1][2], &Want[2][0], &Want[2][1],
                  &Want[2][2], &Want[3][0], &Want[3][1], &Want[3][2]) != 12) {
    Report.mismatch("malformed recorded totals '" + Text + "'");
    return;
  }
  if (PerturbOne)
    ++Want[0][0];
  if (Want != Totals)
    Report.mismatch("TP/FP/FN totals '" + scoreKey(Totals) +
                    "' differ from the recorded '" + scoreKey(Want) +
                    "' for seed " + std::to_string(Seed));
}
