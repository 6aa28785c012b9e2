//===- perfbench/src/Replica.cpp - Layer-by-layer traced scan --------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//

#include "Replica.h"

#include "analysis/CallGraph.h"
#include "analysis/TaintSummary.h"
#include "core/AsyncLower.h"
#include "core/Normalizer.h"
#include "frontend/Parser.h"

#include <array>
#include <functional>

using namespace gjs;
using namespace gjs::perfbench;

namespace {

// The two helpers below mirror the scanner's private module ordering
// (scanner/Scanner.cpp); a divergence shows up as a report-set mismatch.

std::string stemOf(const std::string &Name) {
  std::string S = Name;
  size_t Slash = S.find_last_of('/');
  if (Slash != std::string::npos)
    S = S.substr(Slash + 1);
  if (S.size() > 3 && S.compare(S.size() - 3, 3, ".js") == 0)
    S = S.substr(0, S.size() - 3);
  return S;
}

std::vector<size_t>
topoOrder(const std::vector<std::unique_ptr<core::Program>> &Programs,
          const std::vector<std::string> &Stems) {
  size_t N = Programs.size();
  std::vector<std::vector<size_t>> Requires(N);
  std::function<void(const std::vector<core::StmtPtr> &, size_t)> Collect =
      [&](const std::vector<core::StmtPtr> &Block, size_t I) {
        for (const core::StmtPtr &S : Block) {
          if (!S->RequireModule.empty()) {
            std::string Stem = stemOf(S->RequireModule);
            for (size_t J = 0; J < N; ++J)
              if (J != I && Stems[J] == Stem)
                Requires[I].push_back(J);
          }
          Collect(S->Then, I);
          Collect(S->Else, I);
          Collect(S->Body, I);
          if (S->K == core::StmtKind::FuncDef && S->Func)
            Collect(S->Func->Body, I);
        }
      };
  for (size_t I = 0; I < N; ++I)
    if (Programs[I])
      Collect(Programs[I]->TopLevel, I);
  std::vector<size_t> InDegree(N);
  for (size_t I = 0; I < N; ++I)
    InDegree[I] = Requires[I].size();
  std::vector<size_t> Order;
  std::vector<bool> Done(N, false);
  for (bool Progress = true; Progress;) {
    Progress = false;
    for (size_t I = 0; I < N; ++I) {
      if (Done[I] || InDegree[I] != 0)
        continue;
      Order.push_back(I);
      Done[I] = true;
      Progress = true;
      for (size_t J = 0; J < N; ++J)
        if (!Done[J])
          for (size_t Dep : Requires[J])
            if (Dep == I && InDegree[J] > 0)
              --InDegree[J];
    }
  }
  for (size_t I = 0; I < N; ++I)
    if (!Done[I])
      Order.push_back(I);
  return Order;
}

/// Adds the self time of every span recorded from \p First on to \p Out,
/// keyed by span name.
void accumulateSelf(const obs::TraceRecorder &TR, size_t First,
                    std::map<std::string, double> &Out) {
  const std::vector<obs::SpanRecord> &S = TR.spans();
  std::vector<double> Child(S.size(), 0.0);
  for (size_t I = First; I < S.size(); ++I)
    if (S[I].Parent != obs::SpanRecord::npos && S[I].Parent >= First)
      Child[S[I].Parent] += S[I].DurUs;
  for (size_t I = First; I < S.size(); ++I)
    Out[S[I].Name] += (S[I].DurUs - Child[I]) / 1e6;
}

} // namespace

const std::vector<std::string> &perfbench::layerSpanNames() {
  static const std::vector<std::string> Names = {
      "frontend.parse", "core.normalize", "core.lower",
      "analysis.prune", "analysis.build", "graphdb.import",
      "queries.cwe78",  "queries.cwe94",  "queries.cwe22",
      "queries.cwe1321"};
  return Names;
}

LayerSample perfbench::replicaScan(const std::vector<scanner::SourceFile> &Files,
                                   const scanner::ScanOptions &Cfg,
                                   obs::TraceRecorder &TR,
                                   const std::string &Name) {
  LayerSample Out;
  size_t First = TR.spans().size();
  obs::Span PackageSpan(&TR, "replica.package");
  PackageSpan.arg("name", Name);

  std::vector<std::string> Stems(Files.size());
  std::vector<std::unique_ptr<ast::Program>> ASTs(Files.size());
  for (size_t I = 0; I < Files.size(); ++I) {
    Stems[I] = stemOf(Files[I].Name);
    DiagnosticEngine Diags;
    obs::Span S(&TR, "frontend.parse");
    ASTs[I] = parseJS(Files[I].Contents, Diags);
    S.close();
    if (Diags.hasErrors())
      ASTs[I].reset();
    else
      Out.AstNodes += ast::countNodes(*ASTs[I]);
  }

  std::vector<std::unique_ptr<core::Program>> Programs(Files.size());
  core::StmtIndex NextIndex = 1;
  for (size_t I = 0; I < Files.size(); ++I) {
    if (!ASTs[I])
      continue;
    DiagnosticEngine Diags;
    std::string Prefix = Files.size() == 1 ? "" : Stems[I] + "$";
    {
      obs::Span S(&TR, "core.normalize");
      core::Normalizer Norm(Diags, Prefix, NextIndex);
      Programs[I] = Norm.normalize(*ASTs[I]);
    }
    if (Cfg.AsyncLower) {
      obs::Span S(&TR, "core.lower");
      Out.AwaitsLowered += core::lowerAsync(*Programs[I], Prefix).AwaitsLowered;
    }
    NextIndex = Programs[I]->NumIndices + 1;
    Out.CoreStmts += core::countStmts(Programs[I]->TopLevel);
    for (const auto &[FnName, Fn] : Programs[I]->Functions)
      Out.CoreStmts += core::countStmts(Fn->Body);
  }

  std::vector<const core::Program *> Mods;
  std::vector<std::string> ModStems;
  for (size_t I = 0; I < Programs.size(); ++I)
    if (Programs[I]) {
      Mods.push_back(Programs[I].get());
      ModStems.push_back(Stems[I]);
    }
  std::array<bool, queries::NumVulnTypes> Enabled;
  Enabled.fill(true);
  if (Cfg.Prune && !Mods.empty()) {
    obs::Span S(&TR, "analysis.prune");
    analysis::CallGraph CG = analysis::CallGraph::build(
        Mods, ModStems, Cfg.Builder.FallbackAllFunctionsExported);
    analysis::SummarySet Sums = analysis::computeSummaries(
        CG, Mods, queries::toSinkTable(Cfg.Sinks));
    analysis::PruneDecision PD = analysis::decidePruning(CG, Sums);
    Out.ClassesPruned = PD.numPruned();
    for (int C = 0; C < queries::NumVulnTypes; ++C)
      Enabled[C] = !PD.Prunable[C];
  }

  std::vector<analysis::PackageModule> Modules;
  {
    obs::Span S(&TR, "scanner.order");
    for (size_t I : topoOrder(Programs, Stems))
      if (Programs[I])
        Modules.push_back({Files[I].Name, Programs[I].get()});
  }
  if (Modules.empty()) {
    PackageSpan.close();
    accumulateSelf(TR, First, Out.SelfSeconds);
    return Out;
  }

  analysis::BuildResult Build;
  {
    obs::Span S(&TR, "analysis.build");
    analysis::BuilderOptions BO = Cfg.Builder;
    for (const std::string &San : Cfg.Sinks.sanitizers())
      BO.Sanitizers.insert(San);
    if (Files.size() == 1)
      Build = analysis::buildMDG(*Programs[0], BO);
    else
      Build = analysis::MDGBuilder(BO).buildPackage(Modules);
  }
  Out.MDGNodes = Build.Graph.numNodes();
  Out.MDGEdges = Build.Graph.numEdges();
  Out.BuildWork = Build.WorkDone;

  bool AllPruned = true;
  for (bool En : Enabled)
    AllPruned = AllPruned && !En;
  if (AllPruned) {
    Out.ImportSkipped = true;
  } else {
    bool SchemaOk;
    {
      obs::Span S(&TR, "scanner.validate");
      SchemaOk = queries::GraphDBRunner::validateBuiltinQueries(Cfg.Sinks,
                                                                nullptr);
    }
    if (SchemaOk) {
      obs::Span ImportSpan(&TR, "graphdb.import");
      queries::GraphDBRunner Runner(Build, Cfg.Engine);
      ImportSpan.close();
      Out.DbRels = Runner.database().numRels();
      queries::DetectStats Stats;
      // Same class order as GraphDBRunner::detect.
      for (queries::VulnType T :
           {queries::VulnType::CommandInjection, queries::VulnType::CodeInjection,
            queries::VulnType::PathTraversal}) {
        if (!Enabled[static_cast<int>(T)])
          continue;
        obs::Span S(&TR, std::string("queries.") +
                             (T == queries::VulnType::CommandInjection ? "cwe78"
                              : T == queries::VulnType::CodeInjection  ? "cwe94"
                                                                       : "cwe22"));
        std::vector<queries::VulnReport> R =
            Runner.detectTaintStyle(T, Cfg.Sinks, &Stats);
        Out.Reports.insert(Out.Reports.end(), R.begin(), R.end());
      }
      if (Enabled[static_cast<int>(queries::VulnType::PrototypePollution)]) {
        obs::Span S(&TR, "queries.cwe1321");
        std::vector<queries::VulnReport> R =
            Runner.detectPrototypePollution(&Stats);
        Out.Reports.insert(Out.Reports.end(), R.begin(), R.end());
      }
      Out.QueryWork = Stats.QueryWork;
    }
  }
  {
    obs::Span S(&TR, "queries.native");
    Out.Native = queries::detectNative(Build, Cfg.Sinks, Enabled);
  }
  PackageSpan.close();
  accumulateSelf(TR, First, Out.SelfSeconds);
  return Out;
}

double perfbench::scannerSelfSeconds(const obs::TraceRecorder &TR,
                                     size_t FirstSpan) {
  const std::vector<obs::SpanRecord> &S = TR.spans();
  double Self = 0;
  for (size_t I = FirstSpan; I < S.size(); ++I) {
    if (S[I].Name == "package")
      Self += S[I].DurUs;
    else if (S[I].Parent != obs::SpanRecord::npos && S[I].Parent >= FirstSpan &&
             S[S[I].Parent].Name == "attempt")
      Self -= S[I].DurUs;
  }
  return Self / 1e6;
}
