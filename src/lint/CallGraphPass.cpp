//===- lint/CallGraphPass.cpp - Call-graph/summary validation pass ---------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
//
// Validates the static call graph and the taint summaries against each
// other and against the built MDG:
//
//   callgraph.dead-target  — a resolved call edge (or callback edge) whose
//                            target is not a live function definition in
//                            the call-graph registry, or (when an MDG is
//                            present) a top-level-defined target with no
//                            live MDG function node
//   callgraph.bad-param-bit — a summary mask claiming a parameter origin
//                            the function does not have, or a MutFlow
//                            vector whose length disagrees with NumParams
//   callgraph.scc-order    — the SCC list is not a valid reverse
//                            topological order of the condensation (a
//                            resolved/callback edge points from an earlier
//                            SCC into a later one)
//
// The pass rebuilds the call graph and summaries from LintContext::Programs
// (falling back to the single Program), so `graphjs lint` and the scanner's
// --self-check mode exercise the same construction `graphjs callgraph` uses.
//
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "analysis/MDGBuilder.h"
#include "analysis/TaintSummary.h"
#include "lint/PassManager.h"
#include "queries/SinkConfig.h"

#include <set>
#include <string>
#include <vector>

using namespace gjs;
using namespace gjs::lint;

namespace {

class CallGraphPass : public Pass {
public:
  const char *name() const override { return "callgraph"; }

  void run(const LintContext &Ctx, LintResult &Out) override {
    std::vector<const core::Program *> Mods = Ctx.Programs;
    std::vector<std::string> Stems = Ctx.Stems;
    if (Mods.empty() && Ctx.Program) {
      Mods.push_back(Ctx.Program);
      Stems.push_back("");
    }
    if (Mods.empty())
      return;
    Stems.resize(Mods.size());
    Result = &Out;

    analysis::CallGraph CG = analysis::CallGraph::build(Mods, Stems);
    analysis::SummarySet Sums = analysis::computeSummaries(
        CG, Mods,
        queries::toSinkTable(Ctx.Sinks ? *Ctx.Sinks
                                       : queries::SinkConfig::defaults()));

    checkEdgeTargets(Ctx, CG, Mods);
    checkSummaries(CG, Sums);
    checkSCCOrder(CG);
    Result = nullptr;
  }

private:
  LintResult *Result = nullptr;

  void report(const char *Check, SourceLocation Loc, std::string Message) {
    Finding F;
    F.Severity = DiagSeverity::Error;
    F.Pass = name();
    F.Check = Check;
    F.Loc = Loc;
    F.Message = std::move(Message);
    Result->add(std::move(F));
  }

  /// Function names defined by a top-level FuncDef of any module. The MDG
  /// builder visits every top-level statement, so these (and only these)
  /// are guaranteed a live function node; nested definitions materialize
  /// only when the builder inlines the enclosing body.
  static std::set<std::string>
  topLevelFuncs(const std::vector<const core::Program *> &Mods) {
    std::set<std::string> Names;
    for (const core::Program *P : Mods)
      for (const core::StmtPtr &S : P->TopLevel)
        if (S->K == core::StmtKind::FuncDef && S->Func)
          Names.insert(S->Func->Name);
    return Names;
  }

  void checkEdgeTargets(const LintContext &Ctx, const analysis::CallGraph &CG,
                        const std::vector<const core::Program *> &Mods) {
    const auto &Funcs = CG.functions();
    // MDG cross-check only over complete builds: a budget-truncated build
    // legitimately misses function nodes.
    const analysis::BuildResult *B =
        Ctx.Build && !Ctx.Build->TimedOut ? Ctx.Build : nullptr;
    std::set<std::string> TopLevel = B ? topLevelFuncs(Mods)
                                       : std::set<std::string>();
    auto CheckTarget = [&](const analysis::CallSite &S, analysis::FuncId T,
                           const char *EdgeKind) {
      if (T >= Funcs.size()) {
        report("callgraph.dead-target", S.Loc,
               std::string(EdgeKind) + " edge to out-of-range function id " +
                   std::to_string(T));
        return;
      }
      const analysis::CGFunction &F = Funcs[T];
      if (!F.Fn || F.IsToplevel) {
        report("callgraph.dead-target", S.Loc,
               std::string(EdgeKind) + " edge to non-function node '" +
                   F.Name + "'");
        return;
      }
      if (B && TopLevel.count(F.Name) && !B->FunctionNodes.count(F.Name))
        report("callgraph.dead-target", S.Loc,
               std::string(EdgeKind) + " edge to '" + F.Name +
                   "' with no live MDG function node");
    };
    for (const analysis::CallSite &S : CG.sites()) {
      for (analysis::FuncId T : S.Targets)
        CheckTarget(S, T, "resolved call");
      for (analysis::FuncId T : S.CallbackArgs)
        CheckTarget(S, T, "callback");
    }
  }

  void checkSummaries(const analysis::CallGraph &CG,
                      const analysis::SummarySet &Sums) {
    const auto &Funcs = CG.functions();
    if (Sums.Summaries.size() != Funcs.size()) {
      report("callgraph.bad-param-bit", SourceLocation(),
             "summary set size " + std::to_string(Sums.Summaries.size()) +
                 " != call-graph function count " +
                 std::to_string(Funcs.size()));
      return;
    }
    for (size_t I = 0; I < Funcs.size(); ++I) {
      const analysis::FunctionSummary &S = Sums.Summaries[I];
      // Legal origins: this function's own parameter bits plus `other`.
      // Parameter indices >= 62 collapse into bit 62, so a function with
      // > 62 params legally uses the whole parameter range.
      analysis::OriginMask Allowed =
          analysis::paramsMask(S.NumParams) | analysis::OtherOrigin;
      auto CheckMask = [&](analysis::OriginMask M, const char *What) {
        if (M & ~Allowed)
          report("callgraph.bad-param-bit", SourceLocation(),
                 "summary of '" + S.Name + "' " + What +
                     " references a parameter the function does not have (" +
                     analysis::maskToString(M, S.NumParams) + ", " +
                     std::to_string(S.NumParams) + " params)");
      };
      for (int C = 0; C < analysis::NumSinkClasses; ++C)
        CheckMask(S.SinkFlow[C], analysis::sinkClassTag(C));
      CheckMask(S.RetFlow, "return flow");
      CheckMask(S.PolluteFlow, "pollute flow");
      CheckMask(S.UnresolvedArgFlow, "unresolved-arg flow");
      CheckMask(S.GlobalWriteFlow, "global-write flow");
      if (S.MutFlow.size() != S.NumParams)
        report("callgraph.bad-param-bit", SourceLocation(),
               "summary of '" + S.Name + "' has " +
                   std::to_string(S.MutFlow.size()) +
                   " MutFlow entries for " + std::to_string(S.NumParams) +
                   " params");
      for (analysis::OriginMask M : S.MutFlow)
        CheckMask(M, "mutation flow");
    }
  }

  void checkSCCOrder(const analysis::CallGraph &CG) {
    const auto &Funcs = CG.functions();
    const auto &Order = CG.sccOrder();
    std::vector<size_t> Rank(Funcs.size(), static_cast<size_t>(-1));
    size_t Covered = 0;
    for (size_t I = 0; I < Order.size(); ++I)
      for (analysis::FuncId F : Order[I]) {
        if (F >= Funcs.size() || Rank[F] != static_cast<size_t>(-1)) {
          report("callgraph.scc-order", SourceLocation(),
                 "SCC list repeats or misindexes function id " +
                     std::to_string(F));
          return;
        }
        Rank[F] = I;
        ++Covered;
      }
    if (Covered != Funcs.size()) {
      report("callgraph.scc-order", SourceLocation(),
             "SCC list covers " + std::to_string(Covered) + " of " +
                 std::to_string(Funcs.size()) + " functions");
      return;
    }
    // Reverse topological: every edge from SCC rank i lands in rank <= i.
    for (const analysis::CallSite &S : CG.sites()) {
      if (S.Caller == analysis::InvalidFuncId)
        continue;
      auto CheckEdge = [&](analysis::FuncId T) {
        if (T < Funcs.size() && Rank[T] > Rank[S.Caller])
          report("callgraph.scc-order", S.Loc,
                 "call from '" + Funcs[S.Caller].Name + "' (SCC " +
                     std::to_string(Rank[S.Caller]) + ") into later SCC " +
                     std::to_string(Rank[T]) + " ('" + Funcs[T].Name +
                     "') breaks bottom-up summary order");
      };
      for (analysis::FuncId T : S.Targets)
        CheckEdge(T);
      for (analysis::FuncId T : S.CallbackArgs)
        CheckEdge(T);
    }
  }
};

} // namespace

std::unique_ptr<Pass> lint::createCallGraphPass() {
  return std::make_unique<CallGraphPass>();
}
