//===- scanner/Scanner.cpp - The Graph.js scanning pipeline ----------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//

#include "scanner/Scanner.h"

#include "analysis/CallGraph.h"
#include "analysis/PackageGraph.h"
#include "core/AsyncLower.h"
#include "core/Normalizer.h"
#include "frontend/Parser.h"
#include "lint/PassManager.h"
#include "obs/Histogram.h"
#include "obs/Trace.h"
#include "support/Deadline.h"
#include "support/JSON.h"
#include "support/Subprocess.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdlib>
#include <functional>

using namespace gjs;
using namespace gjs::scanner;

//===----------------------------------------------------------------------===//
// ScanResult predicates
//===----------------------------------------------------------------------===//

bool ScanResult::parseFailed() const {
  for (const ScanError &E : Errors)
    if (E.Kind == ScanErrorKind::ParseError)
      return true;
  return false;
}

bool ScanResult::timedOut() const {
  for (const ScanError &E : Errors)
    if (E.isTimeout())
      return true;
  return false;
}

bool ScanResult::timedOutIn(ScanPhase P) const {
  for (const ScanError &E : Errors)
    if (E.Phase == P && E.isTimeout())
      return true;
  return false;
}

bool ScanResult::faulted() const {
  for (const ScanError &E : Errors)
    if (E.Kind == ScanErrorKind::InjectedFault)
      return true;
  return false;
}

const ScanError *ScanResult::firstTimeout() const {
  for (const ScanError &E : Errors)
    if (E.isTimeout())
      return &E;
  return nullptr;
}

std::string ScanResult::errorSummary() const {
  return Errors.empty() ? std::string() : Errors.front().str();
}

//===----------------------------------------------------------------------===//
// FaultPlan
//===----------------------------------------------------------------------===//

bool FaultPlan::parse(const std::string &Spec, FaultPlan &Out,
                      std::string *Error) {
  auto Fail = [&](const std::string &Msg) {
    if (Error)
      *Error = Msg + " in fault spec '" + Spec +
               "' (expected <phase>:<fail|stall|crash|hang|oom>[:<n>|@<name>])";
    return false;
  };
  size_t C1 = Spec.find(':');
  if (C1 == std::string::npos)
    return Fail("missing ':'");
  if (!scanPhaseFromName(Spec.substr(0, C1), Out.Phase))
    return Fail("unknown phase '" + Spec.substr(0, C1) + "'");
  // The action ends at the next ':' (index target) or '@' (name target).
  size_t C2 = Spec.find_first_of(":@", C1 + 1);
  std::string Action = Spec.substr(
      C1 + 1, C2 == std::string::npos ? std::string::npos : C2 - C1 - 1);
  if (Action == "fail")
    Out.Kind = Action::Fail;
  else if (Action == "stall")
    Out.Kind = Action::Stall;
  else if (Action == "crash")
    Out.Kind = Action::Crash;
  else if (Action == "hang")
    Out.Kind = Action::Hang;
  else if (Action == "oom")
    Out.Kind = Action::Oom;
  else
    return Fail("unknown action '" + Action + "'");
  Out.Package = 0;
  Out.PackageName.clear();
  if (C2 != std::string::npos) {
    std::string N = Spec.substr(C2 + 1);
    if (Spec[C2] == '@') {
      if (N.empty())
        return Fail("empty package name");
      Out.PackageName = N;
      return true;
    }
    if (N.empty() || N.find_first_not_of("0123456789") != std::string::npos)
      return Fail("bad package index '" + N + "'");
    Out.Package = static_cast<unsigned>(std::stoul(N));
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Pipeline helpers
//===----------------------------------------------------------------------===//

namespace {

/// Runs the MDG well-formedness pass and the call-graph/summary checker
/// over a freshly built graph (ScanOptions::SelfCheck).
std::vector<lint::Finding>
runSelfCheck(const analysis::BuildResult &Build,
             const std::vector<const core::Program *> &Programs,
             const std::vector<std::string> &Stems,
             const queries::SinkConfig &Sinks,
             const analysis::PackageGraph *Packages = nullptr) {
  lint::PassManager PM;
  PM.addPass(lint::createMDGCheckPass());
  PM.addPass(lint::createAsyncPass());
  PM.addPass(lint::createCallGraphPass());
  if (Packages)
    PM.addPass(lint::createPkgGraphPass());
  lint::LintContext Ctx;
  Ctx.Build = &Build;
  Ctx.Programs = Programs;
  Ctx.Stems = Stems;
  Ctx.Sinks = &Sinks;
  Ctx.Packages = Packages;
  if (Programs.size() == 1)
    Ctx.Program = Programs[0];
  return PM.run(Ctx).findings();
}

/// Module stem used for require-target matching (mirrors the builder's).
std::string stemOf(const std::string &Name) {
  std::string S = Name;
  size_t Slash = S.find_last_of('/');
  if (Slash != std::string::npos)
    S = S.substr(Slash + 1);
  if (S.size() > 3 && S.compare(S.size() - 3, 3, ".js") == 0)
    S = S.substr(0, S.size() - 3);
  return S;
}

/// Orders modules dependencies-first (Kahn); cycles keep input order.
std::vector<size_t>
topoOrder(const std::vector<std::unique_ptr<core::Program>> &Programs,
          const std::vector<std::string> &Stems) {
  size_t N = Programs.size();
  // Requires[i] = indices of local modules that module i requires.
  std::vector<std::vector<size_t>> Requires(N);
  std::vector<size_t> InDegree(N, 0);
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
  for (size_t I = 0; I < N; ++I)
    InDegree[I] = Requires[I].size();

  std::vector<size_t> Order;
  std::vector<bool> Done(N, false);
  bool Progress = true;
  while (Progress) {
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
      Order.push_back(I); // Cycles: input order.
  return Order;
}

/// The Oom fault action: allocate-and-touch until the allocator dies. With
/// a worker memory rlimit the failure arrives as WorkerOomExit (via the
/// worker's new_handler) or std::bad_alloc long before the cap below; the
/// cap bounds the storm on unlimited machines (and under ASan, where
/// RLIMIT_AS cannot be applied) by self-reporting the OOM deterministically
/// instead of actually exhausting the host.
[[noreturn]] void allocationStorm() {
  constexpr size_t ChunkBytes = 16u << 20;
  constexpr int MaxChunks = 24; // 384 MiB ceiling before self-report.
  std::vector<char *> Storm;
  for (int I = 0; I < MaxChunks; ++I) {
    char *P = new char[ChunkBytes];
    for (size_t J = 0; J < ChunkBytes; J += 4096)
      P[J] = static_cast<char>(J);
    Storm.push_back(P);
  }
  std::_Exit(WorkerOomExit);
}

/// The first error diagnostic's message, or a generic fallback.
std::string firstErrorMessage(const DiagnosticEngine &Diags) {
  for (const Diagnostic &D : Diags.diagnostics())
    if (D.Severity == DiagSeverity::Error)
      return D.str();
  return "parse failed";
}

/// The first error diagnostic's source position (the offending token), so
/// ScanError carries structured line/column for corpus triage.
SourceLocation firstErrorLoc(const DiagnosticEngine &Diags) {
  for (const Diagnostic &D : Diags.diagnostics())
    if (D.Severity == DiagSeverity::Error)
      return D.Loc;
  return SourceLocation();
}

} // namespace

//===----------------------------------------------------------------------===//
// Scanner
//===----------------------------------------------------------------------===//

Scanner::Scanner(ScanOptions Options) : Options(std::move(Options)) {}

ScanResult Scanner::runAttempt(const std::vector<SourceFile> &Files,
                               const ScanOptions &Cfg, bool FaultArmed,
                               unsigned Level, const PackageLinkSpec *Link) {
  ScanResult Out;
  Timer Phase;
  obs::TraceRecorder *TR = Cfg.Trace;
  obs::counters::ScanAttempts.add();
  obs::Span AttemptSpan(TR, "attempt");
  AttemptSpan.arg("level", static_cast<uint64_t>(Level));
  AttemptSpan.arg("backend",
                  Cfg.Backend == QueryBackend::GraphDB ? "graphdb" : "native");

  // One deadline for the whole attempt, threaded through every phase. An
  // inactive budget yields a never-expiring token, which stall faults can
  // still force-expire.
  Deadline D = Deadline::combined(Cfg.Deadline.WallSeconds,
                                  Cfg.Deadline.WorkUnits);

  // Fires the configured fault at a phase boundary. A Fail fault kills the
  // phase outright (returns true: skip it); a Stall fault models a hang the
  // deadline has to kill, so it force-expires the deadline and lets the
  // phase's own checkpoints abort it. The process-fatal actions never
  // return: Crash aborts, Hang spins uninterruptibly, Oom storms the
  // allocator — containable only across a process boundary (the
  // multi-process batch supervisor).
  auto inject = [&](ScanPhase P) -> bool {
    if (!FaultArmed || FaultSpent || !Cfg.Fault || Cfg.Fault->Phase != P)
      return false;
    FaultSpent = true;
    switch (Cfg.Fault->Kind) {
    case FaultPlan::Action::Stall:
      D.expireNow(Deadline::Reason::Forced);
      return false;
    case FaultPlan::Action::Crash:
      std::abort();
    case FaultPlan::Action::Hang:
      for (volatile uint64_t Spin = 0;;)
        ++Spin;
    case FaultPlan::Action::Oom:
      allocationStorm();
    case FaultPlan::Action::Fail:
      break;
    }
    Out.Errors.push_back({P, ScanErrorKind::InjectedFault,
                          "injected fault: phase failed", ""});
    return true;
  };

  // Attributes the deadline's (single, sticky) expiry to the first phase
  // that observes it — the per-phase timeout attribution the batch journal
  // and the degradation ladder consume.
  bool DeadlineNoted = false;
  auto noteDeadline = [&](ScanPhase P) {
    if (DeadlineNoted || !D.expired())
      return;
    DeadlineNoted = true;
    const char *Why = D.reason() == Deadline::Reason::Work
                          ? "scan work budget exhausted"
                      : D.reason() == Deadline::Reason::WallClock
                          ? "wall-clock deadline expired"
                          : "deadline forced expired (stalled phase)";
    Out.Errors.push_back({P, kindOfDeadline(D.reason()), Why, ""});
  };

  // Phase 1: parse. A file that fails to parse is skipped with a per-file
  // error; the rest of the package is still scanned and linked.
  std::vector<std::string> Stems(Files.size());
  std::vector<std::unique_ptr<ast::Program>> ASTs(Files.size());
  {
    obs::Span ParseSpan(TR, "parse");
    if (!inject(ScanPhase::Parse)) {
      for (size_t I = 0; I < Files.size(); ++I) {
        Stems[I] = stemOf(Files[I].Name);
        if (D.expired())
          break; // Remaining files stay unparsed; attributed below.
        obs::Span FileSpan(TR, "file");
        FileSpan.arg("name", Files[I].Name.empty() ? "<source>"
                                                   : Files[I].Name);
        DiagnosticEngine Diags;
        auto Module = parseJS(Files[I].Contents, Diags, &D, TR);
        if (Diags.hasErrors()) {
          Out.Errors.push_back({ScanPhase::Parse, ScanErrorKind::ParseError,
                                firstErrorMessage(Diags), Files[I].Name,
                                firstErrorLoc(Diags)});
          FileSpan.arg("error", "parse failed");
          continue;
        }
        size_t Nodes = ast::countNodes(*Module);
        Out.ASTNodes += Nodes;
        obs::counters::AstNodes.add(Nodes);
        FileSpan.arg("ast_nodes", static_cast<uint64_t>(Nodes));
        ASTs[I] = std::move(Module);
      }
    }
    ParseSpan.arg("files", static_cast<uint64_t>(Files.size()));
  }
  noteDeadline(ScanPhase::Parse);

  // Phase 2: normalize to Core JavaScript. Function names and statement
  // indices get per-module disjoint ranges (they are allocation keys); the
  // single-file form keeps unprefixed names (the documented scanSource
  // behavior tests and examples rely on).
  std::vector<std::unique_ptr<core::Program>> Programs(Files.size());
  {
    obs::Span NormSpan(TR, "normalize");
    Timer NormTimer;
    if (!inject(ScanPhase::Normalize) && !D.expired()) {
      core::StmtIndex NextIndex = 1;
      bool SingleFile = Files.size() == 1 && !Link;
      for (size_t I = 0; I < Files.size(); ++I) {
        if (!ASTs[I])
          continue;
        if (D.expired())
          break;
        DiagnosticEngine Diags;
        // Dependency-tree scans qualify the prefix with the owning package:
        // two packages both shipping a `lib.js` must not collide in the
        // function-name namespace (it keys call-graph and allocation maps).
        std::string Prefix = SingleFile ? ""
                             : Link ? Link->PkgOf[I] + "$" + Stems[I] + "$"
                                    : Stems[I] + "$";
        core::Normalizer Norm(Diags, Prefix, NextIndex, &D);
        Programs[I] = Norm.normalize(*ASTs[I]);
        // Async lowering extends this module's statement-index range, so it
        // must run before the next module's range is carved out.
        if (Cfg.AsyncLower) {
          obs::Span LowerSpan(TR, "lower");
          Timer LowerTimer;
          core::AsyncLowerStats AS = core::lowerAsync(*Programs[I], Prefix, &D);
          Out.Times.Lower += LowerTimer.elapsedSeconds();
          obs::counters::AsyncAwaitsLowered.add(AS.AwaitsLowered);
          obs::counters::AsyncReactionsLinked.add(AS.ReactionsLinked);
          obs::counters::AsyncCallbacksUnresolved.add(AS.CallbacksUnresolved);
          LowerSpan.arg("awaits_lowered", AS.AwaitsLowered);
          LowerSpan.arg("reactions_linked", AS.ReactionsLinked);
          LowerSpan.arg("callbacks_unresolved", AS.CallbacksUnresolved);
        }
        NextIndex = Programs[I]->NumIndices + 1;
        size_t Stmts = core::countStmts(Programs[I]->TopLevel);
        for (const auto &[Name, Fn] : Programs[I]->Functions)
          Stmts += core::countStmts(Fn->Body);
        Out.CoreStmts += Stmts;
        obs::counters::CoreStmts.add(Stmts);
      }
    }
    NormSpan.arg("core_stmts", static_cast<uint64_t>(Out.CoreStmts));
    Out.Times.Normalize = NormTimer.elapsedSeconds() - Out.Times.Lower;
  }
  noteDeadline(ScanPhase::Normalize);
  Out.Times.Parse = Phase.elapsedSeconds() - Out.Times.Lower;

  // The parsed modules in file order (the self-check's inputs; the link
  // map's module indices), and for dependency-tree scans the cross-package
  // link map the builder resolves requires through.
  std::vector<const core::Program *> Mods;
  std::vector<std::string> ModStems;
  analysis::ModuleLinkInfo TreeLink;
  if (Link) {
    // The cross-package soundness valve: missing/unparseable dependencies,
    // plus every file that failed to parse (or was skipped by the
    // deadline) — its package name and stem must classify as unresolved.
    TreeLink.ForceUnresolved = Link->MissingDeps;
    for (size_t I = 0; I < Files.size(); ++I)
      if (!Programs[I]) {
        TreeLink.ForceUnresolved.insert(Link->PkgOf[I]);
        TreeLink.ForceUnresolved.insert(Stems[I]);
      }
  }
  for (size_t I = 0; I < Programs.size(); ++I)
    if (Programs[I]) {
      if (Link) {
        TreeLink.PkgOf.push_back(Link->PkgOf[I]);
        if (Link->IsMain[I] &&
            !TreeLink.ForceUnresolved.count(Link->PkgOf[I]))
          TreeLink.MainModuleOf.emplace(Link->PkgOf[I], Mods.size());
      }
      Mods.push_back(Programs[I].get());
      ModStems.push_back(Stems[I]);
    }

  // Phase 3: MDG construction over all parsed modules, deps first.
  // Configured sanitizers become builder-level taint barriers (§6).
  Phase.reset();
  std::vector<analysis::PackageModule> Modules;
  if (Link) {
    // A flattened dependency tree arrives in bottom-up link order already
    // (PackageGraph::flatten); the builder's second pass closes any
    // remaining (cyclic) links.
    for (size_t I = 0; I < Programs.size(); ++I)
      if (Programs[I])
        Modules.push_back({Files[I].Name, Programs[I].get(), Link->PkgOf[I],
                           static_cast<bool>(Link->IsMain[I])});
  } else {
    for (size_t I : topoOrder(Programs, Stems))
      if (Programs[I])
        Modules.push_back({Files[I].Name, Programs[I].get()});
  }

  analysis::BuildResult Build;
  bool HaveGraph = false;
  {
    obs::Span BuildSpan(TR, "build");
    if (!inject(ScanPhase::Build) && !Modules.empty()) {
      analysis::BuilderOptions BO = Cfg.Builder;
      BO.ScanDeadline = &D;
      for (const std::string &Name : Cfg.Sinks.sanitizers())
        BO.Sanitizers.insert(Name);
      if (Files.size() == 1 && !Link) {
        Build = analysis::buildMDG(*Programs[0], BO);
      } else {
        analysis::MDGBuilder Builder(BO);
        Build = Builder.buildPackage(Modules, Link ? &TreeLink : nullptr);
      }
      HaveGraph = true;
      Out.MDGNodes = Build.Graph.numNodes();
      Out.MDGEdges = Build.Graph.numEdges();
      Out.BuildWork = Build.WorkDone;
      BuildSpan.arg("mdg_nodes", static_cast<uint64_t>(Out.MDGNodes));
      BuildSpan.arg("mdg_edges", static_cast<uint64_t>(Out.MDGEdges));
      BuildSpan.arg("work", Out.BuildWork);
      BuildSpan.arg("fixpoint_iters", Build.FixpointIters);
      BuildSpan.arg("store_vars_peak",
                    static_cast<uint64_t>(Build.StoreVarsPeak));
      // The builder's own work budget (no shared deadline involved) is a
      // Build-phase Budget error.
      if (Build.TimedOut && !D.expired())
        Out.Errors.push_back({ScanPhase::Build, ScanErrorKind::Budget,
                              "builder work budget exhausted (work=" +
                                  std::to_string(Build.WorkDone) + ")",
                              ""});
      if (Cfg.SelfCheck)
        Out.SelfCheckFindings =
            runSelfCheck(Build, Mods, ModStems, Cfg.Sinks,
                         Link ? Link->Packages : nullptr);
    }
  }
  noteDeadline(ScanPhase::Build);
  Out.Times.GraphBuild = Phase.elapsedSeconds();

  // Phases 4+5: import into the database and run the queries. The built-in
  // queries are schema-validated first: a malformed query must fail the
  // scan loudly, not return an empty (vacuously clean) report set.
  if (HaveGraph) {
    if (Cfg.Backend == QueryBackend::GraphDB) {
      if (!queries::GraphDBRunner::validateBuiltinQueries(
                     Cfg.Sinks, &Out.SchemaError)) {
        Out.Errors.push_back({ScanPhase::Query, ScanErrorKind::Schema,
                              Out.SchemaError, ""});
      } else if (!inject(ScanPhase::Import)) {
        Phase.reset();
        graphdb::EngineOptions EO = Cfg.Engine;
        EO.ScanDeadline = &D;
        EO.Trace = TR;
        obs::Span ImportSpan(TR, "import");
        queries::GraphDBRunner Runner(Build, EO);
        ImportSpan.arg("db_nodes",
                       static_cast<uint64_t>(Runner.database().numNodes()));
        ImportSpan.arg("db_rels",
                       static_cast<uint64_t>(Runner.database().numRels()));
        ImportSpan.close();
        Out.Times.DbImport = Phase.elapsedSeconds();
        noteDeadline(ScanPhase::Import);

        if (!inject(ScanPhase::Query)) {
          Phase.reset();
          obs::Span QuerySpan(TR, "query");
          queries::DetectStats Stats;
          Out.Reports = Runner.detect(Cfg.Sinks, &Stats);
          QuerySpan.arg("reports", static_cast<uint64_t>(Out.Reports.size()));
          QuerySpan.arg("work", Stats.QueryWork);
          QuerySpan.close();
          Out.Times.Query = Phase.elapsedSeconds();
          Out.QueryWork = Stats.QueryWork;
          noteDeadline(ScanPhase::Query);
          // The query engine's own step budget (deadline still live) is a
          // Query-phase Budget error — distinct from a graph-construction
          // timeout.
          if (Stats.TimedOut && !D.expired())
            Out.Errors.push_back({ScanPhase::Query, ScanErrorKind::Budget,
                                  "query step budget exhausted (steps=" +
                                      std::to_string(Stats.QueryWork) + ")",
                                  ""});
        }
      }
      // Partial-results guarantee (the Graph.js vs. ODGen difference,
      // §5.2): when the deadline killed the DB-side phases before any
      // report came back, still query the in-memory partial MDG with the
      // native traversals, which are bounded by the (partial) graph size.
      if (D.expired() && Out.Reports.empty()) {
        Phase.reset();
        obs::Span NativeSpan(TR, "native-query");
        NativeSpan.arg("fallback", "partial-results");
        Out.Reports = queries::detectNative(Build, Cfg.Sinks);
        NativeSpan.arg("reports", static_cast<uint64_t>(Out.Reports.size()));
        NativeSpan.close();
        Out.Times.Query += Phase.elapsedSeconds();
      }
    } else if (!inject(ScanPhase::Query)) {
      Phase.reset();
      obs::Span NativeSpan(TR, "native-query");
      Out.Reports = queries::detectNative(Build, Cfg.Sinks);
      NativeSpan.arg("reports", static_cast<uint64_t>(Out.Reports.size()));
      NativeSpan.close();
      Out.Times.Query = Phase.elapsedSeconds();
      noteDeadline(ScanPhase::Query);
    }
  }

  if (Link) {
    std::set<std::string> LinkedPkgs;
    for (size_t I = 0; I < Programs.size(); ++I)
      if (Programs[I])
        LinkedPkgs.insert(Link->PkgOf[I]);
    Out.LinkedPackages = static_cast<unsigned>(LinkedPkgs.size());
    Out.MissingDeps.assign(Link->MissingDeps.begin(),
                           Link->MissingDeps.end());
  }
  Out.DeadlineWork = D.workDone();
  obs::counters::DeadlineUnits.add(Out.DeadlineWork);
  return Out;
}

bool Scanner::wantsDegradation(const ScanResult &R) {
  // Retry on containable failures: timeouts (deadline or budget) and
  // injected faults. Parse and schema errors are deterministic — a cheaper
  // rerun cannot fix malformed input or a bad query.
  for (const ScanError &E : R.Errors)
    if (E.isTimeout() || E.Kind == ScanErrorKind::InjectedFault)
      return true;
  return false;
}

ScanOptions Scanner::degrade(const ScanOptions &Base, unsigned Level) {
  ScanOptions Cfg = Base;
  // Level 1: drop the graph database; run the Table 2 detectors as native
  // traversals (no import phase, no query-engine steps).
  Cfg.Backend = QueryBackend::Native;
  if (Level >= 2) {
    // Level 2: also cheapen MDG construction itself.
    if (Cfg.Builder.WorkBudget)
      Cfg.Builder.WorkBudget = std::max<uint64_t>(1, Cfg.Builder.WorkBudget / 2);
    Cfg.Builder.MaxInlineDepth = std::min(Cfg.Builder.MaxInlineDepth, 2u);
    Cfg.Builder.MaxFixpointIters = std::min(Cfg.Builder.MaxFixpointIters, 8u);
  }
  return Cfg;
}

ScanResult Scanner::scanPackage(const std::vector<SourceFile> &Files) {
  return scanWithLadder(Files, nullptr);
}

ScanResult Scanner::scanDependencyTree(const analysis::PackageGraph &G) {
  analysis::PackageGraph::FlatPlan Plan = G.flatten();
  std::vector<SourceFile> Files;
  PackageLinkSpec Link;
  Link.MissingDeps = Plan.MissingDeps;
  Link.Packages = &G;
  for (const analysis::PackageGraph::FlatModule &M : Plan.Modules) {
    Files.push_back({M.Path, *M.Contents});
    Link.PkgOf.push_back(M.Pkg);
    Link.IsMain.push_back(M.IsMain);
  }
  ScanResult Out = scanWithLadder(Files, &Link);
  // An empty tree (every package missing) never reaches runAttempt's
  // accounting; report the missing names regardless.
  if (Out.MissingDeps.empty() && !Plan.MissingDeps.empty())
    Out.MissingDeps.assign(Plan.MissingDeps.begin(), Plan.MissingDeps.end());
  return Out;
}

ScanResult Scanner::scanWithLadder(const std::vector<SourceFile> &Files,
                                   const PackageLinkSpec *Link) {
  unsigned Seq = ScansDone++;
  auto Armed = [&] {
    return Options.Fault && !FaultSpent && Options.Fault->Package == Seq;
  };

  obs::Span PackageSpan(Options.Trace, "package");
  PackageSpan.arg("files", static_cast<uint64_t>(Files.size()));
  obs::CounterSnapshot Before;
  if (obs::countersEnabled())
    Before = obs::snapshotCounters();

  // AttemptLog keeps every attempt's cost so the timing attribution
  // survives the ladder (only the final attempt's metrics end up in
  // Times). TimedOut must reflect the attempt's *own* errors, not the
  // inherited ones — hence it is captured before the error splice.
  auto recordOf = [](const ScanResult &R, unsigned Level) {
    AttemptRecord Rec;
    Rec.Level = Level;
    Rec.Times = R.Times;
    Rec.DeadlineWork = R.DeadlineWork;
    Rec.TimedOut = R.timedOut();
    return Rec;
  };

  ScanResult Out = runAttempt(Files, Options, Armed(), 0, Link);
  Out.CumulativeTimes = Out.Times;
  Out.AttemptLog.push_back(recordOf(Out, 0));

  // Degradation ladder: a containable failure gets retried with cheaper
  // settings (a fresh deadline each attempt). Errors accumulate across
  // attempts; the final attempt's reports and metrics win, but
  // CumulativeTimes and AttemptLog keep every attempt's cost.
  unsigned Level = 0;
  while (wantsDegradation(Out) && Level < Options.MaxDegradation) {
    ++Level;
    obs::counters::ScanRetries.add();
    ScanResult Retry = runAttempt(Files, degrade(Options, Level), Armed(),
                                  Level, Link);
    AttemptRecord Rec = recordOf(Retry, Level);
    Retry.Errors.insert(Retry.Errors.begin(), Out.Errors.begin(),
                        Out.Errors.end());
    Retry.Attempts = Out.Attempts + 1;
    Retry.Retries = Level;
    Retry.Degradation = Level;
    Retry.CumulativeTimes = Out.CumulativeTimes;
    Retry.CumulativeTimes.accumulate(Retry.Times);
    Retry.AttemptLog = std::move(Out.AttemptLog);
    Retry.AttemptLog.push_back(Rec);
    Out = std::move(Retry);
  }

  if (obs::countersEnabled())
    Out.Counters = obs::counterDelta(Before, obs::snapshotCounters());
  // Phase latency distributions: cumulative across ladder attempts, so a
  // degraded package attributes its full (retried) cost to each phase.
  obs::hists::PhaseParse.recordSeconds(Out.CumulativeTimes.Parse);
  obs::hists::PhaseLower.recordSeconds(Out.CumulativeTimes.Lower);
  obs::hists::PhaseNormalize.recordSeconds(Out.CumulativeTimes.Normalize);
  obs::hists::PhaseBuild.recordSeconds(Out.CumulativeTimes.GraphBuild);
  obs::hists::PhaseImport.recordSeconds(Out.CumulativeTimes.DbImport);
  obs::hists::PhaseQuery.recordSeconds(Out.CumulativeTimes.Query);
  PackageSpan.arg("attempts", static_cast<uint64_t>(Out.Attempts));
  PackageSpan.arg("reports", static_cast<uint64_t>(Out.Reports.size()));
  return Out;
}

ScanResult Scanner::scanSource(const std::string &Source) {
  return scanPackage({{"", Source}});
}

std::string scanner::reportsToJSON(
    const std::vector<queries::VulnReport> &Reports) {
  json::Array Arr;
  for (const queries::VulnReport &R : Reports) {
    json::Object O;
    O["cwe"] = json::Value(queries::cweOf(R.Type));
    O["type"] = json::Value(queries::vulnTypeName(R.Type));
    O["line"] = json::Value(static_cast<unsigned>(R.SinkLoc.Line));
    if (!R.SinkName.empty())
      O["sink"] = json::Value(R.SinkName);
    if (!R.SinkPath.empty())
      O["sink_path"] = json::Value(R.SinkPath);
    Arr.push_back(json::Value(std::move(O)));
  }
  return json::Value(std::move(Arr)).str(2);
}
