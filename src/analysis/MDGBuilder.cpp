//===- analysis/MDGBuilder.cpp - Abstract MDG construction -----------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/MDGBuilder.h"

#include "analysis/CallGraph.h"
#include "obs/Counters.h"
#include "support/Deadline.h"

#include <algorithm>
#include <cassert>

using namespace gjs;
using namespace gjs::analysis;
using namespace gjs::mdg;
using core::Operand;
using core::StmtKind;

MDGBuilder::MDGBuilder(BuilderOptions Options) : Options(Options) {}

BuildResult analysis::buildMDG(const core::Program &Program,
                               BuilderOptions O) {
  MDGBuilder B(O);
  return B.build(Program);
}

BuildResult analysis::buildPackageMDG(const std::vector<PackageModule> &Modules,
                                      BuilderOptions O,
                                      const ModuleLinkInfo *Link) {
  MDGBuilder B(O);
  return B.buildPackage(Modules, Link);
}

/// Normalizes a require target to a module stem: `./helpers`, `helpers.js`,
/// and `../lib/helpers` all map to `helpers`.
static std::string moduleStem(const std::string &Name) {
  std::string S = Name;
  size_t Slash = S.find_last_of('/');
  if (Slash != std::string::npos)
    S = S.substr(Slash + 1);
  if (S.size() > 3 && S.compare(S.size() - 3, 3, ".js") == 0)
    S = S.substr(0, S.size() - 3);
  return S;
}

/// ModuleExports key for a module of \p Pkg in a dependency-tree build.
/// The separator cannot appear in file names, so `a/lib.js` and `b/lib.js`
/// get distinct keys.
static std::string exportKey(const std::string &Pkg, const std::string &Stem) {
  return Pkg + "\x01" + Stem;
}

/// ModuleExports key for the *main* module of \p Pkg: what a bare
/// `require('pkg')` from any other package resolves to.
static std::string mainKey(const std::string &Pkg) {
  return "\x02" + Pkg;
}

void MDGBuilder::finalize(BuildResult &R) {
  R.TimedOut = Aborted;
  R.WorkDone = Work;
  R.FixpointIters = FixpointIters;
  R.StoreVarsPeak = StoreVarsPeak;
  obs::counters::BuilderStoreVarsPeak.add(StoreVarsPeak);
  // The build is over: hand the tables over instead of copying them.
  R.Alloc.Site = std::move(SiteAlloc);
  R.Alloc.Version = std::move(VersionAlloc);
  R.Alloc.Value = std::move(ValueAlloc);
  R.Alloc.Prop = std::move(PropAlloc);
  R.Alloc.UnknownProp = std::move(UnknownPropAlloc);
  R.Alloc.Call = std::move(CallAlloc);
  R.Alloc.Ret = std::move(RetAlloc);
  R.Alloc.Global = std::move(GlobalAlloc);
  R.Alloc.Param = std::move(ParamAlloc);
  R.FunctionNodes = std::move(FuncNodeByName);
}

BuildResult MDGBuilder::build(const core::Program &Program) {
  BuildResult R;
  Prog = &Program;
  Result = &R;
  G = &R.Graph;
  Store = AbstractStore();
  Work = 0;
  FixpointIters = 0;
  StoreVarsPeak = 0;
  Aborted = false;

  // Module initialization code runs first, so exported functions see the
  // module-level state (closures over module variables).
  analyzeBlock(Program.TopLevel);

  markEntryPoints();
  noteStoreWidth();

  finalize(R);
  return R;
}

BuildResult MDGBuilder::buildPackage(const std::vector<PackageModule> &Modules,
                                     const ModuleLinkInfo *Link) {
  BuildResult R;
  Result = &R;
  G = &R.Graph;
  Work = 0;
  FixpointIters = 0;
  StoreVarsPeak = 0;
  Aborted = false;
  PkgLink = Link && !Link->empty() ? Link : nullptr;

  // Pass 1: every module's top level, each in a fresh store (top-level
  // variables are file-scoped), into the shared graph. After a module's
  // top level, materialize its exports object.
  std::vector<AbstractStore> ModuleStores(Modules.size());
  for (size_t I = 0; I < Modules.size() && !Aborted; ++I) {
    Prog = Modules[I].Program;
    CurPkg = Modules[I].Pkg;
    Store = AbstractStore();
    analyzeBlock(Prog->TopLevel);

    NodeId E = G->addNode(NodeKind::Object, 0, SourceLocation(),
                          "exports:" + Modules[I].Name);
    for (const core::ExportEntry &Ex : Prog->Exports) {
      if (Ex.FunctionName.empty())
        continue;
      auto It = FuncNodeByName.find(Ex.FunctionName);
      if (It != FuncNodeByName.end())
        G->addEdge(E, It->second, EdgeKind::Prop,
                   Result->Props.intern(Ex.ExportName));
    }
    std::string Stem = moduleStem(Modules[I].Name);
    if (PkgLink) {
      ModuleExports[exportKey(Modules[I].Pkg, Stem)] = E;
      if (Modules[I].IsMain)
        ModuleExports[mainKey(Modules[I].Pkg)] = E;
    } else {
      ModuleExports[Stem] = E;
    }
    noteStoreWidth();
    ModuleStores[I] = std::move(Store);
  }

  // Pass 2: re-run the top levels so requires of modules listed *later*
  // (cycles, unsorted inputs) now link; allocators make this idempotent.
  for (size_t I = 0; I < Modules.size() && !Aborted; ++I) {
    Prog = Modules[I].Program;
    CurPkg = Modules[I].Pkg;
    Store = std::move(ModuleStores[I]);
    analyzeBlock(Prog->TopLevel);
    noteStoreWidth();
    ModuleStores[I] = std::move(Store);
  }

  // Pass 3: entry points, module by module, each under its own store.
  for (size_t I = 0; I < Modules.size() && !Aborted; ++I) {
    Prog = Modules[I].Program;
    CurPkg = Modules[I].Pkg;
    Store = std::move(ModuleStores[I]);
    markEntryPoints();
    noteStoreWidth();
  }

  PkgLink = nullptr;
  CurPkg.clear();
  finalize(R);
  return R;
}

NodeId MDGBuilder::lookupModuleExports(const std::string &RequireModule) {
  if (!PkgLink) {
    auto It = ModuleExports.find(moduleStem(RequireModule));
    return It == ModuleExports.end() ? InvalidNode : It->second;
  }
  std::string Stem = moduleStem(RequireModule);
  // The soundness valve: a require of a missing/unparseable dependency must
  // degrade to the fresh-object behavior so the query stage still sees an
  // unknown value (never a falsely-precise exports object).
  if (PkgLink->ForceUnresolved.count(RequireModule) ||
      PkgLink->ForceUnresolved.count(Stem))
    return InvalidNode;
  bool Relative = !RequireModule.empty() && RequireModule[0] == '.';
  if (!Relative)
    if (auto It = ModuleExports.find(mainKey(RequireModule));
        It != ModuleExports.end())
      return It->second;
  // Same-package sibling file (relative requires, or a bare name that is
  // not a known package).
  auto It = ModuleExports.find(exportKey(CurPkg, Stem));
  return It == ModuleExports.end() ? InvalidNode : It->second;
}

void MDGBuilder::markEntryPoints() {
  // Entry points: exported functions, else every function (fallback).
  std::vector<std::string> Entries;
  for (const core::ExportEntry &E : Prog->Exports)
    if (!E.FunctionName.empty() && Prog->Functions.count(E.FunctionName))
      Entries.push_back(E.FunctionName);
  if (Entries.empty() && Options.FallbackAllFunctionsExported)
    for (const auto &[Name, Fn] : Prog->Functions)
      Entries.push_back(Name);
  // Deduplicate, preserving order.
  std::vector<std::string> Unique;
  for (const std::string &E : Entries)
    if (std::find(Unique.begin(), Unique.end(), E) == Unique.end())
      Unique.push_back(E);

  for (const std::string &Name : Unique) {
    if (Aborted)
      break;
    const core::Function &Fn = *Prog->Functions.at(Name);
    std::vector<LocSet> ArgLocs;
    for (const std::string &Param : Fn.Params) {
      std::string Key = Fn.Name + ":" + Param;
      auto It = ParamAlloc.find(Key);
      NodeId P;
      if (It != ParamAlloc.end()) {
        P = It->second;
      } else {
        P = G->addNode(NodeKind::Object, 0, Fn.Loc, Param);
        G->node(P).IsTaintSource = true;
        ParamAlloc[Key] = P;
        Result->TaintSources.push_back(P);
      }
      ArgLocs.push_back({P});
    }
    // `this` for exported methods: a fresh, untainted receiver object.
    std::string ThisKey = Fn.Name + ":this";
    NodeId ThisNode;
    if (auto It = ParamAlloc.find(ThisKey); It != ParamAlloc.end())
      ThisNode = It->second;
    else {
      ThisNode = G->addNode(NodeKind::Object, 0, Fn.Loc, "this");
      ParamAlloc[ThisKey] = ThisNode;
    }
    analyzeFunctionInline(Fn, ArgLocs, {ThisNode});
  }
}

void MDGBuilder::noteStoreWidth() {
  StoreVarsPeak = std::max(StoreVarsPeak, Store.numBound());
}

bool MDGBuilder::budgetExceeded() {
  ++Work;
  obs::counters::BuilderStmts.add();
  if (Options.WorkBudget != 0 && Work > Options.WorkBudget)
    Aborted = true;
  // The scan-level deadline bounds the whole pipeline, not just this
  // phase: one checkpoint per abstract statement analyzed.
  if (Options.ScanDeadline && Options.ScanDeadline->checkpoint())
    Aborted = true;
  return Aborted;
}

//===----------------------------------------------------------------------===//
// Operand evaluation
//===----------------------------------------------------------------------===//

LocSet MDGBuilder::eval(const Operand &O) {
  if (!O.isVar())
    return {};
  VarId V = var(O.Name);
  if (Store.contains(V))
    return Store.get(V);
  // Unbound variable: a global (or host builtin). Allocate a stable object
  // node for it so lookups and calls through it still work.
  auto It = GlobalAlloc.find(O.Name);
  NodeId N;
  if (It != GlobalAlloc.end()) {
    N = It->second;
  } else {
    N = G->addNode(NodeKind::Object, 0, SourceLocation(), O.Name);
    GlobalAlloc[O.Name] = N;
  }
  Store.set(V, N);
  return {N};
}

LocSet MDGBuilder::evalValue(const Operand &O, core::StmtIndex Site,
                             SourceLocation Loc) {
  LocSet L = eval(O);
  if (!L.empty())
    return L;
  if (O.isVar()) {
    // Variable bound to the empty set (e.g. assigned a literal earlier):
    // stand in a fresh value node so structural edges still materialize.
    auto It = ValueAlloc.find(Site);
    NodeId N = It != ValueAlloc.end()
                   ? It->second
                   : (ValueAlloc[Site] =
                          G->addNode(NodeKind::Object, Site, Loc, O.Name));
    return {N};
  }
  auto It = ValueAlloc.find(Site);
  NodeId N = It != ValueAlloc.end()
                 ? It->second
                 : (ValueAlloc[Site] =
                        G->addNode(NodeKind::Object, Site, Loc, O.str()));
  return {N};
}

NodeId MDGBuilder::allocAtSite(core::StmtIndex Site, SourceLocation Loc,
                               const std::string &Label) {
  auto It = SiteAlloc.find(Site);
  if (It != SiteAlloc.end())
    return It->second;
  NodeId N = G->addNode(NodeKind::Object, Site, Loc, Label);
  SiteAlloc[Site] = N;
  return N;
}

//===----------------------------------------------------------------------===//
// AP / AP* — lazy property materialization
//===----------------------------------------------------------------------===//

LocSet MDGBuilder::ensureProperty(NodeId L, Symbol P, core::StmtIndex Site,
                                  SourceLocation Loc) {
  std::vector<NodeId> R = G->resolveProperty(L, P);
  if (R.empty()) {
    // The property "existed from the beginning": attach it to the oldest
    // version(s) of L (Fig. 1, line 7). The node is keyed by lookup site
    // so chained self-lookups in loops fold onto one node.
    auto Key = std::make_pair(Site, P);
    auto It = PropAlloc.find(Key);
    NodeId PN;
    if (It != PropAlloc.end()) {
      PN = It->second;
    } else {
      PN = G->addNode(NodeKind::Object, Site, Loc,
                      G->node(L).Label + "." + Result->Props.str(P));
      PropAlloc[Key] = PN;
    }
    for (NodeId O : G->oldestVersions(L))
      if (O != PN)
        G->addEdge(O, PN, EdgeKind::Prop, P);
    R = G->resolveProperty(L, P);
  }
  return {R.begin(), R.end()};
}

LocSet MDGBuilder::ensureUnknownProperty(NodeId L, const LocSet &NameLocs,
                                         core::StmtIndex Site,
                                         SourceLocation Loc) {
  // AP*: reuse L's direct P(*) property if present, else allocate one
  // (keyed by site: the cyclic representation of §5.5).
  std::vector<NodeId> Direct = G->unknownPropTargets(L);
  NodeId PN;
  if (!Direct.empty()) {
    PN = Direct.front();
  } else {
    auto It = UnknownPropAlloc.find(Site);
    if (It != UnknownPropAlloc.end()) {
      PN = It->second;
    } else {
      PN = G->addNode(NodeKind::Object, Site, Loc, G->node(L).Label + ".*");
      UnknownPropAlloc[Site] = PN;
    }
    if (L != PN)
      G->addEdge(L, PN, EdgeKind::PropUnknown);
  }
  // The read value depends on the dynamic property name — for the P(*)
  // node and for every known property the name may alias (the concrete
  // semantics adds l2 →D l' for the actual value read, so soundness
  // requires covering all candidates).
  std::vector<NodeId> R = G->resolveUnknownProperty(L);
  for (NodeId NL : NameLocs) {
    G->addEdge(NL, PN, EdgeKind::Dep);
    for (NodeId T : R)
      if (NL != T)
        G->addEdge(NL, T, EdgeKind::Dep);
  }
  return {R.begin(), R.end()};
}

//===----------------------------------------------------------------------===//
// NV / NV* — versioning
//===----------------------------------------------------------------------===//

std::vector<NodeId> MDGBuilder::newVersions(const LocSet &Objs,
                                            core::StmtIndex Site, Symbol P,
                                            bool IsUnknown,
                                            const LocSet &NameLocs,
                                            SourceLocation Loc) {
  if (!Options.SiteVersionReuse) {
    // Ablated allocator: fresh version per (site, old version). Loop
    // iterations extend the chain instead of folding onto one node.
    std::vector<NodeId> Out;
    for (NodeId L : Objs) {
      auto Key = std::make_pair(Site, L);
      auto It = VersionAllocAblated.find(Key);
      NodeId V;
      if (It != VersionAllocAblated.end()) {
        V = It->second;
      } else {
        V = G->addNode(NodeKind::Object, Site, Loc, G->node(L).Label + "'");
        VersionAllocAblated[Key] = V;
      }
      if (L != V)
        G->addEdge(
            L, V, IsUnknown ? EdgeKind::VersionUnknown : EdgeKind::Version,
            P);
      Store.replaceEverywhere(L, V);
      for (NodeId NL : NameLocs)
        G->addEdge(NL, V, EdgeKind::Dep);
      Out.push_back(V);
    }
    return Out;
  }

  // One version node per update site: same-site updates in later loop
  // iterations fold back onto the same node (cyclic representation, §5.5).
  auto It = VersionAlloc.find(Site);
  NodeId V;
  if (It != VersionAlloc.end()) {
    V = It->second;
  } else {
    std::string Label =
        Objs.empty() ? "v" : G->node(*Objs.begin()).Label + "'";
    V = G->addNode(NodeKind::Object, Site, Loc, Label);
    VersionAlloc[Site] = V;
  }
  for (NodeId L : Objs) {
    if (L != V)
      G->addEdge(L, V,
                 IsUnknown ? EdgeKind::VersionUnknown : EdgeKind::Version, P);
    Store.replaceEverywhere(L, V);
  }
  // For dynamic updates, the updated property's name flows into the new
  // version (Fig. 1 line 5: o3 →D o6).
  for (NodeId NL : NameLocs)
    G->addEdge(NL, V, EdgeKind::Dep);
  return {V};
}

//===----------------------------------------------------------------------===//
// Statement analysis
//===----------------------------------------------------------------------===//

void MDGBuilder::analyzeBlock(const std::vector<core::StmtPtr> &Block) {
  for (const core::StmtPtr &S : Block) {
    if (Aborted)
      return;
    analyzeStmt(*S);
  }
}

void MDGBuilder::fixpoint(const std::vector<core::StmtPtr> &Body) {
  for (unsigned Iter = 0; Iter < Options.MaxFixpointIters; ++Iter) {
    ++FixpointIters;
    obs::counters::BuilderFixpointIters.add();
    uint64_t Rev = G->revision();
    // Snapshot ρ̂ as an undo level; joinLevel() then forms ρ̂' ⊔ ρ̂ from the
    // bindings the body overwrote and reports whether that differs from ρ̂.
    Store.pushLevel();
    analyzeBlock(Body);
    bool StoreGrew = Store.joinLevel();
    if (Aborted)
      return;
    if (G->revision() == Rev && !StoreGrew)
      return;
  }
}

void MDGBuilder::analyzeStmt(const core::Stmt &S) {
  if (budgetExceeded())
    return;

  switch (S.K) {
  case StmtKind::Assign: {
    // Literal assignments materialize a (dependency-free) value node so the
    // abstraction function α of the soundness theorem stays a function:
    // the concrete semantics allocates a location here too.
    if (!S.Value.isVar()) {
      NodeId N = allocAtSite(S.Index, S.Loc, S.Target);
      Store.set(var(S.Target), N);
      break;
    }
    Store.set(var(S.Target), eval(S.Value));
    break;
  }
  case StmtKind::BinOp: {
    LocSet L1 = eval(S.LHS);
    LocSet L2 = eval(S.RHS);
    // The async lowering's `x := x promise-join %p` is an alias join, not
    // a value computation: x may be the original promise object or the
    // model object carrying the settled `%promise` property. A fresh node
    // here would sever the property lookup the await/then suspension
    // reads through.
    if (S.Async == core::AsyncRole::PromiseJoin) {
      L1.insertAll(L2);
      Store.set(var(S.Target), std::move(L1));
      break;
    }
    NodeId N = allocAtSite(S.Index, S.Loc, S.Target);
    for (NodeId L : L1)
      G->addEdge(L, N, EdgeKind::Dep);
    for (NodeId L : L2)
      G->addEdge(L, N, EdgeKind::Dep);
    Store.set(var(S.Target), N);
    break;
  }
  case StmtKind::UnOp: {
    LocSet L = eval(S.Value);
    NodeId N = allocAtSite(S.Index, S.Loc, S.Target);
    for (NodeId V : L)
      G->addEdge(V, N, EdgeKind::Dep);
    Store.set(var(S.Target), N);
    break;
  }
  case StmtKind::NewObject: {
    // A linked local require binds the required module's exports object.
    if (!S.RequireModule.empty() && !ModuleExports.empty()) {
      NodeId E = lookupModuleExports(S.RequireModule);
      if (E != InvalidNode) {
        Store.set(var(S.Target), E);
        break;
      }
    }
    NodeId N = allocAtSite(S.Index, S.Loc, S.Target);
    Store.set(var(S.Target), N);
    break;
  }
  case StmtKind::FuncDef: {
    NodeId N = allocAtSite(S.Index, S.Loc, S.Func->Name);
    FuncOfNode[N] = S.Func.get();
    FuncNodeByName[S.Func->Name] = N;
    Store.set(var(S.Target), N);
    break;
  }
  case StmtKind::StaticLookup: {
    LocSet Objs = evalValue(S.Obj, S.Index, S.Loc);
    Symbol P = Result->Props.intern(S.Prop);
    LocSet Out;
    for (NodeId L : Objs) {
      LocSet R = ensureProperty(L, P, S.Index, S.Loc);
      Out.insertAll(R);
    }
    Store.set(var(S.Target), std::move(Out));
    break;
  }
  case StmtKind::DynamicLookup: {
    // A statically-known index (o["x"], a[0]) is a static lookup.
    if (S.PropOperand.K == Operand::Kind::String ||
        S.PropOperand.K == Operand::Kind::Number) {
      LocSet Objs = evalValue(S.Obj, S.Index, S.Loc);
      std::string Name = S.PropOperand.K == Operand::Kind::String
                             ? S.PropOperand.Name
                             : S.PropOperand.str();
      Symbol P = Result->Props.intern(Name);
      LocSet Out;
      for (NodeId L : Objs) {
        LocSet R = ensureProperty(L, P, S.Index, S.Loc);
        Out.insertAll(R);
      }
      Store.set(var(S.Target), std::move(Out));
      break;
    }
    LocSet Objs = evalValue(S.Obj, S.Index, S.Loc);
    LocSet NameLocs = eval(S.PropOperand);
    LocSet Out;
    for (NodeId L : Objs) {
      LocSet R = ensureUnknownProperty(L, NameLocs, S.Index, S.Loc);
      Out.insertAll(R);
    }
    Store.set(var(S.Target), std::move(Out));
    break;
  }
  case StmtKind::StaticUpdate: {
    LocSet Objs = evalValue(S.Obj, S.Index, S.Loc);
    LocSet Vals = evalValue(S.Value, S.Index, S.Loc);
    Symbol P = Result->Props.intern(S.Prop);
    std::vector<NodeId> Vers =
        newVersions(Objs, S.Index, P, /*IsUnknown=*/false, {}, S.Loc);
    for (NodeId V : Vers)
      for (NodeId Val : Vals)
        if (V != Val)
          G->addEdge(V, Val, EdgeKind::Prop, P);
    break;
  }
  case StmtKind::DynamicUpdate: {
    LocSet Objs = evalValue(S.Obj, S.Index, S.Loc);
    LocSet Vals = evalValue(S.Value, S.Index, S.Loc);
    if (S.PropOperand.K == Operand::Kind::String ||
        S.PropOperand.K == Operand::Kind::Number) {
      std::string Name = S.PropOperand.K == Operand::Kind::String
                             ? S.PropOperand.Name
                             : S.PropOperand.str();
      Symbol P = Result->Props.intern(Name);
      std::vector<NodeId> Vers =
          newVersions(Objs, S.Index, P, /*IsUnknown=*/false, {}, S.Loc);
      for (NodeId V : Vers)
        for (NodeId Val : Vals)
          if (V != Val)
            G->addEdge(V, Val, EdgeKind::Prop, P);
      break;
    }
    LocSet NameLocs = eval(S.PropOperand);
    std::vector<NodeId> Vers =
        newVersions(Objs, S.Index, 0, /*IsUnknown=*/true, NameLocs, S.Loc);
    for (NodeId V : Vers)
      for (NodeId Val : Vals)
        if (V != Val)
          G->addEdge(V, Val, EdgeKind::PropUnknown);
    break;
  }
  case StmtKind::Call:
    analyzeCall(S);
    break;
  case StmtKind::Return: {
    if (!CurrentFunction.empty()) {
      LocSet L = eval(S.Value);
      ReturnSummaries[CurrentFunction.back()].insertAll(L);
    }
    break;
  }
  case StmtKind::If: {
    // ρ̂_then ⊔ ρ̂_else, both branches starting from the same ρ̂. Without an
    // else-branch ρ̂_else = ρ̂, which joinLevel() joins back directly.
    Store.pushLevel();
    analyzeBlock(S.Then);
    if (S.Else.empty()) {
      Store.joinLevel();
      break;
    }
    AbstractStore::Branch Then = Store.undoLevel();
    Store.pushLevel();
    analyzeBlock(S.Else);
    Store.joinBranch(Then);
    break;
  }
  case StmtKind::While:
    fixpoint(S.Body);
    break;
  case StmtKind::Nop:
    break;
  }
}

//===----------------------------------------------------------------------===//
// Calls
//===----------------------------------------------------------------------===//

void MDGBuilder::analyzeCall(const core::Stmt &S) {
  LocSet CalleeLocs = eval(S.Callee);

  // Allocate (or reuse) the call node f_i.
  NodeId CallNode;
  auto It = CallAlloc.find(S.Index);
  if (It != CallAlloc.end()) {
    CallNode = It->second;
  } else {
    CallNode = G->addNode(NodeKind::Call, S.Index, S.Loc,
                          S.CalleeName.empty() ? "call" : S.CalleeName);
    Node &CN = G->node(CallNode);
    CN.CallName = S.CalleeName;
    CN.CallPath = S.CalleePath;
    CN.CallNameSym = Result->Props.intern(S.CalleeName);
    CN.CallPathSym = Result->Props.intern(S.CalleePath);
    CallAlloc[S.Index] = CallNode;
    Result->CallNodes.push_back(CallNode);
  }

  // Argument dependencies: every argument location flows into the call.
  std::vector<LocSet> ArgLocs;
  for (const Operand &A : S.Args) {
    LocSet L = eval(A);
    for (NodeId N : L)
      G->addEdge(N, CallNode, EdgeKind::Dep);
    ArgLocs.push_back(std::move(L));
  }
  {
    Node &CN = G->node(CallNode);
    if (CN.Args.size() < ArgLocs.size())
      CN.Args.resize(ArgLocs.size());
    for (size_t I = 0; I < ArgLocs.size(); ++I)
      for (NodeId N : ArgLocs[I])
        if (std::find(CN.Args[I].begin(), CN.Args[I].end(), N) ==
            CN.Args[I].end())
          CN.Args[I].push_back(N);
  }

  LocSet ReceiverLocs =
      S.Receiver.isVar() ? eval(S.Receiver) : LocSet();
  // A method call's result may derive from its receiver (`prop.split('.')`
  // returns data from `prop`), so the receiver flows into the call node.
  for (NodeId RL : ReceiverLocs)
    G->addEdge(RL, CallNode, EdgeKind::Dep);

  // Sanitizer barrier (§6): the result is a fresh, dependency-free value.
  if (!Options.Sanitizers.empty() &&
      (Options.Sanitizers.count(S.CalleeName) ||
       Options.Sanitizers.count(S.CalleePath))) {
    auto RIt = RetAlloc.find(S.Index);
    NodeId Ret = RIt != RetAlloc.end()
                     ? RIt->second
                     : (RetAlloc[S.Index] = G->addNode(
                            NodeKind::Object, S.Index, S.Loc, S.Target));
    Store.set(var(S.Target), Ret);
    return;
  }

  if (tryBuiltinCall(S, CallNode, ArgLocs, ReceiverLocs))
    return;

  // Return value: known callees contribute their return summaries; unknown
  // callees produce a value depending on the call node itself.
  LocSet RetLocs;
  bool AnyKnown = false;

  // `new F(...)`: the constructed object is the receiver of the callee.
  NodeId NewObj = InvalidNode;
  if (S.IsNew) {
    auto RIt = RetAlloc.find(S.Index);
    NewObj = RIt != RetAlloc.end()
                 ? RIt->second
                 : (RetAlloc[S.Index] = G->addNode(NodeKind::Object, S.Index,
                                                   S.Loc, S.Target));
    G->addEdge(CallNode, NewObj, EdgeKind::Dep);
    ReceiverLocs = {NewObj};
  }

  for (NodeId CL : CalleeLocs) {
    auto FIt = FuncOfNode.find(CL);
    if (FIt == FuncOfNode.end())
      continue;
    AnyKnown = true;
    analyzeFunctionInline(*FIt->second, ArgLocs, ReceiverLocs);
    const LocSet &Summary = ReturnSummaries[FIt->second->Name];
    RetLocs.insertAll(Summary);
  }

  if (S.IsNew) {
    Store.set(var(S.Target), NewObj);
  } else if (!AnyKnown || RetLocs.empty()) {
    auto RIt = RetAlloc.find(S.Index);
    NodeId Ret = RIt != RetAlloc.end()
                     ? RIt->second
                     : (RetAlloc[S.Index] = G->addNode(
                            NodeKind::Object, S.Index, S.Loc, S.Target));
    G->addEdge(CallNode, Ret, EdgeKind::Dep);
    RetLocs.insert(Ret);
    Store.set(var(S.Target), std::move(RetLocs));
  } else {
    Store.set(var(S.Target), std::move(RetLocs));
  }

  // Callback arguments: a function value passed to an unknown callee may be
  // invoked with attacker-influenced data only through the call node; we
  // additionally analyze locally-defined callbacks so their bodies appear
  // in the graph (their params depend on the call node).
  if (!AnyKnown) {
    for (size_t I = 0; I < ArgLocs.size(); ++I) {
      for (NodeId AL : ArgLocs[I]) {
        auto FIt = FuncOfNode.find(AL);
        if (FIt == FuncOfNode.end())
          continue;
        const core::Function &CB = *FIt->second;
        std::vector<LocSet> CBArgs;
        for (const std::string &Param : CB.Params) {
          std::string Key = CB.Name + ":" + Param;
          auto PIt = ParamAlloc.find(Key);
          NodeId P = PIt != ParamAlloc.end()
                         ? PIt->second
                         : (ParamAlloc[Key] = G->addNode(
                                NodeKind::Object, 0, CB.Loc, Param));
          G->addEdge(CallNode, P, EdgeKind::Dep);
          CBArgs.push_back({P});
        }
        analyzeFunctionInline(CB, CBArgs, {});
      }
    }
  }
}

bool MDGBuilder::tryBuiltinCall(const core::Stmt &S, NodeId CallNode,
                                const std::vector<LocSet> &ArgLocs,
                                const LocSet &ReceiverLocs) {
  const std::string &Path = S.CalleePath;
  const std::string &Name = S.CalleeName;

  // Every modeled builtin still materializes the unknown-call return node
  // with its D edge, so the abstraction function α stays aligned with the
  // concrete semantics (which tags builtin results through the call site).
  auto EnsureRet = [&]() {
    auto RIt = RetAlloc.find(S.Index);
    NodeId Ret = RIt != RetAlloc.end()
                     ? RIt->second
                     : (RetAlloc[S.Index] = G->addNode(
                            NodeKind::Object, S.Index, S.Loc, S.Target));
    G->addEdge(CallNode, Ret, EdgeKind::Dep);
    return Ret;
  };

  // Object.assign(target, ...sources): a merge. The target gets a new
  // version with unknown-property edges to every source's property
  // values — dynamic source keys may overwrite anything, which is
  // exactly the Object.assign pollution shape.
  if (Path == "Object.assign" && !ArgLocs.empty()) {
    LocSet SourceLocs;
    for (size_t I = 1; I < ArgLocs.size(); ++I)
      SourceLocs.insertAll(ArgLocs[I]);
    std::vector<NodeId> Vers = newVersions(
        ArgLocs[0], S.Index, 0, /*IsUnknown=*/true, SourceLocs, S.Loc);
    for (NodeId V : Vers) {
      for (NodeId Src : SourceLocs) {
        // Copy the sources' (unknown) property values into the target.
        std::vector<NodeId> Values = G->resolveUnknownProperty(Src);
        for (NodeId Val : Values)
          if (V != Val)
            G->addEdge(V, Val, EdgeKind::PropUnknown);
        if (V != Src)
          G->addEdge(Src, V, EdgeKind::Dep);
      }
    }
    EnsureRet();
    // Object.assign returns the target.
    Store.set(var(S.Target), LocSet(Vers.begin(), Vers.end()));
    return true;
  }

  // Object.create(proto) / Object.freeze(o): passthrough-ish results.
  if (Path == "Object.freeze" || Path == "Object.create") {
    if (!ArgLocs.empty() && !ArgLocs[0].empty()) {
      EnsureRet();
      Store.set(var(S.Target), ArgLocs[0]);
      return true;
    }
    return false;
  }

  // Mutating array methods: arr.push(x) etc. add elements — an
  // unknown-property update of the receiver with the argument values.
  if ((Name == "push" || Name == "unshift" || Name == "fill" ||
       Name == "splice") &&
      !ReceiverLocs.empty()) {
    LocSet Values;
    for (const LocSet &A : ArgLocs)
      Values.insertAll(A);
    if (Values.empty())
      return false;
    std::vector<NodeId> Vers = newVersions(ReceiverLocs, S.Index, 0,
                                           /*IsUnknown=*/true, {}, S.Loc);
    for (NodeId V : Vers)
      for (NodeId Val : Values)
        if (V != Val)
          G->addEdge(V, Val, EdgeKind::PropUnknown);
    // push returns the new length: a value derived from the call.
    Store.set(var(S.Target), EnsureRet());
    return true;
  }

  return false;
}

void MDGBuilder::analyzeFunctionInline(
    const core::Function &Fn, const std::vector<LocSet> &ArgLocs,
    const LocSet &ReceiverLocs) {
  // Bind parameters (weak join: different call sites accumulate). This
  // happens *before* the recursion check: a recursive call site must fold
  // its arguments into the parameters so the enclosing fixpoint re-analyzes
  // the body with them — deep-merge-style pollution (merge(target[key],
  // source[key])) is only visible on that second pass.
  for (size_t I = 0; I < Fn.Params.size(); ++I) {
    if (I < ArgLocs.size())
      Store.join(var(Fn.Params[I]), ArgLocs[I]);
    else
      Store.join(var(Fn.Params[I]), {});
  }
  if (!ReceiverLocs.empty())
    Store.join(var("this"), ReceiverLocs);

  // Recursion: rely on the current summary; the enclosing fixpoint loop
  // re-analyzes until the summary stabilizes.
  if (std::find(InlineStack.begin(), InlineStack.end(), Fn.Name) !=
      InlineStack.end())
    return;
  if (InlineStack.size() >= Options.MaxInlineDepth)
    return;

  InlineStack.push_back(Fn.Name);
  CurrentFunction.push_back(Fn.Name);

  // Analyze the body to a fixpoint: a second pass is cheap (allocations
  // are memoized) and makes direct recursion converge.
  fixpoint(Fn.Body);

  CurrentFunction.pop_back();
  InlineStack.pop_back();
}
