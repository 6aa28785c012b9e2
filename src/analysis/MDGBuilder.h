//===- analysis/MDGBuilder.h - Abstract MDG construction ---------*- C++ -*-==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's primary contribution: the abstract analysis
/// A(s, ĝ, ρ̂) = (ĝ', ρ̂') of §3.2 that builds a Multiversion Dependency
/// Graph from a Core JavaScript program by forward abstract execution.
///
/// Key properties implemented here:
///
///  - **Allocation-site abstraction**: alloc(i, ĝ) always returns the same
///    abstract location for the same statement index i, so objects created
///    in loops reuse one node — no object explosion, MDGs grow linearly in
///    LoC (§5.4, Table 7).
///
///  - **Versioning (NV/NV*)**: property updates create new versions linked
///    by V(p)/V(*) edges, rewriting all store bindings of the old version.
///    Version allocation is memoized on (statement, old version), which is
///    what makes loop bodies reach a fixpoint (the §5.5 case study).
///
///  - **Lazy properties (AP/AP*)**: property lookups materialize P(p)/P(*)
///    edges on demand — known properties on the *oldest* version ("it
///    existed from the beginning", Fig. 1 line 7), unknown properties on
///    the looked-up version with D edges from the dynamic name's locations.
///
///  - **Summary fixpoints** for while loops and recursive calls: the body
///    is re-analyzed until the (graph revision, store) pair stabilizes.
///
///  - **Bounded interprocedural inlining** with per-call-site call nodes:
///    every call allocates a call node f_i with D edges from every argument
///    location (the sink anchors of the Table 2 queries); calls to known
///    functions additionally analyze the callee with parameters bound.
///
/// A work budget models the paper's 5-minute analysis timeout.
///
//===----------------------------------------------------------------------===//

#ifndef GJS_ANALYSIS_MDGBUILDER_H
#define GJS_ANALYSIS_MDGBUILDER_H

#include "core/CoreIR.h"
#include "mdg/AbstractStore.h"
#include "mdg/MDG.h"
#include "support/StringInterner.h"

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace gjs {

class Deadline;

namespace analysis {

/// Tuning knobs for the analysis.
struct BuilderOptions {
  /// Maximum interprocedural inlining depth.
  unsigned MaxInlineDepth = 6;
  /// Safety cap on fixpoint iterations for loops/recursion.
  unsigned MaxFixpointIters = 64;
  /// Abstract work budget (statements analyzed); 0 = unlimited. Models the
  /// evaluation's per-package timeout.
  uint64_t WorkBudget = 0;
  /// Optional scan-level cancellation token (non-owning): the per-package
  /// deadline shared by every pipeline phase. Checkpointed once per
  /// abstract statement; on expiry the build aborts with the partial graph
  /// (BuildResult::TimedOut is set, as for WorkBudget exhaustion).
  Deadline *ScanDeadline = nullptr;
  /// Treat every top-level function as an entry point when the module has
  /// no recognizable exports.
  bool FallbackAllFunctionsExported = true;
  /// The paper's "single node per allocation site" rule for versions
  /// (§3.2/§5.5). Disabling it keys versions by (site, old version) —
  /// the ablation that reintroduces version-chain growth in loops.
  bool SiteVersionReuse = true;
  /// User-declared sanitizer functions (§6): calls whose syntactic name
  /// or dotted path appears here are taint barriers — their results carry
  /// no dependencies, and known callees are not inlined. This is a
  /// user-supplied unsoundness, as in every taint tool.
  std::set<std::string> Sanitizers;
};

/// The abstraction function α's backing tables: how abstract locations were
/// allocated. The concrete interpreter tags its locations with the same
/// keys, so the soundness property tests (Thm 3.2 / Def 3.1) can map every
/// concrete location to its abstract counterpart deterministically.
struct AllocationTables {
  std::map<core::StmtIndex, mdg::NodeId> Site;        ///< {}_i, ⊕_i, fn_i
  std::map<core::StmtIndex, mdg::NodeId> Version;     ///< NV/NV* results
  std::map<core::StmtIndex, mdg::NodeId> Value;       ///< literal RHS values
  std::map<std::pair<core::StmtIndex, Symbol>, mdg::NodeId> Prop; ///< AP
  std::map<core::StmtIndex, mdg::NodeId> UnknownProp; ///< AP*
  std::map<core::StmtIndex, mdg::NodeId> Call;        ///< f_i
  std::map<core::StmtIndex, mdg::NodeId> Ret;         ///< unknown-call results
  std::map<std::string, mdg::NodeId> Global;          ///< unbound variables
  std::map<std::string, mdg::NodeId> Param;           ///< "fn:param"
};

/// The constructed MDG plus the side tables queries need.
struct BuildResult {
  mdg::Graph Graph;
  /// Interner for property names referenced by edges.
  StringInterner Props;
  /// Parameter nodes of exported functions — the taint sources.
  std::vector<mdg::NodeId> TaintSources;
  /// All call nodes, in creation order.
  std::vector<mdg::NodeId> CallNodes;
  /// True when the work budget was exhausted before completion.
  bool TimedOut = false;
  /// Abstract statements processed (analysis effort metric).
  uint64_t WorkDone = 0;
  /// Fixpoint passes over while-loop and function bodies.
  uint64_t FixpointIters = 0;
  /// The most variables any one abstract store bound (the store width).
  size_t StoreVarsPeak = 0;
  /// Allocation tables backing the abstraction function α.
  AllocationTables Alloc;
  /// Function-definition nodes by core function name (call-graph lint
  /// cross-checks resolved edges against these live MDG nodes).
  std::map<std::string, mdg::NodeId> FunctionNodes;
};

struct ModuleLinkInfo; // CallGraph.h

/// One module of a multi-file package, for linked analysis.
struct PackageModule {
  std::string Name; ///< File name, e.g. "helpers.js".
  const core::Program *Program = nullptr;
  /// Owning package for dependency-tree scans ("" = the sole package).
  std::string Pkg;
  /// True for a package's main module: a bare `require('pkg')` from any
  /// other package resolves to this module's exports object.
  bool IsMain = false;
};

/// Builds the MDG of a normalized Core JavaScript program.
class MDGBuilder {
public:
  explicit MDGBuilder(BuilderOptions Options = {});

  BuildResult build(const core::Program &Program);

  /// Package-level linked analysis: every module's top level is analyzed
  /// into ONE shared graph; a `require('./helpers')` resolves to the
  /// exports object of helpers.js (an Object node with P(name) edges to
  /// the exported function values), so taint flows across files. Modules
  /// should be ordered dependencies-first (the scanner topo-sorts); an
  /// unresolved require degrades to the single-file fresh-object
  /// behavior. Entry points are the union of all modules' exports.
  ///
  /// With \p Link (a flattened dependency tree, see PackageGraph), exports
  /// objects are registered under package-qualified keys: a bare require
  /// resolves to the named package's main module, a relative require stays
  /// within the requiring module's own package, and names in
  /// Link->ForceUnresolved keep the fresh-object degradation (the
  /// cross-package soundness valve).
  BuildResult buildPackage(const std::vector<PackageModule> &Modules,
                           const ModuleLinkInfo *Link = nullptr);

private:
  BuilderOptions Options;
  const core::Program *Prog = nullptr;
  BuildResult *Result = nullptr;
  mdg::Graph *G = nullptr;
  mdg::AbstractStore Store;
  /// Variable names -> store ids.
  StringInterner VarNames;
  mdg::VarId var(const std::string &Name) { return VarNames.intern(Name); }

  //===--------------------------------------------------------------------===//
  // Memoized allocators (the alloc(i, ĝ) of [NEW OBJECT])
  //===--------------------------------------------------------------------===//

  std::map<core::StmtIndex, mdg::NodeId> SiteAlloc;
  /// One version node per update site — the paper's "single node per
  /// allocation site" rule, which is what bounds the graph and lets loop
  /// analysis reach a fixpoint (§5.5's cyclic representation).
  std::map<core::StmtIndex, mdg::NodeId> VersionAlloc;
  /// Ablated allocator (SiteVersionReuse = false): versions keyed by
  /// (site, old version) — chains grow per loop iteration.
  std::map<std::pair<core::StmtIndex, mdg::NodeId>, mdg::NodeId>
      VersionAllocAblated;
  /// Fresh value nodes for literal RHSs of updates (Fig. 1 line 6's o8).
  std::map<core::StmtIndex, mdg::NodeId> ValueAlloc;
  /// Lazily-created property nodes, keyed by *lookup site* (not by owner):
  /// `obj = obj.next` / `obj = obj[p]` in a loop must fold back onto one
  /// node per site or the abstract object tree grows without bound.
  std::map<std::pair<core::StmtIndex, Symbol>, mdg::NodeId> PropAlloc;
  std::map<core::StmtIndex, mdg::NodeId> UnknownPropAlloc;
  std::map<core::StmtIndex, mdg::NodeId> CallAlloc;
  std::map<core::StmtIndex, mdg::NodeId> RetAlloc;
  std::map<std::string, mdg::NodeId> GlobalAlloc;
  std::map<std::string, mdg::NodeId> ParamAlloc; // key: "fn:param"

  /// Function value node -> core function (call resolution).
  std::map<mdg::NodeId, const core::Function *> FuncOfNode;
  /// Core function name -> its function-value node (export linking).
  std::map<std::string, mdg::NodeId> FuncNodeByName;
  /// Normalized module stem -> exports object node (package linking).
  /// Dependency-tree builds use package-qualified keys instead (see
  /// exportKey in MDGBuilder.cpp) so same-stem files in two packages
  /// cannot cross-link.
  std::map<std::string, mdg::NodeId> ModuleExports;
  /// Cross-package link context (null outside dependency-tree builds).
  const ModuleLinkInfo *PkgLink = nullptr;
  /// Package owning the module currently being analyzed.
  std::string CurPkg;

  /// Resolves a require target to a registered exports object, honoring
  /// the package-qualified key scheme and the ForceUnresolved valve.
  /// Returns mdg::InvalidNode when the require must stay unresolved.
  mdg::NodeId lookupModuleExports(const std::string &RequireModule);

  /// Inline stack (function names) for recursion detection.
  std::vector<std::string> InlineStack;
  /// Return-location summaries per function (grow monotonically).
  std::map<std::string, mdg::LocSet> ReturnSummaries;
  /// Name of the function whose body is being analyzed (return binding).
  std::vector<std::string> CurrentFunction;

  uint64_t Work = 0;
  uint64_t FixpointIters = 0;
  size_t StoreVarsPeak = 0;
  bool Aborted = false;

  //===--------------------------------------------------------------------===//
  // Core analysis
  //===--------------------------------------------------------------------===//

  void analyzeBlock(const std::vector<core::StmtPtr> &Block);
  void analyzeStmt(const core::Stmt &S);

  void analyzeCall(const core::Stmt &S);
  void analyzeFunctionInline(const core::Function &Fn,
                             const std::vector<mdg::LocSet> &ArgLocs,
                             const mdg::LocSet &ReceiverLocs);

  /// Models well-known builtins with dedicated summaries instead of the
  /// generic unknown-call treatment: `Object.assign` (a merge — the
  /// classic pollution vector), `Object.create`/`freeze` (passthrough),
  /// and the mutating array methods (`push`/`unshift`/`fill`/`splice`).
  /// Returns true when the call was fully handled (target bound).
  bool tryBuiltinCall(const core::Stmt &S, mdg::NodeId CallNode,
                      const std::vector<mdg::LocSet> &ArgLocs,
                      const mdg::LocSet &ReceiverLocs);

  /// Runs \p Body to a (graph, store) fixpoint.
  void fixpoint(const std::vector<core::StmtPtr> &Body);

  //===--------------------------------------------------------------------===//
  // Helpers
  //===--------------------------------------------------------------------===//

  /// Locations of an operand. Unbound variables are bound to fresh global
  /// object nodes; literals evaluate to the empty set.
  mdg::LocSet eval(const core::Operand &O);
  /// Like eval, but guarantees a nonempty result by allocating a fresh
  /// value node at \p Site for literal operands.
  mdg::LocSet evalValue(const core::Operand &O, core::StmtIndex Site,
                        SourceLocation Loc);

  mdg::NodeId allocAtSite(core::StmtIndex Site, SourceLocation Loc,
                          const std::string &Label);

  /// ĝ[l, p] with lazy AP on the oldest version when undefined.
  mdg::LocSet ensureProperty(mdg::NodeId L, Symbol P, core::StmtIndex Site,
                             SourceLocation Loc);
  /// AP*: ensures an unknown-property node on \p L, wiring D edges from the
  /// dynamic name's locations, then resolves across the version chain.
  mdg::LocSet ensureUnknownProperty(mdg::NodeId L,
                                    const mdg::LocSet &NameLocs,
                                    core::StmtIndex Site, SourceLocation Loc);

  /// NV / NV*: creates new versions of every location in \p Objs due to an
  /// update of property \p P (or an unknown property when IsUnknown), and
  /// rewrites the store. Returns the new version for each input location.
  std::vector<mdg::NodeId> newVersions(const mdg::LocSet &Objs,
                                       core::StmtIndex Site, Symbol P,
                                       bool IsUnknown,
                                       const mdg::LocSet &NameLocs,
                                       SourceLocation Loc);

  bool budgetExceeded();
  /// Folds the current store's width into StoreVarsPeak. Bindings are
  /// never removed outside an if-branch undo, so a store is widest when
  /// its module's analysis ends.
  void noteStoreWidth();
  void markEntryPoints();
  /// Fills \p R's summary fields and moves the allocation tables into it;
  /// the builder's own tables are left empty.
  void finalize(BuildResult &R);
};

/// Convenience: linked package analysis (see MDGBuilder::buildPackage).
BuildResult buildPackageMDG(const std::vector<PackageModule> &Modules,
                            BuilderOptions O = {},
                            const ModuleLinkInfo *Link = nullptr);

/// Convenience: normalize + build in one call.
BuildResult buildMDG(const core::Program &Program, BuilderOptions O = {});

} // namespace analysis
} // namespace gjs

#endif // GJS_ANALYSIS_MDGBUILDER_H
