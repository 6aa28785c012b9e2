//===- analysis/CallGraph.h - Static call graph over Core IR -----*- C++ -*-==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A static call graph extracted from normalized Core IR, mirroring the
/// resolution power of the MDG builder's store-based inlining: direct
/// calls through locally function-bound variables, copy chains, and
/// cross-module calls through sibling `module.exports` objects resolve
/// to definitions; everything the builder *could* resolve but this pass
/// cannot lands in an explicit `Unresolved` bucket so the taint summaries
/// and pruning decision (TaintSummary.h) stay sound. Calls into host builtins
/// and non-sibling requires are `External`: the builder models them as
/// unknown calls whose result depends only on their inputs.
///
/// The graph also tracks exported entry points (the same per-module
/// `module.exports` rule as MDGBuilder::markEntryPoints, including the
/// fallback-all-functions mode) and function values that escape into
/// the heap or into call arguments — escaped functions may be invoked
/// by code we cannot see, so they are treated as additional roots.
///
//===----------------------------------------------------------------------===//

#ifndef GJS_ANALYSIS_CALLGRAPH_H
#define GJS_ANALYSIS_CALLGRAPH_H

#include "core/CoreIR.h"

#include <map>
#include <set>
#include <string>
#include <vector>

namespace gjs {
namespace analysis {

using FuncId = unsigned;
constexpr FuncId InvalidFuncId = ~0u;

/// How a call site's callee was classified.
enum class CalleeKind {
  /// Every possible callee is a known function definition (Targets).
  Resolved,
  /// A host builtin or non-sibling require: the MDG builder treats the
  /// call as unknown (result depends on inputs only), so no user code
  /// runs behind it. Function-valued arguments become callback roots.
  External,
  /// The builder's store-based resolution might reach user code we
  /// cannot name (method calls, escaped functions, dynamic callees).
  Unresolved,
};

const char *calleeKindName(CalleeKind K);

/// Cross-package linking context for a flattened dependency-tree build
/// (produced by PackageGraph::flatten; see docs/DEPENDENCIES.md). The
/// vectors are parallel to the Modules/Stems build inputs. When absent,
/// resolution falls back to the single-package sibling-stem rule.
struct ModuleLinkInfo {
  /// Owning package name per module ("" for unowned modules).
  std::vector<std::string> PkgOf;
  /// Package name -> index of that package's main module. Bare requires
  /// of a package name resolve through this map.
  std::map<std::string, size_t> MainModuleOf;
  /// Require targets that must classify as Unresolved: dependencies that
  /// are declared but missing, unparseable, or partially parsed. This is
  /// the cross-package soundness valve — code we cannot see could do
  /// anything, so no query touching it may be pruned.
  std::set<std::string> ForceUnresolved;

  bool empty() const {
    return PkgOf.empty() && MainModuleOf.empty() && ForceUnresolved.empty();
  }
};

/// One call statement, attributed to its enclosing function.
struct CallSite {
  core::StmtIndex Index = 0;
  SourceLocation Loc;
  std::string CalleeName; ///< syntactic name (`exec`, `push`, ...)
  std::string CalleePath; ///< alias-resolved path (`child_process.exec`)
  CalleeKind Kind = CalleeKind::Unresolved;
  std::vector<FuncId> Targets;      ///< Resolved: candidate definitions
  std::vector<FuncId> CallbackArgs; ///< function values passed as args
  FuncId Caller = InvalidFuncId;
  unsigned NumArgs = 0;
  bool IsNew = false;
  /// A promise-reaction/executor invocation synthesized by the async
  /// lowering (core/AsyncLower.h). Resolved reactions are registered
  /// callbacks bound to a real callee; unresolved ones fall under the
  /// UnresolvedCallback soundness valve (see numUnresolvedCallbacks).
  bool IsReaction = false;
};

/// A call-graph node: a function definition or a per-module top level.
struct CGFunction {
  std::string Name;
  const core::Function *Fn = nullptr; ///< null for module top levels
  size_t ModuleIndex = 0;
  bool IsEntry = false;    ///< exported per the markEntryPoints rule
  bool IsToplevel = false; ///< module initialization pseudo-function
  bool IsEscaped = false;  ///< value stored to heap / passed as argument
  std::vector<size_t> Sites; ///< indices into CallGraph::sites()
  /// Names this function reads that are not bound locally (free reads:
  /// closure captures and module/global state).
  std::vector<std::string> FreeReads;
  /// Locals (including params) of this function captured by a nested
  /// function — writes to these are visible beyond this activation.
  std::vector<std::string> CapturedLocals;
};

class CallGraph {
public:
  /// Builds the call graph for a package. Modules and Stems are parallel
  /// (Stems as produced by the scanner: file stem per module). The
  /// fallback flag must match BuilderOptions::FallbackAllFunctionsExported
  /// for the entry sets to agree. With \p Link, inter-package `require`
  /// edges resolve to the exporting package's functions: bare requires go
  /// through Link->MainModuleOf, relative requires stay within the owning
  /// package, and names in Link->ForceUnresolved classify as Unresolved
  /// (the cross-package soundness valve).
  static CallGraph build(const std::vector<const core::Program *> &Modules,
                         const std::vector<std::string> &Stems,
                         bool FallbackAllFunctionsExported = true,
                         const ModuleLinkInfo *Link = nullptr);

  /// Single-module convenience overload.
  static CallGraph build(const core::Program &Prog,
                         bool FallbackAllFunctionsExported = true);

  const std::vector<CGFunction> &functions() const { return Funcs; }
  const std::vector<CallSite> &sites() const { return Sites; }

  FuncId functionByName(const std::string &Name) const;

  /// Strongly connected components of the resolved call relation, in
  /// reverse topological order over the condensation: every resolved
  /// call from a function in SCC i lands in SCC j <= i, so a bottom-up
  /// summary pass can walk the list front to back.
  const std::vector<std::vector<FuncId>> &sccOrder() const { return SCCs; }

  /// Entry functions (exported API) in registration order.
  std::vector<FuncId> entryFunctions() const;

  /// Functions reachable from the roots (entries, module top levels,
  /// escaped functions) over resolved and callback edges.
  std::vector<bool> reachableFromRoots() const;

  size_t numResolvedEdges() const;
  size_t numExternalSites() const;
  size_t numUnresolvedSites() const;
  /// Reaction/executor sites from the async lowering (CallSite::IsReaction).
  size_t numReactionSites() const;
  /// The UnresolvedCallback soundness valve's population: function values
  /// handed to call sites we could not resolve (callback registrations
  /// whose invocation we cannot see). Each keeps its function reachable
  /// and blocks pruning on paths through the site.
  size_t numUnresolvedCallbacks() const;

  /// True if any function value escapes into the heap or a call
  /// argument (limits how confidently unresolved callees can be ruled
  /// out — see TaintSummary.cpp's soundness argument).
  bool anyFunctionEscapes() const { return AnyEscape; }

  std::string dumpText() const;
  std::string toDot() const;

private:
  std::vector<CGFunction> Funcs;
  std::vector<CallSite> Sites;
  std::vector<std::vector<FuncId>> SCCs;
  std::map<std::string, FuncId> ByName;
  bool AnyEscape = false;

  friend class CallGraphBuilder;
  void computeSCCs();
};

} // namespace analysis
} // namespace gjs

#endif // GJS_ANALYSIS_CALLGRAPH_H
