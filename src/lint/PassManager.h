//===- lint/PassManager.h - Static validation pass manager -------*- C++ -*-==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static validation subsystem (`graphjs lint`): a lightweight pass
/// manager running check passes over the pipeline's artifacts. Six pass
/// families ship by default:
///
///  - **ir-verify** — post-Normalizer Core IR invariants (temporaries
///    defined before use, single-assignment temporaries, well-formed
///    function/export registries, unique allocation-site indices) plus
///    orphaned-CFG-block detection.
///
///  - **async** — async-lowering well-formedness (core/AsyncLower.h):
///    every await suspend has a matching resume join, reaction calls
///    target variables (with a note for handlers left to the call graph's
///    UnresolvedCallback soundness valve), and no promise allocation is
///    orphaned (see docs/ASYNC.md).
///
///  - **mdg-check** — MDG well-formedness over any built graph: edge
///    endpoints in range, adjacency-list/edge-set consistency, property
///    symbols present exactly on P/V edges, call-argument D edges, taint
///    flags consistent with the builder's source list, and version-chain
///    shape notes.
///
///  - **query-schema** — every query (the built-in Table 2 queries and any
///    ad-hoc text) linted against the machine-readable import schema
///    (`graphdb::mdgSchema()`): unknown labels/relationship types/property
///    keys, unsatisfiable hop bounds, unused bindings, unbound variables.
///
///  - **callgraph** — the call graph's and taint summaries' invariants:
///    resolved call edges target live functions (cross-checked against the
///    MDG's function nodes), summary masks stay inside each function's
///    parameter bits, and the SCC order is a valid reverse-topological
///    cover (see docs/CALLGRAPH.md).
///
///  - **pkggraph** — dependency-tree invariants for cross-package scans:
///    dangling inter-package edges (declared dependencies that are missing
///    or unanalyzable), dependency-cycle reports, and per-package summary
///    schema/version mismatches (see docs/DEPENDENCIES.md).
///
/// Each pass reads what it needs from a LintContext and appends findings;
/// passes never mutate artifacts and tolerate missing context (a pass with
/// nothing to check is a no-op), so the same manager serves the CLI, the
/// scanner's SelfCheck mode, and tests.
///
//===----------------------------------------------------------------------===//

#ifndef GJS_LINT_PASSMANAGER_H
#define GJS_LINT_PASSMANAGER_H

#include "lint/Finding.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace gjs {

namespace core {
struct Program;
}
namespace cfg {
struct ModuleCFG;
}
namespace analysis {
struct BuildResult;
class PackageGraph;
}
namespace queries {
class SinkConfig;
}

namespace lint {

/// What a lint run may look at. All pointers optional; a pass skips
/// artifacts that are absent.
struct LintContext {
  const core::Program *Program = nullptr;      ///< Normalized Core IR.
  const cfg::ModuleCFG *CFG = nullptr;         ///< CFGs of the parsed AST.
  const analysis::BuildResult *Build = nullptr; ///< Constructed MDG.
  /// Sink configuration whose instantiated Table 2 queries get linted.
  const queries::SinkConfig *Sinks = nullptr;
  /// Additional ad-hoc query texts to lint (e.g. `graphjs lint --query`).
  std::vector<std::string> ExtraQueries;
  /// All normalized modules of a package (with parallel module stems) for
  /// the call-graph checker; when empty it falls back to Program alone.
  std::vector<const core::Program *> Programs;
  std::vector<std::string> Stems;
  /// Dependency tree for the pkggraph checker (dependency-tree scans).
  const analysis::PackageGraph *Packages = nullptr;
  /// Per-package summary JSON blobs to validate against the current
  /// schema/tree, as (origin label, JSON text) pairs.
  std::vector<std::pair<std::string, std::string>> PackageSummaries;
};

/// One validation pass.
class Pass {
public:
  virtual ~Pass() = default;
  virtual const char *name() const = 0;
  virtual void run(const LintContext &Ctx, LintResult &Out) = 0;
};

/// Runs passes in registration order over one context.
class PassManager {
public:
  void addPass(std::unique_ptr<Pass> P) { Passes.push_back(std::move(P)); }
  LintResult run(const LintContext &Ctx) const;

  /// The standard pipeline: ir-verify, async, mdg-check, query-schema,
  /// callgraph, pkggraph.
  static PassManager standard();

private:
  std::vector<std::unique_ptr<Pass>> Passes;
};

/// Pass factories (registered by PassManager::standard; individually
/// constructible for targeted checking, e.g. the scanner's SelfCheck mode
/// runs only the MDG checker).
std::unique_ptr<Pass> createIRVerifierPass();
std::unique_ptr<Pass> createAsyncPass();
std::unique_ptr<Pass> createMDGCheckPass();
std::unique_ptr<Pass> createQuerySchemaPass();
std::unique_ptr<Pass> createCallGraphPass();
std::unique_ptr<Pass> createPkgGraphPass();

} // namespace lint
} // namespace gjs

#endif // GJS_LINT_PASSMANAGER_H
