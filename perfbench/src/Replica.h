//===- perfbench/src/Replica.h - Layer-by-layer traced scan ------*- C++ -*-==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's replica of Scanner::scanPackage: it calls each layer's
/// public entry point in the order the scanner does (parseJS, Normalizer +
/// lowerAsync, CallGraph::build + computeSummaries + decidePruning,
/// buildMDG / MDGBuilder::buildPackage, the GraphDBRunner constructor, and
/// detectTaintStyle / detectPrototypePollution per enabled class), wrapping
/// every call in a span of the benchmark's own obs::TraceRecorder. It also
/// runs detectNative on the same graph, outside the replicated pipeline, as
/// the backend-agreement check.
///
/// The replica covers the default ScanOptions path only: no deadline, no
/// fault plan, no dependency-tree link. The benchmark proves it is the real
/// pipeline by requiring the exact report set Scanner::scanPackage returns
/// for every package.
///
//===----------------------------------------------------------------------===//

#ifndef GJS_PERFBENCH_REPLICA_H
#define GJS_PERFBENCH_REPLICA_H

#include "obs/Trace.h"
#include "scanner/Scanner.h"

#include <map>

namespace gjs {
namespace perfbench {

/// Per-package layer accounting. Times are seconds of span self time.
struct LayerSample {
  std::map<std::string, double> SelfSeconds; ///< keyed by span name
  uint64_t AstNodes = 0, CoreStmts = 0, AwaitsLowered = 0;
  unsigned ClassesPruned = 0;
  bool ImportSkipped = false;
  uint64_t MDGNodes = 0, MDGEdges = 0, BuildWork = 0;
  uint64_t DbRels = 0, QueryWork = 0;
  std::vector<queries::VulnReport> Reports; ///< the replicated pipeline's
  std::vector<queries::VulnReport> Native;  ///< detectNative, same mask
};

/// Span names of the replicated pipeline's layer calls (everything the
/// scanner runs except its own glue). "queries.native" and the scanner glue
/// spans ("scanner.order", "scanner.validate") are recorded too but are not
/// layer calls.
const std::vector<std::string> &layerSpanNames();

/// Scans one package layer by layer under \p Trace.
LayerSample replicaScan(const std::vector<scanner::SourceFile> &Files,
                        const scanner::ScanOptions &Cfg,
                        obs::TraceRecorder &Trace, const std::string &Name);

/// Self time of the scanner itself in one Scanner::scanPackage run traced
/// through ScanOptions::Trace: the package span minus the phase spans under
/// its attempts (ladder, query validation, module ordering, accounting).
double scannerSelfSeconds(const obs::TraceRecorder &Trace, size_t FirstSpan);

} // namespace perfbench
} // namespace gjs

#endif // GJS_PERFBENCH_REPLICA_H
