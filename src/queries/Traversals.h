//===- queries/Traversals.h - Table 1 base graph traversals ------*- C++ -*-==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Native implementations of the paper's base graph traversals (Table 1):
///
///   BasicPath    — any D/P/V-edge path between two locations
///   UntaintedPath— a path containing V(p) ... P(p): the tainted property
///                  was overwritten, so taint does not flow through
///   TaintPath    — BasicPath \ UntaintedPath
///   Arg_{f,n}    — the n-th argument locations of a call node
///   ObjLookup*   — o1 -P(*)-> o2
///   ObjAssignment* — o2 -V(*)-> o3 -P(*)-> o4
///
/// TaintPath is computed with a path-sensitive DFS whose state carries the
/// set of properties overwritten so far (V(p) edges add to it, P(p) edges
/// with p in the set are pruned). States are memoized per node with
/// subset-subsumption, so the search stays polynomial on real MDGs.
///
/// These native traversals serve three roles: cross-validation oracle for
/// the query-engine results, the scanner's partial-results fallback, and
/// the reference the ODGen baseline's traversals are compared against.
///
//===----------------------------------------------------------------------===//

#ifndef GJS_QUERIES_TRAVERSALS_H
#define GJS_QUERIES_TRAVERSALS_H

#include "mdg/MDG.h"
#include "support/StringInterner.h"

#include <set>
#include <vector>

namespace gjs {
namespace queries {

/// Table 1 traversals over one MDG.
class Traversals {
public:
  explicit Traversals(const mdg::Graph &G) : G(G) {}

  /// All nodes reachable from \p Src via a *tainted* path (TaintPath^s).
  std::set<mdg::NodeId> taintReachable(mdg::NodeId Src) const;

  /// TaintPath_{s,n}: is there a tainted path Src → Dst (including the
  /// trivial 0-length path when Src == Dst)?
  bool taintPathExists(mdg::NodeId Src, mdg::NodeId Dst) const;

  /// BasicPath reachability (no untainted-path exclusion).
  bool basicPathExists(mdg::NodeId Src, mdg::NodeId Dst) const;

  /// ObjLookup*: all (object, subObject) pairs linked by a P(*) edge.
  std::vector<std::pair<mdg::NodeId, mdg::NodeId>> objLookupStar() const;

  /// ObjAssignment* anchored at \p Sub: (version, value) pairs from
  /// Sub -V(*)-> version -P(*)-> value.
  std::vector<std::pair<mdg::NodeId, mdg::NodeId>>
  objAssignmentStar(mdg::NodeId Sub) const;

private:
  const mdg::Graph &G;
};

} // namespace queries
} // namespace gjs

#endif // GJS_QUERIES_TRAVERSALS_H
