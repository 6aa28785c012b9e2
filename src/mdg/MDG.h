//===- mdg/MDG.h - Multiversion Dependency Graph ------------------*- C++ -*-==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Multiversion Dependency Graph (§3.1): nodes are abstract locations
/// (objects/values) and function calls; edges are labeled
///
///   τ ::= D | P(p) | P(*) | V(p) | V(*)
///
/// Dependency edges `l1 →D l2` mean l2 is computed from l1. Property edges
/// `obj →P(p) val` mean the object has property p holding val (P(*) when
/// the name is dynamic). Version edges `old →V(p) new` mean `new` is a
/// fresh version of `old` created by an update of p (V(*) when dynamic).
///
/// The same class also represents *concrete* MDGs (§3.3): the concrete
/// instrumented semantics simply never emits unknown-property edges and
/// keeps at most one P(p) target per (node, p).
///
/// MDGs form a lattice under edge-set inclusion; the analysis only ever
/// adds nodes and edges, so joins are implicit and `leq` is subset.
///
//===----------------------------------------------------------------------===//

#ifndef GJS_MDG_MDG_H
#define GJS_MDG_MDG_H

#include "support/SourceLocation.h"
#include "support/StringInterner.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace gjs {
namespace mdg {

/// Dense id of an abstract location / call node.
using NodeId = uint32_t;
constexpr NodeId InvalidNode = static_cast<NodeId>(-1);

enum class EdgeKind : uint8_t {
  Dep,            ///< D
  Prop,           ///< P(p), Prop carries the property symbol
  PropUnknown,    ///< P(*)
  Version,        ///< V(p)
  VersionUnknown, ///< V(*)
};

/// Renders an edge label like "D", "P(cmd)", "V(*)".
std::string edgeKindLabel(EdgeKind K);

struct Edge {
  NodeId From = InvalidNode;
  NodeId To = InvalidNode;
  EdgeKind Kind = EdgeKind::Dep;
  Symbol Prop = 0; ///< Interned property name for Prop/Version edges.

  bool operator==(const Edge &O) const = default;
};

enum class NodeKind : uint8_t {
  Object, ///< An object or primitive value computed by the program.
  Call,   ///< A function call f_i.
};

/// One MDG node. CallName/CallPath are set for call nodes; Args holds the
/// argument locations per position (the Arg_{f,n} traversal of Table 1).
struct Node {
  NodeKind Kind = NodeKind::Object;
  /// Allocation site (Core IR statement index); 0 for synthetic nodes.
  uint32_t Site = 0;
  /// Source line of the statement that created the node (sink reporting).
  SourceLocation Loc;
  /// Debug label, e.g. the variable name(s) that pointed here.
  std::string Label;
  /// True for parameters of exported functions — the taint sources.
  bool IsTaintSource = false;
  /// Call-node metadata.
  std::string CallName; ///< e.g. "exec"
  std::string CallPath; ///< e.g. "child_process.exec"
  /// CallName and CallPath interned in the build's property-name table
  /// (analysis::BuildResult::Props): what the graph-DB store reads.
  Symbol CallNameSym = 0;
  Symbol CallPathSym = 0;
  std::vector<std::vector<NodeId>> Args;
};

/// The Multiversion Dependency Graph.
class Graph {
public:
  Graph() = default;

  //===--------------------------------------------------------------------===//
  // Construction
  //===--------------------------------------------------------------------===//

  NodeId addNode(NodeKind Kind, uint32_t Site, SourceLocation Loc,
                 std::string Label = "");

  /// Adds an edge if not already present. Returns true when the graph grew
  /// (drives the fixpoint tests in while/recursion analysis). Out-of-range
  /// endpoints are rejected (returns false); the MDG checker lint pass
  /// diagnoses any that slip through construction.
  bool addEdge(NodeId From, NodeId To, EdgeKind Kind, Symbol Prop = 0);

  bool hasEdge(NodeId From, NodeId To, EdgeKind Kind, Symbol Prop = 0) const;

  //===--------------------------------------------------------------------===//
  // Access
  //===--------------------------------------------------------------------===//

  size_t numNodes() const { return Nodes.size(); }
  size_t numEdges() const { return NumEdgesTotal; }

  Node &node(NodeId Id) { return Nodes[Id]; }
  const Node &node(NodeId Id) const { return Nodes[Id]; }

  const std::vector<Edge> &out(NodeId Id) const { return OutEdges[Id]; }
  const std::vector<Edge> &in(NodeId Id) const { return InEdges[Id]; }

  /// All node ids, in allocation order.
  std::vector<NodeId> nodeIds() const;

  /// The ids of the nodes of kind \p K, ascending (kept as nodes are added).
  const std::vector<NodeId> &nodesOfKind(NodeKind K) const {
    return K == NodeKind::Call ? CallIds : ObjectIds;
  }

  /// Monotone-growth revision counter: bumped on every new node or edge.
  /// Fixpoint loops compare revisions instead of whole graphs.
  uint64_t revision() const { return Revision; }

  //===--------------------------------------------------------------------===//
  // Version-chain and property resolution (ĝ[l, p], §3.1)
  //===--------------------------------------------------------------------===//

  /// All versions reachable backwards through V edges, including \p L.
  std::vector<NodeId> versionAncestors(NodeId L) const;

  /// The oldest version(s) of \p L (no incoming V edge within the chain).
  std::vector<NodeId> oldestVersions(NodeId L) const;

  /// True if \p Anc is a strict version ancestor of \p N.
  bool isVersionAncestor(NodeId Anc, NodeId N) const;

  /// Direct P(p) targets of \p L.
  std::vector<NodeId> propTargets(NodeId L, Symbol P) const;
  /// Direct P(*) targets of \p L.
  std::vector<NodeId> unknownPropTargets(NodeId L) const;

  /// Resolves ĝ[L, p]: the set of locations property \p P of \p L may hold.
  /// Walks the version chain: the newest version(s) defining P(p)
  /// contribute their targets, and P(*) edges on strictly newer versions
  /// contribute theirs (they may have overwritten p). Returns empty when no
  /// version defines the property (the analysis then lazily creates it).
  std::vector<NodeId> resolveProperty(NodeId L, Symbol P) const;

  /// Resolves a dynamic lookup ĝ[L, *]: all P(*) targets plus all known
  /// property targets across the version chain (a dynamic name may alias
  /// any property).
  std::vector<NodeId> resolveUnknownProperty(NodeId L) const;

  //===--------------------------------------------------------------------===//
  // Lattice and diagnostics
  //===--------------------------------------------------------------------===//

  /// Subset inclusion on edges (ĝ1 ⊑ ĝ2). Node ids must be comparable,
  /// i.e. both graphs built by the same (deterministic) allocator.
  static bool leq(const Graph &G1, const Graph &G2);

  /// Human-readable dump: one line per edge.
  std::string dump(const StringInterner &Names) const;

  /// GraphViz dot rendering (the Figure 1c / Figure 9 pictures): objects
  /// as ellipses, calls as boxes, taint sources shaded, edges labeled
  /// with their τ (version edges dashed).
  std::string toDot(const StringInterner &Names) const;

  /// The §6 discussion's "collapsing the multiversion graph to include
  /// only the latest version would yield the regular object graph":
  /// merges every version chain into its newest version(s), redirecting
  /// D/P edges onto the representatives and dropping V edges. Property
  /// edges keep newest-wins shadowing (a P(p) from an older version is
  /// dropped when a newer version redefines p). Useful for rendering and
  /// for comparing against classic object-graph analyses.
  Graph collapseVersions() const;

private:
  std::vector<Node> Nodes;
  std::vector<NodeId> ObjectIds, CallIds;
  std::vector<std::vector<Edge>> OutEdges;
  std::vector<std::vector<Edge>> InEdges;

  /// The edge set behind addEdge's duplicate check: open addressing with
  /// linear probing, a power-of-two table at most half full, and empty
  /// slots marked by From == InvalidNode (never a valid endpoint). One
  /// flat array instead of a heap node per edge; re-analysis probes every
  /// edge of a converged loop body again, so most probes are hits.
  class EdgeTable {
  public:
    /// Inserts \p E; false when it was already present.
    bool insert(const Edge &E);
    bool contains(const Edge &E) const;

  private:
    std::vector<Edge> Slots;
    size_t Size = 0;
    unsigned Shift = 64; ///< Slot index = hash >> Shift.
    size_t slotOf(const Edge &E) const;
  };
  EdgeTable EdgeSet;
  size_t NumEdgesTotal = 0;
  uint64_t Revision = 0;
};

} // namespace mdg
} // namespace gjs

#endif // GJS_MDG_MDG_H
