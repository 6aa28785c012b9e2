//===- graphdb/PropertyGraph.h - Labeled property graph ----------*- C++ -*-==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An in-memory labeled property graph — the storage model of the graph
/// database that stands in for Neo4j (§4: "Graph.js ... stores [the MDG]
/// in a Neo4j graph database" and queries it with Cypher).
///
/// Nodes carry one label (e.g. "Object", "Call") and string properties;
/// relationships carry a type (e.g. "D", "P", "V") and string properties.
/// Every string — label, type, property key and value — is interned once
/// in the store's string table and stored as an Atom, so the query engine
/// compares integers. Properties are sorted (key, value) atom runs in one
/// flat array per element kind.
///
//===----------------------------------------------------------------------===//

#ifndef GJS_GRAPHDB_PROPERTYGRAPH_H
#define GJS_GRAPHDB_PROPERTYGRAPH_H

#include "support/StringInterner.h"

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gjs {
namespace graphdb {

using NodeHandle = uint32_t;
using RelHandle = uint32_t;
constexpr NodeHandle InvalidHandle = static_cast<NodeHandle>(-1);

/// An interned string of the store. Atom 0 is the empty string.
using Atom = Symbol;
/// "No such string in this store" (never equal to a stored atom).
constexpr Atom NoAtom = static_cast<Atom>(-1);

/// One (key, value) property.
struct Prop {
  Atom Key;
  Atom Value;
};

/// One stored node: its label and its property run.
struct StoredNode {
  Atom Label;
  uint32_t PropBegin;
  uint32_t PropCount;
};

/// One stored relationship (directed).
struct StoredRel {
  NodeHandle From;
  NodeHandle To;
  Atom Type;
  uint32_t PropBegin;
  uint32_t PropCount;
};

/// The graph store. Append-only, like the analysis pipeline needs.
class PropertyGraph {
public:
  using StringProps =
      std::initializer_list<std::pair<std::string_view, std::string_view>>;

  /// Interns \p S into the string table.
  Atom intern(std::string_view S) { return Strings.intern(S); }
  /// The atom of \p S, or NoAtom when the store never saw it.
  Atom atom(std::string_view S) const {
    Atom A;
    return Strings.find(S, A) ? A : NoAtom;
  }
  /// The string of \p A (valid until the next string is interned).
  const std::string &str(Atom A) const { return Strings.str(A); }

  /// Adds a node; \p Props may come in any key order (keys unique).
  NodeHandle addNode(Atom Label, std::span<const Prop> Props = {});
  /// Adds a relationship; returns InvalidHandle when an endpoint is out of
  /// range (the caller imported a malformed graph).
  RelHandle addRel(NodeHandle From, NodeHandle To, Atom Type,
                   std::span<const Prop> Props = {});

  /// String forms, for hand-built graphs.
  NodeHandle addNode(std::string_view Label, StringProps Props = {});
  RelHandle addRel(NodeHandle From, NodeHandle To, std::string_view Type,
                   StringProps Props = {});

  size_t numNodes() const { return Nodes.size(); }
  size_t numRels() const { return Rels.size(); }

  const StoredNode &node(NodeHandle H) const { return Nodes[H]; }
  const StoredRel &rel(RelHandle H) const { return Rels[H]; }

  /// Outgoing / incoming relationship handles of a node.
  const std::vector<RelHandle> &out(NodeHandle H) const { return Out[H]; }
  const std::vector<RelHandle> &in(NodeHandle H) const { return In[H]; }

  /// All node handles with the given label ("" = all nodes), ascending.
  const std::vector<NodeHandle> &nodesByLabel(std::string_view Label) const;

  /// Property value atom, or NoAtom when the element lacks \p Key.
  Atom propAtom(NodeHandle H, Atom Key) const {
    const StoredNode &N = Nodes[H];
    return lookup(NodeProps, N.PropBegin, N.PropCount, Key);
  }
  Atom relPropAtom(RelHandle H, Atom Key) const {
    const StoredRel &R = Rels[H];
    return lookup(RelProps, R.PropBegin, R.PropCount, Key);
  }

  /// String access: label, and properties with "" default. The
  /// references stay valid until the next string is interned.
  const std::string &label(NodeHandle H) const { return str(Nodes[H].Label); }
  const std::string &prop(NodeHandle H, std::string_view Key) const;
  const std::string &relProp(RelHandle H, std::string_view Key) const;

private:
  StringInterner Strings;
  std::vector<StoredNode> Nodes;
  std::vector<StoredRel> Rels;
  std::vector<Prop> NodeProps; ///< Per node: a run sorted by key.
  std::vector<Prop> RelProps;  ///< Per relationship: a run sorted by key.
  std::vector<std::vector<RelHandle>> Out;
  std::vector<std::vector<RelHandle>> In;
  std::vector<NodeHandle> AllNodes;
  /// Per-label node index; labels are few, so a linear list.
  std::vector<std::pair<Atom, std::vector<NodeHandle>>> ByLabel;

  static Atom lookup(const std::vector<Prop> &Pool, uint32_t Begin,
                     uint32_t Count, Atom Key) {
    for (uint32_t I = Begin, E = Begin + Count; I < E; ++I)
      if (Pool[I].Key >= Key)
        return Pool[I].Key == Key ? Pool[I].Value : NoAtom;
    return NoAtom;
  }
  /// Appends a sorted copy of \p Props to \p Pool; returns its begin.
  static uint32_t appendProps(std::vector<Prop> &Pool,
                              std::span<const Prop> Props);
  std::vector<Prop> internProps(StringProps Props);
};

} // namespace graphdb
} // namespace gjs

#endif // GJS_GRAPHDB_PROPERTYGRAPH_H
