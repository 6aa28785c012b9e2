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
/// Every string — label, type, property key and value — is an Atom (an
/// integer) of the store's string table, so the query engine compares
/// integers.
///
/// A store has one of two backings behind the same accessors:
///
///  - **Hand-built** (the default constructor): nodes and relationships
///    are added one by one, every string is interned in the store's own
///    table, and properties are sorted (key, value) atom runs in one flat
///    array per element kind.
///  - **An MDG opened in place** (the scanner's): nodes, edges and the
///    properties the queries read come straight from the mdg::Graph, and
///    atoms are the build's property-name symbols. Opening copies nothing.
///    Relationship ids are source-major (a node's out-edges in order, node
///    by node), so a node's out-relationships are one contiguous id range.
///    The schema is graphdb::mdgSchema():
///
///      Nodes:  (:Object {taint, label, line, site})
///              (:Call   {name, path, label, line, site})
///      Rels:   [:D]  [:P {name}]  [:PU]  [:V {name}]  [:VU]
///
///    `taint`, `name`, `path` and the P/V `name` are MDG fields. The
///    debug properties `label`, `line` and `site` become atoms only when a
///    key lookup names them (keyAtom). The relationship index (the id
///    offsets and each id's edge) is computed on the first relationship
///    access; the in-adjacency on the first in(). These lazy parts make an
///    opened store unsafe to share between threads.
///
//===----------------------------------------------------------------------===//

#ifndef GJS_GRAPHDB_PROPERTYGRAPH_H
#define GJS_GRAPHDB_PROPERTYGRAPH_H

#include "mdg/MDG.h"
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

/// One relationship's endpoints and type.
struct RelRef {
  NodeHandle From;
  NodeHandle To;
  Atom Type;
};

/// The relationship handles of one node's adjacency in one direction: a
/// handle list, or (for an opened MDG's out-edges) a contiguous id range.
class RelRange {
public:
  class iterator {
  public:
    iterator(const RelHandle *List, uint32_t I) : List(List), I(I) {}
    RelHandle operator*() const { return List ? List[I] : I; }
    iterator &operator++() {
      ++I;
      return *this;
    }
    bool operator!=(const iterator &O) const { return I != O.I; }

  private:
    const RelHandle *List;
    uint32_t I;
  };

  /// Handles List[Begin..End), or the ids Begin..End when \p List is null.
  RelRange(const RelHandle *List, uint32_t Begin, uint32_t End)
      : List(List), Begin(Begin), End(End) {}

  iterator begin() const { return {List, Begin}; }
  iterator end() const { return {List, End}; }
  size_t size() const { return End - Begin; }

private:
  const RelHandle *List;
  uint32_t Begin, End;
};

/// The graph store. Append-only when hand-built; read-only over an MDG.
class PropertyGraph {
public:
  using StringProps =
      std::initializer_list<std::pair<std::string_view, std::string_view>>;

  /// An empty store for hand-built graphs.
  PropertyGraph() = default;
  /// Opens \p MDG in place. \p Props is the build's property-name table
  /// (analysis::BuildResult::Props). Both must outlive the store and stay
  /// unchanged while it is open. Takes constant time.
  PropertyGraph(const mdg::Graph &MDG, const StringInterner &Props);

  /// Interns \p S into the string table.
  Atom intern(std::string_view S);
  /// The atom of \p S, or NoAtom when the store never saw it.
  Atom atom(std::string_view S) const;
  /// The atom of property key \p Key, as atom(). On an opened MDG, a
  /// debug property key (label, line, site) first gets its values
  /// interned, so they resolve before a query is compiled against them.
  Atom keyAtom(std::string_view Key) const;
  /// The string of \p A (valid until the next string is interned).
  const std::string &str(Atom A) const;

  /// Adds a node; \p Props may come in any key order (keys unique).
  /// Returns InvalidHandle on an opened MDG (read-only).
  NodeHandle addNode(Atom Label, std::span<const Prop> Props = {});
  /// Adds a relationship; returns InvalidHandle when an endpoint is out of
  /// range (the caller imported a malformed graph) or the store is an
  /// opened MDG.
  RelHandle addRel(NodeHandle From, NodeHandle To, Atom Type,
                   std::span<const Prop> Props = {});

  /// String forms, for hand-built graphs.
  NodeHandle addNode(std::string_view Label, StringProps Props = {});
  RelHandle addRel(NodeHandle From, NodeHandle To, std::string_view Type,
                   StringProps Props = {});

  size_t numNodes() const { return MDG ? MDG->numNodes() : Nodes.size(); }
  size_t numRels() const { return MDG ? MDG->numEdges() : Rels.size(); }

  /// The label atom of a node.
  Atom labelAtom(NodeHandle H) const {
    if (MDG)
      return Schema[MDG->node(H).Kind == mdg::NodeKind::Call ? SCall
                                                              : SObject];
    return Nodes[H].Label;
  }

  /// Endpoints and type of a relationship.
  RelRef rel(RelHandle H) const {
    if (MDG) {
      const mdg::Edge &E = *relIndex().Edge[H];
      return {E.From, E.To, typeAtom(E.Kind)};
    }
    const StoredRel &R = Rels[H];
    return {R.From, R.To, R.Type};
  }

  /// Outgoing / incoming relationship handles of a node, ascending.
  RelRange out(NodeHandle H) const {
    if (MDG) {
      const std::vector<RelHandle> &Base = relIndex().OutBase;
      return RelRange(nullptr, Base[H], Base[H + 1]);
    }
    return RelRange(Out[H].data(), 0, static_cast<uint32_t>(Out[H].size()));
  }
  RelRange in(NodeHandle H) const {
    if (MDG) {
      const RelIndex &I = inIndex();
      return RelRange(I.InRels.data(), I.InBase[H], I.InBase[H + 1]);
    }
    return RelRange(In[H].data(), 0, static_cast<uint32_t>(In[H].size()));
  }

  /// All node handles with the given label ("" = all nodes), ascending.
  const std::vector<NodeHandle> &nodesByLabel(std::string_view Label) const;

  /// Property value atom, or NoAtom when the element lacks \p Key.
  Atom propAtom(NodeHandle H, Atom Key) const {
    if (MDG)
      return mdgPropAtom(H, Key);
    const StoredNode &N = Nodes[H];
    return lookup(NodeProps, N.PropBegin, N.PropCount, Key);
  }
  Atom relPropAtom(RelHandle H, Atom Key) const {
    if (MDG) {
      const mdg::Edge &E = *relIndex().Edge[H];
      bool Named = E.Kind == mdg::EdgeKind::Prop ||
                   E.Kind == mdg::EdgeKind::Version;
      return Named && Key == Schema[SName] ? E.Prop : NoAtom;
    }
    const StoredRel &R = Rels[H];
    return lookup(RelProps, R.PropBegin, R.PropCount, Key);
  }

  /// String access: label, and properties with "" default. The
  /// references stay valid until the next string is interned.
  const std::string &label(NodeHandle H) const { return str(labelAtom(H)); }
  const std::string &prop(NodeHandle H, std::string_view Key) const;
  const std::string &relProp(RelHandle H, std::string_view Key) const;

private:
  /// One hand-built node: its label and its property run.
  struct StoredNode {
    Atom Label;
    uint32_t PropBegin;
    uint32_t PropCount;
  };
  /// One hand-built relationship (directed).
  struct StoredRel {
    NodeHandle From;
    NodeHandle To;
    Atom Type;
    uint32_t PropBegin;
    uint32_t PropCount;
  };

  // Hand-built backing.
  StringInterner Strings;
  std::vector<StoredNode> Nodes;
  std::vector<StoredRel> Rels;
  std::vector<Prop> NodeProps; ///< Per node: a run sorted by key.
  std::vector<Prop> RelProps;  ///< Per relationship: a run sorted by key.
  std::vector<std::vector<RelHandle>> Out;
  std::vector<std::vector<RelHandle>> In;
  /// Per-label node index; labels are few, so a linear list.
  std::vector<std::pair<Atom, std::vector<NodeHandle>>> ByLabel;

  // Opened-MDG backing (MDG is null for a hand-built store).
  const mdg::Graph *MDG = nullptr;
  const StringInterner *BuildProps = nullptr;
  /// The schema's strings. Atoms: the build's symbol where the build has
  /// the string, else past the build's table (from VirtualBase on).
  enum SchemaString : uint8_t {
    SLabel, SLine, SSite, SName, SPath, STaint, SObject, SCall, STrue,
    SFalse, SD, SP, SPU, SV, SVU, NumSchemaStrings
  };
  static const std::string SchemaNames[NumSchemaStrings];
  Atom Schema[NumSchemaStrings] = {};
  Atom VirtualBase = 0;
  /// Strings of neither table (debug property values) from ExtraBase on.
  mutable StringInterner Extra;
  Atom ExtraBase = 0;
  /// Per debug property (label, line, site): each node's value atom;
  /// empty until a key lookup names the property.
  mutable std::vector<Atom> DebugAtoms[3];
  /// Node handles 0..N-1 (nodesByLabel("")), made on first use.
  mutable std::vector<NodeHandle> AllNodes;
  /// Relationship ids are source-major: out(H) is OutBase[H]..OutBase[H+1]
  /// and Edge[id] is that edge of the MDG. InRels lists each node's
  /// incoming ids, ascending, from InBase[node]. Built on first use.
  struct RelIndex {
    std::vector<RelHandle> OutBase;
    std::vector<const mdg::Edge *> Edge;
    std::vector<uint32_t> InBase;
    std::vector<RelHandle> InRels;
  };
  mutable RelIndex Index;

  Atom typeAtom(mdg::EdgeKind K) const {
    return Schema[SD + static_cast<int>(K)];
  }
  const RelIndex &relIndex() const {
    if (Index.OutBase.empty())
      buildRelIndex();
    return Index;
  }
  const RelIndex &inIndex() const {
    if (Index.InBase.empty())
      buildInIndex();
    return Index;
  }
  void buildRelIndex() const;
  void buildInIndex() const;
  Atom mdgPropAtom(NodeHandle H, Atom Key) const {
    const mdg::Node &N = MDG->node(H);
    const bool IsCall = N.Kind == mdg::NodeKind::Call;
    if (Key == Schema[STaint])
      return IsCall ? NoAtom : Schema[N.IsTaintSource ? STrue : SFalse];
    if (Key == Schema[SName])
      return IsCall ? N.CallNameSym : NoAtom;
    if (Key == Schema[SPath])
      return IsCall ? N.CallPathSym : NoAtom;
    return debugPropAtom(H, Key);
  }
  /// label/line/site of an opened MDG's node (NoAtom for any other key).
  Atom debugPropAtom(NodeHandle H, Atom Key) const;
  /// Interns one debug property's value of every node.
  void materialize(unsigned Debug) const;
  /// The atom of \p S on an opened MDG, interning it past both tables
  /// when neither has it.
  Atom mdgIntern(std::string_view S) const;

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
