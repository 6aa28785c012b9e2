//===- tests/MDGImportOracle.h - Copying MDG import (test oracle) -*- C++ -*-=//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MDG import the graph-DB store replaced: it copies every MDG node and
/// edge into a hand-built PropertyGraph, interning every string. The
/// scanner now opens the MDG in place (PropertyGraph(const mdg::Graph &,
/// const StringInterner &)); this copy stays as the oracle the in-place
/// store is checked against (MDGStoreDifferentialTest). It numbers
/// relationships the same way, source-major: node by node, each node's
/// out-edges in order.
///
//===----------------------------------------------------------------------===//

#ifndef GJS_TESTS_MDGIMPORTORACLE_H
#define GJS_TESTS_MDGIMPORTORACLE_H

#include "graphdb/PropertyGraph.h"
#include "mdg/MDG.h"
#include "support/StringInterner.h"

#include <string>
#include <vector>

namespace gjs {
namespace oracle {

/// Copies \p MDG (with property names from \p Props) into a fresh store.
inline graphdb::PropertyGraph importMDG(const mdg::Graph &MDG,
                                        const StringInterner &Props) {
  using namespace graphdb;
  using mdg::EdgeKind;
  PropertyGraph G;

  // The schema's strings, interned up front. Keys are interned in
  // alphabetical order, so the runs below are already sorted by atom.
  const Atom Label = G.intern("label"), Line = G.intern("line"),
             Name = G.intern("name"), PathKey = G.intern("path"),
             Site = G.intern("site"), Taint = G.intern("taint");
  const Atom Call = G.intern("Call"), Object = G.intern("Object");
  const Atom True = G.intern("true"), False = G.intern("false");
  Atom TypeOf[5];
  TypeOf[static_cast<int>(EdgeKind::Dep)] = G.intern("D");
  TypeOf[static_cast<int>(EdgeKind::Prop)] = G.intern("P");
  TypeOf[static_cast<int>(EdgeKind::PropUnknown)] = G.intern("PU");
  TypeOf[static_cast<int>(EdgeKind::Version)] = G.intern("V");
  TypeOf[static_cast<int>(EdgeKind::VersionUnknown)] = G.intern("VU");

  // Small numbers (lines, sites) and MDG property names recur across
  // nodes and edges: each is interned once.
  std::vector<Atom> NumberAtoms;
  auto Number = [&](uint32_t V) {
    if (V >= 1u << 16)
      return G.intern(std::to_string(V));
    if (V >= NumberAtoms.size())
      NumberAtoms.resize(V + 1, NoAtom);
    Atom &A = NumberAtoms[V];
    if (A == NoAtom)
      A = G.intern(std::to_string(V));
    return A;
  };
  std::vector<Atom> PropAtoms(Props.size(), NoAtom);
  auto PropName = [&](Symbol S) {
    Atom &A = PropAtoms[S];
    if (A == NoAtom)
      A = G.intern(Props.str(S));
    return A;
  };

  std::vector<NodeHandle> NodeOf;
  for (mdg::NodeId N : MDG.nodeIds()) {
    const mdg::Node &Src = MDG.node(N);
    Atom L = G.intern(Src.Label);
    Atom LineA = Number(Src.Loc.Line), SiteA = Number(Src.Site);
    if (Src.Kind == mdg::NodeKind::Call) {
      const Prop P[] = {{Label, L},
                        {Line, LineA},
                        {Name, G.intern(Src.CallName)},
                        {PathKey, G.intern(Src.CallPath)},
                        {Site, SiteA}};
      NodeOf.push_back(G.addNode(Call, P));
    } else {
      const Prop P[] = {{Label, L},
                        {Line, LineA},
                        {Site, SiteA},
                        {Taint, Src.IsTaintSource ? True : False}};
      NodeOf.push_back(G.addNode(Object, P));
    }
  }

  for (mdg::NodeId N : MDG.nodeIds()) {
    for (const mdg::Edge &E : MDG.out(N)) {
      // P(p) and V(p) carry the property name; the others carry nothing.
      bool Named = E.Kind == EdgeKind::Prop || E.Kind == EdgeKind::Version;
      const Prop P[] = {{Name, Named ? PropName(E.Prop) : 0}};
      G.addRel(NodeOf[E.From], NodeOf[E.To], TypeOf[static_cast<int>(E.Kind)],
               std::span<const Prop>(P, Named ? 1 : 0));
    }
  }
  return G;
}

} // namespace oracle
} // namespace gjs

#endif // GJS_TESTS_MDGIMPORTORACLE_H
