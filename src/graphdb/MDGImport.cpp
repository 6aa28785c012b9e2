//===- graphdb/MDGImport.cpp - MDG to property-graph import ----------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//

#include "graphdb/MDGImport.h"

#include "obs/Counters.h"
#include "support/Deadline.h"

using namespace gjs;
using namespace gjs::graphdb;
using namespace gjs::mdg;

ImportedMDG graphdb::importMDG(const Graph &MDG, const StringInterner &Props,
                               Deadline *ScanDeadline) {
  ImportedMDG Out;
  PropertyGraph &G = Out.Graph;
  Out.NodeOf.reserve(MDG.numNodes());

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

  for (NodeId N : MDG.nodeIds()) {
    // Cooperative cancellation: one checkpoint per imported node. On
    // expiry, stop — queries run over the partial store.
    if (ScanDeadline && ScanDeadline->checkpoint()) {
      Out.Truncated = true;
      return Out;
    }
    const Node &Src = MDG.node(N);
    Atom L = G.intern(Src.Label);
    Atom LineA = Number(Src.Loc.Line), SiteA = Number(Src.Site);
    if (Src.Kind == NodeKind::Call) {
      const Prop P[] = {{Label, L},
                        {Line, LineA},
                        {Name, G.intern(Src.CallName)},
                        {PathKey, G.intern(Src.CallPath)},
                        {Site, SiteA}};
      Out.NodeOf.push_back(G.addNode(Call, P));
    } else {
      const Prop P[] = {{Label, L},
                        {Line, LineA},
                        {Site, SiteA},
                        {Taint, Src.IsTaintSource ? True : False}};
      Out.NodeOf.push_back(G.addNode(Object, P));
    }
    obs::counters::ImportNodes.add();
  }

  for (NodeId N : MDG.nodeIds()) {
    for (const Edge &E : MDG.out(N)) {
      // One checkpoint per imported relationship.
      if (ScanDeadline && ScanDeadline->checkpoint()) {
        Out.Truncated = true;
        return Out;
      }
      // P(p) and V(p) carry the property name; the others carry nothing.
      bool Named =
          E.Kind == EdgeKind::Prop || E.Kind == EdgeKind::Version;
      const Prop P[] = {{Name, Named ? PropName(E.Prop) : 0}};
      G.addRel(Out.NodeOf[E.From], Out.NodeOf[E.To],
               TypeOf[static_cast<int>(E.Kind)],
               std::span<const Prop>(P, Named ? 1 : 0));
      obs::counters::ImportRels.add();
    }
  }
  return Out;
}
