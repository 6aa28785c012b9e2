//===- mdg/MDG.cpp - Multiversion Dependency Graph -------------------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//

#include "mdg/MDG.h"

#include "obs/Counters.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <sstream>

using namespace gjs;
using namespace gjs::mdg;

std::string mdg::edgeKindLabel(EdgeKind K) {
  switch (K) {
  case EdgeKind::Dep:
    return "D";
  case EdgeKind::Prop:
    return "P";
  case EdgeKind::PropUnknown:
    return "P(*)";
  case EdgeKind::Version:
    return "V";
  case EdgeKind::VersionUnknown:
    return "V(*)";
  }
  return "?";
}

NodeId Graph::addNode(NodeKind Kind, uint32_t Site, SourceLocation Loc,
                      std::string Label) {
  NodeId Id = static_cast<NodeId>(Nodes.size());
  Node N;
  N.Kind = Kind;
  N.Site = Site;
  N.Loc = Loc;
  N.Label = std::move(Label);
  Nodes.push_back(std::move(N));
  (Kind == NodeKind::Call ? CallIds : ObjectIds).push_back(Id);
  OutEdges.emplace_back();
  InEdges.emplace_back();
  ++Revision;
  obs::counters::MdgNodes.add();
  return Id;
}

/// The per-kind edge counter (build.mdg_edges_*).
static obs::Counter &edgeCounterOf(EdgeKind K) {
  switch (K) {
  case EdgeKind::Dep:
    return obs::counters::MdgEdgeD;
  case EdgeKind::Prop:
    return obs::counters::MdgEdgeP;
  case EdgeKind::PropUnknown:
    return obs::counters::MdgEdgePU;
  case EdgeKind::Version:
    return obs::counters::MdgEdgeV;
  case EdgeKind::VersionUnknown:
    return obs::counters::MdgEdgeVU;
  }
  return obs::counters::MdgEdgeD;
}

bool Graph::addEdge(NodeId From, NodeId To, EdgeKind Kind, Symbol Prop) {
  if (From >= Nodes.size() || To >= Nodes.size())
    return false; // Out-of-range endpoint: reject rather than corrupt.
  Edge E{From, To, Kind, Prop};
  if (!EdgeSet.insert(E))
    return false;
  OutEdges[From].push_back(E);
  InEdges[To].push_back(E);
  ++NumEdgesTotal;
  ++Revision;
  edgeCounterOf(Kind).add();
  return true;
}

bool Graph::hasEdge(NodeId From, NodeId To, EdgeKind Kind, Symbol Prop) const {
  return EdgeSet.contains(Edge{From, To, Kind, Prop});
}

size_t Graph::EdgeTable::slotOf(const Edge &E) const {
  uint64_t H = (static_cast<uint64_t>(E.From) << 32) ^ E.To;
  H = H * 1099511628211ULL ^ static_cast<uint64_t>(E.Kind);
  H = H * 1099511628211ULL ^ E.Prop;
  // Fibonacci hashing: the top bits of the product mix every input bit.
  return static_cast<size_t>((H * 0x9E3779B97F4A7C15ULL) >> Shift);
}

bool Graph::EdgeTable::contains(const Edge &E) const {
  if (Slots.empty())
    return false;
  size_t Mask = Slots.size() - 1;
  for (size_t I = slotOf(E);; I = (I + 1) & Mask) {
    if (Slots[I].From == InvalidNode)
      return false;
    if (Slots[I] == E)
      return true;
  }
}

bool Graph::EdgeTable::insert(const Edge &E) {
  if ((Size + 1) * 2 > Slots.size()) {
    std::vector<Edge> Old = std::move(Slots);
    Slots.assign(Old.empty() ? 64 : Old.size() * 2, Edge());
    Shift = 64 - static_cast<unsigned>(std::countr_zero(Slots.size()));
    for (const Edge &O : Old) {
      if (O.From == InvalidNode)
        continue;
      size_t I = slotOf(O);
      while (Slots[I].From != InvalidNode)
        I = (I + 1) & (Slots.size() - 1);
      Slots[I] = O;
    }
  }
  size_t Mask = Slots.size() - 1;
  for (size_t I = slotOf(E);; I = (I + 1) & Mask) {
    if (Slots[I].From == InvalidNode) {
      Slots[I] = E;
      ++Size;
      return true;
    }
    if (Slots[I] == E)
      return false;
  }
}

std::vector<NodeId> Graph::nodeIds() const {
  std::vector<NodeId> Ids(Nodes.size());
  for (size_t I = 0; I < Nodes.size(); ++I)
    Ids[I] = static_cast<NodeId>(I);
  return Ids;
}

std::vector<NodeId> Graph::versionAncestors(NodeId L) const {
  // Breadth-first over incoming V edges. Chain is both the queue and the
  // visited set: version chains are short, so a linear scan beats
  // allocating an O(nodes) bitmap per lookup. A chain that outgrows the
  // scan switches to a bitmap.
  constexpr size_t LinearScanMax = 32;
  std::vector<NodeId> Chain{L};
  std::vector<bool> Seen;
  auto Visit = [&](NodeId N) {
    if (Seen.empty()) {
      if (std::find(Chain.begin(), Chain.end(), N) != Chain.end())
        return;
      Chain.push_back(N);
      if (Chain.size() > LinearScanMax) {
        Seen.assign(Nodes.size(), false);
        for (NodeId C : Chain)
          Seen[C] = true;
      }
      return;
    }
    if (!Seen[N]) {
      Seen[N] = true;
      Chain.push_back(N);
    }
  };
  for (size_t I = 0; I < Chain.size(); ++I)
    for (const Edge &E : InEdges[Chain[I]])
      if (E.Kind == EdgeKind::Version || E.Kind == EdgeKind::VersionUnknown)
        Visit(E.From);
  return Chain;
}

std::vector<NodeId> Graph::oldestVersions(NodeId L) const {
  std::vector<NodeId> Oldest;
  for (NodeId N : versionAncestors(L)) {
    bool HasVersionParent = false;
    for (const Edge &E : InEdges[N])
      if (E.Kind == EdgeKind::Version || E.Kind == EdgeKind::VersionUnknown)
        HasVersionParent = true;
    if (!HasVersionParent)
      Oldest.push_back(N);
  }
  return Oldest;
}

bool Graph::isVersionAncestor(NodeId Anc, NodeId N) const {
  if (Anc == N)
    return false;
  for (NodeId A : versionAncestors(N))
    if (A == Anc)
      return true;
  return false;
}

std::vector<NodeId> Graph::propTargets(NodeId L, Symbol P) const {
  std::vector<NodeId> Out;
  for (const Edge &E : OutEdges[L])
    if (E.Kind == EdgeKind::Prop && E.Prop == P)
      Out.push_back(E.To);
  return Out;
}

std::vector<NodeId> Graph::unknownPropTargets(NodeId L) const {
  std::vector<NodeId> Out;
  for (const Edge &E : OutEdges[L])
    if (E.Kind == EdgeKind::PropUnknown)
      Out.push_back(E.To);
  return Out;
}

std::vector<NodeId> Graph::resolveProperty(NodeId L, Symbol P) const {
  std::vector<NodeId> Chain = versionAncestors(L);

  // Owners: versions in the chain that define P(p) directly.
  std::vector<NodeId> Owners;
  for (NodeId N : Chain)
    if (!propTargets(N, P).empty())
      Owners.push_back(N);
  if (Owners.empty())
    return {};

  // Maximal owners: those not shadowed by a newer owner in the chain.
  std::vector<NodeId> Maximal;
  for (NodeId A : Owners) {
    bool Shadowed = false;
    for (NodeId B : Owners)
      if (B != A && isVersionAncestor(A, B))
        Shadowed = true;
    if (!Shadowed)
      Maximal.push_back(A);
  }

  std::vector<NodeId> Result;
  auto Push = [&](NodeId N) {
    if (std::find(Result.begin(), Result.end(), N) == Result.end())
      Result.push_back(N);
  };
  for (NodeId A : Maximal)
    for (NodeId T : propTargets(A, P))
      Push(T);

  // P(*) edges on versions strictly newer than a maximal owner may have
  // overwritten p (Fig. 1, line 7: o4 joins o9 in the result).
  for (NodeId N : Chain) {
    if (unknownPropTargets(N).empty())
      continue;
    for (NodeId A : Maximal) {
      if (isVersionAncestor(A, N)) {
        for (NodeId T : unknownPropTargets(N))
          Push(T);
        break;
      }
    }
  }
  return Result;
}

std::vector<NodeId> Graph::resolveUnknownProperty(NodeId L) const {
  std::vector<NodeId> Result;
  auto Push = [&](NodeId N) {
    if (std::find(Result.begin(), Result.end(), N) == Result.end())
      Result.push_back(N);
  };
  for (NodeId N : versionAncestors(L)) {
    for (const Edge &E : OutEdges[N])
      if (E.Kind == EdgeKind::PropUnknown || E.Kind == EdgeKind::Prop)
        Push(E.To);
  }
  return Result;
}

bool Graph::leq(const Graph &G1, const Graph &G2) {
  if (G1.NumEdgesTotal > G2.NumEdgesTotal)
    return false;
  for (const std::vector<Edge> &Out : G1.OutEdges)
    for (const Edge &E : Out)
      if (!G2.EdgeSet.contains(E))
        return false;
  return true;
}

std::string Graph::dump(const StringInterner &Names) const {
  std::ostringstream OS;
  for (size_t I = 0; I < Nodes.size(); ++I) {
    const Node &N = Nodes[I];
    OS << "o" << I << " [" << (N.Kind == NodeKind::Call ? "call " : "")
       << N.Label;
    if (N.IsTaintSource)
      OS << " taint-source";
    OS << "]\n";
    for (const Edge &E : OutEdges[I]) {
      OS << "  o" << E.From << " -";
      switch (E.Kind) {
      case EdgeKind::Dep:
        OS << "D";
        break;
      case EdgeKind::Prop:
        OS << "P(" << Names.str(E.Prop) << ")";
        break;
      case EdgeKind::PropUnknown:
        OS << "P(*)";
        break;
      case EdgeKind::Version:
        OS << "V(" << Names.str(E.Prop) << ")";
        break;
      case EdgeKind::VersionUnknown:
        OS << "V(*)";
        break;
      }
      OS << "-> o" << E.To << "\n";
    }
  }
  return OS.str();
}

std::string Graph::toDot(const StringInterner &Names) const {
  std::ostringstream OS;
  OS << "digraph MDG {\n  rankdir=LR;\n  node [fontsize=10];\n";
  for (size_t I = 0; I < Nodes.size(); ++I) {
    const Node &N = Nodes[I];
    OS << "  o" << I << " [label=\"o" << I;
    if (!N.Label.empty())
      OS << "\\n" << N.Label;
    OS << "\"";
    if (N.Kind == NodeKind::Call)
      OS << ", shape=box";
    if (N.IsTaintSource)
      OS << ", style=filled, fillcolor=lightcoral";
    OS << "];\n";
  }
  for (size_t I = 0; I < Nodes.size(); ++I) {
    for (const Edge &E : OutEdges[I]) {
      OS << "  o" << E.From << " -> o" << E.To << " [label=\"";
      switch (E.Kind) {
      case EdgeKind::Dep:
        OS << "D";
        break;
      case EdgeKind::Prop:
        OS << "P(" << Names.str(E.Prop) << ")";
        break;
      case EdgeKind::PropUnknown:
        OS << "P(*)";
        break;
      case EdgeKind::Version:
        OS << "V(" << Names.str(E.Prop) << ")";
        break;
      case EdgeKind::VersionUnknown:
        OS << "V(*)";
        break;
      }
      OS << "\"";
      if (E.Kind == EdgeKind::Version || E.Kind == EdgeKind::VersionUnknown)
        OS << ", style=dashed";
      OS << "];\n";
    }
  }
  OS << "}\n";
  return OS.str();
}

Graph Graph::collapseVersions() const {
  // Representative of each node: the smallest-id terminal node of its
  // forward version closure (terminal = no outgoing V edge; cycles from
  // the site-reuse allocator fall back to the whole closure).
  std::vector<NodeId> Rep(Nodes.size());
  for (NodeId N = 0; N < Nodes.size(); ++N) {
    std::vector<bool> Seen(Nodes.size(), false);
    std::vector<NodeId> Work{N}, Closure;
    Seen[N] = true;
    while (!Work.empty()) {
      NodeId Cur = Work.back();
      Work.pop_back();
      Closure.push_back(Cur);
      for (const Edge &E : OutEdges[Cur]) {
        if (E.Kind != EdgeKind::Version &&
            E.Kind != EdgeKind::VersionUnknown)
          continue;
        if (!Seen[E.To]) {
          Seen[E.To] = true;
          Work.push_back(E.To);
        }
      }
    }
    NodeId Best = InvalidNode;
    for (NodeId C : Closure) {
      bool Terminal = true;
      for (const Edge &E : OutEdges[C])
        if (E.Kind == EdgeKind::Version || E.Kind == EdgeKind::VersionUnknown)
          Terminal = false;
      if (Terminal && (Best == InvalidNode || C < Best))
        Best = C;
    }
    if (Best == InvalidNode)
      for (NodeId C : Closure)
        if (Best == InvalidNode || C < Best)
          Best = C;
    Rep[N] = Best;
  }

  // Build the collapsed graph: representatives keep their metadata.
  Graph Out;
  std::vector<NodeId> NewId(Nodes.size(), InvalidNode);
  for (NodeId N = 0; N < Nodes.size(); ++N) {
    if (Rep[N] != N)
      continue;
    NewId[N] = Out.addNode(Nodes[N].Kind, Nodes[N].Site, Nodes[N].Loc,
                           Nodes[N].Label);
    Node &Copy = Out.node(NewId[N]);
    Copy.IsTaintSource = Nodes[N].IsTaintSource;
    Copy.CallName = Nodes[N].CallName;
    Copy.CallPath = Nodes[N].CallPath;
    Copy.CallNameSym = Nodes[N].CallNameSym;
    Copy.CallPathSym = Nodes[N].CallPathSym;
  }
  // Merged members propagate taint onto their representative.
  for (NodeId N = 0; N < Nodes.size(); ++N)
    if (Nodes[N].IsTaintSource)
      Out.node(NewId[Rep[N]]).IsTaintSource = true;

  for (NodeId N = 0; N < Nodes.size(); ++N) {
    for (const Edge &E : OutEdges[N]) {
      if (E.Kind == EdgeKind::Version || E.Kind == EdgeKind::VersionUnknown)
        continue; // Version structure is what collapsing removes.
      if (E.Kind == EdgeKind::Prop) {
        // Newest-wins shadowing: drop a P(p) whose owner has a strictly
        // newer owner of the same p in the same chain.
        bool Shadowed = false;
        for (NodeId M = 0; M < Nodes.size(); ++M) {
          if (M == E.From || Rep[M] != Rep[E.From])
            continue;
          if (!isVersionAncestor(E.From, M))
            continue;
          for (const Edge &E2 : OutEdges[M])
            if (E2.Kind == EdgeKind::Prop && E2.Prop == E.Prop)
              Shadowed = true;
        }
        if (Shadowed)
          continue;
      }
      NodeId From = NewId[Rep[E.From]];
      NodeId To = NewId[Rep[E.To]];
      if (From != To || E.Kind != EdgeKind::Dep)
        Out.addEdge(From, To, E.Kind, E.Prop);
    }
  }
  return Out;
}
