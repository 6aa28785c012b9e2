//===- graphdb/PropertyGraph.cpp - Labeled property graph ------------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//

#include "graphdb/PropertyGraph.h"

#include "obs/Counters.h"

#include <algorithm>
#include <numeric>

using namespace gjs;
using namespace gjs::graphdb;

const std::string PropertyGraph::SchemaNames[NumSchemaStrings] = {
    "label", "line",  "site",  "name", "path", "taint", "Object", "Call",
    "true",  "false", "D",     "P",    "PU",   "V",     "VU"};

PropertyGraph::PropertyGraph(const mdg::Graph &G, const StringInterner &P)
    : MDG(&G), BuildProps(&P) {
  VirtualBase = static_cast<Atom>(P.size());
  ExtraBase = VirtualBase + NumSchemaStrings;
  for (unsigned I = 0; I < NumSchemaStrings; ++I)
    if (!P.find(SchemaNames[I], Schema[I]))
      Schema[I] = VirtualBase + I;
  obs::counters::ImportNodes.add(G.numNodes());
  obs::counters::ImportRels.add(G.numEdges());
}

//===----------------------------------------------------------------------===//
// Strings
//===----------------------------------------------------------------------===//

Atom PropertyGraph::intern(std::string_view S) {
  return MDG ? mdgIntern(S) : Strings.intern(S);
}

Atom PropertyGraph::atom(std::string_view S) const {
  Atom A;
  if (!MDG)
    return Strings.find(S, A) ? A : NoAtom;
  if (BuildProps->find(S, A))
    return A;
  for (unsigned I = 0; I < NumSchemaStrings; ++I)
    if (S == SchemaNames[I])
      return Schema[I];
  return Extra.find(S, A) ? ExtraBase + A : NoAtom;
}

Atom PropertyGraph::mdgIntern(std::string_view S) const {
  Atom A = atom(S);
  return A != NoAtom ? A : ExtraBase + Extra.intern(S);
}

Atom PropertyGraph::keyAtom(std::string_view Key) const {
  Atom A = atom(Key);
  if (MDG)
    for (unsigned D = 0; D < std::size(DebugAtoms); ++D)
      if (A == Schema[D] && DebugAtoms[D].empty())
        materialize(D);
  return A;
}

const std::string &PropertyGraph::str(Atom A) const {
  if (!MDG)
    return Strings.str(A);
  if (A < VirtualBase)
    return BuildProps->str(A);
  if (A < ExtraBase)
    return SchemaNames[A - VirtualBase];
  return Extra.str(A - ExtraBase);
}

//===----------------------------------------------------------------------===//
// Hand-built graphs
//===----------------------------------------------------------------------===//

uint32_t PropertyGraph::appendProps(std::vector<Prop> &Pool,
                                    std::span<const Prop> Props) {
  uint32_t Begin = static_cast<uint32_t>(Pool.size());
  Pool.insert(Pool.end(), Props.begin(), Props.end());
  auto ByKey = [](const Prop &A, const Prop &B) { return A.Key < B.Key; };
  if (!std::is_sorted(Pool.begin() + Begin, Pool.end(), ByKey))
    std::sort(Pool.begin() + Begin, Pool.end(), ByKey);
  return Begin;
}

NodeHandle PropertyGraph::addNode(Atom Label, std::span<const Prop> Props) {
  if (MDG)
    return InvalidHandle; // An opened MDG is read-only.
  NodeHandle H = static_cast<NodeHandle>(Nodes.size());
  Nodes.push_back({Label, appendProps(NodeProps, Props),
                   static_cast<uint32_t>(Props.size())});
  Out.emplace_back();
  In.emplace_back();
  AllNodes.push_back(H);
  auto It = std::find_if(ByLabel.begin(), ByLabel.end(),
                         [&](const auto &E) { return E.first == Label; });
  if (It == ByLabel.end()) {
    ByLabel.emplace_back(Label, std::vector<NodeHandle>());
    It = ByLabel.end() - 1;
  }
  It->second.push_back(H);
  return H;
}

RelHandle PropertyGraph::addRel(NodeHandle From, NodeHandle To, Atom Type,
                                std::span<const Prop> Props) {
  if (MDG || From >= Nodes.size() || To >= Nodes.size())
    return InvalidHandle; // Reject bad endpoints instead of corrupting.
  RelHandle H = static_cast<RelHandle>(Rels.size());
  Rels.push_back({From, To, Type, appendProps(RelProps, Props),
                  static_cast<uint32_t>(Props.size())});
  Out[From].push_back(H);
  In[To].push_back(H);
  return H;
}

std::vector<Prop> PropertyGraph::internProps(StringProps Props) {
  std::vector<Prop> Out;
  for (const auto &[Key, Value] : Props)
    Out.push_back({intern(Key), intern(Value)});
  return Out;
}

NodeHandle PropertyGraph::addNode(std::string_view Label, StringProps Props) {
  return addNode(intern(Label), internProps(Props));
}

RelHandle PropertyGraph::addRel(NodeHandle From, NodeHandle To,
                                std::string_view Type, StringProps Props) {
  return addRel(From, To, intern(Type), internProps(Props));
}

//===----------------------------------------------------------------------===//
// Access
//===----------------------------------------------------------------------===//

const std::vector<NodeHandle> &
PropertyGraph::nodesByLabel(std::string_view Label) const {
  static const std::vector<NodeHandle> None;
  if (MDG) {
    if (Label == SchemaNames[SObject])
      return MDG->nodesOfKind(mdg::NodeKind::Object);
    if (Label == SchemaNames[SCall])
      return MDG->nodesOfKind(mdg::NodeKind::Call);
    if (!Label.empty())
      return None;
    if (AllNodes.size() != MDG->numNodes()) {
      AllNodes.resize(MDG->numNodes());
      std::iota(AllNodes.begin(), AllNodes.end(), 0);
    }
    return AllNodes;
  }
  if (Label.empty())
    return AllNodes;
  Atom A = atom(Label);
  for (const auto &[L, Handles] : ByLabel)
    if (L == A)
      return Handles;
  return None;
}

const std::string &PropertyGraph::prop(NodeHandle H,
                                       std::string_view Key) const {
  Atom V = propAtom(H, keyAtom(Key));
  return str(V == NoAtom ? 0 : V);
}

const std::string &PropertyGraph::relProp(RelHandle H,
                                          std::string_view Key) const {
  Atom V = relPropAtom(H, atom(Key));
  return str(V == NoAtom ? 0 : V);
}

//===----------------------------------------------------------------------===//
// The opened MDG's lazy parts
//===----------------------------------------------------------------------===//

void PropertyGraph::buildRelIndex() const {
  const size_t N = MDG->numNodes();
  Index.OutBase.resize(N + 1);
  Index.Edge.resize(MDG->numEdges());
  RelHandle Next = 0;
  for (mdg::NodeId From = 0; From < N; ++From) {
    Index.OutBase[From] = Next;
    for (const mdg::Edge &E : MDG->out(From))
      Index.Edge[Next++] = &E;
  }
  Index.OutBase[N] = Next;
}

void PropertyGraph::buildInIndex() const {
  const RelIndex &I = relIndex();
  const size_t N = MDG->numNodes();
  // Counting sort by target: visiting ids in ascending order keeps each
  // node's incoming ids ascending, as a hand-built store lists them.
  Index.InBase.assign(N + 1, 0);
  for (const mdg::Edge *E : I.Edge)
    ++Index.InBase[E->To + 1];
  std::partial_sum(Index.InBase.begin(), Index.InBase.end(),
                   Index.InBase.begin());
  Index.InRels.resize(I.Edge.size());
  std::vector<uint32_t> Fill(Index.InBase.begin(), Index.InBase.end() - 1);
  for (RelHandle R = 0; R < I.Edge.size(); ++R)
    Index.InRels[Fill[I.Edge[R]->To]++] = R;
}

Atom PropertyGraph::debugPropAtom(NodeHandle H, Atom Key) const {
  for (unsigned D = 0; D < std::size(DebugAtoms); ++D)
    if (Key == Schema[D]) {
      if (DebugAtoms[D].empty())
        materialize(D);
      return DebugAtoms[D][H];
    }
  return NoAtom;
}

void PropertyGraph::materialize(unsigned Debug) const {
  std::vector<Atom> &Atoms = DebugAtoms[Debug];
  Atoms.resize(MDG->numNodes());
  for (mdg::NodeId Id = 0; Id < Atoms.size(); ++Id) {
    const mdg::Node &N = MDG->node(Id);
    Atoms[Id] = mdgIntern(Debug == SLabel  ? N.Label
                          : Debug == SLine ? std::to_string(N.Loc.Line)
                                           : std::to_string(N.Site));
  }
}
