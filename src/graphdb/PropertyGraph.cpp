//===- graphdb/PropertyGraph.cpp - Labeled property graph ------------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//

#include "graphdb/PropertyGraph.h"

#include <algorithm>

using namespace gjs;
using namespace gjs::graphdb;

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
  if (From >= Nodes.size() || To >= Nodes.size())
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

const std::vector<NodeHandle> &
PropertyGraph::nodesByLabel(std::string_view Label) const {
  static const std::vector<NodeHandle> None;
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
  Atom V = propAtom(H, atom(Key));
  return str(V == NoAtom ? 0 : V);
}

const std::string &PropertyGraph::relProp(RelHandle H,
                                          std::string_view Key) const {
  Atom V = relPropAtom(H, atom(Key));
  return str(V == NoAtom ? 0 : V);
}
