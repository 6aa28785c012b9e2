//===- tests/test_lattice.cpp - Lattice-law property tests ----------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
// The paper's formal development rests on MDGs and abstract stores forming
// lattices (§3.1: "MDGs form a lattice under standard subset inclusion";
// §3.2: stores under pointwise subset inclusion), and on the analysis
// being *monotone* so fixpoints exist. These property tests check the
// lattice laws on randomized instances and the analysis' monotonicity /
// determinism on randomized programs.
//
//===----------------------------------------------------------------------===//

#include "analysis/MDGBuilder.h"
#include "core/Normalizer.h"
#include "mdg/AbstractStore.h"
#include "mdg/MDG.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

using namespace gjs;
using namespace gjs::mdg;

namespace {

/// A random graph over N nodes with E random edges.
Graph randomGraph(RNG &R, size_t N, size_t E, StringInterner &Props) {
  Graph G;
  for (size_t I = 0; I < N; ++I)
    G.addNode(NodeKind::Object, static_cast<uint32_t>(I), SourceLocation(),
              "n" + std::to_string(I));
  for (size_t I = 0; I < E; ++I) {
    NodeId From = static_cast<NodeId>(R.below(N));
    NodeId To = static_cast<NodeId>(R.below(N));
    EdgeKind K = static_cast<EdgeKind>(R.below(5));
    Symbol P = 0;
    if (K == EdgeKind::Prop || K == EdgeKind::Version)
      P = Props.intern("p" + std::to_string(R.below(3)));
    G.addEdge(From, To, K, P);
  }
  return G;
}

AbstractStore randomStore(RNG &R, size_t Vars, size_t Nodes) {
  AbstractStore S;
  for (size_t I = 0; I < Vars; ++I) {
    LocSet Locs;
    size_t K = R.below(4);
    for (size_t J = 0; J < K; ++J)
      Locs.insert(static_cast<NodeId>(R.below(Nodes)));
    S.set(static_cast<VarId>(I), std::move(Locs));
  }
  return S;
}

} // namespace

class LatticeSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LatticeSweep, GraphLeqIsReflexiveAndMonotone) {
  RNG R(GetParam());
  StringInterner Props;
  Graph G = randomGraph(R, 8 + R.below(8), 20 + R.below(20), Props);
  EXPECT_TRUE(Graph::leq(G, G)) << "reflexivity";

  // Adding edges only moves up the lattice.
  Graph G2 = G; // Copy.
  NodeId A = static_cast<NodeId>(R.below(G.numNodes()));
  NodeId B = static_cast<NodeId>(R.below(G.numNodes()));
  G2.addEdge(A, B, EdgeKind::Dep);
  EXPECT_TRUE(Graph::leq(G, G2));
}

TEST_P(LatticeSweep, StoreLatticeLaws) {
  RNG R(GetParam() ^ 0xBEEF);
  AbstractStore S1 = randomStore(R, 5, 10);
  AbstractStore S2 = randomStore(R, 5, 10);

  // Reflexivity.
  EXPECT_TRUE(AbstractStore::leq(S1, S1));

  // Join is an upper bound of both operands.
  AbstractStore J = S1;
  J.joinWith(S2);
  EXPECT_TRUE(AbstractStore::leq(S1, J));
  EXPECT_TRUE(AbstractStore::leq(S2, J));

  // Idempotence: joining again changes nothing.
  AbstractStore J2 = J;
  EXPECT_FALSE(J2.joinWith(S2));
  EXPECT_TRUE(J2 == J);

  // Commutativity: S1 ⊔ S2 == S2 ⊔ S1.
  AbstractStore JRev = S2;
  JRev.joinWith(S1);
  EXPECT_TRUE(JRev == J);
}

TEST_P(LatticeSweep, ResolvePropertyIsMonotoneUnderNewDeps) {
  // Adding dependency edges never removes resolution results.
  RNG R(GetParam() ^ 0xCAFE);
  StringInterner Props;
  Graph G = randomGraph(R, 10, 25, Props);
  Symbol P = Props.intern("p0");
  NodeId L = static_cast<NodeId>(R.below(G.numNodes()));
  auto Before = G.resolveProperty(L, P);
  G.addEdge(static_cast<NodeId>(R.below(G.numNodes())),
            static_cast<NodeId>(R.below(G.numNodes())), EdgeKind::Dep);
  auto After = G.resolveProperty(L, P);
  for (NodeId N : Before)
    EXPECT_NE(std::find(After.begin(), After.end(), N), After.end());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LatticeSweep,
                         ::testing::Range<uint64_t>(1, 21));

//===----------------------------------------------------------------------===//
// Analysis determinism and budget monotonicity
//===----------------------------------------------------------------------===//

namespace {

const char *MixedProgram =
    "function helper(h) { return h + '!'; }\n"
    "function entry(a, b, k) {\n"
    "  var o = {x: a};\n"
    "  o[k] = helper(b);\n"
    "  var i = 0;\n"
    "  while (i < 3) { o.x = o.x + a; i = i + 1; }\n"
    "  sink(o.x, o[k]);\n"
    "}\n"
    "module.exports = entry;\n";

} // namespace

TEST(AnalysisPropertyTest, BuildIsDeterministic) {
  DiagnosticEngine Diags;
  auto Prog = core::normalizeJS(MixedProgram, Diags);
  analysis::BuildResult R1 = analysis::buildMDG(*Prog);
  analysis::BuildResult R2 = analysis::buildMDG(*Prog);
  EXPECT_EQ(R1.Graph.numNodes(), R2.Graph.numNodes());
  EXPECT_EQ(R1.Graph.numEdges(), R2.Graph.numEdges());
  EXPECT_TRUE(Graph::leq(R1.Graph, R2.Graph));
  EXPECT_TRUE(Graph::leq(R2.Graph, R1.Graph));
}

TEST(AnalysisPropertyTest, MoreFixpointItersNeverShrinkTheGraph) {
  DiagnosticEngine Diags;
  auto Prog = core::normalizeJS(MixedProgram, Diags);
  size_t PrevEdges = 0;
  for (unsigned Iters : {1u, 2u, 4u, 64u}) {
    analysis::BuilderOptions O;
    O.MaxFixpointIters = Iters;
    analysis::BuildResult R = analysis::buildMDG(*Prog, O);
    EXPECT_GE(R.Graph.numEdges(), PrevEdges);
    PrevEdges = R.Graph.numEdges();
  }
}

TEST(AnalysisPropertyTest, DeeperInliningNeverShrinksTheGraph) {
  DiagnosticEngine Diags;
  auto Prog = core::normalizeJS(MixedProgram, Diags);
  size_t PrevEdges = 0;
  for (unsigned Depth : {1u, 2u, 4u, 8u}) {
    analysis::BuilderOptions O;
    O.MaxInlineDepth = Depth;
    analysis::BuildResult R = analysis::buildMDG(*Prog, O);
    EXPECT_GE(R.Graph.numEdges(), PrevEdges);
    PrevEdges = R.Graph.numEdges();
  }
}
