//===- tests/test_mdg.cpp - Unit tests for the MDG data structure ---------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//

#include "mdg/AbstractStore.h"
#include "mdg/MDG.h"

#include <gtest/gtest.h>

using namespace gjs;
using namespace gjs::mdg;

namespace {

NodeId obj(Graph &G, const std::string &Label, uint32_t Site = 0) {
  return G.addNode(NodeKind::Object, Site, SourceLocation(), Label);
}

} // namespace

TEST(MDGTest, AddNodesAndEdges) {
  Graph G;
  NodeId A = obj(G, "a"), B = obj(G, "b");
  EXPECT_TRUE(G.addEdge(A, B, EdgeKind::Dep));
  EXPECT_FALSE(G.addEdge(A, B, EdgeKind::Dep)) << "duplicate edge";
  EXPECT_EQ(G.numNodes(), 2u);
  EXPECT_EQ(G.numEdges(), 1u);
  EXPECT_TRUE(G.hasEdge(A, B, EdgeKind::Dep));
  EXPECT_FALSE(G.hasEdge(B, A, EdgeKind::Dep));
}

TEST(MDGTest, EdgesWithDifferentPropsAreDistinct) {
  Graph G;
  StringInterner SI;
  NodeId A = obj(G, "a"), B = obj(G, "b");
  EXPECT_TRUE(G.addEdge(A, B, EdgeKind::Prop, SI.intern("x")));
  EXPECT_TRUE(G.addEdge(A, B, EdgeKind::Prop, SI.intern("y")));
  EXPECT_EQ(G.numEdges(), 2u);
}

TEST(MDGTest, RevisionBumpsOnGrowth) {
  Graph G;
  uint64_t R0 = G.revision();
  NodeId A = obj(G, "a");
  EXPECT_GT(G.revision(), R0);
  NodeId B = obj(G, "b");
  uint64_t R1 = G.revision();
  G.addEdge(A, B, EdgeKind::Dep);
  EXPECT_GT(G.revision(), R1);
  uint64_t R2 = G.revision();
  G.addEdge(A, B, EdgeKind::Dep); // No growth.
  EXPECT_EQ(G.revision(), R2);
}

TEST(MDGTest, VersionChainWalk) {
  Graph G;
  StringInterner SI;
  NodeId O1 = obj(G, "o1"), O2 = obj(G, "o2"), O3 = obj(G, "o3");
  G.addEdge(O1, O2, EdgeKind::Version, SI.intern("a"));
  G.addEdge(O2, O3, EdgeKind::VersionUnknown);
  auto Chain = G.versionAncestors(O3);
  EXPECT_EQ(Chain.size(), 3u);
  auto Oldest = G.oldestVersions(O3);
  ASSERT_EQ(Oldest.size(), 1u);
  EXPECT_EQ(Oldest[0], O1);
  EXPECT_TRUE(G.isVersionAncestor(O1, O3));
  EXPECT_TRUE(G.isVersionAncestor(O2, O3));
  EXPECT_FALSE(G.isVersionAncestor(O3, O1));
}

TEST(MDGTest, VersionCycleTerminates) {
  Graph G;
  StringInterner SI;
  NodeId O1 = obj(G, "o1"), O2 = obj(G, "o2");
  G.addEdge(O1, O2, EdgeKind::Version, SI.intern("p"));
  G.addEdge(O2, O1, EdgeKind::Version, SI.intern("q")); // Cycle (§5.5).
  auto Chain = G.versionAncestors(O2);
  EXPECT_EQ(Chain.size(), 2u);
  EXPECT_TRUE(G.isVersionAncestor(O1, O2));
  EXPECT_TRUE(G.isVersionAncestor(O2, O1));
}

TEST(MDGTest, ResolvePropertyNearestVersionWins) {
  // o1 --V(a)--> o2; o1 has P(a)->x, o2 has P(a)->y. Resolving `a` on o2
  // must return only y (the newer definition shadows the older one).
  Graph G;
  StringInterner SI;
  Symbol A = SI.intern("a");
  NodeId O1 = obj(G, "o1"), O2 = obj(G, "o2");
  NodeId X = obj(G, "x"), Y = obj(G, "y");
  G.addEdge(O1, O2, EdgeKind::Version, A);
  G.addEdge(O1, X, EdgeKind::Prop, A);
  G.addEdge(O2, Y, EdgeKind::Prop, A);
  auto R = G.resolveProperty(O2, A);
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0], Y);
}

TEST(MDGTest, ResolvePropertyFigure1Line7) {
  // The paper's Fig. 1 line 7: chain o5 -V(*)-> o6 -V(cmd)-> o7;
  // o5 has P(commit)->o9 (lazily added) and o6 has P(*)->o4.
  // Resolving `commit` on o7 returns {o9, o4}.
  Graph G;
  StringInterner SI;
  Symbol Commit = SI.intern("commit");
  Symbol Cmd = SI.intern("cmd");
  NodeId O5 = obj(G, "o5"), O6 = obj(G, "o6"), O7 = obj(G, "o7");
  NodeId O4 = obj(G, "o4"), O9 = obj(G, "o9");
  G.addEdge(O5, O6, EdgeKind::VersionUnknown);
  G.addEdge(O6, O7, EdgeKind::Version, Cmd);
  G.addEdge(O6, O4, EdgeKind::PropUnknown);
  G.addEdge(O5, O9, EdgeKind::Prop, Commit);
  auto R = G.resolveProperty(O7, Commit);
  ASSERT_EQ(R.size(), 2u);
  EXPECT_NE(std::find(R.begin(), R.end(), O9), R.end());
  EXPECT_NE(std::find(R.begin(), R.end(), O4), R.end());
}

TEST(MDGTest, ResolvePropertyIgnoresOlderUnknown) {
  // P(*) on a version OLDER than the newest P(p) owner cannot overwrite p.
  Graph G;
  StringInterner SI;
  Symbol A = SI.intern("a");
  NodeId O1 = obj(G, "o1"), O2 = obj(G, "o2");
  NodeId Star = obj(G, "star"), X = obj(G, "x");
  G.addEdge(O1, O2, EdgeKind::Version, A);
  G.addEdge(O1, Star, EdgeKind::PropUnknown);
  G.addEdge(O2, X, EdgeKind::Prop, A);
  auto R = G.resolveProperty(O2, A);
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0], X);
}

TEST(MDGTest, ResolveUnknownPropertyCollectsEverything) {
  Graph G;
  StringInterner SI;
  Symbol A = SI.intern("a");
  NodeId O1 = obj(G, "o1"), O2 = obj(G, "o2");
  NodeId X = obj(G, "x"), Star = obj(G, "star");
  G.addEdge(O1, O2, EdgeKind::Version, A);
  G.addEdge(O1, X, EdgeKind::Prop, A);
  G.addEdge(O2, Star, EdgeKind::PropUnknown);
  auto R = G.resolveUnknownProperty(O2);
  EXPECT_EQ(R.size(), 2u);
}

TEST(MDGTest, LatticeLeq) {
  Graph G1, G2;
  NodeId A1 = obj(G1, "a"), B1 = obj(G1, "b");
  NodeId A2 = obj(G2, "a"), B2 = obj(G2, "b");
  (void)A2;
  (void)B2;
  G2.addEdge(A1, B1, EdgeKind::Dep);
  EXPECT_TRUE(Graph::leq(G1, G2));
  EXPECT_FALSE(Graph::leq(G2, G1));
  G1.addEdge(A1, B1, EdgeKind::Dep);
  EXPECT_TRUE(Graph::leq(G1, G2));
  EXPECT_TRUE(Graph::leq(G2, G1));
}

TEST(MDGTest, DumpMentionsEdgeLabels) {
  Graph G;
  StringInterner SI;
  NodeId A = obj(G, "cfg"), B = obj(G, "opt");
  G.addEdge(A, B, EdgeKind::Prop, SI.intern("cmd"));
  std::string D = G.dump(SI);
  EXPECT_NE(D.find("P(cmd)"), std::string::npos);
  EXPECT_NE(D.find("cfg"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Abstract store
//===----------------------------------------------------------------------===//

namespace {
// Variable ids for the store tests (the builder interns names to these).
constexpr VarId X = 1, Y = 2, A = 3, B = 4, T = 5, E = 6;
} // namespace

TEST(AbstractStoreTest, SetAndGet) {
  AbstractStore S;
  S.set(X, 3);
  EXPECT_EQ(S.get(X).size(), 1u);
  EXPECT_TRUE(S.get(X).count(3));
  EXPECT_TRUE(S.get(Y).empty());
  EXPECT_FALSE(S.contains(Y));
}

TEST(AbstractStoreTest, StrongUpdateReplaces) {
  AbstractStore S;
  S.set(X, 1);
  S.set(X, 2);
  EXPECT_EQ(S.get(X).size(), 1u);
  EXPECT_TRUE(S.get(X).count(2));
}

TEST(AbstractStoreTest, JoinAccumulates) {
  AbstractStore S;
  S.set(X, 1);
  EXPECT_TRUE(S.join(X, {2}));
  EXPECT_FALSE(S.join(X, {2}));
  EXPECT_EQ(S.get(X).size(), 2u);
}

TEST(AbstractStoreTest, JoinWithAndLeq) {
  AbstractStore S1, S2;
  S1.set(X, 1);
  S2.set(X, 2);
  S2.set(Y, 3);
  EXPECT_FALSE(AbstractStore::leq(S2, S1));
  AbstractStore Joined = S1;
  EXPECT_TRUE(Joined.joinWith(S2));
  EXPECT_TRUE(AbstractStore::leq(S1, Joined));
  EXPECT_TRUE(AbstractStore::leq(S2, Joined));
  EXPECT_EQ(Joined.get(X).size(), 2u);
}

TEST(AbstractStoreTest, ReplaceEverywhereRewritesVersions) {
  AbstractStore S;
  S.set(A, {1, 5});
  S.set(B, 5);
  S.replaceEverywhere(5, 9);
  EXPECT_TRUE(S.get(A).count(9));
  EXPECT_FALSE(S.get(A).count(5));
  EXPECT_TRUE(S.get(B).count(9));
}

TEST(AbstractStoreTest, Equality) {
  AbstractStore S1, S2;
  S1.set(X, 1);
  S2.set(X, 1);
  EXPECT_TRUE(S1 == S2);
  S2.join(X, {2});
  EXPECT_FALSE(S1 == S2);
}

TEST(AbstractStoreTest, LocSetIteratesInAscendingOrder) {
  LocSet L{9, 2, 5, 2};
  EXPECT_EQ(std::vector<NodeId>(L.begin(), L.end()),
            (std::vector<NodeId>{2, 5, 9}));
  EXPECT_TRUE(L.insertAll({1, 5}));
  EXPECT_FALSE(L.insertAll({1, 9}));
  EXPECT_EQ(std::vector<NodeId>(L.begin(), L.end()),
            (std::vector<NodeId>{1, 2, 5, 9}));
}

// The builder's while-loop pattern: each iteration opens a level and
// joinLevel() reports whether ρ̂' ⊔ ρ̂ differs from ρ̂. Here the fixpoint runs
// inside both branches of an if; the then-branch also wrote X before its
// loop, so the loop's trail entry for X folds into the branch's older one.
TEST(AbstractStoreTest, NestedFixpointInsideBothIfBranches) {
  AbstractStore S;
  S.set(X, 1);

  S.pushLevel(); // then-branch
  S.set(X, 4);
  S.pushLevel(); // loop, iteration 1
  S.set(X, 2);
  EXPECT_TRUE(S.joinLevel());
  EXPECT_EQ(S.get(X), (LocSet{2, 4}));
  S.pushLevel(); // loop, iteration 2: nothing new
  S.set(X, 2);
  EXPECT_FALSE(S.joinLevel());
  EXPECT_EQ(S.get(X), (LocSet{2, 4}));
  AbstractStore::Branch Then = S.undoLevel();
  EXPECT_EQ(S.get(X), (LocSet{1})) << "undo restores the pre-if binding";
  EXPECT_EQ(S.depth(), 0u);

  S.pushLevel(); // else-branch
  S.pushLevel(); // loop, iteration 1: creates Y
  S.set(Y, 3);
  EXPECT_TRUE(S.joinLevel());
  S.pushLevel(); // loop, iteration 2
  S.set(Y, 3);
  EXPECT_FALSE(S.joinLevel());
  S.joinBranch(Then);

  EXPECT_EQ(S.depth(), 0u);
  EXPECT_EQ(S.get(X), (LocSet{1, 2, 4}));
  EXPECT_EQ(S.get(Y), (LocSet{3}));
  EXPECT_EQ(S.numBound(), 2u);
}

TEST(AbstractStoreTest, BranchOnlyBindingsSurviveTheJoin) {
  AbstractStore S;
  S.set(A, 1);
  S.set(B, 7);

  S.pushLevel(); // then: binds T, overwrites A
  S.set(T, 5);
  S.set(A, 2);
  AbstractStore::Branch Then = S.undoLevel();
  EXPECT_FALSE(S.contains(T)) << "then-only binding undone before else";
  EXPECT_EQ(S.get(A), (LocSet{1}));

  S.pushLevel(); // else: binds E, overwrites A and B
  S.set(E, 6);
  S.set(A, 3);
  S.set(B, 8);
  S.joinBranch(Then);

  EXPECT_EQ(S.get(T), (LocSet{5})) << "bound only in the then-branch";
  EXPECT_EQ(S.get(E), (LocSet{6})) << "bound only in the else-branch";
  EXPECT_EQ(S.get(A), (LocSet{2, 3}));
  // The then-branch left B at its pre-if binding, so the join keeps it.
  EXPECT_EQ(S.get(B), (LocSet{7, 8}));
}

TEST(AbstractStoreTest, JoinOfEmptySetCreatesBinding) {
  AbstractStore S;
  EXPECT_TRUE(S.join(X, {}));
  EXPECT_TRUE(S.contains(X));
  EXPECT_TRUE(S.get(X).empty());
  EXPECT_FALSE(S.join(X, {}));

  // Under a level, creating a binding is a change even though no location
  // was added.
  S.pushLevel();
  EXPECT_TRUE(S.join(Y, {}));
  EXPECT_TRUE(S.joinLevel());
  EXPECT_TRUE(S.contains(Y));
  S.pushLevel();
  S.join(Y, {});
  EXPECT_FALSE(S.joinLevel());
}

TEST(AbstractStoreTest, ReplaceEverywhereUnderLevelIsUndone) {
  AbstractStore S;
  S.set(A, {1, 5});
  S.set(B, 5);

  S.pushLevel();
  S.replaceEverywhere(5, 9);
  EXPECT_EQ(S.get(A), (LocSet{1, 9}));
  EXPECT_EQ(S.get(B), (LocSet{9}));
  S.undoLevel();
  EXPECT_EQ(S.get(A), (LocSet{1, 5}));
  EXPECT_EQ(S.get(B), (LocSet{5}));

  // The reverse index follows the undo: a later rewrite of 5 still finds
  // both holders, and 9 no longer has any.
  S.replaceEverywhere(9, 11);
  S.replaceEverywhere(5, 7);
  EXPECT_EQ(S.get(A), (LocSet{1, 7}));
  EXPECT_EQ(S.get(B), (LocSet{7}));
}

TEST(MDGTest, DotExportRendersStructure) {
  Graph G;
  StringInterner SI;
  NodeId A = obj(G, "config");
  NodeId B = obj(G, "options");
  NodeId C = G.addNode(NodeKind::Call, 7, SourceLocation(6, 3), "exec");
  G.node(A).IsTaintSource = true;
  G.addEdge(A, B, EdgeKind::PropUnknown);
  G.addEdge(B, C, EdgeKind::Dep);
  G.addEdge(A, B, EdgeKind::Version, SI.intern("cmd"));
  std::string Dot = G.toDot(SI);
  EXPECT_NE(Dot.find("digraph MDG"), std::string::npos);
  EXPECT_NE(Dot.find("shape=box"), std::string::npos);
  EXPECT_NE(Dot.find("fillcolor=lightcoral"), std::string::npos);
  EXPECT_NE(Dot.find("P(*)"), std::string::npos);
  EXPECT_NE(Dot.find("V(cmd)"), std::string::npos);
  EXPECT_NE(Dot.find("style=dashed"), std::string::npos);
}

TEST(MDGTest, CollapseVersionsMergesChains) {
  // o1 -V(a)-> o2 -V(b)-> o3; o1 has P(x)->v; o2 has P(a)->w.
  Graph G;
  StringInterner SI;
  Symbol A = SI.intern("a"), B = SI.intern("b"), X = SI.intern("x");
  NodeId O1 = obj(G, "o1"), O2 = obj(G, "o2"), O3 = obj(G, "o3");
  NodeId V = obj(G, "v"), W = obj(G, "w");
  G.node(O1).IsTaintSource = true;
  G.addEdge(O1, O2, EdgeKind::Version, A);
  G.addEdge(O2, O3, EdgeKind::Version, B);
  G.addEdge(O1, V, EdgeKind::Prop, X);
  G.addEdge(O2, W, EdgeKind::Prop, A);

  Graph C = G.collapseVersions();
  // o1/o2/o3 merge into one node; v and w survive: 3 nodes total.
  EXPECT_EQ(C.numNodes(), 3u);
  // No version edges remain.
  for (NodeId N : C.nodeIds())
    for (const Edge &E : C.out(N)) {
      EXPECT_NE(E.Kind, EdgeKind::Version);
      EXPECT_NE(E.Kind, EdgeKind::VersionUnknown);
    }
  // The merged object keeps both properties and the taint flag.
  bool Tainted = false;
  size_t PropEdges = 0;
  for (NodeId N : C.nodeIds()) {
    Tainted |= C.node(N).IsTaintSource;
    for (const Edge &E : C.out(N))
      PropEdges += E.Kind == EdgeKind::Prop;
  }
  EXPECT_TRUE(Tainted);
  EXPECT_EQ(PropEdges, 2u);
}

TEST(MDGTest, CollapseShadowsOverwrittenProperties) {
  // o1 -V(a)-> o2, both define P(a): only o2's survives.
  Graph G;
  StringInterner SI;
  Symbol A = SI.intern("a");
  NodeId O1 = obj(G, "o1"), O2 = obj(G, "o2");
  NodeId Old = obj(G, "old"), New = obj(G, "new");
  G.addEdge(O1, O2, EdgeKind::Version, A);
  G.addEdge(O1, Old, EdgeKind::Prop, A);
  G.addEdge(O2, New, EdgeKind::Prop, A);
  Graph C = G.collapseVersions();
  size_t PropEdges = 0;
  for (NodeId N : C.nodeIds())
    for (const Edge &E : C.out(N))
      PropEdges += E.Kind == EdgeKind::Prop;
  EXPECT_EQ(PropEdges, 1u);
}

TEST(MDGTest, CollapseHandlesVersionCycles) {
  Graph G;
  StringInterner SI;
  NodeId O1 = obj(G, "o1"), O2 = obj(G, "o2");
  G.addEdge(O1, O2, EdgeKind::VersionUnknown);
  G.addEdge(O2, O1, EdgeKind::VersionUnknown);
  G.addEdge(O1, obj(G, "x"), EdgeKind::PropUnknown);
  Graph C = G.collapseVersions();
  EXPECT_EQ(C.numNodes(), 2u);
}
