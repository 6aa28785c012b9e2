//===- graphdb/QueryEngine.cpp - Query evaluation --------------------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//

#include "graphdb/QueryEngine.h"

#include "obs/Counters.h"
#include "support/Deadline.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <set>
#include <unordered_map>

using namespace gjs;
using namespace gjs::graphdb;

//===----------------------------------------------------------------------===//
// Plan rendering (EXPLAIN) and the step profiler (PROFILE)
//===----------------------------------------------------------------------===//

/// Renders a node pattern like `(src:Object {taint: 'true'})`.
static std::string renderNode(const NodePattern &N) {
  std::string Out = "(" + N.Var;
  if (!N.Label.empty())
    Out += ":" + N.Label;
  if (!N.Props.empty()) {
    Out += " {";
    bool First = true;
    for (const auto &[Key, Value] : N.Props) {
      if (!First)
        Out += ", ";
      First = false;
      Out += Key + ": '" + Value + "'";
    }
    Out += "}";
  }
  return Out + ")";
}

/// Renders a relationship pattern with its *effective* hop bounds under the
/// engine options (`-[:D|P*0..24]->`): EXPLAIN shows the plan the engine
/// will actually execute, unbounded segments included.
static std::string renderRel(const RelPattern &R, const EngineOptions &O) {
  std::string Mid = "[";
  Mid += R.Var;
  if (!R.Types.empty()) {
    Mid += ":";
    for (size_t I = 0; I < R.Types.size(); ++I) {
      if (I)
        Mid += "|";
      Mid += R.Types[I];
    }
  }
  if (!R.Props.empty()) {
    Mid += " {";
    bool First = true;
    for (const auto &[Key, Value] : R.Props) {
      if (!First)
        Mid += ", ";
      First = false;
      Mid += Key + ": '" + Value + "'";
    }
    Mid += "}";
  }
  if (R.VarLength) {
    uint32_t Max = R.Unbounded ? O.MaxHops : R.MaxHops;
    Mid += "*" + std::to_string(R.MinHops) + ".." + std::to_string(Max);
  }
  Mid += "]";
  return R.Reverse ? "<-" + Mid + "-" : "-" + Mid + "->";
}

std::vector<StepProfile> graphdb::planSteps(const Query &Q,
                                            const EngineOptions &O) {
  std::vector<StepProfile> Steps;
  for (size_t I = 0; I < Q.Matches.size(); ++I) {
    const MatchItem &M = Q.Matches[I];
    StepProfile Scan;
    Scan.Item = I;
    Scan.Pos = 0;
    Scan.Desc = "scan " + renderNode(M.Nodes[0]);
    if (!M.PathVar.empty())
      Scan.Desc += " [path " + M.PathVar + "]";
    Steps.push_back(std::move(Scan));
    for (size_t R = 0; R < M.Rels.size(); ++R) {
      StepProfile Exp;
      Exp.Item = I;
      Exp.Pos = R + 1;
      Exp.Desc = "expand " + renderRel(M.Rels[R], O) +
                 renderNode(M.Nodes[R + 1]);
      Steps.push_back(std::move(Exp));
    }
  }
  return Steps;
}

std::string graphdb::explainQuery(const Query &Q, const EngineOptions &O) {
  std::string Out;
  std::vector<StepProfile> Steps = planSteps(Q, O);
  size_t Idx = 0;
  for (const StepProfile &S : Steps) {
    if (S.Pos == 0 && S.Item > 0)
      Out += "\n";
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "  step %zu: ", Idx++);
    Out += Buf + S.Desc + "\n";
  }
  if (!Q.Where.empty())
    Out += "  filter: " + std::to_string(Q.Where.size()) +
           " WHERE condition(s) applied per candidate row\n";
  if (Q.Distinct)
    Out += "  distinct: projected rows deduplicated\n";
  if (Q.Limit)
    Out += "  limit: " + std::to_string(Q.Limit) + "\n";
  return Out;
}

std::string graphdb::renderProfile(const QueryProfile &P) {
  std::string Out;
  for (size_t I = 0; I < P.Steps.size(); ++I) {
    const StepProfile &S = P.Steps[I];
    char Buf[192];
    std::snprintf(Buf, sizeof(Buf),
                  "  step %zu: %-58s candidates=%llu matches=%llu ", I,
                  S.Desc.c_str(),
                  static_cast<unsigned long long>(S.Candidates),
                  static_cast<unsigned long long>(S.Matches));
    Out += Buf;
    if (S.GoalSteps) {
      std::snprintf(Buf, sizeof(Buf), "goal_steps=%llu ",
                    static_cast<unsigned long long>(S.GoalSteps));
      Out += Buf;
    }
    std::snprintf(Buf, sizeof(Buf), "%.3fms\n", S.Seconds * 1e3);
    Out += Buf;
  }
  if (!P.EmptyPlan.empty())
    Out += "  empty plan: " + P.EmptyPlan + "\n";
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "  total: rows=%llu steps=%llu backtracks=%llu %.3fms%s\n",
                static_cast<unsigned long long>(P.Rows),
                static_cast<unsigned long long>(P.Work),
                static_cast<unsigned long long>(P.Backtracks),
                P.TotalSeconds * 1e3, P.TimedOut ? " (timed out)" : "");
  Out += Buf;
  return Out;
}

/// Per-run profiling context. Exclusive per-step time uses the classic
/// profiler scheme: a stack of active steps, and every enter/exit attributes
/// the wall-clock elapsed since the previous transition to the step that
/// was running.
struct QueryEngine::Profiler {
  QueryProfile *Out = nullptr;
  std::vector<size_t> ItemBase; ///< First step index of each MATCH item.
  std::vector<size_t> Stack;
  std::chrono::steady_clock::time_point Last;

  void start(QueryProfile *Profile, const Query &Q, const EngineOptions &O) {
    Out = Profile;
    Out->Steps = planSteps(Q, O);
    ItemBase.clear();
    size_t Base = 0;
    for (const MatchItem &M : Q.Matches) {
      ItemBase.push_back(Base);
      Base += 1 + M.Rels.size();
    }
    Last = std::chrono::steady_clock::now();
  }

  size_t step(size_t Item, size_t Pos) const { return ItemBase[Item] + Pos; }

  void mark() {
    auto Now = std::chrono::steady_clock::now();
    if (!Stack.empty())
      Out->Steps[Stack.back()].Seconds +=
          std::chrono::duration<double>(Now - Last).count();
    Last = Now;
  }

  void enter(size_t StepIdx) {
    mark();
    Stack.push_back(StepIdx);
  }

  void exit() {
    mark();
    Stack.pop_back();
  }

  void candidate(size_t StepIdx) { ++Out->Steps[StepIdx].Candidates; }
  void match(size_t StepIdx) { ++Out->Steps[StepIdx].Matches; }

  /// RAII enter/exit of one plan step (no-op without a profiler).
  struct Scope {
    Profiler *P;
    Scope(Profiler *P, size_t Item, size_t Pos) : P(P) {
      if (P)
        P->enter(P->step(Item, Pos));
    }
    ~Scope() {
      if (P)
        P->exit();
    }
  };
};

//===----------------------------------------------------------------------===//
// The compiled plan
//===----------------------------------------------------------------------===//

/// A node pattern resolved against the store. One with a label or
/// property string the store never saw empties the whole plan, so it is
/// never matched.
struct QueryEngine::NodeStep {
  Atom Label = NoAtom; ///< NoAtom = any label.
  std::vector<Prop> Props;
  int32_t Slot = -1; ///< Node variable slot; -1 = anonymous.
  /// Label scan of an item's first node (ascending handles); null for
  /// the item's other nodes.
  const std::vector<NodeHandle> *Scan = nullptr;
};

/// A relationship pattern resolved against the store.
struct QueryEngine::RelStep {
  bool AnyType = true;
  /// Bitset over type atoms from TypeBase on: the pattern's types the
  /// store has.
  Atom TypeBase = 0;
  std::vector<uint64_t> Types;
  bool hasType(Atom T) const {
    const Atom D = T - TypeBase; // Wraps past the set for T < TypeBase.
    return (D >> 6) < Types.size() && (Types[D >> 6] >> (D & 63)) & 1;
  }
  bool Never = false;      ///< A property string the store never saw.
  std::vector<Prop> Props;
  uint32_t MinHops = 1, MaxHops = 1; ///< Effective bounds.
  bool Reverse = false;
  bool VarLength = false;
  bool Folded = false; ///< Variable-length with a registered fold.
};

struct QueryEngine::Plan {
  struct Item {
    std::vector<NodeStep> Nodes;
    std::vector<RelStep> Rels;
    int32_t PathSlot = -1;
    size_t StepBase = 0; ///< Plan step of the item's scan.
  };
  struct Cond {
    bool IsCompare = true;
    bool Negated = false;
    bool NotEqual = false;
    int32_t LHSSlot = -1, RHSSlot = -1; ///< -1: not a node variable.
    /// NoAtom (a key the store never saw) reads as '' like a missing key.
    Atom LHSKey = NoAtom, RHSKey = NoAtom;
    bool RHSIsLiteral = true;
    Atom RHSLiteral = NoAtom;
    const PathPredicate *Pred = nullptr; ///< null: unregistered.
    int32_t PathSlot = -1;
  };
  struct Return {
    int32_t NodeSlot = -1, PathSlot = -1;
    bool WholeNode = true;
    Atom Key = NoAtom;
  };
  std::vector<Item> Items;
  std::vector<Cond> Conds;
  std::vector<Return> Returns;
  std::vector<std::string> NodeVars, PathVars; ///< Slot → variable name.
  size_t NumSteps = 0; ///< One scan plus one per segment, per item.
  /// Non-empty when compile proved that no row can match: names the
  /// pattern string the store lacks.
  std::string Empty;
  bool Distinct = false;
  uint64_t Limit = 0;
};

QueryEngine::Plan QueryEngine::compile(const Query &Q) const {
  Plan P;
  P.Distinct = Q.Distinct;
  P.Limit = Q.Limit;
  std::map<std::string, int32_t> NodeSlots, PathSlots;
  auto Declare = [](std::map<std::string, int32_t> &Slots,
                    std::vector<std::string> &Names, const std::string &Var) {
    if (Var.empty())
      return -1;
    auto [It, Fresh] =
        Slots.emplace(Var, static_cast<int32_t>(Names.size()));
    if (Fresh)
      Names.push_back(Var);
    return It->second;
  };
  auto Find = [](const std::map<std::string, int32_t> &Slots,
                 const std::string &Var) {
    auto It = Slots.find(Var);
    return It == Slots.end() ? -1 : It->second;
  };
  // Keys first: on an opened MDG, naming a debug property key interns its
  // values, and every string below must resolve against the final table.
  auto PrepareKey = [&](const std::string &Key) {
    if (!Key.empty())
      G.keyAtom(Key);
  };
  for (const MatchItem &M : Q.Matches) {
    for (const NodePattern &N : M.Nodes)
      for (const auto &KV : N.Props)
        PrepareKey(KV.first);
    for (const RelPattern &R : M.Rels)
      for (const auto &KV : R.Props)
        PrepareKey(KV.first);
  }
  for (const Condition &C : Q.Where) {
    PrepareKey(C.LHSKey);
    PrepareKey(C.RHSKey);
  }
  for (const ReturnItem &R : Q.Returns)
    PrepareKey(R.Key);
  // Pattern properties: a key or value the store never saw can't match.
  // Returns the first such string ("" when every string resolved).
  auto Resolve = [&](const std::map<std::string, std::string> &In,
                     std::vector<Prop> &Out) {
    std::string Absent;
    for (const auto &[Key, Value] : In) {
      Prop Pr{G.atom(Key), G.atom(Value)};
      if (Absent.empty() && (Pr.Key == NoAtom || Pr.Value == NoAtom))
        Absent = "'" + (Pr.Key == NoAtom ? Key : Value) + "'";
      Out.push_back(Pr);
    }
    return Absent;
  };
  // Every MATCH item is mandatory, so one pattern that cannot match
  // anything proves the whole plan empty. The first proof found is kept.
  auto ProveEmpty = [&](size_t Step, const std::string &Absent) {
    if (P.Empty.empty() && !Absent.empty())
      P.Empty = "step " + std::to_string(Step) + ": " + Absent +
                " is absent from the store";
  };
  for (const MatchItem &M : Q.Matches) {
    Plan::Item &I = P.Items.emplace_back();
    I.PathSlot = Declare(PathSlots, P.PathVars, M.PathVar);
    I.StepBase = P.NumSteps;
    P.NumSteps += M.Nodes.size();
    for (size_t Pos = 0; Pos < M.Nodes.size(); ++Pos) {
      const NodePattern &N = M.Nodes[Pos];
      NodeStep &S = I.Nodes.emplace_back();
      std::string Absent = Resolve(N.Props, S.Props);
      if (!N.Label.empty()) {
        S.Label = G.atom(N.Label);
        if (S.Label == NoAtom)
          Absent = "label :" + N.Label;
      }
      ProveEmpty(I.StepBase + Pos, Absent);
      S.Slot = Declare(NodeSlots, P.NodeVars, N.Var);
      if (Pos == 0)
        S.Scan = &G.nodesByLabel(N.Label);
    }
    for (size_t Pos = 0; Pos < M.Rels.size(); ++Pos) {
      const RelPattern &R = M.Rels[Pos];
      RelStep &S = I.Rels.emplace_back();
      S.AnyType = R.Types.empty();
      std::vector<Atom> TypeAtoms;
      for (const std::string &T : R.Types)
        if (Atom A = G.atom(T); A != NoAtom)
          TypeAtoms.push_back(A);
      if (!TypeAtoms.empty())
        S.TypeBase = *std::min_element(TypeAtoms.begin(), TypeAtoms.end());
      for (Atom A : TypeAtoms) {
        const Atom D = A - S.TypeBase;
        if ((D >> 6) >= S.Types.size())
          S.Types.resize((D >> 6) + 1, 0);
        S.Types[D >> 6] |= uint64_t(1) << (D & 63);
      }
      std::string Absent = Resolve(R.Props, S.Props);
      S.Never = !Absent.empty();
      if (!S.AnyType && S.Types.empty()) { // No named type is stored.
        Absent = "every type of ";
        for (size_t T = 0; T < R.Types.size(); ++T)
          Absent += (T ? "|" : ":") + R.Types[T];
      }
      S.MinHops = R.VarLength ? R.MinHops : 1;
      S.MaxHops = R.VarLength ? (R.Unbounded ? Options.MaxHops : R.MaxHops) : 1;
      S.Reverse = R.Reverse;
      S.VarLength = R.VarLength;
      S.Folded = R.VarLength && Fold_;
      // A segment that must take a hop but can take none. (A `*0..`
      // segment still accepts its start node.)
      if (S.MinHops >= 1)
        ProveEmpty(I.StepBase + Pos + 1, Absent);
    }
  }
  for (const Condition &C : Q.Where) {
    Plan::Cond &PC = P.Conds.emplace_back();
    PC.IsCompare = C.K == Condition::Kind::Compare;
    PC.Negated = C.Negated;
    if (PC.IsCompare) {
      PC.NotEqual = C.NotEqual;
      PC.LHSSlot = Find(NodeSlots, C.LHSVar);
      PC.LHSKey = G.atom(C.LHSKey);
      PC.RHSIsLiteral = C.RHSIsLiteral;
      if (C.RHSIsLiteral) {
        PC.RHSLiteral = G.atom(C.RHSLiteral);
      } else {
        PC.RHSSlot = Find(NodeSlots, C.RHSVar);
        PC.RHSKey = G.atom(C.RHSKey);
      }
    } else {
      auto It = Predicates.find(C.PredName);
      PC.Pred = It == Predicates.end() ? nullptr : &It->second;
      PC.PathSlot = Find(PathSlots, C.PredArg);
    }
  }
  for (const ReturnItem &R : Q.Returns) {
    Plan::Return &PR = P.Returns.emplace_back();
    PR.NodeSlot = Find(NodeSlots, R.Var);
    PR.PathSlot = Find(PathSlots, R.Var);
    PR.WholeNode = R.Key.empty();
    PR.Key = G.atom(R.Key);
  }
  return P;
}

//===----------------------------------------------------------------------===//
// Matcher state and reusable buffers
//===----------------------------------------------------------------------===//

namespace {

/// The (node, fold state) pairs one variable-length segment walk has
/// reached: a flat open-addressing table, emptied in O(1) by bumping the
/// generation stamp.
class VisitedTable {
public:
  /// Starts a new segment walk.
  void reset() {
    Used = 0;
    if (++Gen == 0) { // Stamp wrapped: clear for real.
      for (Entry &E : Slots)
        E.Gen = 0;
      Gen = 1;
    }
  }

  /// Inserts (N, S); false when the walk already reached it.
  bool insert(NodeHandle N, int64_t S) {
    if ((Used + 1) * 2 > Slots.size())
      grow();
    size_t Mask = Slots.size() - 1;
    for (size_t I = hash(N, S) & Mask;; I = (I + 1) & Mask) {
      Entry &E = Slots[I];
      if (E.Gen != Gen) {
        E = {Gen, N, S};
        ++Used;
        return true;
      }
      if (E.Node == N && E.State == S)
        return false;
    }
  }

private:
  struct Entry {
    uint32_t Gen = 0;
    NodeHandle Node = 0;
    int64_t State = 0;
  };
  std::vector<Entry> Slots;
  uint32_t Gen = 0;
  size_t Used = 0;

  static size_t hash(NodeHandle N, int64_t S) {
    uint64_t K = (static_cast<uint64_t>(S) << 32) ^ N;
    K *= 0x9E3779B97F4A7C15ULL;
    return static_cast<size_t>(K ^ (K >> 32));
  }

  void grow() {
    std::vector<Entry> Old = std::move(Slots);
    Slots.assign(Old.empty() ? 64 : Old.size() * 2, Entry());
    size_t Mask = Slots.size() - 1;
    for (const Entry &E : Old) {
      if (E.Gen != Gen)
        continue;
      size_t I = hash(E.Node, E.State) & Mask;
      while (Slots[I].Gen == Gen)
        I = (I + 1) & Mask;
      Slots[I] = E;
    }
  }
};

} // namespace

/// The goal set of one plan step: every node that can reach Target through
/// relationships the segment accepts. Members carry the current
/// generation stamp, so a new target costs no clearing.
struct QueryEngine::GoalSet {
  NodeHandle Target = InvalidHandle; ///< InvalidHandle: no valid set.
  uint32_t Gen = 0;
  std::vector<uint32_t> Stamp; ///< Node → Gen while a member.
  /// This run's finished sets by target: a target met again is re-stamped
  /// from its members instead of walked again.
  std::unordered_map<NodeHandle, std::vector<NodeHandle>> Known;

  bool has(NodeHandle N) const { return Stamp[N] == Gen; }

  /// Starts a new set (no member yet).
  void nextGen(size_t NumNodes) {
    Target = InvalidHandle;
    Stamp.resize(NumNodes, 0);
    if (++Gen == 0) { // Stamp wrapped: clear for real.
      std::fill(Stamp.begin(), Stamp.end(), 0);
      Gen = 1;
    }
  }
};

struct QueryEngine::Buffers {
  /// One per MATCH item: the item's path so far, and an on-path mark per
  /// relationship (relationship isomorphism in O(1)).
  struct ItemPath {
    Path P;
    std::vector<uint8_t> OnPath;
  };
  std::vector<ItemPath> Items;
  std::vector<VisitedTable> Visited; ///< One per plan step.
  std::vector<GoalSet> Goals;        ///< One per plan step.
};

/// Mutable matcher state threaded through the backtracking search.
struct QueryEngine::MatchState {
  const Plan &P;
  std::vector<NodeHandle> Nodes; ///< Node slot → binding (or invalid).
  std::vector<int32_t> Paths;    ///< Path slot → bound item (or -1).
  /// Projected rows already emitted (RETURN DISTINCT).
  std::set<std::vector<std::string>> SeenRows;
  uint64_t Work = 0;
  uint64_t GoalWork = 0;   ///< Of Work, the goal-walk steps.
  uint64_t Bindings = 0;   ///< Candidate variable binds (obs counter).
  uint64_t Backtracks = 0; ///< Path-element pops during segment walks.
  bool Aborted = false;
  bool RowLimitHit = false;
  /// Non-null in PROFILE mode only.
  Profiler *Prof = nullptr;

  explicit MatchState(const Plan &P)
      : P(P), Nodes(P.NodeVars.size(), InvalidHandle),
        Paths(P.PathVars.size(), -1) {}
};

/// One variable-length (or single-hop) segment walk of matchChain.
struct QueryEngine::Segment {
  size_t ItemIdx, NodeIdx, StepIdx;
  const RelStep &R;
  const NodeStep &Next;
  Buffers::ItemPath &Item;
  VisitedTable *Visited; ///< Non-null when the segment is folded.
  const GoalSet *Goal;   ///< Non-null when the end node is bound.
};

//===----------------------------------------------------------------------===//
// Matching
//===----------------------------------------------------------------------===//

QueryEngine::QueryEngine(const PropertyGraph &Graph, EngineOptions O)
    : G(Graph), Options(O), Bufs(std::make_unique<Buffers>()) {}

QueryEngine::~QueryEngine() = default;

void QueryEngine::registerPathPredicate(const std::string &Name,
                                        PathPredicate Pred) {
  Predicates[Name] = std::move(Pred);
}

bool QueryEngine::nodeMatches(NodeHandle H, const NodeStep &Pat) const {
  if (Pat.Label != NoAtom && G.labelAtom(H) != Pat.Label)
    return false;
  for (const Prop &P : Pat.Props)
    if (G.propAtom(H, P.Key) != P.Value)
      return false;
  return true;
}

bool QueryEngine::relMatches(RelHandle H, const RelRef &Rel,
                             const RelStep &Pat) const {
  if (Pat.Never)
    return false;
  if (!Pat.AnyType && !Pat.hasType(Rel.Type))
    return false;
  for (const Prop &P : Pat.Props)
    if (G.relPropAtom(H, P.Key) != P.Value)
      return false;
  return true;
}

bool QueryEngine::evalWhere(const MatchState &State) const {
  // A property read: the value atom, "" (atom 0) when the node lacks it.
  auto Read = [&](int32_t Slot, Atom Key, Atom &Out) {
    if (Slot < 0 || State.Nodes[Slot] == InvalidHandle)
      return false;
    Out = G.propAtom(State.Nodes[Slot], Key);
    if (Out == NoAtom)
      Out = 0;
    return true;
  };
  for (const Plan::Cond &C : State.P.Conds) {
    bool Holds = false;
    if (C.IsCompare) {
      Atom LHS = NoAtom, RHS = C.RHSLiteral;
      if (!Read(C.LHSSlot, C.LHSKey, LHS))
        return false;
      if (!C.RHSIsLiteral && !Read(C.RHSSlot, C.RHSKey, RHS))
        return false;
      Holds = C.NotEqual ? LHS != RHS : LHS == RHS;
    } else {
      if (!C.Pred || C.PathSlot < 0 || State.Paths[C.PathSlot] < 0)
        return false;
      Holds = (*C.Pred)(Bufs->Items[State.Paths[C.PathSlot]].P, G);
    }
    if (C.Negated)
      Holds = !Holds;
    if (!Holds)
      return false;
  }
  return true;
}

void QueryEngine::emitRow(MatchState &State, ResultSet &Out) {
  if (!evalWhere(State))
    return;
  const Plan &P = State.P;
  ResultRow Row;
  for (const Plan::Return &R : P.Returns) {
    if (R.NodeSlot >= 0 && State.Nodes[R.NodeSlot] != InvalidHandle) {
      NodeHandle H = State.Nodes[R.NodeSlot];
      Atom V = R.WholeNode ? NoAtom : G.propAtom(H, R.Key);
      Row.Values.push_back(R.WholeNode ? std::to_string(H)
                                       : G.str(V == NoAtom ? 0 : V));
    } else if (R.PathSlot >= 0 && State.Paths[R.PathSlot] >= 0) {
      const Path &Bound = Bufs->Items[State.Paths[R.PathSlot]].P;
      Row.Values.push_back("path[" + std::to_string(Bound.Rels.size()) + "]");
    } else {
      Row.Values.push_back("");
    }
  }
  if (P.Distinct && !State.SeenRows.insert(Row.Values).second)
    return;
  for (size_t S = 0; S < P.NodeVars.size(); ++S)
    if (State.Nodes[S] != InvalidHandle)
      Row.NodeBindings.emplace(P.NodeVars[S], State.Nodes[S]);
  for (size_t S = 0; S < P.PathVars.size(); ++S)
    if (State.Paths[S] >= 0)
      Row.PathBindings.emplace(P.PathVars[S], Bufs->Items[State.Paths[S]].P);
  Out.Rows.push_back(std::move(Row));
  if (Options.MaxRows != 0 && Out.Rows.size() >= Options.MaxRows)
    State.RowLimitHit = true;
  if (P.Limit != 0 && Out.Rows.size() >= P.Limit)
    State.RowLimitHit = true;
}

/// One matcher step: counts it against the budget and checkpoints the
/// scan-level deadline (aborting with the rows found so far).
bool QueryEngine::takeStep(MatchState &State) const {
  ++State.Work;
  if ((Options.WorkBudget != 0 && State.Work > Options.WorkBudget) ||
      (Options.ScanDeadline && Options.ScanDeadline->checkpoint())) {
    State.Aborted = true;
    return false;
  }
  return true;
}

/// The goal set of segment \p NodeIdx of item \p ItemIdx, or null when the
/// segment is single-hop or its end node variable is not yet bound (or the
/// goal walk aborted). Computed once per run and target by a backward
/// breadth-first walk from the bound node over the relationships the
/// segment accepts, one matcher step per expanded node.
///
/// Pruning the segment walk to the set keeps every row, binding and path
/// in the same order. The set is closed under predecessors, so every node
/// reachable from a non-member is a non-member, and a row needs the walk
/// to end at the bound node, a member. So a skipped start node or
/// extension roots a subtree that would emit no row. The visited-table
/// entries that subtree would have made are all for non-members, and
/// every later visit to a non-member is skipped anyway, so none of them
/// could have blocked a visit that leads to a row. On-path marks and fold
/// pruning act on members exactly as before.
const QueryEngine::GoalSet *
QueryEngine::goalSet(size_t ItemIdx, size_t NodeIdx, MatchState &State) {
  const Plan::Item &M = State.P.Items[ItemIdx];
  const RelStep &R = M.Rels[NodeIdx];
  const int32_t Slot = M.Nodes[NodeIdx + 1].Slot;
  if (!R.VarLength || Slot < 0 || State.Nodes[Slot] == InvalidHandle)
    return nullptr;
  const NodeHandle Target = State.Nodes[Slot];
  const size_t StepIdx = M.StepBase + NodeIdx + 1;
  GoalSet &GS = Bufs->Goals[StepIdx];
  if (GS.Target == Target)
    return &GS;

  GS.nextGen(G.numNodes());
  auto [It, Fresh] = GS.Known.try_emplace(Target);
  std::vector<NodeHandle> &Members = It->second;
  if (!Fresh) {
    for (NodeHandle N : Members)
      GS.Stamp[N] = GS.Gen;
    GS.Target = Target;
    return &GS;
  }
  Profiler::Scope Step(State.Prof, ItemIdx, NodeIdx + 1);
  const uint64_t Before = State.Work;
  Members.push_back(Target);
  GS.Stamp[Target] = GS.Gen;
  for (size_t I = 0; I < Members.size() && takeStep(State); ++I) {
    // Against the segment's direction: a forward segment's predecessors
    // come from the in-adjacency, a `<-[...]-` segment's from the out.
    for (RelHandle RH : R.Reverse ? G.out(Members[I]) : G.in(Members[I])) {
      const RelRef Rel = G.rel(RH);
      if (!relMatches(RH, Rel, R))
        continue;
      NodeHandle Prev = R.Reverse ? Rel.To : Rel.From;
      if (GS.Stamp[Prev] != GS.Gen) {
        GS.Stamp[Prev] = GS.Gen;
        Members.push_back(Prev);
      }
    }
  }
  State.GoalWork += State.Work - Before;
  if (State.Prof)
    State.Prof->Out->Steps[StepIdx].GoalSteps += State.Work - Before;
  if (State.Aborted) { // A partial set would prune reachable nodes.
    GS.Known.erase(It);
    return nullptr;
  }
  GS.Target = Target;
  return &GS;
}

void QueryEngine::matchItem(size_t ItemIdx, MatchState &State,
                            ResultSet &Out) {
  if (State.Aborted || State.RowLimitHit)
    return;
  if (ItemIdx == State.P.Items.size()) {
    emitRow(State, Out);
    return;
  }
  const Plan::Item &M = State.P.Items[ItemIdx];
  const NodeStep &First = M.Nodes[0];
  Buffers::ItemPath &Item = Bufs->Items[ItemIdx];
  Profiler::Scope Step(State.Prof, ItemIdx, 0);
  const size_t StepIdx = M.StepBase;

  auto StartWith = [&](NodeHandle H) {
    if (State.Prof)
      State.Prof->candidate(StepIdx);
    if (!nodeMatches(H, First))
      return;
    if (State.Prof)
      State.Prof->match(StepIdx);
    bool Bound = false;
    if (First.Slot >= 0 && State.Nodes[First.Slot] == InvalidHandle) {
      State.Nodes[First.Slot] = H;
      Bound = true;
      ++State.Bindings;
    }
    Item.P.Nodes.assign(1, H);
    Item.P.Rels.clear();
    matchChain(ItemIdx, 0, State, Out);
    if (Bound)
      State.Nodes[First.Slot] = InvalidHandle;
  };

  // Already-bound variable joins with the previous matches.
  if (First.Slot >= 0 && State.Nodes[First.Slot] != InvalidHandle) {
    StartWith(State.Nodes[First.Slot]);
    return;
  }
  // A first segment into an already-bound node: only start nodes in its
  // goal set are scanned.
  const GoalSet *Goal = M.Rels.empty() ? nullptr : goalSet(ItemIdx, 0, State);
  for (NodeHandle H : *First.Scan) {
    if (State.Aborted || State.RowLimitHit)
      return;
    if (Goal && !Goal->has(H))
      continue;
    if (!takeStep(State))
      return;
    StartWith(H);
  }
}

void QueryEngine::matchChain(size_t ItemIdx, size_t NodeIdx,
                             MatchState &State, ResultSet &Out) {
  if (State.Aborted || State.RowLimitHit)
    return;
  const Plan::Item &M = State.P.Items[ItemIdx];
  if (NodeIdx == M.Rels.size()) {
    // Chain complete: bind the path variable and move to the next item.
    bool BoundPath = false;
    if (M.PathSlot >= 0 && State.Paths[M.PathSlot] < 0) {
      State.Paths[M.PathSlot] = static_cast<int32_t>(ItemIdx);
      BoundPath = true;
    }
    matchItem(ItemIdx + 1, State, Out);
    if (BoundPath)
      State.Paths[M.PathSlot] = -1;
    return;
  }

  const size_t StepIdx = M.StepBase + NodeIdx + 1;
  Profiler::Scope Step(State.Prof, ItemIdx, NodeIdx + 1);
  Buffers::ItemPath &Item = Bufs->Items[ItemIdx];
  const GoalSet *Goal = goalSet(ItemIdx, NodeIdx, State);
  if (State.Aborted || (Goal && !Goal->has(Item.P.Nodes.back())))
    return;
  // With a registered path fold, (node, foldState) pairs are visited once
  // per segment walk — the planner-style pruning that keeps variable-
  // length matching polynomial.
  VisitedTable *Visited = nullptr;
  if (M.Rels[NodeIdx].Folded) {
    Visited = &Bufs->Visited[StepIdx];
    Visited->reset();
  }
  Segment Seg{ItemIdx, NodeIdx, StepIdx, M.Rels[NodeIdx],
              M.Nodes[NodeIdx + 1], Item, Visited, Goal};
  walk(Seg, Item.P.Nodes.back(), 0, 0, State, Out);
}

/// DFS over hop sequences of length [MinHops, MaxHops]; relationships may
/// not repeat within one MATCH item's path (Cypher's relationship
/// isomorphism).
void QueryEngine::walk(const Segment &Seg, NodeHandle Cur, uint32_t Hops,
                       int64_t FoldState, MatchState &State,
                       ResultSet &Out) {
  if (State.Aborted || State.RowLimitHit)
    return;
  if (!takeStep(State))
    return;
  // Every walked endpoint is one candidate for this step (a `*0..`
  // segment can accept its start node with no extension at all, so
  // counting attempted extensions instead would undercount).
  if (State.Prof)
    State.Prof->candidate(Seg.StepIdx);
  if (Hops >= Seg.R.MinHops && nodeMatches(Cur, Seg.Next)) {
    // Accept this endpoint; bind the next node pattern variable.
    if (State.Prof)
      State.Prof->match(Seg.StepIdx);
    bool Bound = false;
    bool Compatible = true;
    if (Seg.Next.Slot >= 0) {
      NodeHandle &B = State.Nodes[Seg.Next.Slot];
      if (B != InvalidHandle) {
        Compatible = B == Cur;
      } else {
        B = Cur;
        Bound = true;
        ++State.Bindings;
      }
    }
    if (Compatible)
      matchChain(Seg.ItemIdx, Seg.NodeIdx + 1, State, Out);
    if (Bound)
      State.Nodes[Seg.Next.Slot] = InvalidHandle;
  }
  if (Hops >= Seg.R.MaxHops)
    return;
  // `<-[...]-` walks against edge direction: candidate relationships
  // come from the in-adjacency and continue at their From endpoint.
  Path &P = Seg.Item.P;
  std::vector<uint8_t> &OnPath = Seg.Item.OnPath;
  for (RelHandle RH : Seg.R.Reverse ? G.in(Cur) : G.out(Cur)) {
    const RelRef R = G.rel(RH);
    if (OnPath[RH] || !relMatches(RH, R, Seg.R))
      continue;
    NodeHandle Next = Seg.R.Reverse ? R.From : R.To;
    if (Seg.Goal && !Seg.Goal->has(Next))
      continue; // Cannot reach the bound end node (see goalSet).
    int64_t NextState = 0;
    if (Seg.Visited) {
      NextState = Fold_(FoldState, G, RH);
      if (NextState < 0)
        continue; // Fold pruned this extension.
      if (!Seg.Visited->insert(Next, NextState))
        continue;
    }
    P.Rels.push_back(RH);
    P.Nodes.push_back(Next);
    OnPath[RH] = 1;
    walk(Seg, Next, Hops + 1, NextState, State, Out);
    OnPath[RH] = 0;
    P.Nodes.pop_back();
    P.Rels.pop_back();
    ++State.Backtracks;
  }
}

ResultSet QueryEngine::run(const Query &Q, QueryProfile *Profile) {
  ResultSet Out;
  Plan P = compile(Q);
  MatchState State(P);
  // Size the reusable buffers for this plan.
  if (Bufs->Items.size() < P.Items.size())
    Bufs->Items.resize(P.Items.size());
  for (Buffers::ItemPath &I : Bufs->Items)
    I.OnPath.resize(G.numRels(), 0);
  if (Bufs->Visited.size() < P.NumSteps)
    Bufs->Visited.resize(P.NumSteps);
  if (Bufs->Goals.size() < P.NumSteps)
    Bufs->Goals.resize(P.NumSteps);
  for (GoalSet &GS : Bufs->Goals) { // Steps mean other patterns now.
    GS.Target = InvalidHandle;
    GS.Known.clear();
  }

  Profiler Prof;
  if (Profile) {
    *Profile = QueryProfile();
    Prof.start(Profile, Q, Options);
    State.Prof = &Prof;
  }
  auto Start = std::chrono::steady_clock::now();
  Out.EmptyPlan = !P.Empty.empty();
  if (!Out.EmptyPlan)
    matchItem(0, State, Out);
  Out.TimedOut = State.Aborted;
  Out.Work = State.Work;
  Out.GoalWork = State.GoalWork;
  if (Profile) {
    Profile->EmptyPlan = P.Empty;
    Prof.mark();
    Profile->TotalSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
            .count();
    Profile->Work = State.Work;
    Profile->Backtracks = State.Backtracks;
    Profile->Rows = Out.Rows.size();
    Profile->TimedOut = Out.TimedOut;
  }
  obs::counters::QuerySteps.add(State.Work);
  obs::counters::QueryBindings.add(State.Bindings);
  obs::counters::QueryBacktracks.add(State.Backtracks);
  obs::counters::QueryRows.add(Out.Rows.size());
  return Out;
}

ResultSet QueryEngine::run(const std::string &QueryText, std::string *Error,
                           QueryProfile *Profile) {
  Query Q;
  if (!parseQuery(QueryText, Q, Error))
    return ResultSet();
  return run(Q, Profile);
}
