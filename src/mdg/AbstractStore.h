//===- mdg/AbstractStore.h - Abstract variable store -------------*- C++ -*-==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract variable store ρ̂ : X → ℘(L̂) of §3.2: maps program
/// variables to sets of abstract locations. Stores form a lattice under
/// pointwise subset inclusion; the analysis joins stores at if-statement
/// merge points and iterates while-loop bodies until the (graph, store)
/// pair stabilizes.
///
/// The store only keeps the *newest* versions of the objects a variable
/// points to; when NV creates a new version, every binding of the old
/// location is rewritten to the new one (§2.2, line 5 discussion).
///
/// Variables are interned ids (VarId) indexing dense per-variable vectors.
/// Snapshots are an undo log: after pushLevel(), the first write to each
/// variable records its previous binding on a trail, so the cost of a
/// snapshot, join or comparison is proportional to the bindings changed
/// since the snapshot, not to the size of the store. A reverse index from
/// locations to the variables holding them makes the NV rewrite touch only
/// the variables that point at the old version.
///
//===----------------------------------------------------------------------===//

#ifndef GJS_MDG_ABSTRACTSTORE_H
#define GJS_MDG_ABSTRACTSTORE_H

#include "mdg/MDG.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

namespace gjs {
namespace mdg {

/// A set of abstract locations: a sorted, duplicate-free vector. Iteration
/// is in ascending NodeId order, which the builder relies on — the order
/// locations are visited decides the order nodes are allocated.
class LocSet {
public:
  using const_iterator = std::vector<NodeId>::const_iterator;

  LocSet() = default;
  LocSet(std::initializer_list<NodeId> Init) {
    for (NodeId L : Init)
      insert(L);
  }
  template <typename It> LocSet(It Begin, It End) {
    for (; Begin != End; ++Begin)
      insert(*Begin);
  }

  /// Inserts \p L; returns true if it was not already present.
  bool insert(NodeId L) {
    auto It = std::lower_bound(Locs.begin(), Locs.end(), L);
    if (It != Locs.end() && *It == L)
      return false;
    Locs.insert(It, L);
    return true;
  }

  /// Set union in place; returns true if this set grew.
  bool insertAll(const LocSet &O) {
    if (Locs.empty() && !O.Locs.empty()) {
      Locs = O.Locs;
      return true;
    }
    if (O.Locs.empty() || includes(O))
      return false;
    std::vector<NodeId> Merged;
    Merged.reserve(Locs.size() + O.Locs.size());
    std::set_union(Locs.begin(), Locs.end(), O.Locs.begin(), O.Locs.end(),
                   std::back_inserter(Merged));
    Locs = std::move(Merged);
    return true;
  }

  /// Removes \p L; returns true if it was present.
  bool erase(NodeId L) {
    auto It = std::lower_bound(Locs.begin(), Locs.end(), L);
    if (It == Locs.end() || *It != L)
      return false;
    Locs.erase(It);
    return true;
  }

  bool count(NodeId L) const {
    return std::binary_search(Locs.begin(), Locs.end(), L);
  }

  /// O ⊆ this.
  bool includes(const LocSet &O) const {
    return std::includes(Locs.begin(), Locs.end(), O.Locs.begin(),
                         O.Locs.end());
  }

  size_t size() const { return Locs.size(); }
  bool empty() const { return Locs.empty(); }
  void clear() { Locs.clear(); }
  const_iterator begin() const { return Locs.begin(); }
  const_iterator end() const { return Locs.end(); }

  bool operator==(const LocSet &O) const = default;

private:
  std::vector<NodeId> Locs;
};

/// Dense id of a program variable (the builder interns variable names).
using VarId = uint32_t;

/// ρ̂ : Var → ℘(NodeId), a finite-lattice abstract store with undo-log
/// snapshots.
class AbstractStore {
public:
  const LocSet &get(VarId V) const {
    static const LocSet Empty;
    return contains(V) ? Bind[V] : Empty;
  }

  bool contains(VarId V) const { return V < Present.size() && Present[V]; }

  /// Number of bound variables.
  size_t numBound() const { return NumBound; }

  /// Strong update: x ↦ Locs (assignment rebinds the variable).
  void set(VarId V, LocSet Locs) {
    grow(V);
    indexGained(V, Bind[V], Locs);
    uint32_t Level = static_cast<uint32_t>(LevelStart.size());
    if (Level != 0 && TrailedAt[V] != Level) {
      Trail.push_back({V, std::move(Bind[V]), Present[V] != 0, TrailedAt[V]});
      TrailedAt[V] = Level;
    }
    bindPresent(V);
    Bind[V] = std::move(Locs);
  }
  void set(VarId V, NodeId L) { set(V, LocSet{L}); }

  /// Weak update: x ↦ ρ̂(x) ∪ Locs. Binds x (to the empty set if \p Locs
  /// is empty) when it was unbound. Returns true if the binding grew or
  /// was created.
  bool join(VarId V, const LocSet &Locs) {
    if (contains(V) && Bind[V].includes(Locs))
      return false;
    touch(V);
    addLocs(V, Locs);
    return true;
  }

  /// Replaces every occurrence of \p OldLoc with \p NewLoc — the version
  /// rewrite performed by NV/NV*. Visits only the variables the reverse
  /// index lists for \p OldLoc.
  void replaceEverywhere(NodeId OldLoc, NodeId NewLoc) {
    if (OldLoc == NewLoc || OldLoc >= VarsOf.size())
      return;
    std::vector<VarId> Holders = std::move(VarsOf[OldLoc]);
    VarsOf[OldLoc].clear();
    for (VarId V : Holders) {
      // Entries may be stale (the variable was rebound since) or
      // duplicated; both fail this test after the first rewrite.
      if (!contains(V) || !Bind[V].count(OldLoc))
        continue;
      touch(V);
      Bind[V].erase(OldLoc);
      if (Bind[V].insert(NewLoc))
        indexLoc(NewLoc, V);
    }
  }

  //===--------------------------------------------------------------------===//
  // Snapshot levels (the undo log)
  //===--------------------------------------------------------------------===//

  /// Opens a snapshot level: later writes record the bindings they
  /// overwrite, once per variable per level.
  void pushLevel() { LevelStart.push_back(Trail.size()); }

  /// Number of open levels.
  size_t depth() const { return LevelStart.size(); }

  /// Fixpoint step: joins every binding the innermost level overwrote back
  /// into the store (ρ̂' ⊔ ρ̂ for the snapshot ρ̂) and commits the level into
  /// its parent. Returns true if the joined store differs from the
  /// snapshot: some binding grew or was created since pushLevel().
  bool joinLevel() {
    assert(depth() > 0 && "no open level");
    bool Changed = false;
    for (size_t I = LevelStart.back(); I < Trail.size(); ++I) {
      TrailEntry &E = Trail[I];
      if (!E.WasPresent) {
        Changed = true;
        continue;
      }
      Changed |= !E.Old.includes(Bind[E.Var]);
      addLocs(E.Var, E.Old);
    }
    commitLevel();
    return Changed;
  }

  /// The bindings a branch wrote, as (variable, binding) pairs.
  using Branch = std::vector<std::pair<VarId, LocSet>>;

  /// If, end of the then-branch: restores every binding the innermost
  /// level overwrote, closes the level, and returns the branch's bindings.
  Branch undoLevel() {
    assert(depth() > 0 && "no open level");
    Branch Out;
    size_t Start = LevelStart.back();
    Out.reserve(Trail.size() - Start);
    for (size_t I = Trail.size(); I-- > Start;) {
      TrailEntry &E = Trail[I];
      LocSet Taken = std::move(Bind[E.Var]);
      if (E.WasPresent) {
        indexGained(E.Var, Taken, E.Old);
        Bind[E.Var] = std::move(E.Old);
      } else {
        Bind[E.Var].clear();
        Present[E.Var] = 0;
        --NumBound;
      }
      TrailedAt[E.Var] = E.PrevLevel;
      Out.emplace_back(E.Var, std::move(Taken));
    }
    Trail.resize(Start);
    LevelStart.pop_back();
    return Out;
  }

  /// If, end of the else-branch (analyzed in the innermost level, opened
  /// after undoLevel()): joins in \p Then, plus the pre-branch binding of
  /// every variable only the else-branch wrote, then commits the level.
  /// The result is ρ̂_else ⊔ ρ̂_then.
  void joinBranch(const Branch &Then) {
    assert(depth() > 0 && "no open level");
    ++MarkEpoch;
    for (const auto &[V, Locs] : Then) {
      grow(V);
      Mark[V] = MarkEpoch;
    }
    for (size_t I = LevelStart.back(), E = Trail.size(); I < E; ++I)
      if (Trail[I].WasPresent && Mark[Trail[I].Var] != MarkEpoch)
        addLocs(Trail[I].Var, Trail[I].Old);
    for (const auto &[V, Locs] : Then)
      join(V, Locs);
    commitLevel();
  }

  //===--------------------------------------------------------------------===//
  // Lattice operations
  //===--------------------------------------------------------------------===//

  /// ρ̂1 ⊔ ρ̂2 merged into this store. Returns true if anything grew.
  bool joinWith(const AbstractStore &Other) {
    bool Changed = false;
    for (VarId V = 0; V < Other.Present.size(); ++V)
      if (Other.Present[V])
        Changed |= join(V, Other.Bind[V]);
    return Changed;
  }

  /// ρ̂1 ⊑ ρ̂2: pointwise subset.
  static bool leq(const AbstractStore &S1, const AbstractStore &S2) {
    for (VarId V = 0; V < S1.Present.size(); ++V)
      if (S1.Present[V] && !S2.get(V).includes(S1.Bind[V]))
        return false;
    return true;
  }

  /// Same bound variables with the same bindings.
  bool operator==(const AbstractStore &O) const {
    if (NumBound != O.NumBound)
      return false;
    for (VarId V = 0; V < Present.size(); ++V)
      if (Present[V] && (!O.contains(V) || Bind[V] != O.Bind[V]))
        return false;
    return true;
  }

private:
  /// A binding overwritten inside a level: restored by undoLevel, joined
  /// back by joinLevel.
  struct TrailEntry {
    VarId Var;
    LocSet Old;
    bool WasPresent;
    /// The level that trailed Var before this entry (0 = none).
    uint32_t PrevLevel;
  };

  std::vector<LocSet> Bind;
  std::vector<uint8_t> Present;
  size_t NumBound = 0;
  /// Innermost level holding a trail entry for each variable (0 = none).
  std::vector<uint32_t> TrailedAt;
  /// Reverse index: location -> variables that may hold it. A superset:
  /// every bound variable whose binding contains L is listed in VarsOf[L].
  std::vector<std::vector<VarId>> VarsOf;
  std::vector<TrailEntry> Trail;
  /// Trail offset where each open level starts.
  std::vector<size_t> LevelStart;
  /// Per-variable marks for joinBranch (the then-branch set), valid when
  /// equal to MarkEpoch.
  std::vector<uint32_t> Mark;
  uint32_t MarkEpoch = 0;

  void grow(VarId V) {
    if (V < Bind.size())
      return;
    size_t N = std::max<size_t>(V + 1, Bind.size() * 2);
    Bind.resize(N);
    Present.resize(N, 0);
    TrailedAt.resize(N, 0);
    Mark.resize(N, 0);
  }

  void indexLoc(NodeId L, VarId V) {
    if (L >= VarsOf.size())
      VarsOf.resize(std::max<size_t>(L + 1, VarsOf.size() * 2));
    VarsOf[L].push_back(V);
  }

  /// Records V's current binding on the trail unless the innermost level
  /// already has it, and makes V addressable.
  void touch(VarId V) {
    grow(V);
    uint32_t Level = static_cast<uint32_t>(LevelStart.size());
    if (Level == 0 || TrailedAt[V] == Level)
      return;
    Trail.push_back({V, Bind[V], Present[V] != 0, TrailedAt[V]});
    TrailedAt[V] = Level;
  }

  void bindPresent(VarId V) {
    if (!Present[V]) {
      Present[V] = 1;
      ++NumBound;
    }
  }

  /// Indexes the locations of \p To that \p From lacks.
  void indexGained(VarId V, const LocSet &From, const LocSet &To) {
    for (NodeId L : To)
      if (!From.count(L))
        indexLoc(L, V);
  }

  /// Binds V (if unbound) and adds \p Locs to its binding.
  void addLocs(VarId V, const LocSet &Locs) {
    bindPresent(V);
    indexGained(V, Bind[V], Locs);
    Bind[V].insertAll(Locs);
  }

  /// Merges the innermost level into its parent: an entry moves to the
  /// parent unless the parent already trailed that variable (its entry
  /// holds the older binding).
  void commitLevel() {
    size_t Start = LevelStart.back();
    LevelStart.pop_back();
    uint32_t Parent = static_cast<uint32_t>(LevelStart.size());
    size_t Out = Start;
    for (size_t I = Start; I < Trail.size(); ++I) {
      TrailEntry &E = Trail[I];
      TrailedAt[E.Var] = Parent;
      if (Parent == 0 || E.PrevLevel == Parent)
        continue;
      if (Out != I)
        Trail[Out] = std::move(E);
      ++Out;
    }
    Trail.resize(Out);
  }
};

} // namespace mdg
} // namespace gjs

#endif // GJS_MDG_ABSTRACTSTORE_H
