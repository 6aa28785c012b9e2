//===- obs/Counters.h - Process-wide metric counters -------------*- C++ -*-==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lightweight process-wide counters for the scan pipeline. Every counter
/// is a relaxed atomic registered (at static-initialization time) in one
/// intrusive global list, so hot paths pay a single predictable branch plus
/// one relaxed fetch_add — and nothing at all when counting is disabled.
///
/// The counters feed three consumers:
///  - the BatchDriver journal (per-package counter deltas, machine-readable
///    telemetry for long corpus runs),
///  - the eval harness / benches (aggregate effort metrics next to the
///    Table 6 wall-clock phases),
///  - `graphjs scan --trace` (counter dump next to the span tree).
///
/// The catalog of wired-in counters lives in obs::counters below and is
/// documented in docs/OBSERVABILITY.md. Counter names are stable: journal
/// consumers key on them.
///
//===----------------------------------------------------------------------===//

#ifndef GJS_OBS_COUNTERS_H
#define GJS_OBS_COUNTERS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gjs {
namespace obs {

/// Global gate for all counters. Relaxed loads keep the disabled path to a
/// load + branch (the "zero overhead when disabled" contract the
/// bench-guard test asserts).
extern std::atomic<bool> CountersOn;

inline bool countersEnabled() {
  return CountersOn.load(std::memory_order_relaxed);
}

/// Enables or disables every counter. Returns the previous state.
bool setCountersEnabled(bool On);

/// One named process-wide counter. Construct only with static storage
/// duration (construction registers the counter in a global intrusive list
/// and there is no deregistration).
class Counter {
public:
  explicit Counter(const char *Name);

  void add(uint64_t N = 1) {
    if (countersEnabled())
      V.fetch_add(N, std::memory_order_relaxed);
  }

  /// Folds an externally-captured delta (a worker's) into this counter,
  /// bypassing the gate — merging is an explicit supervisor action, not a
  /// gated hot path.
  void merge(uint64_t N) { V.fetch_add(N, std::memory_order_relaxed); }

  uint64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

  const char *name() const { return Name; }
  Counter *next() const { return Next; }

private:
  const char *Name;
  Counter *Next = nullptr;
  std::atomic<uint64_t> V{0};
};

/// A point-in-time view of every registered counter, keyed by name.
using CounterSnapshot = std::map<std::string, uint64_t>;

/// Snapshots every registered counter (including zero-valued ones).
CounterSnapshot snapshotCounters();

/// Every registered counter's value in registry order: the cheap snapshot
/// a per-package delta starts from (no names, no map).
using CounterValues = std::vector<uint64_t>;
CounterValues snapshotCounterValues();

/// Per-package telemetry: the counters' growth since \p Before (a
/// snapshotCounterValues()), keyed by name, dropping zero deltas.
CounterSnapshot counterDelta(const CounterValues &Before);

/// Resets every registered counter to zero (e.g. between batch packages).
void resetCounters();

/// Merges worker counter deltas into the live registry by name — the
/// cross-process stitching half of counterDelta: a supervisor folds each
/// worker's per-job delta into its own registry so process-wide totals
/// stop undercounting multi-process runs. Unknown names are ignored.
void mergeCounters(const CounterSnapshot &Deltas);

/// The wired-in counter catalog (see docs/OBSERVABILITY.md). Names follow
/// "<phase>.<metric>" with the ScanPhase-style lowercase phase names.
namespace counters {
extern Counter LexTokens;       ///< lex.tokens — tokens produced by lexAll.
extern Counter AstNodes;        ///< parse.ast_nodes — AST nodes built.
extern Counter CoreStmts;       ///< normalize.core_stmts — Core IR stmts.
extern Counter CfgBlocks;       ///< cfg.blocks — CFG basic blocks built.
extern Counter MdgNodes;        ///< build.mdg_nodes — MDG nodes allocated.
extern Counter MdgEdgeD;        ///< build.mdg_edges_d — D edges added.
extern Counter MdgEdgeP;        ///< build.mdg_edges_p — P(p) edges added.
extern Counter MdgEdgePU;       ///< build.mdg_edges_pu — P(*) edges added.
extern Counter MdgEdgeV;        ///< build.mdg_edges_v — V(p) edges added.
extern Counter MdgEdgeVU;       ///< build.mdg_edges_vu — V(*) edges added.
extern Counter BuilderStmts;    ///< build.abstract_stmts — abstract stmts.
extern Counter BuilderFixpointIters; ///< build.fixpoint_iters — loop and
                                     ///< function-body fixpoint passes.
extern Counter BuilderStoreVarsPeak; ///< build.store_vars_peak — per build,
                                     ///< the most variables one store bound.
extern Counter ImportNodes;     ///< import.nodes — property-graph nodes.
extern Counter ImportRels;      ///< import.rels — property-graph rels.
extern Counter QuerySteps;      ///< query.steps — matcher steps taken.
extern Counter QueryBindings;   ///< query.bindings — candidate var binds.
extern Counter QueryBacktracks; ///< query.backtracks — path pops in walks.
extern Counter QueryRows;       ///< query.rows — result rows emitted.
extern Counter DeadlineUnits;   ///< deadline.units — checkpointed work.
extern Counter ScanAttempts;    ///< scan.attempts — pipeline attempts run.
extern Counter ScanRetries;     ///< scan.retries — degradation retries.
extern Counter AsyncAwaitsLowered;      ///< async.awaits_lowered — await
                                        ///< sites rewritten to suspend/resume.
extern Counter AsyncReactionsLinked;    ///< async.reactions_linked — promise
                                        ///< reactions bound to a known fn.
extern Counter AsyncCallbacksUnresolved; ///< async.callbacks_unresolved —
                                        ///< handlers left to the soundness
                                        ///< valve (dynamic callee).
extern Counter WorkerSpawned;        ///< worker.spawned — pool forks.
extern Counter WorkerCrashed;        ///< worker.crashed — signal/bad exit.
extern Counter WorkerOomKilled;      ///< worker.oom_killed — memory deaths.
extern Counter WorkerDeadlineKilled; ///< worker.deadline_killed — kill ladder.
extern Counter WorkerRetried;        ///< worker.retried — crashed-retry runs.
extern Counter WorkerRecycled;       ///< worker.recycled — planned re-forks.
extern Counter WorkerRequeued;       ///< worker.requeued — queued jobs handed
                                     ///< back unstarted by a dying worker.
extern Counter ServeAccepted;        ///< serve.accepted — requests admitted.
extern Counter ServeRejected;        ///< serve.rejected — overloaded/expired.
extern Counter ServeInflight;        ///< serve.inflight — jobs dispatched to
                                     ///< a worker (add-only; "how much work
                                     ///< entered a worker", not a gauge).
extern Counter ServeClientRetries;   ///< serve.client_retries — client-side
                                     ///< backoff retries after "overloaded".
extern Counter JournalDroppedLines;  ///< journal.dropped_lines — torn or
                                     ///< CRC-corrupt journal lines skipped
                                     ///< during resume/merge.
extern Counter LedgerClaims;   ///< ledger.claims — fresh shard leases taken.
extern Counter LedgerSteals;   ///< ledger.steals — stale leases stolen.
extern Counter LedgerExpired;  ///< ledger.expired — leases observed past
                               ///< their heartbeat expiry.
extern Counter QuarantinePackages; ///< quarantine.packages — poison packages
                                   ///< the circuit breaker wrote off.
} // namespace counters

} // namespace obs
} // namespace gjs

#endif // GJS_OBS_COUNTERS_H
