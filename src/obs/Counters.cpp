//===- obs/Counters.cpp - Process-wide metric counters ---------------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Counters.h"

#include <algorithm>

using namespace gjs;
using namespace gjs::obs;

std::atomic<bool> obs::CountersOn{true};

bool obs::setCountersEnabled(bool On) {
  return CountersOn.exchange(On, std::memory_order_relaxed);
}

/// Head of the intrusive registration list. Function-local static so that
/// counters constructed during static initialization in other translation
/// units never observe an uninitialized head.
static std::atomic<Counter *> &registryHead() {
  static std::atomic<Counter *> Head{nullptr};
  return Head;
}

Counter::Counter(const char *Name) : Name(Name) {
  std::atomic<Counter *> &Head = registryHead();
  Next = Head.load(std::memory_order_relaxed);
  while (!Head.compare_exchange_weak(Next, this, std::memory_order_release,
                                     std::memory_order_relaxed)) {
  }
}

CounterSnapshot obs::snapshotCounters() {
  CounterSnapshot Out;
  for (Counter *C = registryHead().load(std::memory_order_acquire); C;
       C = C->next())
    Out[C->name()] = C->value();
  return Out;
}

CounterValues obs::snapshotCounterValues() {
  CounterValues Out;
  for (Counter *C = registryHead().load(std::memory_order_acquire); C;
       C = C->next())
    Out.push_back(C->value());
  return Out;
}

CounterSnapshot obs::counterDelta(const CounterValues &Before) {
  // Registration prepends, so Before lines up with the list's last
  // Before.size() counters; any registered since start from zero.
  size_t N = 0;
  for (Counter *C = registryHead().load(std::memory_order_acquire); C;
       C = C->next())
    ++N;
  size_t Fresh = N - std::min(N, Before.size());
  CounterSnapshot Out;
  size_t I = 0;
  for (Counter *C = registryHead().load(std::memory_order_acquire); C;
       C = C->next(), ++I) {
    uint64_t Base = I < Fresh ? 0 : Before[I - Fresh];
    if (uint64_t Value = C->value(); Value > Base)
      Out[C->name()] = Value - Base;
  }
  return Out;
}

void obs::resetCounters() {
  for (Counter *C = registryHead().load(std::memory_order_acquire); C;
       C = C->next())
    C->reset();
}

void obs::mergeCounters(const CounterSnapshot &Deltas) {
  for (Counter *C = registryHead().load(std::memory_order_acquire); C;
       C = C->next()) {
    auto It = Deltas.find(C->name());
    if (It != Deltas.end() && It->second)
      C->merge(It->second);
  }
}

namespace gjs {
namespace obs {
namespace counters {
Counter LexTokens("lex.tokens");
Counter AstNodes("parse.ast_nodes");
Counter CoreStmts("normalize.core_stmts");
Counter CfgBlocks("cfg.blocks");
Counter MdgNodes("build.mdg_nodes");
Counter MdgEdgeD("build.mdg_edges_d");
Counter MdgEdgeP("build.mdg_edges_p");
Counter MdgEdgePU("build.mdg_edges_pu");
Counter MdgEdgeV("build.mdg_edges_v");
Counter MdgEdgeVU("build.mdg_edges_vu");
Counter BuilderStmts("build.abstract_stmts");
Counter BuilderFixpointIters("build.fixpoint_iters");
Counter BuilderStoreVarsPeak("build.store_vars_peak");
Counter ImportNodes("import.nodes");
Counter ImportRels("import.rels");
Counter QuerySteps("query.steps");
Counter QueryBindings("query.bindings");
Counter QueryBacktracks("query.backtracks");
Counter QueryRows("query.rows");
Counter DeadlineUnits("deadline.units");
Counter ScanAttempts("scan.attempts");
Counter ScanRetries("scan.retries");
Counter AsyncAwaitsLowered("async.awaits_lowered");
Counter AsyncReactionsLinked("async.reactions_linked");
Counter AsyncCallbacksUnresolved("async.callbacks_unresolved");
Counter WorkerSpawned("worker.spawned");
Counter WorkerCrashed("worker.crashed");
Counter WorkerOomKilled("worker.oom_killed");
Counter WorkerDeadlineKilled("worker.deadline_killed");
Counter WorkerRetried("worker.retried");
Counter WorkerRecycled("worker.recycled");
Counter WorkerRequeued("worker.requeued");
Counter ServeAccepted("serve.accepted");
Counter ServeRejected("serve.rejected");
Counter ServeInflight("serve.inflight");
Counter ServeClientRetries("serve.client_retries");
Counter JournalDroppedLines("journal.dropped_lines");
Counter LedgerClaims("ledger.claims");
Counter LedgerSteals("ledger.steals");
Counter LedgerExpired("ledger.expired");
Counter QuarantinePackages("quarantine.packages");
} // namespace counters
} // namespace obs
} // namespace gjs
