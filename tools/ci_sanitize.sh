#!/usr/bin/env bash
# Sanitizer CI job: configure with GRAPHJS_SANITIZE=ON (ASan + UBSan,
# abort on first report), build, and run the full test suite.
#
# Usage: tools/ci_sanitize.sh [build-dir]
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build-asan}"

cmake -B "$BUILD_DIR" -S "$REPO_ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DGRAPHJS_SANITIZE=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"

# halt_on_error: any sanitizer report fails the job.
export ASAN_OPTIONS="detect_leaks=0:halt_on_error=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"

# The fault-tolerance suite first, verbosely: fault injection, deadline
# expiry, the degradation ladder, and batch journal/resume exercise the
# error paths sanitizers care about most (partial graphs, aborted phases,
# exception unwinding in the driver).
"$BUILD_DIR/tests/test_faults"

# The multi-process fault suite: the resident worker pool (recycled
# after every package and never) under injected crash/hang/oom faults,
# the kill ladder, the two-job worker queue (head-of-line verdicts and
# requeues), journal merge, resume across a SIGKILLed supervisor, and the
# cross-process telemetry merge (journal-line counters, worker histogram
# deltas and span stitching decode frames the supervisor received off a
# socket — prime sanitizer territory). ASan caveats the suite is built
# around: fork() from an ASan parent is supported (single-threaded
# here), but RLIMIT_AS is incompatible with ASan's shadow reservation —
# Subprocess skips the address-space cap under ASan, and the oom fault
# still works because the allocation storm self-bounds and exits with
# the OOM code on its own.
"$BUILD_DIR/tests/test_procpool"

# The distributed-draining chaos suite: CRC framing over torn byte
# prefixes, the link(2)-published lease ratchet and steal/fence races,
# quarantine marker IO, the merge's cross-journal dedup, and `graphjs batch
# --shared` supervisors SIGKILLed mid-drain — crash-recovery paths that
# re-read half-written state are exactly where use-after-free and
# uninitialized reads hide.
"$BUILD_DIR/tests/test_distributed"

# The JSON layer every journal, ledger, manifest and request goes
# through: the one-pass reader (string views into the text, bulk copies of
# unescaped runs, from_chars numbers on malformed and out-of-range input)
# and the string writer.
"$BUILD_DIR/tests/test_support"

# The journal-line writer against the tree builder it replaced, over the
# golden corpus and every optional field, and the one-pass journal-line
# parse back.
"$BUILD_DIR/tests/test_journal"

# The scan-service suite: the length-prefixed wire protocol (incremental
# reassembly buffers are classic overflow territory), the telemetry
# header riding the response frames and its split from the journal line
# (every prefix of a frame, truncated headers, bad job ids), malformed
# numbers in client requests, the `graphjs serve` daemon's poll
# loop over live sockets, the `metrics` op and --metrics-out snapshots,
# worker re-fork after induced crashes, and the bounded admission
# queue's rejection paths.
"$BUILD_DIR/tests/test_scanservice"

# The observability suite next: span tracing, the counter registry and
# the log-bucket histograms (relaxed atomics, concurrent recording —
# TSan-adjacent patterns ASan/UBSan still vet), Prometheus rendering,
# the query profiler, and the --trace/--explain/--profile CLI round
# trips.
"$BUILD_DIR/tests/test_obs"

# The call-graph + summary suite: taint-summary bit manipulation (the
# origin-mask shifts UBSan vets), the pruning decisions `graphjs callgraph
# --summaries` prints, and the recorded report-set sweep through the
# scanner.
"$BUILD_DIR/tests/test_summaries"

# The cross-package suite: package-graph discovery walks real directory
# trees (filesystem error paths), the summary linker composes masks
# across package boundaries, and the soundness-valve tests drive the
# missing/unparseable-dependency recovery paths end to end.
"$BUILD_DIR/tests/test_pkggraph"

# The async suite: the lowering pass rewrites statement blocks in place
# (move-heavy vector splicing ASan vets), the detection matrix re-runs
# the full pipeline with lowering on and off, and the
# lint-pass tests feed hand-built malformed IR through the checkers.
"$BUILD_DIR/tests/test_async"

# The CLI suite: every subcommand's stdout goldens and the numeric-flag
# checks. argv parsing and out-of-range values are sanitizer territory.
"$BUILD_DIR/tests/test_cli"

# The fixed-cost suite: the count-only AST walk, the process-wide query-set
# memo (shared across configurations and threads) and the absent-sink
# shortcut, each checked against the long way.
"$BUILD_DIR/tests/test_fixedcosts"

# The graph-DB and query suites: the store reads the MDG in place, so
# every relationship id is index arithmetic over the MDG's own vectors
# (source-major id offsets, the counting-sorted in-adjacency, atoms past
# the build's symbol table), checked here against hand-built graphs and
# the copying import it replaced (tests/MDGImportOracle.h).
"$BUILD_DIR/tests/test_graphdb"
"$BUILD_DIR/tests/test_queries"

ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# The flake gate: the whole suite three more times under full parallel
# load. A test that passes only most of the time (a publication race in
# the ledger, an order-dependent store bug) fails the job here instead of
# flaking later. until-fail stops each test at its first failure.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
  --repeat until-fail:3

# The supervisor flake gate: the batch pool, `graphjs serve` and the shared
# ledger's supervisors race worker deaths, kill ladders and poll timeouts
# against each other, so their suites (CTest label `supervisor`) repeat ten
# more times under full parallel load.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
  -L supervisor --repeat until-fail:10
