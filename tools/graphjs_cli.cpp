//===- tools/graphjs_cli.cpp - The graphjs command-line scanner -----------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
// The Graph.js user experience as a CLI:
//
//   graphjs scan  [options] <file.js>...     scan for vulnerabilities
//   graphjs query <query> <file.js>...       run a raw graph query
//   graphjs lint  [options] <file.js>...     validate pipeline artifacts
//   graphjs batch [options] <dir|list.txt>   resumable batch scan
//   graphjs serve --socket p [options]       long-lived scan daemon
//   graphjs metrics --socket p               one-shot daemon metrics client
//   graphjs callgraph [options] <file.js>... static call graph + summaries
//
// Every subcommand runs the scanner's one pipeline front half (parse →
// normalize → async lowering → MDG build, scanner/Scanner.h): `scan` per
// file and linked through scanner::Scanner itself, which keeps the
// programs and the graph for --confirm and the dumps; `query`, `lint` and
// `callgraph` through scanner::runFrontHalf. Module prefixes, stems and
// link rules are the scanner's, so every subcommand sees the same graph.
// Numeric flag values must be non-negative decimal numbers; anything else
// is a usage error (exit 2).
//
// Batch options:
//   --journal <out.jsonl>   incremental per-package outcome journal
//   --resume                skip packages already in the journal
//   --deadline-ms <n>       per-package wall-clock budget
//   --work <n>              per-package abstract work budget
//   --max <n>               stop after scanning n packages (sharding)
//   --max-degradation <n>   degradation-ladder depth: 0 = no retry, 1 =
//                           one cheaper-builder retry (default 1)
//   --inject-fault <spec>   deterministic fault (repeatable):
//                           <phase>:<fail|stall|crash|hang|oom>[:<n>|@<name>]
//                           (crash/hang/oom need --jobs)
//   --jobs <n>              supervised worker pool: n resident worker
//                           processes draining a job queue (OS-level
//                           containment)
//   --mem-limit-mb <n>      per-worker RLIMIT_AS cap (needs --jobs)
//   --kill-after-ms <n>     supervisor SIGKILLs workers past this wall
//                           budget (needs --jobs; default 2*deadline+1s)
//   --retry-crashed         retry a crashed/killed package once at half
//                           budget (needs --jobs)
//   --recycle-after <n>     retire a worker after n packages (needs
//                           --jobs); 1 = a fresh process per package, the
//                           maximum-isolation setting
//   --recycle-mem-mb <n>    retire a worker whose RSS exceeds n MiB after
//                           a job (needs --jobs)
//   --quiet                 suppress the stderr progress line
//   --trace-out <t.json>    Chrome trace of the run; with --jobs the
//                           supervisor stitches worker span trees onto
//                           per-process pid lanes beside its own
//                           scheduling spans
//   --metrics-out <m.prom>  periodically rewritten Prometheus text
//                           snapshot (counters + latency percentiles)
//   --shared <dir>          crash-safe distributed draining: coordinate
//                           with any number of concurrent supervisors
//                           through an on-disk work ledger (lease-based
//                           work stealing, CRC-framed shard journals,
//                           poison-package quarantine; docs/ROBUSTNESS.md)
//   --shard-size <n>        packages per lease granule (default 4)
//   --lease-expiry-ms <n>   steal leases idle past this (default 10000)
//   --quarantine-after <n>  kill-class strikes before a package is
//                           quarantined corpus-wide (default 3)
//   --supervisor-id <id>    stable id in lease records (default pid-hex)
//   --chaos-kill-after <n>  test harness: SIGKILL this supervisor right
//                           after its (n+1)-th start record
//   --summary and the scan flags (--sinks, --no-async-lower) also apply
//
// Serve options (graphjs serve):
//   --socket <path>         Unix-domain socket to bind (required)
//   --jobs <n>              warm resident workers (default 2)
//   --queue-max <n>         admission bound: scans beyond this many queued
//                           are rejected "overloaded" (default 64)
//   --journal <out.jsonl>   append-mode journal of completed scans
//   --deadline-ms <n>       default per-scan budget (requests override)
//   --kill-after-ms, --recycle-after, --recycle-mem-mb, --mem-limit-mb
//                           same worker policy knobs as batch --jobs
//   --heartbeat-ms <n>      idle-worker ping cadence (default 5000; 0 off)
//   --metrics-out <m.prom>  periodically rewritten Prometheus text
//                           snapshot (counters, percentiles, gauges)
//   --client '<json>'       one-shot client: send one NDJSON request line
//                           to the daemon, print the response, exit 0 iff
//                           the response says ok ('{"op":"metrics"}' has
//                           the shorthand `graphjs metrics --socket p`)
//   --retry-budget-ms <n>   client paths only: retry "overloaded"
//                           rejections with exponential backoff + jitter
//                           until this much wall time is spent (default 0,
//                           one attempt; also on `graphjs metrics`)
//
// Scan options:
//   --sinks <config.json>   custom sink configuration (§4)
//   --confirm               confirm findings by concrete witness replay
//   --dump-core             print the Core JavaScript lowering
//   --dump-mdg              print the MDG
//   --dot                   print the MDG as GraphViz dot
//   --summary               human-readable output (default: JSON)
//   --package               scan all inputs as one linked package
//   --with-deps             treat the input as a dependency-tree root
//                           directory: discover its package graph
//                           (graphjs.deps.json or package.json +
//                           node_modules/) and scan the whole tree linked
//   --emit-summaries <dir>  with --with-deps: write per-package taint
//                           summary JSON files into <dir>
//   --self-check            run the MDG well-formedness checker too
//   --no-async-lower        disable async lowering (await, promise
//                           reactions)
//
// Callgraph options:
//   --dot                   GraphViz dot instead of text
//   --summaries             also print per-function taint summaries and
//                           the pruning decision
//   --packages              treat the input as a dependency-tree root
//                           directory and print the package DAG, link
//                           order, and the cross-package call graph
//
// Lint options:
//   --summary               human-readable output (default: JSON)
//   --query '<text>'        also schema-lint an ad-hoc query (repeatable)
//
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "analysis/PackageGraph.h"
#include "analysis/TaintSummary.h"
#include "cfg/CFG.h"
#include "driver/BatchDriver.h"
#include "driver/ProcessPool.h"
#include "driver/ScanService.h"
#include "driver/WorkLedger.h"
#include "graphdb/QueryEngine.h"
#include "graphdb/SchemaLint.h"
#include "lint/PassManager.h"
#include "obs/AtomicFile.h"
#include "obs/Counters.h"
#include "obs/Trace.h"
#include "queries/QueryRunner.h"
#include "scanner/Scanner.h"
#include "scanner/WitnessReplay.h"
#include "support/JSON.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace gjs;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: graphjs scan [--sinks cfg.json] [--confirm]\n"
      "                    [--dump-core] [--dump-mdg] [--summary]\n"
      "                    [--self-check] [--no-async-lower]\n"
      "                    [--trace] [--trace-out t.json] [--package]\n"
      "                    <file.js>...\n"
      "       graphjs scan --with-deps [--emit-summaries dir] [options]\n"
      "                    <root-dir>\n"
      "       graphjs query [--explain] [--profile] [--builtin]\n"
      "                     ['<MATCH ... RETURN ...>'] <file.js>...\n"
      "       graphjs lint [--summary] [--query '<text>'] <file.js>...\n"
      "       graphjs batch [--journal out.jsonl] [--resume] [--stats]\n"
      "                     [--deadline-ms n] [--work n] [--max n]\n"
      "                     [--max-degradation n] [--inject-fault spec]\n"
      "                     [--jobs n] [--recycle-after n]\n"
      "                     [--recycle-mem-mb n] [--mem-limit-mb n]\n"
      "                     [--kill-after-ms n] [--retry-crashed] [--quiet]\n"
      "                     [--trace-out t.json] [--metrics-out m.prom]\n"
      "                     [--shared dir] [--shard-size n]\n"
      "                     [--lease-expiry-ms n] [--quarantine-after n]\n"
      "                     [--supervisor-id id] [--chaos-kill-after n]\n"
      "                     [--sinks cfg.json] [--summary]\n"
      "                     [--no-async-lower]\n"
      "                     <dir|list.txt|file.js>...\n"
      "       graphjs serve --socket path [--jobs n] [--queue-max n]\n"
      "                     [--journal out.jsonl] [--deadline-ms n]\n"
      "                     [--kill-after-ms n] [--recycle-after n]\n"
      "                     [--recycle-mem-mb n] [--mem-limit-mb n]\n"
      "                     [--heartbeat-ms n] [--sinks cfg.json]\n"
      "                     [--metrics-out m.prom] [--no-async-lower]\n"
      "                     [--quiet]\n"
      "                     [--client '<json-request>']\n"
      "                     [--retry-budget-ms n]\n"
      "       graphjs metrics --socket path [--retry-budget-ms n]\n"
      "       graphjs callgraph [--dot] [--summaries] [--sinks cfg.json]\n"
      "                         <file.js>... | --packages <root-dir>\n");
  return 2;
}

/// Prints the nonzero obs counters (the `--trace` counter dump).
void dumpCounters(FILE *To) {
  obs::CounterSnapshot Snap = obs::snapshotCounters();
  std::fprintf(To, "counters:\n");
  for (const auto &[Name, Value] : Snap)
    if (Value)
      std::fprintf(To, "  %-24s %llu\n", Name.c_str(),
                   static_cast<unsigned long long>(Value));
}

/// Publishes the recorder's Chrome trace_event JSON at \p Path atomically:
/// a reader sees the whole trace or none, and a failed write leaves no
/// temp file behind.
bool writeTrace(const obs::TraceRecorder &TR, const std::string &Path) {
  if (obs::writeFileAtomic(Path, TR.toChromeJSON() + '\n'))
    return true;
  std::fprintf(stderr, "error: cannot write trace to %s\n", Path.c_str());
  return false;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

/// Loads a custom sink configuration (§4) into \p Sinks. Prints the error
/// and returns false when the file cannot be read or parsed.
bool loadSinkConfig(const std::string &Path, queries::SinkConfig &Sinks) {
  std::string Text, Error;
  queries::SinkConfig Custom;
  if (!readFile(Path, Text) ||
      !queries::SinkConfig::fromJSON(Text, Custom, &Error)) {
    std::fprintf(stderr, "error: bad sink config %s: %s\n", Path.c_str(),
                 Error.empty() ? "cannot open" : Error.c_str());
    return false;
  }
  Sinks = std::move(Custom);
  return true;
}

/// Reads numeric flag values: counts are non-negative integers that fit
/// their target, milliseconds non-negative decimals. Anything else (a sign,
/// a non-number, trailing characters, an out-of-range count) prints an
/// error and sets Bad; the caller finishes argv and exits 2.
struct NumericFlags {
  char **Argv;
  bool Bad = false;

  /// Parses the count after the flag at Argv[I] into \p Out, advancing I.
  template <typename T> void count(int &I, T &Out) {
    const char *Text = Argv[I + 1];
    check(I, std::from_chars(Text, Text + std::strlen(Text), Out),
          "a non-negative integer");
  }

  /// The millisecond value after the flag at Argv[I], advancing I.
  double millis(int &I) {
    const char *Text = Argv[I + 1];
    double Ms = 0;
    // A leading digit rules out signs, "inf" and "nan".
    if (!std::isdigit(static_cast<unsigned char>(*Text)))
      Text = "";
    check(I, std::from_chars(Text, Text + std::strlen(Text), Ms),
          "a non-negative number of milliseconds");
    return Ms;
  }

private:
  void check(int &I, std::from_chars_result R, const char *Want) {
    const char *Flag = Argv[I], *Text = Argv[++I];
    if (R.ec == std::errc() && *R.ptr == '\0')
      return;
    std::fprintf(stderr, "error: %s expects %s, got '%s'\n", Flag, Want, Text);
    Bad = true;
  }
};

/// What parseScanFlag made of one argument.
enum class ScanFlag { None, Parsed, BadSinks };

/// Parses one of the scan flags `scan`, `batch` and `serve` share —
/// --no-async-lower and --sinks cfg.json, whose config is loaded here — at
/// argv[I] into \p Scan, advancing I past a flag value.
ScanFlag parseScanFlag(int Argc, char **Argv, int &I,
                       scanner::ScanOptions &Scan) {
  std::string Arg = Argv[I];
  if (Arg == "--no-async-lower")
    Scan.AsyncLower = false;
  else if (Arg == "--sinks" && I + 1 < Argc)
    return loadSinkConfig(Argv[++I], Scan.Sinks) ? ScanFlag::Parsed
                                                  : ScanFlag::BadSinks;
  else
    return ScanFlag::None;
  return ScanFlag::Parsed;
}

/// Reads \p Paths as scan inputs. Prints the error and returns false when a
/// file cannot be read.
bool readSources(const std::vector<std::string> &Paths,
                 std::vector<scanner::SourceFile> &Out) {
  for (const std::string &Path : Paths) {
    std::string Text;
    if (!readFile(Path, Text)) {
      std::fprintf(stderr, "error: cannot open %s\n", Path.c_str());
      return false;
    }
    Out.push_back({Path, std::move(Text)});
  }
  return true;
}

/// Prints scan errors as `warning: <error>` lines. True when a file failed
/// to parse.
bool printErrors(const std::vector<scanner::ScanError> &Errors) {
  bool ParseFailed = false;
  for (const scanner::ScanError &E : Errors) {
    std::fprintf(stderr, "warning: %s\n", E.str().c_str());
    ParseFailed |= E.Kind == scanner::ScanErrorKind::ParseError;
  }
  return ParseFailed;
}

/// Reads one input and runs the scanner's front half over it, async
/// lowering included, so its graph is the one a scan queries. Prints the
/// errors; false when the file cannot be read or does not parse.
bool frontHalfOf(const std::string &Path, const scanner::ScanOptions &Cfg,
                 scanner::PackageBuild &Pkg) {
  std::vector<scanner::SourceFile> Source;
  return readSources({Path}, Source) &&
         !printErrors(scanner::runFrontHalf(Source, Cfg, Pkg));
}

/// Per-file scan: each input is its own package. The dumps and --confirm
/// read the front half the scanner kept, i.e. the graph and the program
/// the reports came from.
int runScan(const std::vector<std::string> &Files,
            const scanner::ScanOptions &Scan, bool Confirm, bool DumpCore,
            bool DumpMDG, bool DumpDot, bool Summary) {
  scanner::Scanner S(Scan);
  // Order-independent: findings in any file (3) outrank a file that failed
  // to parse (1).
  bool AnyFindings = false, AnyParseFailed = false;
  for (const std::string &Path : Files) {
    std::vector<scanner::SourceFile> Source;
    if (!readSources({Path}, Source))
      return 1;
    scanner::PackageBuild Kept;
    scanner::ScanResult R = S.scanPackage(Source, &Kept);
    if (printErrors(R.Errors)) {
      AnyParseFailed = true;
      continue;
    }
    // Fail fast: a malformed built-in query would otherwise just match
    // nothing and the scan would look vacuously clean.
    if (!R.SchemaError.empty()) {
      std::fprintf(stderr, "error: %s\n", R.SchemaError.c_str());
      return 4;
    }
    const core::Program &Program = *Kept.Programs[0];
    if (DumpCore)
      std::printf("== %s: Core JavaScript ==\n%s\n", Path.c_str(),
                  core::dump(Program).c_str());
    bool SelfCheckFailed = false;
    for (const lint::Finding &F : R.SelfCheckFindings) {
      std::fprintf(stderr, "%s: self-check: %s\n", Path.c_str(),
                   F.str().c_str());
      SelfCheckFailed |= F.Severity == DiagSeverity::Error;
    }
    if (SelfCheckFailed)
      return 4;
    const analysis::BuildResult &Build = Kept.Build;
    if (DumpMDG)
      std::printf("== %s: MDG (%zu nodes, %zu edges) ==\n%s\n", Path.c_str(),
                  Build.Graph.numNodes(), Build.Graph.numEdges(),
                  Build.Graph.dump(Build.Props).c_str());
    if (DumpDot)
      std::printf("%s", Build.Graph.toDot(Build.Props).c_str());

    const std::vector<queries::VulnReport> &Reports = R.Reports;
    std::vector<std::string> Witnesses(Reports.size());
    std::vector<bool> Confirmed(Reports.size(), false);
    if (Confirm) {
      for (size_t I = 0; I < Reports.size(); ++I) {
        scanner::ReplayResult RR = scanner::replayFinding(Program, Reports[I]);
        Confirmed[I] = RR.Confirmed;
        Witnesses[I] = RR.Witness;
      }
    }

    if (Summary) {
      std::printf("%s: %zu finding(s)\n", Path.c_str(), Reports.size());
      for (size_t I = 0; I < Reports.size(); ++I) {
        std::printf("  %s", Reports[I].str().c_str());
        if (Confirm)
          std::printf("  [%s]%s%s",
                      Confirmed[I] ? "confirmed" : "unconfirmed",
                      Witnesses[I].empty() ? "" : " witness: ",
                      Witnesses[I].c_str());
        std::printf("\n");
      }
    } else {
      json::Array Arr;
      for (size_t I = 0; I < Reports.size(); ++I) {
        json::Object O;
        O["file"] = json::Value(Path);
        O["cwe"] = json::Value(queries::cweOf(Reports[I].Type));
        O["type"] = json::Value(queries::vulnTypeName(Reports[I].Type));
        O["line"] =
            json::Value(static_cast<unsigned>(Reports[I].SinkLoc.Line));
        if (!Reports[I].SinkName.empty())
          O["sink"] = json::Value(Reports[I].SinkName);
        if (Confirm) {
          O["confirmed"] = json::Value(static_cast<bool>(Confirmed[I]));
          if (!Witnesses[I].empty())
            O["witness"] = json::Value(Witnesses[I]);
        }
        Arr.push_back(json::Value(std::move(O)));
      }
      std::printf("%s\n", json::Value(std::move(Arr)).str(2).c_str());
    }
    AnyFindings |= !Reports.empty();
  }
  return AnyFindings ? 3 : AnyParseFailed ? 1 : 0;
}

/// `--with-deps --emit-summaries <dir>`: computes the linked call graph and
/// taint summaries over the scanned tree, slices them per package, and
/// writes one `<pkg>.summary.json` per analyzable package.
bool emitPackageSummaries(const analysis::PackageGraph &G,
                          const scanner::PackageBuild &Tree,
                          const queries::SinkConfig &Sinks,
                          const std::string &Dir) {
  if (Tree.Mods.empty()) {
    std::fprintf(stderr, "error: no analyzable modules in the tree\n");
    return false;
  }
  analysis::CallGraph CG =
      analysis::CallGraph::build(Tree.Mods, Tree.ModStems, true, &Tree.Link);
  analysis::SummarySet Sums = analysis::computeSummaries(
      CG, Tree.Mods, queries::toSinkTable(Sinks));
  std::vector<analysis::PackageSummaries> Slices =
      analysis::slicePackageSummaries(G, CG, Sums, Tree.Link);

  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  for (const analysis::PackageSummaries &PS : Slices) {
    // Scoped names ("@scope/pkg") must not become subdirectories.
    std::string Base = PS.Package;
    std::replace(Base.begin(), Base.end(), '/', '_');
    std::filesystem::path Out =
        std::filesystem::path(Dir) / (Base + ".summary.json");
    if (!obs::writeFileAtomic(Out.string(),
                              analysis::packageSummaryToJSON(PS) + "\n")) {
      std::fprintf(stderr, "error: cannot write %s\n", Out.string().c_str());
      return false;
    }
  }
  std::fprintf(stderr, "wrote %zu package summar%s to %s\n", Slices.size(),
               Slices.size() == 1 ? "y" : "ies", Dir.c_str());
  return true;
}

/// Linked scans, one MDG for all inputs. `--package` scans the inputs as
/// one package (local requires resolve across files); `--with-deps` scans
/// the root directory's discovered dependency tree as one unit, so taint
/// flows that cross package boundaries (a sink buried levels deep in
/// node_modules) are visible, unlike an isolated per-package scan.
int runLinkedScan(const std::vector<std::string> &Files, bool WithDeps,
                  const scanner::ScanOptions &O, bool Summary,
                  const std::string &EmitSummariesDir) {
  scanner::Scanner S(O);
  scanner::PackageBuild Kept;
  scanner::ScanResult R;
  analysis::PackageGraph G;
  if (WithDeps) {
    std::string Error;
    if (!analysis::PackageGraph::discover(Files[0], G, &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    R = S.scanDependencyTree(G, &Kept);
  } else {
    std::vector<scanner::SourceFile> Sources;
    if (!readSources(Files, Sources))
      return 1;
    R = S.scanPackage(Sources);
  }
  const bool ParseFailed = printErrors(R.Errors);
  for (const lint::Finding &F : R.SelfCheckFindings)
    std::fprintf(stderr, "self-check: %s\n", F.str().c_str());
  if (!R.SchemaError.empty()) {
    std::fprintf(stderr, "error: %s\n", R.SchemaError.c_str());
    return 4;
  }

  if (WithDeps && !EmitSummariesDir.empty() &&
      !emitPackageSummaries(G, Kept, O.Sinks, EmitSummariesDir))
    return 1;

  if (Summary) {
    if (!WithDeps)
      std::printf("package (%zu files): %zu finding(s)\n", Files.size(),
                  R.Reports.size());
    else
      std::printf("dependency tree (%zu packages, %u linked): %zu "
                  "finding(s)\n",
                  G.packages().size(), R.LinkedPackages, R.Reports.size());
    if (!R.MissingDeps.empty()) {
      std::printf("  unresolved dependencies:");
      for (const std::string &Dep : R.MissingDeps)
        std::printf(" %s", Dep.c_str());
      std::printf("\n");
    }
    for (const queries::VulnReport &Rep : R.Reports)
      std::printf("  %s\n", Rep.str().c_str());
  } else {
    std::printf("%s\n", scanner::reportsToJSON(R.Reports).c_str());
  }
  // The per-file scan's rule: findings (3) outrank a parse failure (1).
  if (!R.Reports.empty())
    return 3;
  return ParseFailed ? 1 : 0;
}

/// `callgraph --packages`: the package DAG and its SCC link order.
void printPackageGraph(const analysis::PackageGraph &G) {
  std::printf("package graph (%zu packages, root %s):\n", G.packages().size(),
              G.packages()[G.rootIndex()].Name.c_str());
  for (size_t I = 0; I < G.packages().size(); ++I) {
    const analysis::PackageInfo &P = G.packages()[I];
    std::printf("  %s%s%s ->", P.Name.c_str(), P.Version.empty() ? "" : "@",
                P.Version.c_str());
    if (G.depEdges()[I].empty())
      std::printf(" (leaf)");
    for (size_t Dep : G.depEdges()[I])
      std::printf(" %s", G.packages()[Dep].Name.c_str());
    if (!P.analyzable())
      std::printf("  [%s]", P.Missing ? "missing" : "unparseable");
    std::printf("\n");
  }
  std::printf("link order (dependencies first):\n");
  for (const std::vector<size_t> &SCC : G.linkOrder()) {
    std::printf(" ");
    for (size_t I : SCC)
      std::printf(" %s", G.packages()[I].Name.c_str());
    if (SCC.size() > 1)
      std::printf("  [cycle: linked as one group]");
    std::printf("\n");
  }
}

/// `graphjs callgraph`: prints the static call graph (text or dot) of the
/// inputs linked as one package and, with --summaries, the per-function
/// taint summaries and the pruning decision. With --packages the input is a
/// dependency-tree root: the package DAG and the SCC link order come first,
/// then the cross-package call graph of the linked tree.
int runCallGraph(const std::vector<std::string> &Files, bool Packages,
                 bool Dot, bool Summaries, const std::string &SinksFile) {
  queries::SinkConfig Sinks = queries::SinkConfig::defaults();
  if (!SinksFile.empty() && !loadSinkConfig(SinksFile, Sinks))
    return 1;

  std::vector<scanner::SourceFile> Sources;
  analysis::PackageGraph G;
  scanner::PackageLinkSpec Link;
  if (Packages) {
    std::string Error;
    if (!analysis::PackageGraph::discover(Files[0], G, &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    if (!Dot)
      printPackageGraph(G);
    std::vector<std::string> Warnings;
    Link = scanner::PackageLinkSpec::ofTree(G, Sources, &Warnings);
    for (const std::string &W : Warnings)
      std::fprintf(stderr, "warning: %s\n", W.c_str());
  } else if (!readSources(Files, Sources)) {
    return 1;
  }

  // The scanner's front half, so function names match the scanner's MDG
  // and self-check. A tree links past a file that does not parse (its
  // package stays unresolved); a list of inputs stops there.
  scanner::PackageBuild Pkg;
  bool ParseFailed =
      printErrors(scanner::runFrontHalf(Sources, scanner::ScanOptions(), Pkg,
                                        /*WithBuild=*/false,
                                        Packages ? &Link : nullptr));
  if (ParseFailed && !Packages)
    return 1;
  if (Pkg.Mods.empty()) {
    std::fprintf(stderr, "error: no analyzable modules in the tree\n");
    return 1;
  }
  analysis::CallGraph CG =
      analysis::CallGraph::build(Pkg.Mods, Pkg.ModStems, true, &Pkg.Link);

  if (Dot)
    std::printf("%s", CG.toDot().c_str());
  else
    std::printf("%s", CG.dumpText().c_str());

  if (Summaries) {
    analysis::SummarySet Sums =
        analysis::computeSummaries(CG, Pkg.Mods, queries::toSinkTable(Sinks));
    // dumpText ends with the "prune decision:" line.
    std::printf("%s", analysis::dumpText(Sums, CG).c_str());
  }
  return 0;
}

/// Collects batch packages from a CLI input: a directory (each contained
/// .js file is a single-file package; each subdirectory with .js files is
/// one linked package), a .txt list of paths (one per line), or a .js file.
bool collectBatchInputs(const std::string &Arg,
                        std::vector<driver::BatchInput> &Out) {
  namespace fs = std::filesystem;

  // One package of the given files; empty packages are dropped.
  auto AddPackage = [&](std::string Name,
                        const std::vector<std::string> &Paths) -> bool {
    driver::BatchInput Pkg{std::move(Name), {}};
    if (!readSources(Paths, Pkg.Files))
      return false;
    if (!Pkg.Files.empty())
      Out.push_back(std::move(Pkg));
    return true;
  };
  auto AddFilePackage = [&](const fs::path &P) {
    return AddPackage(P.filename().string(), {P.string()});
  };
  auto AddDirPackage = [&](const fs::path &Dir) {
    std::vector<std::string> JS;
    for (const fs::directory_entry &E : fs::directory_iterator(Dir))
      if (E.is_regular_file() && E.path().extension() == ".js")
        JS.push_back(E.path().string());
    std::sort(JS.begin(), JS.end());
    return AddPackage(Dir.filename().string(), JS);
  };

  fs::path P(Arg);
  std::error_code EC;
  if (fs::is_directory(P, EC)) {
    // Deterministic order: sorted entries; files first as single-file
    // packages, then subdirectories as linked packages.
    std::vector<fs::path> Entries;
    for (const fs::directory_entry &E : fs::directory_iterator(P))
      Entries.push_back(E.path());
    std::sort(Entries.begin(), Entries.end());
    for (const fs::path &E : Entries) {
      if (fs::is_directory(E, EC)) {
        if (!AddDirPackage(E))
          return false;
      } else if (E.extension() == ".js") {
        if (!AddFilePackage(E))
          return false;
      }
    }
    return true;
  }
  if (P.extension() == ".txt") {
    std::ifstream In(Arg);
    if (!In) {
      std::fprintf(stderr, "error: cannot open list %s\n", Arg.c_str());
      return false;
    }
    std::string Line;
    while (std::getline(In, Line)) {
      if (Line.empty() || Line[0] == '#')
        continue;
      if (!collectBatchInputs(Line, Out))
        return false;
    }
    return true;
  }
  return AddFilePackage(P);
}

int runBatch(const std::vector<std::string> &Args, driver::PoolOptions O,
             bool Summary, bool Stats, const std::string &TraceOut,
             driver::SharedBatchOptions *Shared = nullptr) {
  std::vector<driver::BatchInput> Inputs;
  for (const std::string &Arg : Args)
    if (!collectBatchInputs(Arg, Inputs))
      return 1;
  if (Inputs.empty()) {
    std::fprintf(stderr, "error: no packages to scan\n");
    return 1;
  }

  // One recorder spans the whole run. Under --jobs it stitches: the pool
  // hands its epoch to every worker and splices their span trees back on
  // per-process pid lanes next to its own scheduling spans. In-process
  // every scan records into it, as in `graphjs scan`.
  obs::TraceRecorder Recorder;
  bool WantTrace = !TraceOut.empty();
  if (WantTrace)
    O.Trace = &Recorder;

  driver::BatchSummary S;
  bool SharedMerged = false;
  std::string SharedJournal;
  size_t SharedDrained = 0;
  if (Shared) {
    // Distributed drain: the ledger under Shared->Ledger.Dir coordinates
    // this supervisor with any concurrent ones; scan/pool settings carry
    // over per shard.
    Shared->Pool = std::move(O);
    driver::SharedBatchResult R = driver::runSharedBatch(*Shared, Inputs);
    S = std::move(R.Summary);
    SharedMerged = R.Merged;
    SharedJournal = R.MergedJournal;
    SharedDrained = R.ShardsDrained;
  } else {
    S = driver::ProcessPool(std::move(O)).run(Inputs);
  }
  if (WantTrace && !writeTrace(Recorder, TraceOut))
    return 1;

  if (Summary) {
    for (const driver::BatchOutcome &Outcome : S.Outcomes) {
      if (Outcome.Skipped) {
        std::printf("%-24s skipped (journaled)\n", Outcome.Package.c_str());
        continue;
      }
      std::printf("%-24s %-8s %zu finding(s)", Outcome.Package.c_str(),
                  driver::batchStatusName(Outcome.Status),
                  Outcome.Result.Reports.size());
      if (Outcome.Result.Degradation)
        std::printf("  degradation=%u attempts=%u", Outcome.Result.Degradation,
                    Outcome.Result.Attempts);
      if (!Outcome.Result.Errors.empty())
        std::printf("  [%s]", Outcome.Result.errorSummary().c_str());
      std::printf("\n");
    }
    std::printf("batch: %zu scanned, %zu ok, %zu degraded, %zu failed, "
                "%zu resumed, %zu report(s)\n",
                S.Scanned, S.Ok, S.Degraded, S.Failed, S.SkippedResumed,
                S.TotalReports);
    if (Shared)
      std::printf("shared: %zu shard(s) drained by this supervisor%s%s\n",
                  SharedDrained, SharedMerged ? ", corpus merged: " : "",
                  SharedMerged ? SharedJournal.c_str() : "");
  } else if (!Stats) {
    for (const driver::BatchOutcome &Outcome : S.Outcomes)
      if (!Outcome.Skipped)
        std::printf("%s\n", Outcome.RawJournalLine.empty()
                                ? driver::BatchDriver::journalLine(Outcome)
                                      .c_str()
                                : Outcome.RawJournalLine.c_str());
  }
  if (Stats) {
    std::printf("%s", driver::batchStatsText(S).c_str());
    if (Shared)
      std::printf("shared: %zu shard(s) drained by this supervisor%s%s\n",
                  SharedDrained, SharedMerged ? ", corpus merged: " : "",
                  SharedMerged ? SharedJournal.c_str() : "");
  }
  return S.Failed ? 1 : 0;
}

/// `graphjs lint`: runs the full pipeline front half on each input and the
/// standard validation passes over every artifact. Exit 0 iff no
/// error-severity finding.
int runLint(const std::vector<std::string> &Files, bool Summary,
            const std::vector<std::string> &ExtraQueries) {
  scanner::ScanOptions Cfg; // The default sinks and builder settings.
  int ExitCode = 0;
  for (const std::string &Path : Files) {
    scanner::PackageBuild Pkg;
    if (!frontHalfOf(Path, Cfg, Pkg))
      return 1;
    cfg::ModuleCFG CFG = cfg::buildCFG(*Pkg.ASTs[0]);

    lint::LintContext Ctx;
    Ctx.Program = Pkg.Programs[0].get();
    Ctx.CFG = &CFG;
    Ctx.Build = &Pkg.Build;
    Ctx.Sinks = &Cfg.Sinks;
    Ctx.ExtraQueries = ExtraQueries;
    lint::LintResult LR = lint::PassManager::standard().run(Ctx);

    if (Summary) {
      std::printf("== %s ==\n%s", Path.c_str(), LR.renderText().c_str());
    } else {
      std::printf("%s\n", LR.renderJSON().c_str());
    }
    if (LR.hasErrors())
      ExitCode = 4;
  }
  return ExitCode;
}

int runQuery(const std::string &QueryText, bool Builtin, bool Explain,
             bool Profile, const std::vector<std::string> &Files) {
  // The query set: the given text, or every built-in Table 2 query.
  std::vector<std::pair<std::string, std::string>> Queries;
  if (Builtin || QueryText.empty()) {
    Queries =
        queries::GraphDBRunner::builtinQueries(queries::SinkConfig::defaults());
  } else {
    Queries.emplace_back("query", QueryText);
  }

  // Pre-lint ad-hoc query text against the store schema: a typo'd label or
  // relationship type would otherwise just return zero rows. (Built-ins are
  // validated by their own tests and by `graphjs lint`.)
  if (!QueryText.empty()) {
    bool SchemaError = false;
    for (const graphdb::SchemaIssue &Issue :
         graphdb::lintQueryText(QueryText, graphdb::mdgSchema())) {
      std::fprintf(stderr, "query %s: %s\n",
                   Issue.Severity == DiagSeverity::Error ? "error" : "warning",
                   Issue.str().c_str());
      SchemaError |= Issue.Severity == DiagSeverity::Error;
    }
    if (SchemaError)
      return 2;
  }

  // EXPLAIN never executes: print the compiled plan and stop (no input
  // files required — the plan depends only on the query and the hop cap).
  if (Explain) {
    for (const auto &[Name, Text] : Queries) {
      graphdb::Query Q;
      std::string Error;
      if (!graphdb::parseQuery(Text, Q, &Error)) {
        std::fprintf(stderr, "query error (%s): %s\n", Name.c_str(),
                     Error.c_str());
        return 2;
      }
      std::printf("== %s ==\n%s", Name.c_str(),
                  graphdb::explainQuery(Q).c_str());
    }
    if (!Profile && Files.empty())
      return 0;
  }
  if (Files.empty()) {
    std::fprintf(stderr, "error: no input files\n");
    return usage();
  }

  for (const std::string &Path : Files) {
    scanner::PackageBuild Pkg;
    if (!frontHalfOf(Path, scanner::ScanOptions(), Pkg))
      return 1;
    // Through GraphDBRunner so the built-in path predicates (untainted)
    // and the planner fold are registered, exactly as in a scan.
    queries::GraphDBRunner Runner(Pkg.Build);
    for (const auto &[Name, Text] : Queries) {
      std::string Error;
      graphdb::QueryProfile QP;
      graphdb::ResultSet RS =
          Runner.runQuery(Text, &Error, Profile ? &QP : nullptr);
      if (!Error.empty()) {
        std::fprintf(stderr, "query error (%s): %s\n", Name.c_str(),
                     Error.c_str());
        return 2;
      }
      std::printf("== %s: %s: %zu row(s) ==\n", Path.c_str(), Name.c_str(),
                  RS.Rows.size());
      if (Profile) {
        std::printf("%s", graphdb::renderProfile(QP).c_str());
        continue; // Profile mode reports step metrics, not rows.
      }
      for (const graphdb::ResultRow &Row : RS.Rows) {
        for (size_t I = 0; I < Row.Values.size(); ++I)
          std::printf("%s%s", I ? " | " : "  ", Row.Values[I].c_str());
        std::printf("\n");
      }
    }
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 3)
    return usage();
  std::string Mode = argv[1];
  NumericFlags Num{argv};

  if (Mode == "query") {
    bool Builtin = false, Explain = false, Profile = false;
    std::string QueryText;
    std::vector<std::string> Files;
    for (int I = 2; I < argc; ++I) {
      std::string Arg = argv[I];
      if (Arg == "--builtin")
        Builtin = true;
      else if (Arg == "--explain")
        Explain = true;
      else if (Arg == "--profile")
        Profile = true;
      else if (Arg.rfind("--", 0) == 0)
        return usage();
      else if (QueryText.empty() && Arg.find("MATCH") != std::string::npos)
        QueryText = Arg; // Query text, not a file path.
      else
        Files.push_back(Arg);
    }
    if (QueryText.empty() && !Builtin && !Explain && !Profile)
      return usage();
    return runQuery(QueryText, Builtin, Explain, Profile, Files);
  }

  if (Mode == "lint") {
    bool Summary = false;
    std::vector<std::string> ExtraQueries;
    std::vector<std::string> Files;
    for (int I = 2; I < argc; ++I) {
      std::string Arg = argv[I];
      if (Arg == "--summary")
        Summary = true;
      else if (Arg == "--query" && I + 1 < argc)
        ExtraQueries.push_back(argv[++I]);
      else if (Arg.rfind("--", 0) == 0)
        return usage();
      else
        Files.push_back(Arg);
    }
    if (Files.empty())
      return usage();
    return runLint(Files, Summary, ExtraQueries);
  }

  if (Mode == "callgraph") {
    bool Dot = false, Summaries = false, Packages = false;
    std::string SinksFile;
    std::vector<std::string> Files;
    for (int I = 2; I < argc; ++I) {
      std::string Arg = argv[I];
      if (Arg == "--dot")
        Dot = true;
      else if (Arg == "--summaries")
        Summaries = true;
      else if (Arg == "--packages")
        Packages = true;
      else if (Arg == "--sinks" && I + 1 < argc)
        SinksFile = argv[++I];
      else if (Arg.rfind("--", 0) == 0)
        return usage();
      else
        Files.push_back(Arg);
    }
    if (Files.empty())
      return usage();
    if (Packages && Files.size() != 1) {
      std::fprintf(stderr, "error: --packages takes one root directory\n");
      return usage();
    }
    return runCallGraph(Files, Packages, Dot, Summaries, SinksFile);
  }

  if (Mode == "batch") {
    driver::PoolOptions O;
    O.Jobs = 0; // In-process unless --jobs asks for workers.
    bool Summary = false, Stats = false, Quiet = false;
    std::string TraceOut;
    driver::SharedBatchOptions Shared; // Live iff Shared.Ledger.Dir set.
    const char *SharedOnlyFlag = nullptr;
    std::vector<std::string> Inputs;
    for (int I = 2; I < argc; ++I) {
      ScanFlag SF = parseScanFlag(argc, argv, I, O.Batch.Scan);
      if (SF == ScanFlag::BadSinks)
        return 1;
      if (SF == ScanFlag::Parsed)
        continue;
      std::string Arg = argv[I];
      if (Arg == "--summary")
        Summary = true;
      else if (Arg == "--stats")
        Stats = true;
      else if (Arg == "--quiet")
        Quiet = true;
      else if (Arg == "--resume")
        O.Batch.Resume = true;
      else if (Arg == "--retry-crashed")
        O.RetryCrashed = true;
      else if (Arg == "--recycle-after" && I + 1 < argc)
        Num.count(I, O.RecycleAfter);
      else if (Arg == "--recycle-mem-mb" && I + 1 < argc)
        Num.count(I, O.RecycleRssMB);
      else if (Arg == "--journal" && I + 1 < argc)
        O.Batch.JournalPath = argv[++I];
      else if (Arg == "--deadline-ms" && I + 1 < argc)
        O.Batch.Scan.Deadline.WallSeconds = Num.millis(I) / 1000.0;
      else if (Arg == "--work" && I + 1 < argc)
        Num.count(I, O.Batch.Scan.Deadline.WorkUnits);
      else if (Arg == "--max" && I + 1 < argc)
        Num.count(I, O.Batch.MaxPackages);
      else if (Arg == "--max-degradation" && I + 1 < argc)
        Num.count(I, O.Batch.Scan.MaxDegradation);
      else if (Arg == "--jobs" && I + 1 < argc)
        Num.count(I, O.Jobs);
      else if (Arg == "--mem-limit-mb" && I + 1 < argc)
        Num.count(I, O.MemLimitMB);
      else if (Arg == "--kill-after-ms" && I + 1 < argc)
        O.KillAfterSeconds = Num.millis(I) / 1000.0;
      else if (Arg == "--trace-out" && I + 1 < argc)
        TraceOut = argv[++I];
      else if (Arg == "--metrics-out" && I + 1 < argc)
        O.Batch.MetricsPath = argv[++I];
      else if (Arg == "--shared" && I + 1 < argc)
        Shared.Ledger.Dir = argv[++I];
      else if (Arg == "--shard-size" && I + 1 < argc) {
        Num.count(I, Shared.Ledger.ShardSize);
        SharedOnlyFlag = "--shard-size";
      } else if (Arg == "--lease-expiry-ms" && I + 1 < argc) {
        Shared.Ledger.LeaseExpirySeconds = Num.millis(I) / 1000.0;
        SharedOnlyFlag = "--lease-expiry-ms";
      } else if (Arg == "--quarantine-after" && I + 1 < argc) {
        Num.count(I, Shared.Ledger.QuarantineAfter);
        SharedOnlyFlag = "--quarantine-after";
      } else if (Arg == "--supervisor-id" && I + 1 < argc) {
        Shared.Ledger.SupervisorId = argv[++I];
        SharedOnlyFlag = "--supervisor-id";
      } else if (Arg == "--chaos-kill-after" && I + 1 < argc) {
        Num.count(I, Shared.ChaosKillAfter);
        SharedOnlyFlag = "--chaos-kill-after";
      } else if (Arg == "--inject-fault" && I + 1 < argc) {
        scanner::FaultPlan Plan;
        std::string Error;
        if (!scanner::FaultPlan::parse(argv[++I], Plan, &Error)) {
          std::fprintf(stderr, "error: %s\n", Error.c_str());
          return 2;
        }
        O.Batch.Faults.push_back(Plan);
      } else if (Arg.rfind("--", 0) == 0)
        return usage();
      else
        Inputs.push_back(Arg);
    }
    if (Num.Bad)
      return 2;
    if (Inputs.empty())
      return usage();
    bool IsShared = !Shared.Ledger.Dir.empty();
    if (!IsShared && SharedOnlyFlag) {
      std::fprintf(stderr, "error: %s requires --shared <dir>\n",
                   SharedOnlyFlag);
      return 2;
    }
    if (O.Jobs == 0) {
      // Pool-only options and faults only the pool can contain. Under
      // --shared the fault restriction lifts: process-fatal faults kill
      // this *supervisor*, which is exactly what the ledger's lease
      // stealing and quarantine breaker exist to absorb.
      const char *Needs = nullptr;
      if (O.MemLimitMB)
        Needs = "--mem-limit-mb";
      else if (O.KillAfterSeconds > 0)
        Needs = "--kill-after-ms";
      else if (O.RetryCrashed)
        Needs = "--retry-crashed";
      else if (O.RecycleAfter)
        Needs = "--recycle-after";
      else if (O.RecycleRssMB)
        Needs = "--recycle-mem-mb";
      else if (!IsShared &&
               std::ranges::any_of(O.Batch.Faults,
                                   &scanner::FaultPlan::processFatal))
        Needs = "a crash/hang/oom fault";
      if (Needs) {
        std::fprintf(stderr, "error: %s requires --jobs N\n", Needs);
        return 2;
      }
    }
    // Cadences say how often progress prints; Quiet says the user asked
    // for silence. Both are always set so --quiet suppresses structurally
    // rather than by zeroing the cadence.
    O.Batch.Quiet = Quiet;
    O.Batch.ProgressEveryPackages = 25;
    O.Batch.ProgressEverySeconds = 2.0;
    return runBatch(Inputs, std::move(O), Summary, Stats, TraceOut,
                    !Shared.Ledger.Dir.empty() ? &Shared : nullptr);
  }

  if (Mode == "serve") {
    driver::ServiceOptions O;
    std::string ClientLine;
    bool Client = false;
    double RetryBudgetMs = 0;
    for (int I = 2; I < argc; ++I) {
      ScanFlag SF = parseScanFlag(argc, argv, I, O.Scan);
      if (SF == ScanFlag::BadSinks)
        return 1;
      if (SF == ScanFlag::Parsed)
        continue;
      std::string Arg = argv[I];
      if (Arg == "--socket" && I + 1 < argc)
        O.SocketPath = argv[++I];
      else if (Arg == "--jobs" && I + 1 < argc)
        Num.count(I, O.Jobs);
      else if (Arg == "--queue-max" && I + 1 < argc)
        Num.count(I, O.QueueMax);
      else if (Arg == "--journal" && I + 1 < argc)
        O.JournalPath = argv[++I];
      else if (Arg == "--deadline-ms" && I + 1 < argc)
        O.Scan.Deadline.WallSeconds = Num.millis(I) / 1000.0;
      else if (Arg == "--kill-after-ms" && I + 1 < argc)
        O.KillAfterSeconds = Num.millis(I) / 1000.0;
      else if (Arg == "--recycle-after" && I + 1 < argc)
        Num.count(I, O.RecycleAfter);
      else if (Arg == "--recycle-mem-mb" && I + 1 < argc)
        Num.count(I, O.RecycleRssMB);
      else if (Arg == "--mem-limit-mb" && I + 1 < argc)
        Num.count(I, O.MemLimitMB);
      else if (Arg == "--heartbeat-ms" && I + 1 < argc)
        O.HeartbeatSeconds = Num.millis(I) / 1000.0;
      else if (Arg == "--metrics-out" && I + 1 < argc)
        O.MetricsPath = argv[++I];
      else if (Arg == "--quiet")
        O.Quiet = true;
      else if (Arg == "--client" && I + 1 < argc) {
        Client = true;
        ClientLine = argv[++I];
      } else if (Arg == "--retry-budget-ms" && I + 1 < argc)
        RetryBudgetMs = Num.millis(I);
      else
        return usage();
    }
    if (Num.Bad)
      return 2;
    if (O.SocketPath.empty()) {
      std::fprintf(stderr, "error: serve requires --socket <path>\n");
      return 2;
    }
    if (Client) {
      std::string Response, Error;
      if (!driver::ScanService::requestWithRetry(O.SocketPath, ClientLine,
                                                 Response, &Error,
                                                 RetryBudgetMs)) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        return 1;
      }
      std::printf("%s\n", Response.c_str());
      // Rejections and bad requests exit nonzero so shell pipelines can
      // branch on admission without parsing JSON.
      return Response.find("\"ok\":true") != std::string::npos ? 0 : 1;
    }
    if (RetryBudgetMs > 0) {
      std::fprintf(stderr, "error: --retry-budget-ms requires --client\n");
      return 2;
    }
    return driver::ScanService(std::move(O)).run();
  }

  if (Mode == "metrics") {
    // One-shot metrics client: ask a running daemon for its counters and
    // latency percentiles. Sugar for serve --client '{"op":"metrics"}'.
    std::string SocketPath;
    double RetryBudgetMs = 0;
    for (int I = 2; I < argc; ++I) {
      std::string Arg = argv[I];
      if (Arg == "--socket" && I + 1 < argc)
        SocketPath = argv[++I];
      else if (Arg == "--retry-budget-ms" && I + 1 < argc)
        RetryBudgetMs = Num.millis(I);
      else
        return usage();
    }
    if (Num.Bad)
      return 2;
    if (SocketPath.empty()) {
      std::fprintf(stderr, "error: metrics requires --socket <path>\n");
      return 2;
    }
    std::string Response, Error;
    if (!driver::ScanService::requestWithRetry(SocketPath,
                                               "{\"op\":\"metrics\"}",
                                               Response, &Error,
                                               RetryBudgetMs)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    std::printf("%s\n", Response.c_str());
    return Response.find("\"ok\":true") != std::string::npos ? 0 : 1;
  }

  if (Mode != "scan")
    return usage();

  scanner::ScanOptions Scan;
  bool Confirm = false, DumpCore = false, DumpMDG = false, DumpDot = false,
       Summary = false, AsPackage = false, WithDeps = false, Trace = false;
  std::string TraceOut, EmitSummariesDir;
  std::vector<std::string> Files;
  for (int I = 2; I < argc; ++I) {
    ScanFlag SF = parseScanFlag(argc, argv, I, Scan);
    if (SF == ScanFlag::BadSinks)
      return 1;
    if (SF == ScanFlag::Parsed)
      continue;
    std::string Arg = argv[I];
    if (Arg == "--confirm")
      Confirm = true;
    else if (Arg == "--dump-core")
      DumpCore = true;
    else if (Arg == "--dump-mdg")
      DumpMDG = true;
    else if (Arg == "--dot")
      DumpDot = true;
    else if (Arg == "--summary")
      Summary = true;
    else if (Arg == "--package")
      AsPackage = true;
    else if (Arg == "--with-deps")
      WithDeps = true;
    else if (Arg == "--emit-summaries" && I + 1 < argc)
      EmitSummariesDir = argv[++I];
    else if (Arg == "--self-check")
      Scan.SelfCheck = true;
    else if (Arg == "--trace")
      Trace = true;
    else if (Arg == "--trace-out" && I + 1 < argc)
      TraceOut = argv[++I];
    else if (Arg.rfind("--", 0) == 0)
      return usage();
    else
      Files.push_back(Arg);
  }
  if (Files.empty())
    return usage();

  // Tracing: one recorder for the whole invocation, exported as a text
  // tree (--trace, stderr) and/or Chrome trace_event JSON (--trace-out).
  // Counters ride along: enabled while tracing, dumped next to the tree.
  obs::TraceRecorder Recorder;
  obs::TraceRecorder *TR = (Trace || !TraceOut.empty()) ? &Recorder : nullptr;
  Scan.Trace = TR;
  if (TR)
    obs::setCountersEnabled(true);

  if (WithDeps && Files.size() != 1) {
    std::fprintf(stderr, "error: --with-deps takes one root directory\n");
    return usage();
  }
  int Code =
      WithDeps || AsPackage
          ? runLinkedScan(Files, WithDeps, Scan, Summary, EmitSummariesDir)
          : runScan(Files, Scan, Confirm, DumpCore, DumpMDG, DumpDot, Summary);
  if (TR) {
    if (Trace) {
      std::fprintf(stderr, "%s", Recorder.toText().c_str());
      dumpCounters(stderr);
    }
    if (!TraceOut.empty() && !writeTrace(Recorder, TraceOut) && Code == 0)
      Code = 1;
  }
  return Code;
}
