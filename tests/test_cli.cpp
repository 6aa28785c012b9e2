//===- tests/test_cli.cpp - graphjs CLI output goldens ---------------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
// The `graphjs` command line pinned byte for byte: stdout and exit codes of
// the per-file scan (plain, --summary, --confirm, the Core/MDG/dot dumps,
// a parse error ahead of a finding), lint JSON, the call graph and its
// summaries, `callgraph --packages` and the `--emit-summaries` files of a
// dependency tree, and `query --builtin` on the synchronous examples. Each
// test renders its runs as one transcript and compares it with
// tests/cli_golden/<name>.txt; on a mismatch the actual transcript is
// written next to the test temp files and the first differing line is
// reported. Every run uses paths relative to its working directory, so the
// transcripts do not depend on where the checkout lives.
//
// Beside the goldens: `query --builtin` sees flows through async lowering
// (as `scan` does), and numeric flags reject bad values with a usage error.
//
//===----------------------------------------------------------------------===//

#include "workload/DepTrees.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

using namespace gjs;

namespace {

namespace fs = std::filesystem;

const char *const Examples[] = {"figure1.js", "set_value.js",
                                "clean_utils.js", "promise_chain.js"};

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// A scratch directory unique to this test process.
std::string tempDir(const std::string &Tag) {
  fs::path P = fs::path(::testing::TempDir()) /
               ("gjs_cli_" + Tag + "_" + std::to_string(::getpid()));
  fs::remove_all(P);
  fs::create_directories(P);
  return P.string();
}

struct CLIRun {
  int Exit = -1;
  std::string Out;
};

/// Runs `graphjs <Args>` with \p Dir as the working directory, capturing
/// stdout (stderr is discarded).
CLIRun graphjs(const std::string &Dir, const std::string &Args) {
  std::string OutPath = tempDir("stdout") + "/out.txt";
  std::string Cmd = "cd '" + Dir + "' && '" + GRAPHJS_BIN + "' " + Args +
                    " > '" + OutPath + "' 2>/dev/null";
  int RC = std::system(Cmd.c_str());
  CLIRun R;
  R.Exit = WIFEXITED(RC) ? WEXITSTATUS(RC) : -1;
  R.Out = slurp(OutPath);
  return R;
}

/// Accumulates runs into a transcript: the command, its stdout, its exit
/// code.
class Transcript {
public:
  void add(const std::string &Args, const CLIRun &R) {
    Text += "$ graphjs " + Args + "\n" + R.Out;
    if (!R.Out.empty() && R.Out.back() != '\n')
      Text += "\n[no newline at end of output]\n";
    Text += "[exit " + std::to_string(R.Exit) + "]\n";
  }
  void addFile(const std::string &Label, const std::string &Bytes) {
    Text += "--- " + Label + "\n" + Bytes + "[end of file]\n";
  }
  /// Runs `graphjs <Args>` in \p Dir and records it.
  CLIRun run(const std::string &Dir, const std::string &Args) {
    CLIRun R = graphjs(Dir, Args);
    add(Args, R);
    return R;
  }

  /// Compares the transcript with tests/cli_golden/<Name>.txt.
  void expectGolden(const std::string &Name) const {
    std::string GoldenPath = std::string(GJS_CLI_GOLDEN_DIR) + "/" + Name +
                             ".txt";
    fs::path Actual = fs::path(::testing::TempDir()) /
                      ("gjs_cli_actual_" + std::to_string(::getpid()));
    fs::create_directories(Actual);
    std::string ActualPath = (Actual / (Name + ".txt")).string();
    std::ofstream(ActualPath, std::ios::binary) << Text;
    if (!fs::exists(GoldenPath)) {
      ADD_FAILURE() << "no golden " << GoldenPath << "; actual transcript in "
                    << ActualPath;
      return;
    }
    std::string Want = slurp(GoldenPath);
    if (Want == Text)
      return;
    std::istringstream W(Want), A(Text);
    std::string WL, AL, Cmd;
    for (unsigned Line = 1;; ++Line) {
      bool MoreW = static_cast<bool>(std::getline(W, WL));
      bool MoreA = static_cast<bool>(std::getline(A, AL));
      if (MoreA && AL.rfind("$ graphjs ", 0) == 0)
        Cmd = AL;
      if (!MoreW && !MoreA)
        break;
      if (MoreW != MoreA || WL != AL) {
        ADD_FAILURE() << Name << ".txt differs at line " << Line << " (in `"
                      << Cmd << "`)\n  golden: " << (MoreW ? WL : "<eof>")
                      << "\n  actual: " << (MoreA ? AL : "<eof>")
                      << "\nactual transcript in " << ActualPath;
        return;
      }
    }
    ADD_FAILURE() << Name << ".txt differs; actual transcript in "
                  << ActualPath;
  }

private:
  std::string Text;
};

/// Writes \p T under \p Dir.
void writeTree(const workload::DepTree &T, const std::string &Dir) {
  std::string Error;
  ASSERT_TRUE(workload::materialize(T, Dir, &Error)) << Error;
}

} // namespace

//===----------------------------------------------------------------------===//
// Byte-exact goldens
//===----------------------------------------------------------------------===//

TEST(CLIGoldenTest, PerFileScan) {
  Transcript T;
  for (const char *Mode : {"", "--summary ", "--confirm ", "--summary --confirm "})
    for (const char *Example : Examples)
      T.run(GJS_EXAMPLES_JS_DIR, std::string("scan ") + Mode + Example);
  // Several files in one run: one report array per file; findings in any
  // file exit 3.
  T.run(GJS_EXAMPLES_JS_DIR,
        "scan figure1.js set_value.js clean_utils.js promise_chain.js");
  T.expectGolden("scan");
}

TEST(CLIGoldenTest, ScanDumps) {
  Transcript T;
  T.run(GJS_EXAMPLES_JS_DIR, "scan --dump-core --dump-mdg figure1.js");
  T.run(GJS_EXAMPLES_JS_DIR, "scan --dot figure1.js");
  T.run(GJS_EXAMPLES_JS_DIR, "scan --dump-core --summary promise_chain.js");
  T.expectGolden("scan_dumps");
}

TEST(CLIGoldenTest, ParseErrorDoesNotHideLaterFindings) {
  std::string Dir = tempDir("parse_error");
  std::ofstream(Dir + "/broken.js") << "function (( {\n";
  Transcript T;
  // The broken file is named by absolute path; it prints nothing on
  // stdout, and figure1's findings decide the exit code (3) wherever the
  // broken file stands.
  CLIRun R = graphjs(GJS_EXAMPLES_JS_DIR, "scan " + Dir + "/broken.js figure1.js");
  T.add("scan <broken.js> figure1.js", R);
  R = graphjs(GJS_EXAMPLES_JS_DIR,
              "scan --summary figure1.js " + Dir + "/broken.js");
  T.add("scan --summary figure1.js <broken.js>", R);
  T.expectGolden("scan_parse_error");
  fs::remove_all(Dir);
}

TEST(CLIGoldenTest, LinkedScanParseErrorExitCode) {
  // `scan --package` follows the per-file rule: findings exit 3, else a
  // file that failed to parse exits 1.
  std::string Dir = tempDir("package_parse_error");
  std::ofstream(Dir + "/broken.js") << "function (( {\n";
  Transcript T;
  for (const char *Other : {"clean_utils.js", "figure1.js"}) {
    CLIRun R = graphjs(GJS_EXAMPLES_JS_DIR, "scan --package --summary " + Dir +
                                                "/broken.js " + Other);
    T.add(std::string("scan --package --summary <broken.js> ") + Other, R);
  }
  T.expectGolden("scan_package_parse_error");
  fs::remove_all(Dir);
}

TEST(CLIExitCodeTest, PerFileScanExitIgnoresFileOrder) {
  // Findings in any file exit 3, else a file that failed to parse exits 1,
  // else 0 — whichever file comes last.
  std::string Dir = tempDir("exit_order");
  std::ofstream(Dir + "/broken.js") << "function (( {\n";
  std::string Broken = Dir + "/broken.js";
  for (const char *Other : {"figure1.js", "clean_utils.js"}) {
    int Want = std::string(Other) == "figure1.js" ? 3 : 1;
    EXPECT_EQ(graphjs(GJS_EXAMPLES_JS_DIR, "scan " + Broken + " " + Other).Exit,
              Want)
        << Other;
    EXPECT_EQ(graphjs(GJS_EXAMPLES_JS_DIR, "scan " + std::string(Other) + " " +
                                               Broken).Exit,
              Want)
        << Other;
  }
  EXPECT_EQ(graphjs(GJS_EXAMPLES_JS_DIR, "scan clean_utils.js figure1.js").Exit,
            3);
  EXPECT_EQ(graphjs(GJS_EXAMPLES_JS_DIR, "scan figure1.js clean_utils.js").Exit,
            3);
  fs::remove_all(Dir);
}

TEST(CLIGoldenTest, LintJSON) {
  Transcript T;
  for (const char *Example : Examples)
    T.run(GJS_EXAMPLES_JS_DIR, std::string("lint ") + Example);
  T.run(GJS_EXAMPLES_JS_DIR, "lint --summary figure1.js promise_chain.js");
  T.expectGolden("lint");
}

TEST(CLIGoldenTest, CallGraph) {
  Transcript T;
  for (const char *Mode : {"", "--summaries "}) {
    for (const char *Example : Examples)
      T.run(GJS_EXAMPLES_JS_DIR, std::string("callgraph ") + Mode + Example);
    // All four linked as one package: module-prefixed function names.
    T.run(GJS_EXAMPLES_JS_DIR,
          std::string("callgraph ") + Mode +
              "figure1.js set_value.js clean_utils.js promise_chain.js");
  }
  T.run(GJS_EXAMPLES_JS_DIR, "callgraph --dot figure1.js");
  T.expectGolden("callgraph");
}

TEST(CLIGoldenTest, DependencyTree) {
  std::string Dir = tempDir("tree");
  // A root requiring a two-deep chain down to a CWE-78 sink, and the same
  // shape whose deepest dependency does not parse (the soundness valve:
  // its package links as unresolved).
  workload::DepTreeGenerator Gen(112);
  writeTree(Gen.chain(queries::VulnType::CommandInjection, 2, true),
            Dir + "/tree");
  writeTree(Gen.brokenDep(queries::VulnType::CommandInjection, 2),
            Dir + "/broken");
  Transcript T;
  for (const char *Root : {"tree", "broken"}) {
    std::string Sums = std::string(Root) + "_sums";
    T.run(Dir, std::string("callgraph --packages ") + Root);
    T.run(Dir, std::string("callgraph --packages --summaries ") + Root);
    T.run(Dir, "scan --with-deps --emit-summaries " + Sums + " " + Root);
    std::vector<fs::path> Files;
    for (const fs::directory_entry &E : fs::directory_iterator(Dir + "/" + Sums))
      Files.push_back(E.path());
    std::sort(Files.begin(), Files.end());
    for (const fs::path &P : Files)
      T.addFile(Sums + "/" + P.filename().string(), slurp(P.string()));
  }
  T.expectGolden("dependency_tree");
  fs::remove_all(Dir);
}

TEST(CLIGoldenTest, BuiltinQueriesOnSynchronousExamples) {
  Transcript T;
  for (const char *Example : {"figure1.js", "set_value.js", "clean_utils.js"})
    T.run(GJS_EXAMPLES_JS_DIR, std::string("query --builtin ") + Example);
  T.expectGolden("query");
}

//===----------------------------------------------------------------------===//
// `graphjs query` runs the scanner's front half, async lowering included
//===----------------------------------------------------------------------===//

TEST(CLIQueryTest, BuiltinQueryFollowsPromiseExecutorFlow) {
  std::string Dir = tempDir("async_query");
  std::ofstream(Dir + "/run.js")
      << "var cp = require('child_process');\n"
         "function run(cmd) {\n"
         "  new Promise(function (resolve) { resolve('git ' + cmd); })"
         ".then(function (c) {\n"
         "    cp.exec(c);\n"
         "  });\n"
         "}\n"
         "module.exports = run;\n";
  EXPECT_EQ(graphjs(Dir, "scan run.js").Exit, 3);
  CLIRun R = graphjs(Dir, "query --builtin run.js");
  ASSERT_EQ(R.Exit, 0);
  const std::string Header = "== run.js: command-injection/exec: ";
  size_t At = R.Out.find(Header);
  ASSERT_NE(At, std::string::npos) << R.Out;
  unsigned long Rows = std::strtoul(R.Out.c_str() + At + Header.size(),
                                    nullptr, 10);
  EXPECT_GE(Rows, 1u) << R.Out;
  fs::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Numeric flags: bad values are usage errors (exit 2), not aborts
//===----------------------------------------------------------------------===//

TEST(CLIFlagTest, BadNumericValuesAreUsageErrors) {
  // Runs in a scratch directory, so a flag that slipped through could not
  // leave a ledger or journal in the source tree.
  std::string Dir = tempDir("flags");
  std::string Clean = std::string(" ") + GJS_EXAMPLES_JS_DIR + "/clean_utils.js";
  for (std::string Args :
       {"batch --jobs x", "batch --deadline-ms abc", "batch --jobs 2x",
        "batch --work 1.5", "batch --max -3", "batch --deadline-ms -5",
        "batch --kill-after-ms nan --jobs 1",
        "batch --jobs 99999999999999999999",
        "batch --shared ledger --shard-size ''"}) {
    Args += Clean;
    SCOPED_TRACE(Args);
    EXPECT_EQ(graphjs(Dir, Args).Exit, 2);
  }
  // Rejected while parsing argv: no socket is bound, no worker starts.
  for (const char *Args :
       {"serve --socket p --jobs x", "serve --socket p --queue-max -1",
        "serve --socket p --heartbeat-ms 5s",
        "metrics --socket p --retry-budget-ms x"}) {
    SCOPED_TRACE(Args);
    EXPECT_EQ(graphjs(Dir, Args).Exit, 2);
  }
  // A negative count must not wrap to 4294967295 workers. The example
  // directory holds four packages, so no more workers start even if it did.
  EXPECT_EQ(graphjs(Dir, std::string("batch --jobs -1 ") + GJS_EXAMPLES_JS_DIR)
                .Exit,
            2);
  // Well-formed values still parse, fractional milliseconds included.
  EXPECT_EQ(graphjs(Dir, "batch --quiet --deadline-ms 60000.5 --max 1 "
                         "--journal j.jsonl" + Clean)
                .Exit,
            0);
  fs::remove_all(Dir);
}
