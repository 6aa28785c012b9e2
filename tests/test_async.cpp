//===- tests/test_async.cpp - Async lowering and detection tests ----------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
//
// The async-awareness suite (docs/ASYNC.md):
//
//  - Golden lowering tests: each supported form (await, .then chains,
//    `new Promise(executor)`, Promise statics) rewrites into the documented
//    suspend/resume/reaction/resolver shape, visible as role markers in the
//    Core IR dump, with the matching AsyncLowerStats.
//  - Detection: the scanner finds the workload generator's async shapes at
//    the annotated sink line — and the promise-carried shapes are provably
//    MISSED when lowering is disabled (the acceptance criterion that the
//    detection is the lowering's doing). The native traversals agree on
//    the async twins (BackendDifferentialTest in test_queries.cpp).
//  - No regressions: error-first callbacks detect with lowering on or off;
//    benign async twins stay clean in both modes.
//  - Prune neutrality: the async corpus yields the report sets recorded
//    when scans still ran the retired summary-based pruning stage.
//  - The async lint pass accepts the lowering's real output and rejects
//    hand-broken shapes (orphan suspend/resume/promise).
//  - Parse errors carry a structured line:column SourceLocation.
//
//===----------------------------------------------------------------------===//

#include "core/AsyncLower.h"
#include "core/CoreIR.h"
#include "core/Normalizer.h"
#include "lint/PassManager.h"
#include "scanner/Scanner.h"
#include "workload/Packages.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace gjs;
using queries::VulnType;

namespace {

/// Normalize + lower, returning the lowered program and the stats.
std::unique_ptr<core::Program> lower(const std::string &Source, core::AsyncLowerStats *Out) {
  DiagnosticEngine Diags;
  std::unique_ptr<core::Program> P = core::normalizeJS(Source, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  if (!P)
    return nullptr;
  core::AsyncLowerStats S = core::lowerAsync(*P);
  if (Out)
    *Out = S;
  return P;
}

size_t countMarker(const std::string &Dump, const std::string &Role) {
  const std::string Needle = "/* async:" + Role + " */";
  size_t N = 0;
  for (size_t At = Dump.find(Needle); At != std::string::npos;
       At = Dump.find(Needle, At + Needle.size()))
    ++N;
  return N;
}

std::vector<queries::VulnReport>
scan(const std::vector<scanner::SourceFile> &Files, bool AsyncLower) {
  scanner::ScanOptions O;
  O.AsyncLower = AsyncLower;
  scanner::Scanner S(O);
  return S.scanPackage(Files).Reports;
}

bool hasAnnotatedReport(const std::vector<queries::VulnReport> &Reports,
                        const workload::Package &P) {
  for (const workload::Annotation &A : P.Annotations)
    for (const queries::VulnReport &R : Reports)
      if (R.Type == A.Type && R.SinkLoc.Line == A.SinkLine)
        return true;
  return false;
}

//===----------------------------------------------------------------------===//
// Golden lowering shapes
//===----------------------------------------------------------------------===//

TEST(AsyncLowerTest, AwaitBecomesSuspendResumeJoin) {
  core::AsyncLowerStats S;
  std::unique_ptr<core::Program> P = lower("async function f(p) {\n"
                             "  var x = await p;\n"
                             "  return x;\n"
                             "}\n",
                             &S);
  ASSERT_NE(P, nullptr);
  std::string D = core::dump(*P);
  // Two suspend reads (settled value + one-level flattening), one resume,
  // one alias join back into the awaited expression's target.
  EXPECT_EQ(countMarker(D, "suspend"), 2u) << D;
  EXPECT_EQ(countMarker(D, "resume"), 1u) << D;
  EXPECT_EQ(countMarker(D, "join"), 1u) << D;
  EXPECT_NE(D.find("%promise"), std::string::npos) << D;
  EXPECT_EQ(S.AwaitsLowered, 1u);
}

TEST(AsyncLowerTest, ThenRegistersReactionAndChainsPromise) {
  core::AsyncLowerStats S;
  std::unique_ptr<core::Program> P = lower("var q = p.then(function (v) { return v; });\n",
                             &S);
  ASSERT_NE(P, nullptr);
  std::string D = core::dump(*P);
  EXPECT_GE(countMarker(D, "reaction"), 1u) << D;
  EXPECT_GE(countMarker(D, "promise"), 1u) << D;
  EXPECT_GE(countMarker(D, "suspend"), 2u) << D;
  EXPECT_GE(countMarker(D, "resume"), 1u) << D;
  EXPECT_EQ(S.ReactionsLinked, 1u);
  EXPECT_EQ(S.CallbacksUnresolved, 0u);
}

TEST(AsyncLowerTest, NewPromiseSynthesizesResolvers) {
  core::AsyncLowerStats S;
  std::unique_ptr<core::Program> P = lower(
      "var p = new Promise(function (res, rej) { res('v'); });\n", &S);
  ASSERT_NE(P, nullptr);
  std::string D = core::dump(*P);
  // Two synthesized settle functions (resolve + reject) and the executor
  // invocation that receives them.
  EXPECT_EQ(countMarker(D, "resolver"), 2u) << D;
  EXPECT_GE(countMarker(D, "reaction"), 1u) << D;
  EXPECT_GE(countMarker(D, "promise"), 1u) << D;
  EXPECT_EQ(S.ReactionsLinked, 1u);
}

TEST(AsyncLowerTest, PromiseResolveSettlesFreshPromise) {
  core::AsyncLowerStats S;
  std::unique_ptr<core::Program> P = lower("var p = Promise.resolve(x);\n", &S);
  ASSERT_NE(P, nullptr);
  std::string D = core::dump(*P);
  EXPECT_GE(countMarker(D, "promise"), 1u) << D;
  EXPECT_NE(D.find("%promise"), std::string::npos) << D;
}

TEST(AsyncLowerTest, UnknownHandlerCountsAsUnresolved) {
  // `h` is a parameter, not a statically known function value: the handler
  // is left to the call graph's UnresolvedCallback soundness valve.
  core::AsyncLowerStats S;
  std::unique_ptr<core::Program> P = lower("function reg(p, h) { return p.then(h); }\n", &S);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(S.ReactionsLinked, 0u);
  EXPECT_EQ(S.CallbacksUnresolved, 1u);
}

TEST(AsyncLowerTest, PlainCodeIsUntouched) {
  core::AsyncLowerStats S;
  std::unique_ptr<core::Program> P = lower("function add(a, b) { return a + b; }\n"
                             "module.exports = add;\n",
                             &S);
  ASSERT_NE(P, nullptr);
  std::string D = core::dump(*P);
  EXPECT_EQ(D.find("/* async:"), std::string::npos) << D;
  EXPECT_EQ(S.AwaitsLowered, 0u);
  EXPECT_EQ(S.ReactionsLinked, 0u);
  EXPECT_EQ(S.CallbacksUnresolved, 0u);
}

TEST(AsyncLowerTest, LoweringIsIdempotentOnItsOwnOutput) {
  // Re-running the pass must not re-expand the model statements it
  // emitted (they are skipped by role).
  core::AsyncLowerStats S1;
  std::unique_ptr<core::Program> P = lower("async function f(p) { return await p; }\n", &S1);
  ASSERT_NE(P, nullptr);
  std::string D1 = core::dump(*P);
  core::AsyncLowerStats S2 = core::lowerAsync(*P);
  EXPECT_EQ(S2.AwaitsLowered, 0u);
  EXPECT_EQ(core::dump(*P), D1);
}

//===----------------------------------------------------------------------===//
// Detection, plus the asserted miss without lowering
//===----------------------------------------------------------------------===//

// The promise-carried shapes: taint reaches the sink only through the
// `%promise` model property, so detection hinges on the lowering.
const workload::AsyncForm PromiseForms[] = {
    workload::AsyncForm::Await, workload::AsyncForm::ThenChain,
    workload::AsyncForm::PromiseExecutor};

// Both backends: the scanner's graph DB here, the native traversals on the
// same twins through BackendDifferentialTest (test_queries.cpp).
TEST(AsyncDetectionTest, PromiseFormsDetectedInBothBackends) {
  for (workload::AsyncForm F : PromiseForms) {
    workload::PackageGenerator Gen(7);
    workload::Package P = Gen.asyncVulnerable(F);
    ASSERT_EQ(P.Annotations.size(), 1u);
    EXPECT_TRUE(hasAnnotatedReport(scan(P.Files, /*AsyncLower=*/true), P))
        << workload::asyncFormName(F) << " undetected:\n"
        << P.Files[0].Contents;
  }
}

TEST(AsyncDetectionTest, PromiseFormsMissedWithoutLowering) {
  // The acceptance criterion's control run: with `--no-async-lower` the
  // same packages must be MISSED — proof the flow crosses the async
  // boundary rather than leaking through some other path.
  for (workload::AsyncForm F : PromiseForms) {
    workload::PackageGenerator Gen(7);
    workload::Package P = Gen.asyncVulnerable(F);
    EXPECT_FALSE(hasAnnotatedReport(scan(P.Files, /*AsyncLower=*/false), P))
        << workload::asyncFormName(F)
        << " unexpectedly detected without lowering";
  }
}

TEST(AsyncDetectionTest, ErrorFirstCallbackDetectedWithAndWithoutLowering) {
  // Error-first callbacks flow through the unknown-callee callback rule
  // that predates the lowering: the pass must not break that path.
  workload::PackageGenerator Gen(7);
  workload::Package P =
      Gen.asyncVulnerable(workload::AsyncForm::ErrorFirstCallback);
  for (bool Lower : {true, false})
    EXPECT_TRUE(hasAnnotatedReport(scan(P.Files, Lower), P))
        << "lower=" << Lower;
}

TEST(AsyncDetectionTest, BenignTwinsStayClean) {
  // The same async structure with constant settled values must produce no
  // reports — the lowering must not invent taint.
  const workload::AsyncForm AllForms[] = {
      workload::AsyncForm::Await, workload::AsyncForm::ThenChain,
      workload::AsyncForm::PromiseExecutor,
      workload::AsyncForm::ErrorFirstCallback};
  for (workload::AsyncForm F : AllForms) {
    workload::PackageGenerator Gen(11);
    workload::Package P = Gen.asyncBenign(F);
    for (bool Lower : {true, false}) {
      auto Reports = scan(P.Files, Lower);
      EXPECT_TRUE(Reports.empty())
          << workload::asyncFormName(F) << " lower=" << Lower << ": "
          << scanner::reportsToJSON(Reports);
    }
  }
}

//===----------------------------------------------------------------------===//
// Prune neutrality over the async corpus: the expected report sets were
// recorded with the retired scan-path pruning stage on (and matched the
// unpruned scans then); every class now runs on every package.
//===----------------------------------------------------------------------===//

TEST(AsyncPruneTest, PruningIsDetectionNeutralOnAsyncCorpus) {
  const workload::AsyncForm AllForms[] = {
      workload::AsyncForm::Await, workload::AsyncForm::ThenChain,
      workload::AsyncForm::PromiseExecutor,
      workload::AsyncForm::ErrorFirstCallback};
  workload::PackageGenerator Gen(23);
  std::vector<workload::Package> Corpus;
  for (workload::AsyncForm F : AllForms) {
    Corpus.push_back(Gen.asyncVulnerable(F, /*FillerLoC=*/20));
    Corpus.push_back(Gen.asyncBenign(F, /*FillerLoC=*/20));
  }
  // "CWE@line:sink" per report, sorted; one entry per corpus package.
  const std::vector<std::set<std::string>> Want = {
      {"CWE-78@9:exec"}, {}, // await
      {"CWE-78@9:exec"}, {}, // .then chain
      {"CWE-78@9:exec"}, {}, // promise executor
      {"CWE-22@4:readFile", "CWE-78@5:exec"}, {}, // error-first callback
  };
  ASSERT_EQ(Corpus.size(), Want.size());
  for (size_t I = 0; I < Corpus.size(); ++I) {
    std::set<std::string> Got;
    for (const queries::VulnReport &R :
         scan(Corpus[I].Files, /*AsyncLower=*/true))
      Got.insert(std::string(queries::cweOf(R.Type)) + "@" +
                 std::to_string(R.SinkLoc.Line) + ":" + R.SinkName);
    EXPECT_EQ(Got, Want[I]) << Corpus[I].Name;
  }
}

//===----------------------------------------------------------------------===//
// The async lint pass
//===----------------------------------------------------------------------===//

size_t countCheck(const lint::LintResult &R, const std::string &Check) {
  size_t N = 0;
  for (const lint::Finding &F : R.findings())
    if (F.Check == Check)
      ++N;
  return N;
}

lint::LintResult runAsyncPass(const core::Program &P) {
  lint::PassManager PM;
  PM.addPass(lint::createAsyncPass());
  lint::LintContext Ctx;
  Ctx.Program = &P;
  return PM.run(Ctx);
}

TEST(AsyncLintTest, LoweredOutputPassesClean) {
  const workload::AsyncForm AllForms[] = {
      workload::AsyncForm::Await, workload::AsyncForm::ThenChain,
      workload::AsyncForm::PromiseExecutor};
  for (workload::AsyncForm F : AllForms) {
    workload::PackageGenerator Gen(3);
    workload::Package Pkg = Gen.asyncVulnerable(F);
    std::unique_ptr<core::Program> P = lower(Pkg.Files[0].Contents, nullptr);
    ASSERT_NE(P, nullptr);
    lint::LintResult R = runAsyncPass(*P);
    EXPECT_EQ(R.errorCount(), 0u) << workload::asyncFormName(F);
  }
}

TEST(AsyncLintTest, OrphanSuspendIsAnError) {
  core::Program P;
  auto S = std::make_unique<core::Stmt>(core::StmtKind::StaticLookup);
  S->Index = 1;
  S->Target = "%a1";
  S->Obj = core::Operand::var("p");
  S->Prop = "%promise";
  S->Async = core::AsyncRole::AwaitSuspend;
  P.TopLevel.push_back(std::move(S));
  lint::LintResult R = runAsyncPass(P);
  EXPECT_EQ(countCheck(R, "async.orphan-suspend"), 1u);
}

TEST(AsyncLintTest, OrphanResumeIsAnError) {
  core::Program P;
  auto S = std::make_unique<core::Stmt>(core::StmtKind::BinOp);
  S->Index = 1;
  S->Target = "%a3";
  S->LHS = core::Operand::var("%a1");
  S->RHS = core::Operand::var("%a2");
  S->Op = "await";
  S->Async = core::AsyncRole::AwaitResume;
  P.TopLevel.push_back(std::move(S));
  lint::LintResult R = runAsyncPass(P);
  EXPECT_EQ(countCheck(R, "async.orphan-resume"), 1u);
}

TEST(AsyncLintTest, OrphanPromiseIsAnError) {
  core::Program P;
  auto S = std::make_unique<core::Stmt>(core::StmtKind::NewObject);
  S->Index = 1;
  S->Target = "%p1";
  S->Async = core::AsyncRole::PromiseAlloc;
  P.TopLevel.push_back(std::move(S));
  lint::LintResult R = runAsyncPass(P);
  EXPECT_EQ(countCheck(R, "async.orphan-promise"), 1u);
}

//===----------------------------------------------------------------------===//
// Structured parse-error locations
//===----------------------------------------------------------------------===//

TEST(ScanErrorLocTest, ParseErrorCarriesLineAndColumn) {
  scanner::Scanner S{scanner::ScanOptions{}};
  scanner::ScanResult R =
      S.scanSource("var ok = 1;\nvar bad = ;\n");
  ASSERT_FALSE(R.Errors.empty());
  const scanner::ScanError &E = R.Errors[0];
  EXPECT_EQ(E.Phase, scanner::ScanPhase::Parse);
  EXPECT_TRUE(E.Loc.isValid());
  EXPECT_EQ(E.Loc.Line, 2u);
  // The rendered form carries the position for journals/CLI output.
  EXPECT_NE(E.str().find("2:"), std::string::npos) << E.str();
}

TEST(ScanErrorLocTest, ParseErrorPrintsItsPositionOnce) {
  scanner::Scanner S{scanner::ScanOptions{}};
  scanner::ScanResult R = S.scanPackage({{"broken.js", "function (( {\n"}});
  ASSERT_FALSE(R.Errors.empty());
  const scanner::ScanError &E = R.Errors[0];
  ASSERT_EQ(E.Kind, scanner::ScanErrorKind::ParseError);
  ASSERT_TRUE(E.Loc.isValid());
  std::string Str = E.str(), Pos = E.Loc.str();
  size_t First = Str.find(Pos);
  ASSERT_NE(First, std::string::npos) << Str;
  EXPECT_EQ(Str.find(Pos, First + 1), std::string::npos) << Str;
  // The detail keeps the diagnostic's severity and message.
  EXPECT_EQ(E.Detail.rfind("error: ", 0), 0u) << E.Detail;
  EXPECT_EQ(E.Detail.find(Pos), std::string::npos) << E.Detail;
}

//===----------------------------------------------------------------------===//
// Workload generator sanity
//===----------------------------------------------------------------------===//

TEST(AsyncWorkloadTest, AllFormsParseAndAnnotateTheSink) {
  const workload::AsyncForm AllForms[] = {
      workload::AsyncForm::Await, workload::AsyncForm::ThenChain,
      workload::AsyncForm::PromiseExecutor,
      workload::AsyncForm::ErrorFirstCallback};
  workload::PackageGenerator Gen(5);
  for (workload::AsyncForm F : AllForms) {
    for (workload::Package P :
         {Gen.asyncVulnerable(F, 10), Gen.asyncBenign(F, 10)}) {
      for (const scanner::SourceFile &File : P.Files) {
        DiagnosticEngine Diags;
        auto Prog = core::normalizeJS(File.Contents, Diags);
        EXPECT_FALSE(Diags.hasErrors())
            << P.Name << ":\n" << File.Contents << Diags.str();
        EXPECT_NE(Prog, nullptr);
      }
    }
    workload::Package V = Gen.asyncVulnerable(F);
    ASSERT_EQ(V.Annotations.size(), 1u) << workload::asyncFormName(F);
    // The annotated line must contain the sink call.
    std::istringstream IS(V.Files[0].Contents);
    std::string Line;
    uint32_t N = 0;
    bool Found = false;
    while (std::getline(IS, Line)) {
      ++N;
      if (N == V.Annotations[0].SinkLine) {
        EXPECT_NE(Line.find("exec"), std::string::npos) << Line;
        Found = true;
      }
    }
    EXPECT_TRUE(Found) << workload::asyncFormName(F);
  }
}

} // namespace
