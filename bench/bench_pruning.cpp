//===- bench/bench_pruning.cpp - Linking and lowering detection deltas ----==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
// Measures what two front-half analyses buy in detection, with timing:
//
//   - cross-package linking (docs/DEPENDENCIES.md): dependency trees with
//     the sink buried 1–4 levels below the scan root, scanned linked
//     (scanDependencyTree) vs isolated (root package only — what
//     per-package batch scanning sees). The linked scan must find every
//     buried sink, the isolated scan none of them;
//   - async lowering (docs/ASYNC.md): the promise-carried workload shapes
//     scanned with lowering on vs off. Every promise-carried sink must be
//     found only with lowering, and the benign twins stay clean.
//
// Both deltas are asserted: a miss fails the binary. The file keeps its
// historical name; the summary-based query pruning it once measured was
// retired from the scan path (docs/CALLGRAPH.md).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "scanner/Scanner.h"
#include "support/TablePrinter.h"
#include "support/Timer.h"
#include "workload/DepTrees.h"

using namespace gjs;
using namespace gjs::bench;

int main() {
  printHeader("Cross-package linking and async lowering: detection deltas",
              "docs/DEPENDENCIES.md, docs/ASYNC.md");
  Report Rep("pruning");

  // Cross-package: linked dependency-tree scans vs the isolated baseline.
  workload::DepTreeGenerator TreeGen(77);
  std::vector<workload::DepTree> Trees;
  for (unsigned Depth = 1; Depth <= 4; ++Depth) {
    Trees.push_back(TreeGen.chain(queries::VulnType::CommandInjection, Depth,
                                  /*Vulnerable=*/true));
    Trees.push_back(TreeGen.chain(queries::VulnType::CodeInjection, Depth,
                                  /*Vulnerable=*/false));
  }
  Trees.push_back(
      TreeGen.cyclic(queries::VulnType::CommandInjection, /*Vulnerable=*/true));

  TablePrinter XTable(
      {"tree", "depth", "linked", "isolated", "linked hits", "isolated hits"});
  std::vector<double> LinkedSecs, IsolatedSecs;
  size_t LinkedHits = 0, IsolatedHits = 0, Buried = 0, Missed = 0;
  bool DeltaOk = true;

  for (const workload::DepTree &T : Trees) {
    scanner::Scanner Linked{scanner::ScanOptions{}};
    Timer TL;
    scanner::ScanResult RL = Linked.scanDependencyTree(T.Graph);
    LinkedSecs.push_back(TL.elapsedSeconds());

    std::vector<scanner::SourceFile> RootFiles;
    for (const analysis::PackageFile &F :
         T.Graph.packages()[T.Graph.rootIndex()].Files)
      RootFiles.push_back({F.Path, F.Contents});
    scanner::Scanner Isolated{scanner::ScanOptions{}};
    Timer TI;
    scanner::ScanResult RI = Isolated.scanPackage(RootFiles);
    IsolatedSecs.push_back(TI.elapsedSeconds());

    LinkedHits += RL.Reports.size();
    IsolatedHits += RI.Reports.size();
    if (T.Vulnerable) {
      ++Buried;
      if (RL.Reports.empty()) {
        std::fprintf(stderr,
                     "FAIL: linked scan missed the depth-%u buried sink\n",
                     T.Depth);
        DeltaOk = false;
      }
      if (RI.Reports.empty())
        ++Missed;
      else {
        std::fprintf(stderr,
                     "FAIL: isolated root scan saw a sink %u levels deep\n",
                     T.Depth);
        DeltaOk = false;
      }
    }
    XTable.addRow({(T.Cyclic ? "cyclic" : T.Vulnerable ? "vuln" : "benign"),
                   std::to_string(T.Depth),
                   TablePrinter::fmt(LinkedSecs.back() * 1000.0, 2) + "ms",
                   TablePrinter::fmt(IsolatedSecs.back() * 1000.0, 2) + "ms",
                   std::to_string(RL.Reports.size()),
                   std::to_string(RI.Reports.size())});
  }
  std::printf("%s\n", XTable.str().c_str());
  std::printf("cross-package detection delta: %zu/%zu buried sinks found "
              "only by the linked scan\n\n",
              Missed, Buried);

  Rep.series("crosspkg.linked_seconds", LinkedSecs);
  Rep.series("crosspkg.isolated_seconds", IsolatedSecs);
  Rep.scalar("crosspkg.trees", double(Trees.size()));
  Rep.scalar("crosspkg.linked_reports", double(LinkedHits));
  Rep.scalar("crosspkg.isolated_reports", double(IsolatedHits));
  Rep.scalar("crosspkg.detection_delta", double(LinkedHits - IsolatedHits));
  Rep.scalar("crosspkg.delta_ok", DeltaOk ? 1 : 0);

  // Async: the promise-carried workload shapes (taint crossing an await,
  // a .then() chain, or a promise executor) scanned with the lowering on
  // vs off. The detection delta is the lowering's payoff.
  workload::PackageGenerator AsyncGen(4242);
  const workload::AsyncForm AsyncForms[] = {workload::AsyncForm::Await,
                                            workload::AsyncForm::ThenChain,
                                            workload::AsyncForm::PromiseExecutor};
  TablePrinter ATable({"form", "lowered", "no-lower", "lowered hits",
                       "no-lower hits"});
  std::vector<double> LoweredSecs, UnloweredSecs;
  size_t LoweredHits = 0, UnloweredHits = 0;
  bool AsyncOk = true;

  for (workload::AsyncForm F : AsyncForms) {
    workload::Package VP = AsyncGen.asyncVulnerable(F, 20);
    workload::Package BP = AsyncGen.asyncBenign(F, 20);

    scanner::Scanner Lowered{scanner::ScanOptions{}};
    Timer TA;
    scanner::ScanResult RV = Lowered.scanPackage(VP.Files);
    scanner::ScanResult RB = Lowered.scanPackage(BP.Files);
    LoweredSecs.push_back(TA.elapsedSeconds());

    scanner::ScanOptions NoLower;
    NoLower.AsyncLower = false;
    scanner::Scanner Unlowered(NoLower);
    Timer TU;
    scanner::ScanResult UV = Unlowered.scanPackage(VP.Files);
    scanner::ScanResult UB = Unlowered.scanPackage(BP.Files);
    UnloweredSecs.push_back(TU.elapsedSeconds());

    if (RV.Reports.empty()) {
      std::fprintf(stderr, "FAIL: lowered scan missed the %s flow\n",
                   workload::asyncFormName(F));
      AsyncOk = false;
    }
    if (!UV.Reports.empty()) {
      std::fprintf(stderr,
                   "FAIL: %s flow detected without lowering — the delta "
                   "is not the lowering's doing\n",
                   workload::asyncFormName(F));
      AsyncOk = false;
    }
    if (!RB.Reports.empty() || !UB.Reports.empty()) {
      std::fprintf(stderr, "FAIL: benign %s twin reported\n",
                   workload::asyncFormName(F));
      AsyncOk = false;
    }

    LoweredHits += RV.Reports.size();
    UnloweredHits += UV.Reports.size();
    ATable.addRow({workload::asyncFormName(F),
                   TablePrinter::fmt(LoweredSecs.back() * 1000.0, 2) + "ms",
                   TablePrinter::fmt(UnloweredSecs.back() * 1000.0, 2) + "ms",
                   std::to_string(RV.Reports.size()),
                   std::to_string(UV.Reports.size())});
  }
  std::printf("%s\n", ATable.str().c_str());
  std::printf("async detection delta: %zu/%zu promise-carried sinks found "
              "only with the lowering\n\n",
              LoweredHits - UnloweredHits, size_t(3));

  Rep.series("async.lowered_seconds", LoweredSecs);
  Rep.series("async.unlowered_seconds", UnloweredSecs);
  Rep.scalar("async.lowered_reports", double(LoweredHits));
  Rep.scalar("async.unlowered_reports", double(UnloweredHits));
  Rep.scalar("async.detection_delta", double(LoweredHits - UnloweredHits));
  Rep.scalar("async.delta_ok", AsyncOk ? 1 : 0);

  Rep.write();
  return DeltaOk && AsyncOk ? 0 : 1;
}
