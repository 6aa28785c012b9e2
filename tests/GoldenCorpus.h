//===- tests/GoldenCorpus.h - Inputs of the golden identity tests -*- C++ -*-==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fixed input corpus shared by the golden identity tests
/// (MDGGoldenTest in test_builder.cpp, QueryGoldenTest in
/// test_queries.cpp): control-flow snippets, every examples/js file, a
/// fixed-seed Table 3 mix, DepTreeGenerator trees and the async twins,
/// each built into an MDG by the scanner's own front half.
///
/// Include from exactly one translation unit per test binary; the including
/// target must define GJS_EXAMPLES_JS_DIR.
///
//===----------------------------------------------------------------------===//

#ifndef GJS_TESTS_GOLDENCORPUS_H
#define GJS_TESTS_GOLDENCORPUS_H

#include "analysis/MDGBuilder.h"
#include "analysis/PackageGraph.h"
#include "scanner/Scanner.h"
#include "workload/Datasets.h"
#include "workload/DepTrees.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace gjs {
namespace golden {

inline uint64_t fnv1a(const std::string &S,
                      uint64_t H = 1469598103934665603ULL) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ULL;
  }
  return H;
}

/// One golden input: a package's files, plus the link request when it is
/// a dependency tree (PkgOf non-empty).
struct Input {
  std::string Name;
  std::vector<scanner::SourceFile> Files;
  std::vector<std::string> PkgOf;
  std::vector<bool> IsMain;
  std::set<std::string> Missing;
};

/// Builds the MDG of \p In with the scanner's front half
/// (scanner::runFrontHalf): per-module prefixes and statement-index ranges,
/// async lowering, and a linked build for multi-file packages and
/// dependency trees. Returns false (after reporting a test failure) when
/// no module parsed.
inline bool build(const Input &In, analysis::BuildResult &Out) {
  scanner::PackageLinkSpec Link{In.PkgOf, In.IsMain, In.Missing};
  scanner::PackageBuild Pkg;
  scanner::runFrontHalf(In.Files, scanner::ScanOptions(), Pkg,
                        /*WithBuild=*/true,
                        In.PkgOf.empty() ? nullptr : &Link);
  if (!Pkg.Built) {
    ADD_FAILURE() << In.Name << ": no module parsed";
    return false;
  }
  Out = std::move(Pkg.Build);
  return true;
}

inline Input fromTree(std::string Name, const workload::DepTree &T) {
  analysis::PackageGraph::FlatPlan Plan = T.Graph.flatten();
  Input In;
  In.Name = std::move(Name);
  for (const analysis::PackageGraph::FlatModule &M : Plan.Modules) {
    In.Files.push_back({M.Path, *M.Contents});
    In.PkgOf.push_back(M.Pkg);
    In.IsMain.push_back(M.IsMain);
  }
  In.Missing = Plan.MissingDeps;
  return In;
}

/// Store control-flow shapes: bindings written in one branch only,
/// loops and version rewrites inside branches, recursion.
inline const char *const ControlFlowSnippets[] = {
    "function f(a, b) {\n"
    "  var x = a;\n"
    "  if (b) { var t = 1; } else { x = b; }\n"
    "  exec(x, t);\n"
    "}\n"
    "module.exports = f;\n",

    "function f(a, b) {\n"
    "  var x = a;\n"
    "  if (b) { x = b; }\n"
    "  sink(x);\n"
    "}\n"
    "module.exports = f;\n",

    "function f(o, k, v, n) {\n"
    "  var cur = o;\n"
    "  if (n) {\n"
    "    while (n) { cur = cur[k]; cur[k] = v; }\n"
    "  } else {\n"
    "    for (var i = 0; i < n; i++) { cur.p = cur[k]; cur = cur.p; }\n"
    "  }\n"
    "  sink(cur.x);\n"
    "}\n"
    "module.exports = f;\n",

    "function g(a, b, c) {\n"
    "  var o = {};\n"
    "  var p = o;\n"
    "  while (c) {\n"
    "    if (a) { o.x = a; } else { p.y = b; }\n"
    "    p = o.x;\n"
    "  }\n"
    "  eval(p);\n"
    "}\n"
    "module.exports = g;\n",

    "function merge(t, s, k) {\n"
    "  if (s[k]) { merge(t[k], s[k], k); } else { t[k] = s[k]; }\n"
    "  return t;\n"
    "}\n"
    "module.exports = merge;\n",

    "function h(a) {\n"
    "  if (a) { var q = a + 1; } else { var r = 2; }\n"
    "  sink(q, r);\n"
    "}\n"
    "module.exports = h;\n",
};

/// Every golden input, in a fixed order.
inline std::vector<Input> corpus() {
  std::vector<Input> Out;
  auto Add = [&](std::string Name, std::vector<scanner::SourceFile> Files) {
    Input In;
    In.Name = std::move(Name);
    In.Files = std::move(Files);
    Out.push_back(std::move(In));
  };
  for (size_t I = 0; I < std::size(ControlFlowSnippets); ++I)
    Add("snippet/" + std::to_string(I), {{"index.js", ControlFlowSnippets[I]}});

  std::vector<std::filesystem::path> Examples;
  for (const auto &E : std::filesystem::directory_iterator(GJS_EXAMPLES_JS_DIR))
    if (E.path().extension() == ".js")
      Examples.push_back(E.path());
  std::sort(Examples.begin(), Examples.end());
  for (const std::filesystem::path &P : Examples) {
    std::ifstream In(P);
    std::stringstream SS;
    SS << In.rdbuf();
    Add("examples/" + P.filename().string(),
        {{P.filename().string(), SS.str()}});
  }

  std::vector<workload::Package> Mix =
      workload::makeDataset(20261017, {4, 6, 4, 6});
  for (size_t I = 0; I < Mix.size(); ++I)
    Add("table3/" + std::to_string(I) + "/" + Mix[I].Name, Mix[I].Files);

  workload::DepTreeGenerator TG(12);
  using queries::VulnType;
  const VulnType Types[] = {VulnType::CommandInjection, VulnType::CodeInjection,
                            VulnType::PathTraversal,
                            VulnType::PrototypePollution};
  for (VulnType T : Types) {
    std::string N = std::to_string(static_cast<int>(T));
    for (unsigned Depth = 1; Depth <= 3; ++Depth)
      Out.push_back(fromTree("deptree/chain/" + N + "/" + std::to_string(Depth),
                             TG.chain(T, Depth, true)));
    Out.push_back(fromTree("deptree/benign/" + N, TG.chain(T, 2, false)));
    Out.push_back(fromTree("deptree/cyclic/" + N, TG.cyclic(T, true)));
    Out.push_back(fromTree("deptree/missing/" + N, TG.missingDep(T)));
    Out.push_back(fromTree("deptree/broken/" + N, TG.brokenDep(T)));
  }

  workload::PackageGenerator AG(12);
  const workload::AsyncForm Forms[] = {
      workload::AsyncForm::Await, workload::AsyncForm::ThenChain,
      workload::AsyncForm::PromiseExecutor,
      workload::AsyncForm::ErrorFirstCallback};
  for (workload::AsyncForm F : Forms) {
    std::string N = workload::asyncFormName(F);
    Add("async/vulnerable/" + N, AG.asyncVulnerable(F).Files);
    Add("async/benign/" + N, AG.asyncBenign(F).Files);
  }
  return Out;
}

} // namespace golden
} // namespace gjs

#endif // GJS_TESTS_GOLDENCORPUS_H
