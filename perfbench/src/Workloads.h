//===- perfbench/src/Workloads.h - Seeded benchmark inputs -------*- C++ -*-==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's generated inputs, one function per workload. Every input
/// is a pure function of the seed and the sizes; the program under test only
/// ever sees the generated packages.
///
//===----------------------------------------------------------------------===//

#ifndef GJS_PERFBENCH_WORKLOADS_H
#define GJS_PERFBENCH_WORKLOADS_H

#include "Bench.h"
#include "driver/BatchDriver.h"

namespace gjs {
namespace perfbench {

/// `corpus`: a stratified draw from the Table 3 ground-truth mix
/// (workload::makeDataset with the VulcaN + SecBench per-CWE counts) plus
/// the async vulnerable/benign twins.
std::vector<BenchPackage> makeCorpus(uint64_t Seed, const Sizes &S);

/// `small_batch`: small packages (about 40 LoC of filler), three in four
/// benign, the vulnerable quarter rotating over the four classes.
std::vector<BenchPackage> makeSmallBatch(uint64_t Seed, size_t N);

/// `serve_open`: the request pool, seven in eight small_batch-style
/// packages and one in eight 300-LoC loop packages, in a seeded order.
std::vector<BenchPackage> makeServePool(uint64_t Seed, size_t N);

/// One package of every vulnerable shape the corpus generator can draw
/// (class × complexity × variant), with seeded code and filler below
/// \p MaxLoC. Recording these makes the gate's per-shape expectations cover
/// any seed, including shapes too rare for the recorded seeds' corpora.
std::vector<BenchPackage> makeShapeSweep(uint64_t Seed, size_t MaxLoC);

/// Driver inputs named "<index>-<package name>" (unique journal keys).
std::vector<driver::BatchInput>
toInputs(const std::vector<BenchPackage> &Packages);

/// Sum of the packages' lines of code.
size_t totalLoC(const std::vector<BenchPackage> &Packages);

} // namespace perfbench
} // namespace gjs

#endif // GJS_PERFBENCH_WORKLOADS_H
