# Benchmark binaries — one per paper table/figure, plus microbenchmarks
# and ablations. All binaries land in ${CMAKE_BINARY_DIR}/bench so that
#   for b in build/bench/*; do $b; done
# runs the whole harness.

# Build provenance stamped into bench output (bench::addProvenance): the
# source revision at configure time, the build type and the compiler.
execute_process(
  COMMAND git describe --always --dirty --abbrev=12
  WORKING_DIRECTORY ${CMAKE_SOURCE_DIR}
  OUTPUT_VARIABLE GJS_GIT_REVISION
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(NOT GJS_GIT_REVISION)
  set(GJS_GIT_REVISION "unknown")
endif()

function(gjs_add_bench NAME)
  add_executable(${NAME} ${CMAKE_SOURCE_DIR}/bench/${NAME}.cpp)
  target_compile_definitions(${NAME} PRIVATE
    GJS_GIT_REVISION="${GJS_GIT_REVISION}"
    GJS_BUILD_TYPE="${CMAKE_BUILD_TYPE}"
    GJS_COMPILER="${CMAKE_CXX_COMPILER_ID} ${CMAKE_CXX_COMPILER_VERSION}")
  target_link_libraries(${NAME} PRIVATE
    gjs_eval gjs_workload gjs_odgen gjs_scanner gjs_queries gjs_graphdb
    gjs_analysis gjs_mdg gjs_coreir gjs_cfg gjs_frontend gjs_support)
  set_target_properties(${NAME} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

gjs_add_bench(bench_table3_datasets)
gjs_add_bench(bench_table4_effectiveness)
gjs_add_bench(bench_table5_collected)
gjs_add_bench(bench_table6_phases)
gjs_add_bench(bench_table7_graphsize)
gjs_add_bench(bench_fig6_venn)
gjs_add_bench(bench_fig7_cdf)
gjs_add_bench(bench_fig9_casestudy)
gjs_add_bench(bench_ablation_fixpoint)

# Cross-package linking and async lowering detection deltas
# (BENCH_pruning.json).
gjs_add_bench(bench_pruning)

# jobs=1 in-process vs jobs=N worker-pool throughput (BENCH_batch.json).
gjs_add_bench(bench_batch)

function(gjs_add_gbench NAME)
  gjs_add_bench(${NAME})
  target_link_libraries(${NAME} PRIVATE benchmark::benchmark)
endfunction()

gjs_add_gbench(bench_micro_construction)
gjs_add_gbench(bench_micro_querylatency)
