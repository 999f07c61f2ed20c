# Smoke-runs the perf_microbench suite in its tiny configuration (one
# short repetition of the engine-replay benchmarks, then one of the
# cycle-accurate pipeline benchmarks) and validates each emitted perf
# summary with tools/metrics_check: strict parse, the
# mlpsim-bench-perf-v1 schema assertion, the per-result keys —
# instr_per_s in particular, so throughput reporting can't silently
# rot out of BENCH_perf.json — and, for the cyclesim pass, the
# presence of the CycleSim rows themselves (bench:CycleSim).
#
# Invoked by the bench_perf_smoke ctest entry (see bench/CMakeLists.txt):
#   cmake -DBENCH=<perf_microbench exe> -DCHECKER=<metrics_check exe>
#         -DOUT=<summary destination> -P cmake/bench_perf_smoke.cmake

# Every command runs in a fresh, empty directory, and a
# perf_microbench run that leaves a BENCH_perf.json there fails: the
# summary goes only where --metrics-out says, so a run from the repo
# root can never overwrite the committed reference.
set(WORKDIR ${OUT}.cwd)
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})

function(run_or_die)
    execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_QUIET
                    WORKING_DIRECTORY ${WORKDIR})
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "command failed (exit ${rc}): ${ARGN}")
    endif()
    if(EXISTS ${WORKDIR}/BENCH_perf.json)
        message(FATAL_ERROR
            "command left a BENCH_perf.json in its working directory: ${ARGN}")
    endif()
endfunction()

# The --engine-only filter (^BM_EpochEngine) covers the materialised
# replay rows AND the shared fan-out streaming rows, so one summary
# carries both sides of the throughput-ratio gate: the streamed
# fan-out's best instr_per_s must stay within 15% of materialised
# replay, or the shared-generation machinery has regressed. This pass
# runs longer than the others because the gate compares best-of-N
# across the two sides: at 0.01s the fan-out rows get a single
# iteration, so one scheduling hiccup lands entirely in the ratio
# (observed 0.83 on a loaded runner vs 0.99 when sampled properly).
run_or_die(${BENCH} --engine-only --benchmark_min_time=0.25
           --metrics-out ${OUT})
run_or_die(${CHECKER} --in ${OUT} --kind bench-perf
           --require instr_per_s,bench:EpochEngine,bench:EpochEngineStream,min-ratio:EpochEngineStream/EpochEngine:0.85)

run_or_die(${BENCH} --cyclesim-only --benchmark_min_time=0.01
           --metrics-out ${OUT}.cyclesim)
run_or_die(${CHECKER} --in ${OUT}.cyclesim --kind bench-perf
           --require instr_per_s,bench:CycleSim)

# Streaming pipeline pass: a fresh process that only runs the
# chunk-stream engine rows and so never materialises a trace. Its
# peak_rss_kb is the streaming pipeline's whole footprint (binary +
# annotation planes + a bounded chunk window); the ceiling fails the
# build if someone reintroduces a whole-trace allocation on this path.
run_or_die(${BENCH} --stream-only --benchmark_min_time=0.01
           --metrics-out ${OUT}.stream)
run_or_die(${CHECKER} --in ${OUT}.stream --kind bench-perf
           --require instr_per_s,bench:EpochEngineStream,max-rss-kb:EpochEngineStream:32768)

# The sweep service's load generator reports through the same schema:
# one bench:Service row with throughput, cache hit ratio and latency
# quantiles (memory-only daemon; the persistent-cache path is
# service_smoke's job).
run_or_die(${CLIENT} --spawn ${DAEMON} --requests 8
           --duplicate-ratio 0.5 --warmup 500 --insts 2000
           --bench-out ${OUT}.service)
run_or_die(${CHECKER} --in ${OUT}.service --kind bench-perf
           --require instr_per_s,bench:Service,requests_per_s,hit_ratio,p50_ms,p99_ms)
