# Smoke-runs one bench binary with a tiny instruction budget and
# --metrics-out, then validates the emitted JSON with tools/metrics_check
# (strict parse, schema, required metric paths, dump/parse round trip).
#
# Invoked by the bench_smoke_* ctest entries (see bench/CMakeLists.txt):
#   cmake -DBENCH=<bench exe> -DCHECKER=<metrics_check exe>
#         -DOUT=<snapshot destination> [-DTRACE_OUT=<trace destination>]
#         [-DREQUIRE=<comma-separated metric paths>]
#         [-DEXTRA_REQUIRE=<more paths>] [-DDETERMINISM=1]
#         -P cmake/bench_smoke.cmake
#
# With DETERMINISM the bench runs again at --jobs 1 and --jobs 8 and the
# two snapshots must be byte-identical — the bit-identical-output
# guarantee --metrics-out advertises, checked end to end.

set(budget --warmup 2000 --insts 10000)

function(run_or_die)
    execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "command failed (exit ${rc}): ${ARGN}")
    endif()
endfunction()

set(trace_args)
if(TRACE_OUT)
    set(trace_args --trace-events ${TRACE_OUT})
endif()

run_or_die(${BENCH} ${budget} --jobs 2 --metrics-out ${OUT} ${trace_args})

if(EXTRA_REQUIRE)
    string(APPEND REQUIRE ",${EXTRA_REQUIRE}")
endif()
set(require_args)
if(REQUIRE)
    set(require_args --require ${REQUIRE})
endif()
run_or_die(${CHECKER} --in ${OUT} --kind snapshot ${require_args})
if(TRACE_OUT)
    run_or_die(${CHECKER} --in ${TRACE_OUT} --kind trace)
endif()

if(DETERMINISM)
    run_or_die(${BENCH} ${budget} --jobs 1 --metrics-out ${OUT}.jobs1)
    run_or_die(${BENCH} ${budget} --jobs 8 --metrics-out ${OUT}.jobs8)
    run_or_die(${CMAKE_COMMAND} -E compare_files
               ${OUT}.jobs1 ${OUT}.jobs8)
endif()
