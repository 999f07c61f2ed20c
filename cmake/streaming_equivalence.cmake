# End-to-end equivalence of the two trace pipelines: one bench binary
# runs materialised (--materialize) and streamed (--stream-chunk=N),
# and BOTH its stdout tables and its --metrics-out snapshot must be
# byte-identical between the modes — for a second, odd chunk size and
# a different --jobs value too, since chunk capacity and sweep
# parallelism are both required to be result-invariant.
#
# Invoked by the streaming_equivalence ctest entry (bench/CMakeLists.txt):
#   cmake -DBENCH=<bench exe> -DOUT=<output prefix>
#         -P cmake/streaming_equivalence.cmake

set(budget --warmup 2000 --insts 10000)

# Runs the bench capturing stdout (the printed tables) to ${tag}.txt
# and the metrics snapshot to ${tag}.json. Stderr (wall-clock batch
# reports) is deliberately not captured — it is not deterministic.
function(run_mode tag)
    execute_process(COMMAND ${BENCH} ${budget} ${ARGN}
                    --metrics-out ${OUT}.${tag}.json
                    OUTPUT_FILE ${OUT}.${tag}.txt
                    ERROR_QUIET RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "bench failed (exit ${rc}): ${BENCH} ${ARGN}")
    endif()
endfunction()

function(expect_same a b)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                    ${OUT}.${a} ${OUT}.${b} RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "${OUT}.${a} and ${OUT}.${b} differ: the streamed and "
            "materialised pipelines diverged")
    endif()
endfunction()

run_mode(mat --jobs 2 --materialize)
# Streamed runs share one generation per (workload, seed, insts) group
# by default — these two legs exercise the fan-out path itself.
run_mode(stream --jobs 2 --stream-chunk=4096)
# An odd, tiny chunk size at a different --jobs: chunk-boundary and
# scheduling effects must not reach any output byte.
run_mode(stream_odd --jobs 1 --stream-chunk=777)
# Cells with a deadline and a retry budget ride their trace's shared
# generation too, each under its own deadline.
run_mode(stream_limits --jobs 2 --stream-chunk=4096 --deadline-ms 600000
         --retries 2)

expect_same(mat.txt stream.txt)
expect_same(mat.json stream.json)
expect_same(mat.txt stream_odd.txt)
expect_same(mat.json stream_odd.json)
expect_same(mat.txt stream_limits.txt)
expect_same(mat.json stream_limits.json)
