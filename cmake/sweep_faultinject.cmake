# Graceful-degradation proof for the resilient sweep path.
#
# Invoked by the faultinject_sweep ctest entry (see tools/CMakeLists.txt):
#   cmake -DTOOL=<sweep_faultinject exe> -DCHECKER=<metrics_check exe>
#         -DWORKDIR=<scratch dir> -P cmake/sweep_faultinject.cmake
#
# Scenario: a real mini-sweep with one stuck job (killed by its
# deadline), one permanently-failing job, and one flaky job that
# succeeds on retry, run in collect-all mode:
#   - the process must exit 0 (the sweep survives its failures);
#   - the sweep report must validate and list exactly the stuck and
#     throwing jobs (the flaky one recovered);
#   - the surviving cells must be unperturbed: two faulted runs print
#     identical results;
#   - in propagate mode the same faults must fail the process.

set(budget --insts 8000 --warmup 1000)
set(faults --stuck 1 --throw 1 --flaky 1 --flaky-failures 2
    --retries 3 --deadline-ms 200 --jobs 4)

file(MAKE_DIRECTORY ${WORKDIR})

# 1. Collect-all sweep with injected faults completes successfully.
execute_process(
    COMMAND ${TOOL} ${budget} ${faults} --report ${WORKDIR}/report.json
    RESULT_VARIABLE rc OUTPUT_VARIABLE out1 ERROR_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "collect-all sweep failed (exit ${rc})")
endif()

# 2. The report validates; the deadline-killed and throwing jobs are
#    on record, and the recovered flaky job is not.
execute_process(
    COMMAND ${CHECKER} --in ${WORKDIR}/report.json --kind sweep-report
            --require inject/stuck0,inject/throw0
    RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "sweep report failed validation (exit ${rc})")
endif()
file(READ ${WORKDIR}/report.json report)
if(report MATCHES "inject/flaky0")
    message(FATAL_ERROR
            "flaky job appears in the report despite recovering")
endif()

# 3. Deterministic degradation: a second faulted run prints the same
#    results and the same failure record.
execute_process(
    COMMAND ${TOOL} ${budget} ${faults}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out2 ERROR_QUIET)
if(NOT rc EQUAL 0 OR NOT out1 STREQUAL out2)
    message(FATAL_ERROR "faulted sweep output is not deterministic")
endif()

# 4. Propagate mode turns the same faults into a process failure.
execute_process(
    COMMAND ${TOOL} ${budget} --throw 1 --propagate
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
    message(FATAL_ERROR "propagate-mode sweep ignored its failure")
endif()
