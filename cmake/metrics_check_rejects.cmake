# metrics_check on a sweep report whose "jobs" count is a fraction: a
# malformed count is a document error, reported through fatal() (exit
# 1, with a diagnostic), never an abort.
#
# Invoked by the metrics_check_rejects_fractional_count ctest entry
# (tools/CMakeLists.txt):
#   cmake -DCHECKER=<metrics_check exe> -DWORKDIR=<dir>
#         -P cmake/metrics_check_rejects.cmake

file(MAKE_DIRECTORY ${WORKDIR})
set(report ${WORKDIR}/fractional_sweep_report.json)
file(WRITE ${report} [=[
{
  "schema": "mlpsim-sweep-report-v1",
  "meta": {"source": "bench"},
  "jobs": 1.5,
  "succeeded": 1,
  "failed": 0,
  "retries": 0,
  "failures": []
}
]=])

execute_process(COMMAND ${CHECKER} --in ${report} --kind sweep-report
                RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR
        "metrics_check exited '${rc}' on a fractional count, not 1: ${err}")
endif()
if(NOT err MATCHES "\"jobs\" is not a non-negative integer")
    message(FATAL_ERROR "unexpected diagnostic: ${err}")
endif()
