# Output gate: runs one s4dsim config and fails unless its stdout equals a
# recording byte for byte. The simulation is deterministic and its stdout
# carries no host time, so any difference is a change in simulated
# behaviour or in the report's format. A mismatch leaves the new output
# beside the test as <name>.actual for a diff against the recording.
#
# With EXPECTED_METRICS set, the config runs a second time with
# `--metrics-out` and `--sample-interval=10ms`, and the metrics dump (every
# counter, gauge and histogram, and the sampled time series) must equal
# that recording byte for byte too; a mismatch leaves
# <name>.metrics.actual.
#
#   cmake -DS4DSIM=<s4dsim> -DCONFIG=<config.ini> -DEXPECTED=<recording>
#         [-DEXPECTED_METRICS=<metrics recording>]
#         -P check_demo_output.cmake
execute_process(COMMAND "${S4DSIM}" "${CONFIG}"
                OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "s4dsim ${CONFIG} exited with ${rc}")
endif()
file(READ "${EXPECTED}" expected)
get_filename_component(name "${EXPECTED}" NAME_WE)
if(NOT actual STREQUAL expected)
  file(WRITE "${name}.actual" "${actual}")
  message(FATAL_ERROR
          "s4dsim ${CONFIG} stdout differs from ${EXPECTED}; the new "
          "output is in ${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
endif()
message(STATUS "stdout matches ${EXPECTED}")

if(DEFINED EXPECTED_METRICS)
  set(metrics_out "${CMAKE_CURRENT_BINARY_DIR}/${name}.metrics.actual")
  execute_process(COMMAND "${S4DSIM}" "${CONFIG}" "--metrics-out=${metrics_out}"
                          --sample-interval=10ms
                  OUTPUT_QUIET RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "s4dsim ${CONFIG} --metrics-out exited with ${rc}")
  endif()
  file(READ "${EXPECTED_METRICS}" expected)
  file(READ "${metrics_out}" actual)
  if(NOT actual STREQUAL expected)
    message(FATAL_ERROR
            "s4dsim ${CONFIG} metrics differ from ${EXPECTED_METRICS}; the "
            "new dump is in ${metrics_out}")
  endif()
  file(REMOVE "${metrics_out}")
  message(STATUS "metrics match ${EXPECTED_METRICS}")
endif()
