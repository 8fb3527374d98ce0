# Output gate: runs one s4dsim config and fails unless its stdout equals a
# recording byte for byte. The simulation is deterministic and its stdout
# carries no host time, so any difference is a change in simulated
# behaviour or in the report's format. A mismatch leaves the new output
# beside the test as <name>.actual for a diff against the recording.
#
#   cmake -DS4DSIM=<s4dsim> -DCONFIG=<config.ini> -DEXPECTED=<recording>
#         -P check_demo_output.cmake
execute_process(COMMAND "${S4DSIM}" "${CONFIG}"
                OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "s4dsim ${CONFIG} exited with ${rc}")
endif()
file(READ "${EXPECTED}" expected)
if(NOT actual STREQUAL expected)
  get_filename_component(name "${EXPECTED}" NAME_WE)
  file(WRITE "${name}.actual" "${actual}")
  message(FATAL_ERROR
          "s4dsim ${CONFIG} stdout differs from ${EXPECTED}; the new "
          "output is in ${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
endif()
message(STATUS "stdout matches ${EXPECTED}")
