# Sweep determinism gate: runs one s4dsim seed sweep with --jobs=1 and with
# --jobs=4 and fails unless the two stdouts are byte-identical.
#
#   cmake -DS4DSIM=<s4dsim> -DCONFIG=<config.ini> -DSEEDS=<n> \
#         -P check_sweep_jobs.cmake
foreach(jobs 1 4)
  execute_process(
    COMMAND "${S4DSIM}" --sweep-seeds=${SEEDS} --jobs=${jobs} "${CONFIG}"
    OUTPUT_VARIABLE out_${jobs}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "s4dsim --jobs=${jobs} exited with ${rc}")
  endif()
endforeach()
if(NOT out_1 STREQUAL out_4)
  message(FATAL_ERROR "sweep stdout differs between --jobs=1 and --jobs=4:\n"
                      "--- jobs=1\n${out_1}\n--- jobs=4\n${out_4}")
endif()
message(STATUS "${SEEDS}-seed sweep identical at --jobs=1 and --jobs=4")
