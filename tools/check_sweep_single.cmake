# Sweep-vs-single gate: runs one s4dsim config plainly and as a one-seed
# sweep, and fails unless the sweep row reports the single run's last pass:
# the same request count, and MB/s and mean latency equal within the pass
# line's printed precision (the pass line prints one decimal fewer than the
# sweep row, so the two may differ by half a unit of its last digit).
#
#   cmake -DS4DSIM=<s4dsim> -DCONFIG=<config.ini> -P check_sweep_single.cmake
execute_process(COMMAND "${S4DSIM}" "${CONFIG}"
                OUTPUT_VARIABLE single RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "s4dsim ${CONFIG} exited with ${rc}")
endif()
execute_process(COMMAND "${S4DSIM}" --sweep-seeds=1 "${CONFIG}"
                OUTPUT_VARIABLE sweep RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "s4dsim --sweep-seeds=1 ${CONFIG} exited with ${rc}")
endif()

set(pass_re
    "pass [0-9]+: ([0-9]+\\.[0-9]) MB/s \\(([0-9]+) requests, [^,]+, mean latency ([0-9]+) us")
string(REGEX MATCHALL "${pass_re}" passes "${single}")
if(NOT passes)
  message(FATAL_ERROR "no pass line in the single run:\n${single}")
endif()
list(GET passes -1 last)
string(REGEX MATCH "${pass_re}" last "${last}")
set(pass_mbps "${CMAKE_MATCH_1}")
set(pass_requests "${CMAKE_MATCH_2}")
set(pass_latency "${CMAKE_MATCH_3}")

if(NOT sweep MATCHES
   "\n *[0-9]+ +([0-9]+\\.[0-9][0-9]) +([0-9]+) +([0-9]+\\.[0-9]) +[0-9.]+ +[0-9]+\n")
  message(FATAL_ERROR "no seed row in the sweep:\n${sweep}")
endif()
set(sweep_mbps "${CMAKE_MATCH_1}")
set(sweep_requests "${CMAKE_MATCH_2}")
set(sweep_latency "${CMAKE_MATCH_3}")

# Both values as integers in units of the sweep row's last digit.
function(check_close name pass sweep)
  string(REPLACE "." "" pass_units "${pass}")
  string(REPLACE "." "" sweep_units "${sweep}")
  math(EXPR diff "${pass_units}0 - ${sweep_units}")
  if(diff GREATER 5 OR diff LESS -5)
    message(FATAL_ERROR "${name}: single run ${pass}, one-seed sweep ${sweep}")
  endif()
endfunction()

if(NOT pass_requests EQUAL sweep_requests)
  message(FATAL_ERROR
          "requests: single run ${pass_requests}, one-seed sweep ${sweep_requests}")
endif()
check_close("MB/s" "${pass_mbps}" "${sweep_mbps}")
check_close("mean latency (us)" "${pass_latency}" "${sweep_latency}")
message(STATUS "sweep row matches the single run: ${sweep_mbps} MB/s, "
               "${sweep_requests} requests, ${sweep_latency} us")
