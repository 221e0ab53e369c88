# Out-of-range harness flags (registered with ctest, label "smoke").
#
# A bad --chip or --rows must end the harness with exit code 2 and a
# one-line message naming the flag, not an uncaught exception (exit 134)
# or a failure deep inside the sweep.
#
# Usage: cmake -DFIG04=<binary> -P check.cmake
cmake_minimum_required(VERSION 3.19)

# Runs fig04 with ARGN and fails unless it exits 2 and prints `expected`
# on stderr.
function(expect_rejected expected)
  execute_process(COMMAND "${FIG04}" --trust-map ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "fig04 ${ARGN} exited with ${rc}, expected 2:\n${err}")
  endif()
  string(FIND "${err}" "${expected}" at)
  if(at LESS 0)
    message(FATAL_ERROR
            "fig04 ${ARGN} stderr lacks '${expected}':\n${err}")
  endif()
endfunction()

expect_rejected("error: --chip 9 is out of range (expects 0..5)" --chip 9)
expect_rejected("error: --rows 0 is out of range (expects >= 1)" --rows 0)
