# Rejected command lines (registered with ctest, label "smoke").
#
# An out-of-range --chip or --rows, an undeclared flag (including one a
# harness does not implement, like fig10's --metrics-out or fig05's
# --csv), a value flag with no value and a value of the wrong kind must
# each end the program with exit code 2 and a one-line message naming the
# flag, not an uncaught exception (exit 134), a silently ignored flag, or
# a failure deep inside the sweep. The hbmrd_shell verbs read numbers as
# every harness does (decimal integers), so a hex --seed is a value of
# the wrong kind.
#
# Usage: cmake -DFIG04=<binary> -DFIG05=<binary> -DFIG07=<binary>
#              -DFIG10=<binary> -DFIG14=<binary> -DSHELL=<binary>
#              -DWORK_DIR=<dir> -P check.cmake
cmake_minimum_required(VERSION 3.19)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs `binary` with ARGN and fails unless it exits 2 and its stderr is
# the one line `expected`.
function(expect_rejected expected binary)
  execute_process(COMMAND "${binary}" ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET
                  ERROR_VARIABLE err
                  INPUT_FILE /dev/null
                  TIMEOUT 60)
  get_filename_component(name "${binary}" NAME)
  list(JOIN ARGN " " args)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
            "${name} ${args} exited with ${rc}, expected 2:\n${err}")
  endif()
  if(NOT err STREQUAL "${expected}\n")
    message(FATAL_ERROR
            "${name} ${args} stderr is not the one line '${expected}':\n${err}")
  endif()
endfunction()

expect_rejected("error: --chip 9 is out of range (expects 0..5)"
                "${FIG04}" --trust-map --chip 9)
expect_rejected("error: --rows 0 is out of range (expects >= 1)"
                "${FIG04}" --trust-map --rows 0)
expect_rejected("error: unknown flag --bogus-flag"
                "${FIG04}" --bogus-flag 3)
expect_rejected("error: --rows needs a value" "${FIG04}" --rows --full)
expect_rejected("error: --jobs expects an integer, got 'abc'"
                "${FIG07}" --trust-map --jobs abc)
set(metrics "${WORK_DIR}/fig10_metrics.json")
expect_rejected("error: unknown flag --metrics-out"
                "${FIG10}" --trust-map --metrics-out "${metrics}")
if(EXISTS "${metrics}")
  message(FATAL_ERROR "fig10 wrote ${metrics} although it rejected the flag")
endif()
expect_rejected("error: unknown flag --csv"
                "${FIG05}" --trust-map --csv "${WORK_DIR}")
# Indexes are exported by `hbmrd_shell export --from-campaign`; a harness
# refuses the old flag before it runs the campaign.
expect_rejected("error: unknown flag --export-index"
                "${FIG14}" --trust-map --export-index "${WORK_DIR}/x.idx")
expect_rejected("error: unknown flag --bogus" "${SHELL}" --bogus)
expect_rejected("error: --seed expects an integer, got '0x10'"
                "${SHELL}" export --index "${WORK_DIR}/x.hbmidx" --measure
                --rows 0..1 --seed 0x10)
