# campaign_fsck smoke test (registered with ctest, label "smoke").
#
# A fig06 sweep leaves a checkpoint + journal pair that campaign_fsck
# verifies clean. One committed row is then bit-rotted: fsck must refuse
# the pair, --repair must move the damaged row into the .quarantine
# sidecar (exit 0 or 1), and the repaired pair must verify clean again.
#
# Usage: cmake -DFIG06=<binary> -DFSCK=<binary> -DWORK_DIR=<dir>
#              -P check.cmake
cmake_minimum_required(VERSION 3.19)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(csv "${WORK_DIR}/smoke.chip2.csv")
set(jsonl "${WORK_DIR}/smoke.chip2.jsonl")

# Runs campaign_fsck on the pair with extra ARGN flags; sets `rc`.
function(fsck)
  execute_process(
    COMMAND "${FSCK}" --results "${csv}" --journal "${jsonl}" ${ARGN}
    RESULT_VARIABLE code
    OUTPUT_QUIET ERROR_QUIET)
  set(rc "${code}" PARENT_SCOPE)
endfunction()

execute_process(
  COMMAND "${FIG06}" --rows 2 --channels 1 --chip 2 --trust-map
          --results "${WORK_DIR}/smoke.csv" --journal "${WORK_DIR}/smoke.jsonl"
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fig06 exited with ${rc}")
endif()

fsck()
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fsck of the fresh artifacts exited with ${rc}")
endif()

# Bit-rot one committed row: the first ',' of line 3 becomes ';'.
file(READ "${csv}" text)
string(FIND "${text}" "\n" first_newline)
math(EXPR after_first "${first_newline} + 1")
string(SUBSTRING "${text}" ${after_first} -1 rest)
string(FIND "${rest}" "\n" second_newline)
math(EXPR line3 "${after_first} + ${second_newline} + 1")
string(SUBSTRING "${text}" 0 ${line3} head)
string(SUBSTRING "${text}" ${line3} -1 tail)
string(FIND "${tail}" "," comma)
if(comma LESS 0)
  message(FATAL_ERROR "line 3 of ${csv} has no ',' to corrupt")
endif()
string(SUBSTRING "${tail}" 0 ${comma} before)
math(EXPR after_comma "${comma} + 1")
string(SUBSTRING "${tail}" ${after_comma} -1 after)
file(WRITE "${csv}" "${head}${before};${after}")

fsck()
if(rc EQUAL 0)
  message(FATAL_ERROR "fsck accepted a checkpoint with a bit-rotted row")
endif()

fsck(--repair)
if(NOT (rc EQUAL 0 OR rc EQUAL 1))
  message(FATAL_ERROR "fsck --repair exited with ${rc}")
endif()
file(SIZE "${csv}.quarantine" sidecar_bytes)
if(sidecar_bytes EQUAL 0)
  message(FATAL_ERROR "the repair left an empty quarantine sidecar")
endif()

fsck()
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fsck of the repaired artifacts exited with ${rc}")
endif()
message(STATUS "campaign_fsck verified, refused, repaired and re-verified")
