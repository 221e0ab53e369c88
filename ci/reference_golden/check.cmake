# Reference-golden smoke test (registered with ctest, label "smoke").
#
# golden.csv and golden.jsonl were recorded from
#   fig07_hcfirst_across_channels --rows 2 --channels 1 --trust-map --jobs 1
# run on the per-cell reference sense and the from-scratch HC search, the
# two reference paths that now live only as test oracles. The production
# build must reproduce both files byte for byte at --jobs 1 and --jobs 4,
# with equal deterministic counters at both job counts, while the
# checkpointed HC search saves at least 4 of every 5 simulated hammers.
#
# Usage: cmake -DFIG07=<binary> -DGOLDEN_DIR=<dir> -DWORK_DIR=<dir>
#              -P check.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)
include(${CMAKE_CURRENT_LIST_DIR}/../common.cmake)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

foreach(jobs 1 4)
  set(out "${WORK_DIR}/j${jobs}")
  run("fig07 --jobs ${jobs}"
      "${FIG07}" --rows 2 --channels 1 --trust-map --jobs ${jobs}
      --results "${out}.csv" --journal "${out}.jsonl"
      --metrics-out "${out}.json")
  foreach(ext csv jsonl)
    compare("${GOLDEN_DIR}/golden.${ext}" "${out}.${ext}"
            "${out}.${ext} differs from golden.${ext}")
  endforeach()
  file(READ "${out}.json" metrics)
  string(JSON deterministic_${jobs} GET "${metrics}" deterministic)
endforeach()

if(NOT deterministic_1 STREQUAL deterministic_4)
  message(FATAL_ERROR "deterministic counters differ between --jobs 1 and 4")
endif()

string(JSON saved GET "${deterministic_1}" study.hammers_saved)
string(JSON replayed GET "${deterministic_1}" study.hammers_replayed)
if(NOT saved GREATER 0)
  message(FATAL_ERROR "study.hammers_saved is ${saved}: no checkpoint reuse")
endif()
math(EXPR represented "${replayed} + ${saved}")
math(EXPR floor "5 * ${replayed}")
if(represented LESS floor)
  message(FATAL_ERROR "replayed ${replayed} of ${represented} hammers; "
                      "expected at most one in five")
endif()
message(STATUS "reference golden reproduced at --jobs 1 and 4; "
               "replayed ${replayed} of ${represented} hammers")
