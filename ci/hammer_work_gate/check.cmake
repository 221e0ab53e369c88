# Hammer work gate (registered with ctest, label "smoke").
#
# golden.csv and golden.jsonl were recorded from
#   fig14_trr_bypass --rows 2 --channels 1 --trust-map --jobs 1
# before the hammer fast path planned each window once and folded its dose
# per (row, unit). The production build must reproduce both files byte for
# byte at --jobs 1 and --jobs 4, with equal deterministic counters at both
# job counts, and the hammer path's work counters must equal the values
# below exactly: they are pure functions of the campaign, so any change is
# a change in the work the fast path represents, not noise.
# device.victim_refreshes (the rows the undocumented TRR refreshed) was
# recorded before the TRR folded each applied window into one call: it
# names a fold that refreshes the wrong victims directly.
#
# Usage: cmake -DFIG14=<binary> -DGOLDEN_DIR=<dir> -DWORK_DIR=<dir>
#              -P check.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)
include(${CMAKE_CURRENT_LIST_DIR}/../common.cmake)

set(expected
    exec.hammer_windows 459480
    device.hammer_windows 459480
    device.dedup_hits 32623080
    device.acts 35840448
    exec.acts 35840448
    exec.refs 459480
    device.refs 14703360
    device.victim_refreshes 229516)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

foreach(jobs 1 4)
  set(out "${WORK_DIR}/j${jobs}")
  run("fig14 --jobs ${jobs}"
      "${FIG14}" --rows 2 --channels 1 --trust-map --jobs ${jobs}
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

list(LENGTH expected n)
math(EXPR last "${n} - 1")
foreach(i RANGE 0 ${last} 2)
  math(EXPR j "${i} + 1")
  list(GET expected ${i} name)
  list(GET expected ${j} want)
  string(JSON got GET "${deterministic_1}" ${name})
  if(NOT got STREQUAL want)
    message(FATAL_ERROR "${name} is ${got}, expected exactly ${want}")
  endif()
endforeach()
message(STATUS "fig14 golden reproduced at --jobs 1 and 4; "
               "hammer work counters exact")
