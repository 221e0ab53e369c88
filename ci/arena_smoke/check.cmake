# Arena smoke test (registered with ctest, label "smoke").
#
# A small fuzzer budget through the multi-tenant attack/defense arena at
# --jobs 1 and --jobs 4. The leaderboard CSV and the journal reproduce
# golden.csv and golden.jsonl byte for byte at both job counts, the
# deterministic counters (arena.* among them) are identical between the
# two runs, the run plays 30 matches (6 patterns x 5 defenses), and the
# REF and ACT counters below are exact: they are pure functions of the
# run, so any change is a change in the commands the arena represents.
# So are the two threshold-cache counters: every sense that passes the
# early-outs makes one cache lookup, so they pin which senses the REF and
# ACT paths run (values recorded before the pointer-refresh rows went
# straight from the slot table to the sense).
#
# golden.csv and golden.jsonl were recorded from
#   arena_eval --chip 2 --windows 48 --benign-acts 2000 --fuzz 2
#              --threshold 2000 --trust-map --jobs 1
# before REF became a channel command (one REF clock per channel).
#
# Usage: cmake -DARENA=<binary> -DGOLDEN_DIR=<dir> -DWORK_DIR=<dir>
#              -P check.cmake
cmake_minimum_required(VERSION 3.19)
include(${CMAKE_CURRENT_LIST_DIR}/../common.cmake)

set(expected
    device.refs 4922528
    exec.refs 153829
    device.acts 698196
    arena.periodic_refs 149139
    cache.lookups 231
    cache.summary_misses 225)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(j1 "${WORK_DIR}/arena_j1")
set(j4 "${WORK_DIR}/arena_j4")

set(match --chip 2 --windows 48 --benign-acts 2000 --fuzz 2
    --threshold 2000 --trust-map)
foreach(jobs 1 4)
  run("arena_eval --jobs ${jobs}" "${ARENA}" ${match} --jobs ${jobs}
      --results "${WORK_DIR}/arena_j${jobs}.csv"
      --journal "${WORK_DIR}/arena_j${jobs}.jsonl"
      --metrics-out "${WORK_DIR}/arena_j${jobs}.json")
endforeach()
foreach(run j1 j4)
  foreach(ext csv jsonl)
    compare("${GOLDEN_DIR}/golden.${ext}" "${${run}}.chip2.${ext}"
            "${${run}}.chip2.${ext} differs from golden.${ext}")
  endforeach()
endforeach()

file(READ "${j1}.json" snapshot1)
file(READ "${j4}.json" snapshot4)
string(JSON det1 GET "${snapshot1}" deterministic)
string(JSON det4 GET "${snapshot4}" deterministic)
string(JSON same EQUAL "${det1}" "${det4}")
if(NOT same)
  message(FATAL_ERROR
          "arena counters differ between --jobs 1 and --jobs 4")
endif()
foreach(key arena.matches arena.flips_leaked arena.bypasses
            arena.preventive_refreshes arena.periodic_refs)
  string(JSON value ERROR_VARIABLE missing GET "${det1}" ${key})
  if(missing)
    message(FATAL_ERROR "deterministic counters lack ${key}")
  endif()
endforeach()
string(JSON matches GET "${det1}" arena.matches)
if(NOT matches EQUAL 30)
  message(FATAL_ERROR "arena.matches = ${matches}, expected 30")
endif()
list(LENGTH expected n)
math(EXPR last "${n} - 1")
foreach(i RANGE 0 ${last} 2)
  math(EXPR j "${i} + 1")
  list(GET expected ${i} name)
  list(GET expected ${j} want)
  string(JSON got GET "${det1}" ${name})
  if(NOT got STREQUAL want)
    message(FATAL_ERROR "${name} is ${got}, expected exactly ${want}")
  endif()
endforeach()
message(STATUS "arena golden reproduced at --jobs 1 and 4; "
               "counters identical across --jobs; REF/ACT/cache counters exact")
