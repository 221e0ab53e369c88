# Arena smoke test (registered with ctest, label "smoke").
#
# A small fuzzer budget through the multi-tenant attack/defense arena at
# --jobs 1 and --jobs 4. The leaderboard CSV, the journal and the
# deterministic counters (arena.* among them) are byte-identical between
# the two runs, and the run plays 30 matches (6 patterns x 5 defenses).
#
# Usage: cmake -DARENA=<binary> -DWORK_DIR=<dir> -P check.cmake
cmake_minimum_required(VERSION 3.19)
include(${CMAKE_CURRENT_LIST_DIR}/../common.cmake)

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
compare("${j1}.chip2.csv" "${j4}.chip2.csv")
compare("${j1}.chip2.jsonl" "${j4}.chip2.jsonl")

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
message(STATUS "arena counters identical across --jobs")
