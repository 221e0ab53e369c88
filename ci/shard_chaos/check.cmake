# Shard chaos smoke test (registered with ctest, label "smoke").
#
# A supervised 4-shard fig07 sweep with an injected worker crash (in trial
# 2's commit window) and a wedged worker (before trial 7, reaped by the
# hang watchdog) must recover and merge to the serial run's CSV, journal
# and manifest, byte for byte. Every surviving shard store verifies clean
# offline, and re-running the merge (`campaign_fsck --merge-shards`, the
# killed-supervisor recovery path) is idempotent.
#
# Usage: cmake -DFIG07=<binary> -DFSCK=<binary> -DWORK_DIR=<dir>
#              -P check.cmake
cmake_minimum_required(VERSION 3.19)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(serial "${WORK_DIR}/chaos_serial")
set(sharded "${WORK_DIR}/chaos")

# Runs COMMAND ARGN and fails the test unless it exits 0.
function(run what)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${what} exited with ${rc}")
  endif()
endfunction()

# Fails the test unless the sharded artifacts equal the serial ones.
function(compare_with_serial when)
  foreach(ext csv jsonl csv.manifest)
    execute_process(
      COMMAND "${CMAKE_COMMAND}" -E compare_files
              "${serial}.${ext}" "${sharded}.${ext}"
      RESULT_VARIABLE differs)
    if(differs)
      message(FATAL_ERROR "${when}: chaos.${ext} differs from the serial run")
    endif()
  endforeach()
endfunction()

set(sweep --rows 2 --channels 1 --trust-map)
run("serial fig07" "${FIG07}" ${sweep} --jobs 1
    --results "${serial}.csv" --journal "${serial}.jsonl")
run("sharded fig07" "${FIG07}" ${sweep}
    --results "${sharded}.csv" --journal "${sharded}.jsonl"
    --shards 4 --hang-timeout 2
    --worker-crash-trial 2 --worker-hang-trial 7)
compare_with_serial("after the supervised run")

file(GLOB shard_stores "${sharded}.csv.shard*")
list(FILTER shard_stores EXCLUDE REGEX "\\.(manifest|log|quarantine|shards)$")
if(NOT shard_stores)
  message(FATAL_ERROR "the supervised run left no shard stores")
endif()
foreach(store ${shard_stores})
  string(REGEX MATCH "[0-9]+$" id "${store}")
  run("campaign_fsck of shard ${id}" "${FSCK}" --results "${store}"
      --journal "${sharded}.jsonl.shard${id}")
endforeach()

run("campaign_fsck --merge-shards" "${FSCK}" --merge-shards
    --results "${sharded}.csv" --journal "${sharded}.jsonl")
compare_with_serial("after re-running the merge")
message(STATUS "sharded chaos run matches the serial run")
