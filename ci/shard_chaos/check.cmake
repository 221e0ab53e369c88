# Shard chaos smoke test (registered with ctest, label "smoke").
#
# A supervised 4-shard fig07 sweep with an injected worker crash (in trial
# 2's commit window) and a wedged worker (before trial 7, reaped by the
# hang watchdog) must recover and merge to the serial run's CSV, journal
# and manifest, byte for byte. Every surviving shard store verifies clean
# offline, and re-running the merge (`campaign_fsck --merge-shards`, the
# killed-supervisor recovery path) is idempotent.
#
# A supervised 2-shard fig06 run (four per-chip campaigns in one harness
# process) must match its serial run chip by chip. Every shard worker is
# a forked child that writes its output to its shard's .log: the log
# exists, and it never holds the harness banner (a worker runs its shard,
# not the harness).
#
# Usage: cmake -DFIG06=<binary> -DFIG07=<binary> -DFSCK=<binary>
#              -DWORK_DIR=<dir> -P check.cmake
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

set(serial "${WORK_DIR}/fig06_serial")
set(sharded "${WORK_DIR}/fig06")
set(sweep --rows 2 --trust-map)
run("serial fig06" "${FIG06}" ${sweep} --jobs 1
    --results "${serial}.csv" --journal "${serial}.jsonl")
run("sharded fig06" "${FIG06}" ${sweep} --shards 2
    --results "${sharded}.csv" --journal "${sharded}.jsonl")
foreach(chip 0 1 4 5)
  foreach(ext csv jsonl csv.manifest)
    execute_process(
      COMMAND "${CMAKE_COMMAND}" -E compare_files
              "${serial}.chip${chip}.${ext}" "${sharded}.chip${chip}.${ext}"
      RESULT_VARIABLE differs)
    if(differs)
      message(FATAL_ERROR
              "fig06.chip${chip}.${ext} differs from the serial run")
    endif()
  endforeach()
endforeach()

file(GLOB shard_stores "${sharded}.chip*.csv.shard*")
list(FILTER shard_stores EXCLUDE REGEX "\\.(manifest|log|quarantine|shards)$")
if(NOT shard_stores)
  message(FATAL_ERROR "the supervised fig06 run left no shard stores")
endif()
foreach(store ${shard_stores})
  if(NOT EXISTS "${store}.log")
    message(FATAL_ERROR "shard worker log ${store}.log is missing")
  endif()
  file(READ "${store}.log" log)
  string(FIND "${log}" "Fig. 6: BER across channels" banner)
  if(NOT banner EQUAL -1)
    message(FATAL_ERROR "${store}.log holds the harness banner")
  endif()
endforeach()
message(STATUS "sharded fig06 run matches the serial run chip by chip")
