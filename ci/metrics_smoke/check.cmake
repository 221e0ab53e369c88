# Metrics smoke test (registered with ctest, label "smoke").
#
# A fig07 sweep at --jobs 1 (with --progress) and at --jobs 4 writes a
# --metrics-out snapshot. The two runs' CSV and journal are byte-identical,
# the snapshot carries its three sections and the listed deterministic
# counters, and the deterministic section is equal across --jobs. The
# campaign_fsck snapshot of the --jobs 1 pair reports no issue and at
# least one trusted row.
#
# Usage: cmake -DFIG07=<binary> -DFSCK=<binary> -DWORK_DIR=<dir>
#              -P check.cmake
cmake_minimum_required(VERSION 3.19)
include(${CMAKE_CURRENT_LIST_DIR}/../common.cmake)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(j1 "${WORK_DIR}/obs_j1")
set(j4 "${WORK_DIR}/obs_j4")

set(sweep --rows 2 --channels 1 --trust-map)
run("fig07 --jobs 1" "${FIG07}" ${sweep} --results "${j1}.csv"
    --journal "${j1}.jsonl" --jobs 1 --metrics-out "${j1}.json" --progress)
run("fig07 --jobs 4" "${FIG07}" ${sweep} --results "${j4}.csv"
    --journal "${j4}.jsonl" --jobs 4 --metrics-out "${j4}.json")
compare("${j1}.csv" "${j4}.csv")
compare("${j1}.jsonl" "${j4}.jsonl")

file(READ "${j1}.json" snapshot1)
file(READ "${j4}.json" snapshot4)
foreach(section deterministic telemetry spans)
  string(JSON value ERROR_VARIABLE missing GET "${snapshot1}" ${section})
  if(missing)
    message(FATAL_ERROR "metrics snapshot lacks section ${section}")
  endif()
endforeach()
string(JSON det1 GET "${snapshot1}" deterministic)
string(JSON det4 GET "${snapshot4}" deterministic)
foreach(key campaign.trials campaign.completed exec.acts device.acts
            cache.lookups store.appends)
  string(JSON value ERROR_VARIABLE missing GET "${det1}" ${key})
  if(missing)
    message(FATAL_ERROR "deterministic counters lack ${key}")
  endif()
endforeach()
string(JSON same EQUAL "${det1}" "${det4}")
if(NOT same)
  message(FATAL_ERROR
          "deterministic counters differ between --jobs 1 and --jobs 4")
endif()

run("campaign_fsck" "${FSCK}" --results "${j1}.csv" --journal "${j1}.jsonl"
    --metrics-out "${WORK_DIR}/obs_fsck.json")
file(READ "${WORK_DIR}/obs_fsck.json" fsck_snapshot)
string(JSON issues GET "${fsck_snapshot}" deterministic fsck.issues)
string(JSON trusted GET "${fsck_snapshot}" deterministic fsck.trusted_rows)
if(NOT issues EQUAL 0 OR NOT trusted GREATER 0)
  message(FATAL_ERROR
          "campaign_fsck: fsck.issues = ${issues}, "
          "fsck.trusted_rows = ${trusted}")
endif()
message(STATUS "deterministic counters identical across --jobs")
