# Serve smoke test, index half (registered with ctest, label "smoke").
#
# The tiny fig07 campaign is exported into a .hbmidx index with
#   hbmrd_shell export --from-campaign <csv> --hc-depth 1
# and the canned batch (queries.txt) is answered twice: from the index,
# and with --force-miss (every query simulated live from canonical
# state). Both answers must equal golden.csv byte for byte. The socket
# half (serve over a Unix socket, SIGTERM drain, serve.* counters) needs
# a background server, which `cmake -P` cannot hold; it runs in the CI
# "serve smoke" step against the same index and golden.
#
# Usage: cmake -DFIG07=<binary> -DSHELL=<binary> -DGOLDEN_DIR=<dir>
#              -DWORK_DIR=<dir> -P check.cmake
cmake_minimum_required(VERSION 3.19)
include(${CMAKE_CURRENT_LIST_DIR}/../common.cmake)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(campaign "${WORK_DIR}/serve_smoke")

run("fig07" "${FIG07}" --rows 2 --channels 1 --trust-map
    --results "${campaign}.csv" --journal "${campaign}.jsonl")
run("hbmrd_shell export"
    "${SHELL}" export --from-campaign "${campaign}.csv"
    --index "${campaign}.hbmidx" --hc-depth 1)

# Answers the canned batch from the index with ARGN appended, into `out`.
function(query out)
  execute_process(COMMAND "${SHELL}" query --index "${campaign}.hbmidx"
                          --batch "${GOLDEN_DIR}/queries.txt" ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_FILE "${out}"
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "hbmrd_shell query ${ARGN} exited with ${rc}:\n${err}")
  endif()
  compare("${GOLDEN_DIR}/golden.csv" "${out}")
endfunction()

query("${WORK_DIR}/serve_hit.csv")
query("${WORK_DIR}/serve_sim.csv" --force-miss)
message(STATUS "index and forced-miss answers both match golden.csv")
