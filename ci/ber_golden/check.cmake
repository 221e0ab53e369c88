# BER golden smoke test (registered with ctest, label "smoke").
#
# supp_ber_vs_hc.csv and fig15_word_bitflips.csv were recorded from the
# default runs
#   supp_ber_vs_hammer_count --csv DIR
#   fig15_word_bitflips --csv DIR
# on the row-summary build that sorted each population by uniform. Both
# harnesses decide every flip through the row summaries (whole-row BER at
# fixed hammer counts), so any change to which cells a summary offers the
# sense, or to the uniforms it recomputes, shows up here as a changed
# mean BER or per-row word count.
#
# Usage: cmake -DSUPP=<binary> -DFIG15=<binary> -DGOLDEN_DIR=<dir>
#              -DWORK_DIR=<dir> -P check.cmake
include(${CMAKE_CURRENT_LIST_DIR}/../common.cmake)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

run("supp_ber_vs_hammer_count" "${SUPP}" --csv "${WORK_DIR}")
run("fig15_word_bitflips" "${FIG15}" --csv "${WORK_DIR}")
foreach(name supp_ber_vs_hc fig15_word_bitflips)
  compare("${GOLDEN_DIR}/${name}.csv" "${WORK_DIR}/${name}.csv"
          "${WORK_DIR}/${name}.csv differs from ${name}.csv")
endforeach()
message(STATUS "BER goldens reproduced")
