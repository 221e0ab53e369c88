# --help on every harness, campaign_fsck and hbmrd_shell (registered with
# ctest, label "smoke").
#
# Each program prints the flag table it parses against and exits 0. A
# harness lists only the flags it reads: fig10 runs no campaign, so it
# has no --jobs or --metrics-out; fig05 streams no raw series, so it has
# no --csv, which fig15 has; fig14 lists its own --windows next to the
# campaign (--jobs) and shard (--shards) groups.
#
# Usage: cmake -DHARNESSES=<binary>,<binary>,... -DTOOLS=<binary>,...
#              -P check.cmake
cmake_minimum_required(VERSION 3.19)

string(REPLACE "," ";" programs "${HARNESSES},${TOOLS}")
foreach(binary IN LISTS programs)
  get_filename_component(name "${binary}" NAME)
  execute_process(COMMAND "${binary}" --help
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  TIMEOUT 60)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name} --help exited with ${rc}:\n${err}")
  endif()
  if(NOT out MATCHES "\nflags:\n  --help ")
    message(FATAL_ERROR "${name} --help prints no flag table:\n${out}")
  endif()
  set(help_${name} "${out}")
endforeach()

# Fails unless `name`'s help lists (or, with NOT, omits) each flag in ARGN.
function(expect_listed name)
  foreach(flag IN LISTS ARGN)
    string(FIND "${help_${name}}" "\n  ${flag} " at)
    if(at LESS 0)
      message(FATAL_ERROR "${name} --help does not list ${flag}")
    endif()
  endforeach()
endfunction()
function(expect_unlisted name)
  foreach(flag IN LISTS ARGN)
    string(FIND "${help_${name}}" "\n  ${flag} " at)
    if(at GREATER_EQUAL 0)
      message(FATAL_ERROR "${name} --help lists ${flag}, which it ignores")
    endif()
  endforeach()
endfunction()

expect_unlisted(fig10_hcn_distribution --jobs --metrics-out)
expect_unlisted(fig05_hcfirst_across_chips --csv)
expect_listed(fig15_word_bitflips --csv)
expect_listed(fig14_trr_bypass --windows --jobs --shards)
list(LENGTH programs count)
message(STATUS "--help exits 0 on ${count} programs")
