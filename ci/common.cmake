# Helpers shared by the smoke scripts (ci/*/check.cmake), which pull them
# in with include(${CMAKE_CURRENT_LIST_DIR}/../common.cmake).

# Runs COMMAND ARGN and fails the test unless it exits 0.
function(run what)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${what} exited with ${rc}")
  endif()
endfunction()

# Fails the test unless files A and B are byte-identical. An optional
# third argument replaces the default failure message.
function(compare a b)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${a}" "${b}"
                  RESULT_VARIABLE differs)
  if(differs)
    if(ARGC GREATER 2)
      message(FATAL_ERROR "${ARGV2}")
    endif()
    message(FATAL_ERROR "${b} differs from ${a}")
  endif()
endfunction()
