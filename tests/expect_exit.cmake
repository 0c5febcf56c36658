# One command-line ctest case (tests/CMakeLists.txt): run the command
# given after `--`; require exit code RC, output matching MATCH and, if
# given, not matching REJECT.
#   cmake -DRC=<n> -DMATCH=<regex> [-DREJECT=<regex>] -P expect_exit.cmake
#         -- <command> [args...]
set(cmd "")
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL RC OR NOT out MATCHES "${MATCH}" OR
   (DEFINED REJECT AND out MATCHES "${REJECT}"))
  message(FATAL_ERROR "exit ${rc} (want ${RC}), want /${MATCH}/:\n${out}")
endif()
