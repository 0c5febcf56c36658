# One bench_compare ctest case (tests/CMakeLists.txt): run TOOL on BASE
# and CAND; require exit code RC, output matching MATCH and, if given,
# not matching REJECT.
execute_process(COMMAND ${TOOL} ${BASE} ${CAND} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL RC OR NOT out MATCHES "${MATCH}" OR
   (DEFINED REJECT AND out MATCHES "${REJECT}"))
  message(FATAL_ERROR "exit ${rc} (want ${RC}), want /${MATCH}/:\n${out}")
endif()
