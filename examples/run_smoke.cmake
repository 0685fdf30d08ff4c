# Smoke check for one example binary, run as a ctest via `cmake -P`:
#
#   cmake -DEXE=<binary> -DARGS="a|b|c" -DEXPECT=<regex> -DWORKDIR=<dir> \
#         -P run_smoke.cmake
#
# Fails unless the binary exits 0 and its stdout matches EXPECT. ARGS is a
# '|'-separated argument list (a ';' list would be split by add_test).
string(REPLACE "|" ";" args "${ARGS}")
execute_process(
  COMMAND "${EXE}" ${args}
  WORKING_DIRECTORY "${WORKDIR}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} ${args}: exit status ${rc}\n${out}\n${err}")
endif()
if(NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR "${EXE} ${args}: no line matching '${EXPECT}'\n${out}\n${err}")
endif()
