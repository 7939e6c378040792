# Runs a command that must be rejected, for CTest: passes only when the
# command exits nonzero and its output contains EXPECT (the name of the
# flag it was given a bad value for).
#
#   cmake -DCMD=<program;args...> -DEXPECT=<text> -P expect_cli_error.cmake
execute_process(COMMAND ${CMD}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(rc STREQUAL "0")
  message(FATAL_ERROR "expected a nonzero exit, got 0:\n${out}${err}")
endif()
string(FIND "${out}${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "exit ${rc}, but the output does not name '${EXPECT}':\n${out}${err}")
endif()
