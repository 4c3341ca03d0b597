# Runs CMD with the list ARGS and fails unless it exits with status
# EXPECT and, when EXPECT_STDOUT is given, its stdout matches that regex.
# Usage:
#   cmake -DCMD=<exe> "-DARGS=a;b;c" -DEXPECT=<code> [-DEXPECT_STDOUT=<re>]
#         -P expect_exit.cmake
execute_process(COMMAND ${CMD} ${ARGS} RESULT_VARIABLE Status
                OUTPUT_VARIABLE Out ERROR_VARIABLE Err)
if(NOT Status EQUAL EXPECT)
  message(FATAL_ERROR "${CMD} ${ARGS}: exit ${Status}, expected ${EXPECT}\n"
                      "stdout: ${Out}\nstderr: ${Err}")
endif()
if(EXPECT_STDOUT AND NOT Out MATCHES "${EXPECT_STDOUT}")
  message(FATAL_ERROR "${CMD} ${ARGS}: stdout does not match "
                      "'${EXPECT_STDOUT}'\nstdout: ${Out}")
endif()
message(STATUS "exit ${Status} as expected: ${Err}")
