# Runs CMD with the list ARGS and fails unless it exits with status
# EXPECT. Usage:
#   cmake -DCMD=<exe> "-DARGS=a;b;c" -DEXPECT=<code> -P expect_exit.cmake
execute_process(COMMAND ${CMD} ${ARGS} RESULT_VARIABLE Status
                OUTPUT_VARIABLE Out ERROR_VARIABLE Err)
if(NOT Status EQUAL EXPECT)
  message(FATAL_ERROR "${CMD} ${ARGS}: exit ${Status}, expected ${EXPECT}\n"
                      "stdout: ${Out}\nstderr: ${Err}")
endif()
message(STATUS "exit ${Status} as expected: ${Err}")
