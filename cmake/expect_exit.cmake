# Run CMD with the space-separated ARGS and fail unless it exits with
# status EXPECT. Usage:
#   cmake -DCMD=<exe> "-DARGS=a b c" -DEXPECT=2 -P expect_exit.cmake
separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CMD} ${arg_list}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
    message(FATAL_ERROR "${CMD} ${ARGS}: exit '${rc}', expected ${EXPECT}\n"
                        "stdout:\n${out}\nstderr:\n${err}")
endif()
