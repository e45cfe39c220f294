# Run CMD and fail unless its stdout equals the file GOLDEN, listing each
# line that differs. Usage:
#   cmake -DCMD=<exe> -DGOLDEN=<file> -P expect_output.cmake
execute_process(COMMAND ${CMD}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${CMD}: exit '${rc}'\nstderr:\n${err}")
endif()
file(READ "${GOLDEN}" want)
if(NOT out STREQUAL want)
    string(REPLACE "\n" ";" got_lines "${out}")
    string(REPLACE "\n" ";" want_lines "${want}")
    list(LENGTH got_lines n_got)
    list(LENGTH want_lines n_want)
    set(report "")
    set(i 0)
    while(i LESS n_got OR i LESS n_want)
        set(g "<missing>")
        set(w "<missing>")
        if(i LESS n_got)
            list(GET got_lines ${i} g)
        endif()
        if(i LESS n_want)
            list(GET want_lines ${i} w)
        endif()
        if(NOT g STREQUAL w)
            string(APPEND report "  golden: ${w}\n  now:    ${g}\n")
        endif()
        math(EXPR i "${i} + 1")
    endwhile()
    message(FATAL_ERROR "${CMD} output differs from ${GOLDEN}:\n${report}"
                        "If the model moved on purpose, regenerate with\n"
                        "  ${CMD} > ${GOLDEN}")
endif()
