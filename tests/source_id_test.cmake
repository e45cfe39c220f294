# Check cmake/source_id.cmake (SCRIPT) on a throwaway tree under WORK: the
# id is stable while src/ is unchanged and changes when a file under
# src/ is edited or added. The build runs the same script on every
# build, so the bench-cache key and stats.json follow edits without a
# re-configure. Usage:
#   cmake -DSCRIPT=<source_id.cmake> -DWORK=<dir> -P source_id_test.cmake

function(source_id out)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -DROOT=${WORK} -DOUT=${WORK}/id.hh
                -P ${SCRIPT}
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "source_id.cmake failed: ${rc}")
    endif()
    file(READ ${WORK}/id.hh id)
    set(${out} "${id}" PARENT_SCOPE)
endfunction()

file(REMOVE_RECURSE ${WORK})
file(WRITE ${WORK}/src/a.cc "int a = 1;\n")
file(WRITE ${WORK}/notes.md "outside src/\n")

source_id(first)
if(NOT first MATCHES "^#define PIPM_SOURCE_ID \"nogit\\+[0-9a-f]+\"\n$")
    message(FATAL_ERROR "unexpected header: ${first}")
endif()
source_id(again)
if(NOT again STREQUAL first)
    message(FATAL_ERROR "id changed without an edit: ${first} vs ${again}")
endif()

file(WRITE ${WORK}/notes.md "still outside src/\n")
source_id(outside)
if(NOT outside STREQUAL first)
    message(FATAL_ERROR "an edit outside src/ changed the id")
endif()

file(WRITE ${WORK}/src/a.cc "int a = 2;\n")
source_id(edited)
if(edited STREQUAL first)
    message(FATAL_ERROR "editing src/a.cc kept the id ${first}")
endif()

file(WRITE ${WORK}/src/b.hh "// new\n")
source_id(added)
if(added STREQUAL edited)
    message(FATAL_ERROR "adding src/b.hh kept the id ${edited}")
endif()
file(REMOVE_RECURSE ${WORK})
