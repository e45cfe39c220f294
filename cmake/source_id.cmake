# Write the simulator's source id to the header OUT:
#
#   #define PIPM_SOURCE_ID "<git describe>+<12-hex digest of ROOT/src>"
#
# The digest covers every file under ROOT/src (relative path and SHA-256
# of its bytes, in sorted order), so it names the code a build compiled,
# whatever state the tree was configured in. The header is rewritten only
# when the id changes, so an unchanged tree recompiles nothing. Usage:
#   cmake -DROOT=<repo root> -DOUT=<header> -P source_id.cmake

set(describe "nogit")
if(EXISTS "${ROOT}/.git")
    execute_process(
        COMMAND git describe --always --dirty --tags
        WORKING_DIRECTORY "${ROOT}"
        OUTPUT_VARIABLE git_out
        OUTPUT_STRIP_TRAILING_WHITESPACE
        RESULT_VARIABLE git_rc
        ERROR_QUIET)
    if(git_rc EQUAL 0 AND git_out)
        set(describe "${git_out}")
    endif()
endif()

file(GLOB_RECURSE sources RELATIVE "${ROOT}" "${ROOT}/src/*")
list(SORT sources)
set(manifest "")
foreach(rel IN LISTS sources)
    file(SHA256 "${ROOT}/${rel}" file_hash)
    string(APPEND manifest "${rel} ${file_hash}\n")
endforeach()
string(SHA256 digest "${manifest}")
string(SUBSTRING "${digest}" 0 12 digest)

set(content "#define PIPM_SOURCE_ID \"${describe}+${digest}\"\n")
set(old "")
if(EXISTS "${OUT}")
    file(READ "${OUT}" old)
endif()
if(NOT old STREQUAL content)
    file(WRITE "${OUT}" "${content}")
endif()
