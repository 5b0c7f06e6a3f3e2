# Writes the commit and dirty flag of the source tree into a header,
# at build time so that every build records the tree it was built
# from.  The header is rewritten only when its content changes.
#
#   cmake -DROOT=<repo root> -DOUT=<header> -P provenance.cmake
set(commit "unknown")
set(dirty "unknown")
find_package(Git QUIET)
if(GIT_FOUND)
    execute_process(
        COMMAND ${GIT_EXECUTABLE} -C ${ROOT} rev-parse --show-toplevel
        OUTPUT_VARIABLE toplevel OUTPUT_STRIP_TRAILING_WHITESPACE
        RESULT_VARIABLE rc ERROR_QUIET)
    # Only the repository itself counts: a checkout copied into some
    # other work tree must not report that tree's commit.
    if(rc EQUAL 0)
        file(REAL_PATH "${ROOT}" root_real)
        file(REAL_PATH "${toplevel}" top_real)
    endif()
    if(rc EQUAL 0 AND root_real STREQUAL top_real)
        execute_process(
            COMMAND ${GIT_EXECUTABLE} -C ${ROOT} rev-parse HEAD
            OUTPUT_VARIABLE commit OUTPUT_STRIP_TRAILING_WHITESPACE
            ERROR_QUIET)
        execute_process(
            COMMAND ${GIT_EXECUTABLE} -C ${ROOT} status --porcelain
            OUTPUT_VARIABLE status ERROR_QUIET)
        if(status STREQUAL "")
            set(dirty "false")
        else()
            set(dirty "true")
        endif()
    endif()
endif()

set(content "#define SOC_BENCH_COMMIT \"${commit}\"\n#define SOC_BENCH_DIRTY \"${dirty}\"\n")
if(EXISTS ${OUT})
    file(READ ${OUT} old)
endif()
if(NOT old STREQUAL content)
    file(WRITE ${OUT} "${content}")
endif()
