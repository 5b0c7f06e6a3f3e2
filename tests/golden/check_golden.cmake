# Run one paper bench and fail unless its stdout equals the golden
# byte for byte.  Invoked by ctest (see CMakeLists.txt here) as
#   cmake -DBENCH=<binary> -DTHREADS=<n> -DGOLDEN=<file>
#         -DACTUAL=<file> -P check_golden.cmake
# ACTUAL keeps the run's stdout for diffing after a failure.
execute_process(COMMAND "${BENCH}" "${THREADS}"
    OUTPUT_FILE "${ACTUAL}"
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${BENCH} ${THREADS} failed: ${status}")
endif()
execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${ACTUAL}"
    RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
    message(FATAL_ERROR
        "stdout of ${BENCH} ${THREADS} differs from ${GOLDEN}; "
        "diff it against ${ACTUAL}")
endif()
