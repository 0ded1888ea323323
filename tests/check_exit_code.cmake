# Run a binary and require an exact exit code. CTest's
# PASS_REGULAR_EXPRESSION replaces exit-status checking, so the
# options-contract smoke tests (help=1 -> 0, unknown key -> 2) go
# through this script instead. A usage error (exit 2) must also
# come before any standard output.
#
# Usage:
#   cmake -DBIN=<path> -DARGS=<space-separated args> -DEXPECT=<code>
#         -P check_exit_code.cmake
separate_arguments(ARG_LIST UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BIN} ${ARG_LIST}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_QUIET)
if(NOT rc EQUAL "${EXPECT}")
    message(FATAL_ERROR
            "${BIN} ${ARGS}: exited ${rc}, expected ${EXPECT}")
endif()
if(EXPECT EQUAL 2 AND NOT out STREQUAL "")
    message(FATAL_ERROR
            "${BIN} ${ARGS}: usage error after output:\n${out}")
endif()
