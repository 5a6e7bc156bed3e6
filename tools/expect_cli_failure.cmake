# Runs `${CLI} ${ARGS}` and succeeds only if the command exits non-zero and its
# combined stdout/stderr contains EXPECT.
#
#   cmake -DCLI=path/to/scuba_cli "-DARGS=run --threads abc" \
#         "-DEXPECT=invalid value for --threads:" -P expect_cli_failure.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CLI} ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
if(rc EQUAL 0)
  message(FATAL_ERROR "expected a failure, but `${ARGS}` exited 0:\n${out}")
endif()
string(FIND "${out}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR
          "`${ARGS}` exited ${rc} without \"${EXPECT}\" in its output:\n${out}")
endif()
