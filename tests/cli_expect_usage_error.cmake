# Runs one causaliot command line and passes only if it exits 2 and names
# the rejected flag on stderr ("invalid value for --<FLAG>"). A crash, an
# abort or any other exit code fails.
#
#   cmake -DCLI=<causaliot binary> -DFLAG=<flag without dashes>
#         -DARGS=<arguments joined by |> -P cli_expect_usage_error.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND ${CLI} ${args}
  RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT code STREQUAL "2")
  message(FATAL_ERROR "exit status '${code}', expected 2; stderr:\n${err}")
endif()
if(NOT err MATCHES "invalid value for --${FLAG}\n")
  message(FATAL_ERROR
    "stderr does not say 'invalid value for --${FLAG}':\n${err}")
endif()
