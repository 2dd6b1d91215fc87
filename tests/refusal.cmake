# Runs each command with each argument of ARGS appended and asserts that
# the command refuses the argument before doing any work: exit status 2,
# stderr matching EXPECT and nothing on stdout (no banner, no result line,
# no "listening on" announcement). EXPECT defaults to
# "unknown option(s): <the argument up to its '='>".
#
#   cmake -DCOMMANDS="<cmd>|<cmd>|..." -DARGS="--bogus=3|-quick" \
#         [-DEXPECT=<regex>] -P refusal.cmake
#
# A command is a binary, optionally followed by comma-separated leading
# arguments: "<goc-replay>,verify,<artifact>" runs
# `goc-replay verify <artifact> --bogus=3`. Stdin is empty, so a daemon
# that failed to refuse reads end of input and exits instead of waiting.
string(REPLACE "|" ";" commands "${COMMANDS}")
string(REPLACE "|" ";" args "${ARGS}")
if(NOT commands OR NOT args)
  message(FATAL_ERROR "no command or argument given (-DCOMMANDS=, -DARGS=)")
endif()
foreach(command IN LISTS commands)
  string(REPLACE "," ";" argv "${command}")
  foreach(arg IN LISTS args)
    if(DEFINED EXPECT)
      set(expect "${EXPECT}")
    else()
      string(REGEX REPLACE "=.*" "" shown "${arg}")
      set(expect "unknown option\\(s\\): ${shown}")
    endif()
    execute_process(COMMAND ${argv} "${arg}" INPUT_FILE /dev/null
      RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err
      TIMEOUT 20)
    if(NOT status EQUAL 2 OR NOT err MATCHES "${expect}"
       OR NOT out STREQUAL "")
      message(FATAL_ERROR "${argv} ${arg}: exit status ${status}\n"
                          "stdout: ${out}\nstderr: ${err}")
    endif()
  endforeach()
  message(STATUS "${argv}: refused ${args} (exit 2)")
endforeach()
