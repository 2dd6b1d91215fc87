# Runs each bench harness with an option it does not declare (`--bogus=3`)
# and with a stray argument (`-quick`) and asserts that the harness refuses
# both before doing any work: exit status 2, "unknown option(s): <arg>" on
# stderr and nothing on stdout (the experiment banner is never printed).
#
#   cmake -DBENCHES="<bench>|<bench>|..." -P bench_unknown_option.cmake
string(REPLACE "|" ";" benches "${BENCHES}")
if(NOT benches)
  message(FATAL_ERROR "no harness given (-DBENCHES=...)")
endif()
foreach(bench IN LISTS benches)
  foreach(arg IN ITEMS --bogus=3 -quick)
    string(REGEX REPLACE "=.*" "" shown "${arg}")
    execute_process(COMMAND "${bench}" "${arg}"
      RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err
      TIMEOUT 20)
    if(NOT status EQUAL 2 OR NOT err MATCHES "unknown option\\(s\\): ${shown}"
       OR NOT out STREQUAL "")
      message(FATAL_ERROR "${bench} ${arg}: exit status ${status}\n"
                          "stdout: ${out}\nstderr: ${err}")
    endif()
  endforeach()
  message(STATUS "${bench}: refused --bogus=3 and -quick (exit 2)")
endforeach()
