# Feeds NaN through the two file-driven CLI surfaces. tcloud must refuse a
# deployment config with `oversubscription: nan`, keep going and run the
# demo on the default cluster; tacc_sweep must refuse a spec with a NaN
# load and exit non-zero with the parse error (an assert would abort both).
#
#   cmake -DTCLOUD=<tcloud> -DTACC_SWEEP=<tacc_sweep> -DFIXTURES=<dir>
#         -P cli_non_finite.cmake
execute_process(
    COMMAND "${TCLOUD}" -c
            "open ${FIXTURES}/bad_oversubscription.cfg x; demo 1; run 60; clusters; ps"
    RESULT_VARIABLE result
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
message("${out}${err}")
if(NOT result EQUAL 0)
    message(FATAL_ERROR "tcloud exited with '${result}', expected 0")
endif()
if(NOT out MATCHES "bad value for oversubscription: nan")
    message(FATAL_ERROR "tcloud did not reject the NaN oversubscription")
endif()
if(out MATCHES "opened cluster")
    message(FATAL_ERROR "tcloud opened the bad config")
endif()
if(NOT out MATCHES "submitted 1 demo job\\(s\\)" OR
   NOT out MATCHES "campus \\*" OR NOT out MATCHES "running")
    message(FATAL_ERROR "the demo did not run on the default cluster")
endif()

execute_process(
    COMMAND "${TACC_SWEEP}" --spec "${FIXTURES}/bad_loads.spec"
    RESULT_VARIABLE result
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
message("${out}${err}")
if(NOT result MATCHES "^[0-9]+$" OR result EQUAL 0)
    message(FATAL_ERROR "tacc_sweep exited with '${result}', "
                        "expected a non-zero exit code")
endif()
if(NOT "${out}${err}" MATCHES "bad value for loads: nan")
    message(FATAL_ERROR "tacc_sweep did not reject the NaN load")
endif()
