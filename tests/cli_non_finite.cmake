# Feeds bad numbers through the CLI surfaces. tcloud must refuse a
# deployment config with `oversubscription: nan` or `gpu: A100,nan,80`,
# keep going and run the demo on the default cluster; tacc_sweep must refuse a spec with a NaN
# load and exit non-zero with the parse error (an assert would abort both).
# The numeric flags of tacc_sweep and tacc_tune must reject an empty
# value, a non-number, trailing garbage, a sign and overflow with the
# usage message and exit code 2, instead of reading them as 0 (which
# means "every core" for --jobs) or as a prefix.
#
#   cmake -DTCLOUD=<tcloud> -DTACC_SWEEP=<tacc_sweep> -DTACC_TUNE=<tacc_tune>
#         -DFIXTURES=<dir> -P cli_non_finite.cmake
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

# The same for a tuple key: a NaN GPU speed must be refused at parse time,
# not reach the execution engine's assert on the first job.
execute_process(
    COMMAND "${TCLOUD}" -c
            "open ${FIXTURES}/bad_gpu.cfg x; demo 1; run 600; clusters; ps"
    RESULT_VARIABLE result
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
message("${out}${err}")
if(NOT result EQUAL 0)
    message(FATAL_ERROR "tcloud exited with '${result}', expected 0")
endif()
if(NOT out MATCHES "bad value for gpu")
    message(FATAL_ERROR "tcloud did not reject the NaN GPU speed")
endif()
if(out MATCHES "opened cluster")
    message(FATAL_ERROR "tcloud opened the bad config")
endif()
if(NOT out MATCHES "submitted 1 demo job\\(s\\)" OR
   NOT out MATCHES "campus \\*")
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

function(expect_usage_error tool flag value)
    execute_process(
        COMMAND "${tool}" ${flag} "${value}"
        RESULT_VARIABLE result
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT result EQUAL 2 OR NOT err MATCHES "usage:")
        message(FATAL_ERROR "'${tool} ${flag} \"${value}\"' exited with "
                            "'${result}' (${out}${err}), expected the "
                            "usage message and exit code 2")
    endif()
endfunction()

foreach(value "" "abc" "2x" " 2" "+2" "-1" "4294967296"
        "99999999999999999999999")
    expect_usage_error("${TACC_SWEEP}" --jobs "${value}")
    expect_usage_error("${TACC_TUNE}" --jobs "${value}")
    expect_usage_error("${TACC_TUNE}" --budget "${value}")
endforeach()
expect_usage_error("${TACC_TUNE}" --budget "0")
foreach(value "" "abc" "7x" "-1" "18446744073709551616")
    expect_usage_error("${TACC_TUNE}" --seed "${value}")
endforeach()
