# Runs tacc_sweep and tacc_tune with 200 workers under a 400 MB address
# space cap, so some worker threads cannot get a stack. Both tools must
# report the failed start and exit 2; an escaped std::system_error (or
# joinable threads left behind) would abort with exit code 134.
#
#   cmake -DTACC_SWEEP=<tacc_sweep> -DTACC_TUNE=<tacc_tune>
#         -DFIXTURES=<dir> -DGOLDENS=<dir> -P cli_worker_start_failure.cmake
function(expect_start_failure name)
    execute_process(
        COMMAND sh -c "ulimit -v 400000; exec \"$@\"" sh ${ARGN}
        RESULT_VARIABLE result
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    message("${out}${err}")
    if(NOT result EQUAL 2 OR NOT err MATCHES "${name}: " OR
       err MATCHES "terminate called")
        message(FATAL_ERROR "${name} exited with '${result}', expected "
                            "an error message and exit code 2")
    endif()
endfunction()

expect_start_failure(tacc_sweep "${TACC_SWEEP}"
                     --spec "${FIXTURES}/one_scenario.spec" --jobs 200)
expect_start_failure(tacc_tune "${TACC_TUNE}"
                     --spec "${GOLDENS}/ci_tune.spec" --budget 1 --jobs 200)
