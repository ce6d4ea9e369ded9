# Runs the tcloud shell on a script mixing bad and good numeric arguments.
# Bad `demo`/`run` numbers must be rejected with a usage line; the shell
# must keep going and exit 0 (an assert would abort it).
#
#   cmake -DTCLOUD=<path to tcloud> -P tcloud_bad_numbers.cmake
execute_process(
    COMMAND "${TCLOUD}" -c "demo -3; run -5; run nan; demo 1; run 60"
    RESULT_VARIABLE result
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
message("${out}${err}")
if(NOT result EQUAL 0)
    message(FATAL_ERROR "tcloud exited with '${result}', expected 0")
endif()
string(REGEX MATCHALL "usage: demo \\[n\\]" demo_usage "${out}")
string(REGEX MATCHALL "usage: run <seconds>" run_usage "${out}")
list(LENGTH demo_usage demo_rejects)
list(LENGTH run_usage run_rejects)
if(NOT demo_rejects EQUAL 1 OR NOT run_rejects EQUAL 2)
    message(FATAL_ERROR "expected 1 demo and 2 run rejections, got "
                        "${demo_rejects} and ${run_rejects}")
endif()
if(NOT out MATCHES "submitted 1 demo job\\(s\\)")
    message(FATAL_ERROR "the valid 'demo 1' after the rejections did not run")
endif()
