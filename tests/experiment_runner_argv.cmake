# Runs experiment_runner over a table of bad command lines. Each must be
# rejected before the emulator or fleet runs: exit status 2 and an
# "experiment_runner: ..." complaint on stderr.
#
#   cmake -DRUNNER=<path to experiment_runner> -P experiment_runner_argv.cmake
#
# Every value here is one the parser or a constructor must reject. A large
# *valid* --peers, --swarms or --threads would start a real run, so none is
# listed; the per-run timeout bounds a binary that accepts a bad value.
# A retired flag (--warm-rounds, the centralized auction's old price warm
# start) is an unknown flag like any other.
if(NOT RUNNER)
    message(FATAL_ERROR "pass -DRUNNER=<path to experiment_runner>")
endif()

set(bad_command_lines
    "--peers abc"
    "--rounds x"
    "--rounds 0"
    "--rounds 0 --fleet fleet_smoke"
    "--epsilon 0"
    "--epsilon -1"
    "--peers -5"
    "--threads -1 --fleet fleet_smoke"
    "--seed 1x"
    "--peers"
    "--peers 18446744073709551616"
    "--horizon inf"
    "--horizon 1e300"
    "--seed-upload 1e300"
    "--epsilon 0 --fleet fleet_smoke"
    "--warm-rounds")

set(failures "")
foreach(line IN LISTS bad_command_lines)
    separate_arguments(args UNIX_COMMAND "${line}")
    execute_process(COMMAND "${RUNNER}" ${args}
                    RESULT_VARIABLE status
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err
                    TIMEOUT 30)
    if(NOT status STREQUAL "2" OR NOT err MATCHES "^experiment_runner: ")
        string(APPEND failures "\n  '${line}': exit '${status}', stderr: ${err}")
    endif()
endforeach()

if(failures)
    message(FATAL_ERROR "bad command lines not rejected with a usage error:${failures}")
endif()
list(LENGTH bad_command_lines n)
message(STATUS "${n} bad command lines rejected with exit 2")
