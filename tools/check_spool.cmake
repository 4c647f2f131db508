# ctest helper: chaos acceptance for the spool campaign backend.
# All the logic lives in tools/chaos_spool.py (process-group SIGKILL
# and done-marker polling need real process control); this wrapper
# just adapts the ctest invocation convention the other check_*.cmake
# helpers use.
#
# Invoked from tools/CMakeLists.txt with -DPINTESIM=... -DPYTHON=...
# -DCHECKER=<check_report.py> -DCHAOS=<chaos_spool.py> -DWORKDIR=...

execute_process(
    COMMAND ${PYTHON} ${CHAOS} ${PINTESIM} ${CHECKER} ${WORKDIR}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "spool chaos acceptance failed (${rc}):\n${out}\n${err}")
endif()
message(STATUS "${out}")

# Lossless u64 round trip through the campaign document: a sampling
# seed above 2^53 must reach the spool workers exactly, or their
# rebuilt cell keys disagree with the broker's and the campaign never
# completes (the timeout turns that hang into a failure).
set(seed_spool "${WORKDIR}/spool_u64_seed")
set(seed_report "${WORKDIR}/spool_u64_seed.json")
file(REMOVE_RECURSE ${seed_spool})
execute_process(
    COMMAND ${PINTESIM} -w 416.gamess --sweep --isolation=spool
        --spool ${seed_spool} --sample-mode=periodic
        --sampling-seed=9007199254740993 --jobs=2
        --warmup 2000 --roi 20000 --json --out ${seed_report}
    RESULT_VARIABLE seed_rc
    OUTPUT_VARIABLE seed_out
    ERROR_VARIABLE seed_err
    TIMEOUT 120)
if(NOT seed_rc EQUAL 0)
    message(FATAL_ERROR
        "spool sweep with a 2^53+1 sampling seed failed (${seed_rc}):\n"
        "${seed_out}\n${seed_err}")
endif()
file(READ ${seed_report} seed_text)
string(REGEX MATCHALL "\"status\": \"ok\"" seed_ok "${seed_text}")
list(LENGTH seed_ok seed_ok_count)
if(NOT seed_ok_count EQUAL 12)
    message(FATAL_ERROR
        "expected 12 ok cells, found ${seed_ok_count}:\n${seed_text}")
endif()
message(STATUS "spool sweep with sampling seed 2^53+1: 12 ok cells")
