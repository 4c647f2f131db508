# ctest helper: campaign state written by an earlier pintesim stays
# usable. tests/golden/campaign_compat holds what that pintesim left
# behind for
#
#   pintesim -w 416.gamess --sweep --warmup 2000 --roi 4000
#            --sample 2000 --jobs 2 --json --out report.json
#
# run once with --resume journal.jsonl and once with
# --isolation=spool --spool spool. Replaying both with today's
# pintesim, with the first simulation job armed to fail, must exit 0
# with a report equal to report.json modulo cpu_seconds: every cell
# is served from the old state, none is simulated again. The journal
# must come back unchanged, and the spool's campaign document must be
# adopted as is (a differing document is refused).
#
# Invoked from tools/CMakeLists.txt with -DPINTESIM=... -DPYTHON=...
# -DCHECKER=<check_bitwise.py> -DFIXTURES=... -DWORKDIR=...

set(flags -w 416.gamess --sweep --warmup 2000 --roi 4000 --sample 2000
    --jobs 2 --json)
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})
file(COPY ${FIXTURES}/journal.jsonl ${FIXTURES}/spool
    DESTINATION ${WORKDIR})

function(replay name)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env PINTE_INJECT_FAULT=job:1
            ${PINTESIM} ${flags} ${ARGN} --out ${WORKDIR}/${name}.json
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        TIMEOUT 120)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "${name} replay failed (${rc}):\n${out}\n${err}")
    endif()
    execute_process(
        COMMAND ${PYTHON} ${CHECKER} ${FIXTURES}/report.json
            ${WORKDIR}/${name}.json
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "${name} replay diverged (${rc}):\n${out}\n${err}")
    endif()
    message(STATUS "${out}")
endfunction()

replay(journal --resume ${WORKDIR}/journal.jsonl)
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
        ${FIXTURES}/journal.jsonl ${WORKDIR}/journal.jsonl
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "the resumed journal gained or lost entries")
endif()

replay(spool --isolation=spool --spool ${WORKDIR}/spool)
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
        ${FIXTURES}/spool/campaign.json ${WORKDIR}/spool/campaign.json
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "the adopted campaign document changed")
endif()
