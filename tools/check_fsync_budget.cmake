# ctest helper: the spool's fsync budget (spool.fsync_budget).
#
# Every fsync on a spool worker's path must guard a file that crash
# recovery reads: per cell, the staged claim and the result record —
# two, and at most one more for a claim race lost after staging (a
# worker that streamed a whole shard just keeps its lease). Three
# 12-cell gamess sweeps run under the fsync_count LD_PRELOAD shim: one
# cell per shard, three cells per shard with periodic sampling, and
# the whole sweep as one shard. The workers together must stay within
# 3 fsyncs per cell, the broker must fork no more workers than there
# are shards (one for the single-shard sweep, although --jobs is 2),
# and each report must equal the process backend's modulo
# cpu_seconds.
#
# Invoked from tools/CMakeLists.txt with -DPINTESIM=... -DSHIM=...
# -DPYTHON=... -DCHECKER=<check_bitwise.py> -DWORKDIR=...

set(cells 12)
set(budget_per_cell 3)
math(EXPR budget "${cells} * ${budget_per_cell}")
set(base -w 416.gamess --sweep --warmup 2000 --roi 4000 --jobs 2 --json)

foreach(variant single sharded whole)
    if(variant STREQUAL "single")
        set(extra "")
    elseif(variant STREQUAL "sharded")
        set(extra --shard-size 3 --sample-mode periodic)
    else()
        set(extra --shard-size 12)
    endif()
    set(dir "${WORKDIR}/fsync_budget_${variant}")
    file(REMOVE_RECURSE ${dir})
    file(MAKE_DIRECTORY ${dir})

    execute_process(
        COMMAND ${PINTESIM} ${base} ${extra} --isolation=process
            --out ${dir}/process.json
        RESULT_VARIABLE rc
        ERROR_VARIABLE err
        TIMEOUT 120)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${variant}: process sweep failed (${rc}):\n${err}")
    endif()

    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env LD_PRELOAD=${SHIM}
            ${PINTESIM} ${base} ${extra} --isolation=spool
            --spool ${dir}/spool --out ${dir}/spool.json
        RESULT_VARIABLE rc
        ERROR_VARIABLE err
        TIMEOUT 120)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${variant}: spool sweep failed (${rc}):\n${err}")
    endif()

    string(REGEX MATCHALL "pinte-fsync-count role=worker pid=[0-9]+ calls=[0-9]+"
           lines "${err}")
    list(LENGTH lines workers)
    if(workers EQUAL 0)
        message(FATAL_ERROR
            "${variant}: no worker reported an fsync count; is the "
            "shim loaded?\n${err}")
    endif()
    if(variant STREQUAL "whole" AND NOT workers EQUAL 1)
        message(FATAL_ERROR
            "${variant}: the broker forked ${workers} workers for one "
            "shard:\n${err}")
    endif()
    set(total 0)
    foreach(line IN LISTS lines)
        string(REGEX REPLACE ".*calls=([0-9]+)" "\\1" n "${line}")
        math(EXPR total "${total} + ${n}")
    endforeach()
    if(total GREATER budget)
        message(FATAL_ERROR
            "${variant}: ${workers} spool worker(s) made ${total} fsyncs "
            "for ${cells} cells; the budget is ${budget_per_cell} per "
            "cell (${budget}):\n${err}")
    endif()

    execute_process(
        COMMAND ${PYTHON} ${CHECKER} ${dir}/process.json ${dir}/spool.json
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "${variant}: spool report differs from the process "
            "backend's:\n${out}${err}")
    endif()
    message(STATUS "${variant}: ${workers} worker(s), ${total} fsyncs "
                   "for ${cells} cells (budget ${budget})")
endforeach()
