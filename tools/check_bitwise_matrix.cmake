# ctest helper: the bitwise-identical-report regression matrix.
#
# Runs pintesim across a configuration matrix chosen to light up every
# hot-path subsystem the engine refactors touch — all replacement
# policies, every inclusion mode, prefetchers on and off, PInTE scopes,
# an L2-scope engine above an inclusive LLC (the walk that runs one
# block at a time), pair co-runs, an isolation run, a sweep, a sampled
# sweep (whose fast-forward skips detach cells from the campaign's
# shared trace), a full --report machine dump with paranoid audits, and
# a --report dump of a pair whose two cores share DRAM banks and buses
# (per-core DRAM counters under contention) — and asserts
# each JSON report is identical (modulo cpu_seconds, see
# check_bitwise.py) to the golden captured in tests/golden/bitwise/
# with the pre-refactor engine.
#
# Invoked from tools/CMakeLists.txt with -DPINTESIM=... -DPYTHON=...
# -DCHECKER=<check_bitwise.py> -DGOLDEN_DIR=... -DWORKDIR=...
#
# To re-capture the goldens after an *intentional* behavior change
# (document why in the commit), add -DMODE=record: reports are then
# written straight into GOLDEN_DIR instead of being compared.

if(NOT MODE)
    set(MODE check)
endif()

# name|args — one matrix row per entry, |-separated so CMake's list
# flattening leaves rows intact. Warmup/ROI are pinned below so the
# goldens do not depend on driver defaults.
set(matrix
    "lru_base|-w|450.soplex|-p|0.2|--seed|1"
    "rrip_incl_pf|-w|429.mcf|-p|0.35|--policy|rrip|--inclusion|inclusive|--prefetch|NN0|--seed|7"
    "plru_excl_scope|-w|470.lbm|-p|0.1|--policy|plru|--inclusion|exclusive|--scope|l2+llc|--seed|2"
    "nmru_pf_dram|-w|462.libquantum|-p|0.3|--policy|nmru|--prefetch|NNN|--dram-complement|40|--seed|3"
    "drrip_report_ts|-w|433.milc|-p|0.25|--policy|drrip|--prefetch|NNI|--sample-interval|2048|--report|--paranoid=2048|--seed|4"
    "pair_rrip|-w|450.soplex|--pair|470.lbm|--policy|rrip|--seed|5"
    "random_iso|-w|401.bzip2|--isolation|--policy|random|--seed|3"
    "l2scope_sweep|-w|444.namd|--sweep|--scope|l2|--jobs|2|--seed|6"
    "lhd_pinte|-w|450.soplex|-p|0.3|--policy|lhd|--seed|8"
    "lru_l2scope_incl|-w|470.lbm|-p|0.7|--scope|l2|--inclusion|inclusive|--seed|2"
    "gcc_sampled_sweep|-w|403.gcc|--sweep|--sample-mode|periodic|--sample-interval-length|2000|--sample-detailed-fraction|0.25|--jobs|2"
    "dram_pair_report|-w|470.lbm|--pair|429.mcf|--report|--seed|9"
)

foreach(entry IN LISTS matrix)
    string(REPLACE "|" ";" row "${entry}")
    list(POP_FRONT row name)
    # The sweep's 12 runs make it the expensive row; shrink it.
    if(name STREQUAL "l2scope_sweep")
        set(sizing --warmup 4000 --roi 12000)
    else()
        set(sizing --warmup 8000 --roi 30000)
    endif()

    if(MODE STREQUAL "record")
        set(report "${GOLDEN_DIR}/${name}.json")
    else()
        set(report "${WORKDIR}/bitwise_${name}.json")
    endif()

    execute_process(
        COMMAND ${PINTESIM} ${row} ${sizing}
            --format json --out ${report}
        RESULT_VARIABLE sim_rc
        OUTPUT_VARIABLE sim_out
        ERROR_VARIABLE sim_err)
    if(NOT sim_rc EQUAL 0)
        message(FATAL_ERROR
            "pintesim ${name} failed (${sim_rc}):\n${sim_out}\n"
            "${sim_err}")
    endif()

    if(MODE STREQUAL "record")
        message(STATUS "recorded golden ${report}")
    else()
        execute_process(
            COMMAND ${PYTHON} ${CHECKER}
                ${GOLDEN_DIR}/${name}.json ${report}
            RESULT_VARIABLE cmp_rc
            OUTPUT_VARIABLE cmp_out
            ERROR_VARIABLE cmp_err)
        if(NOT cmp_rc EQUAL 0)
            message(FATAL_ERROR
                "bitwise regression in matrix row '${name}' "
                "(${cmp_rc}):\n${cmp_out}\n${cmp_err}")
        endif()
        message(STATUS "${cmp_out}")
    endif()
endforeach()
