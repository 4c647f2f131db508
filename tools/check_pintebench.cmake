# ctest helper: smoke the benchmark's measuring process at quick size.
# The traced `detailed` run must reproduce the untraced digests through
# its shimmed machine, with every repetition's per-layer shares summing
# to 1; the untraced `sampled` run must complete. Invoked from
# tools/CMakeLists.txt with -DPINTEBENCH=...

function(pintebench mode workload)
    execute_process(
        COMMAND ${PINTEBENCH} ${mode} --workload ${workload} --seed 5
            --seconds 0 --quick
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "pintebench ${mode} ${workload} failed (${rc}):\n${out}\n${err}")
    endif()
    set(out "${out}" PARENT_SCOPE)
endfunction()

pintebench(trace detailed)
string(JSON traced GET "${out}" traced_digests)
string(JSON untraced GET "${out}" untraced_digests)
string(JSON share_errors GET "${out}" share_sum_errors)
if(NOT traced STREQUAL untraced)
    message(FATAL_ERROR
        "traced digests ${traced} differ from untraced ${untraced}")
endif()
if(NOT share_errors EQUAL 0)
    message(FATAL_ERROR
        "${share_errors} traced repetitions' shares do not sum to 1")
endif()
message(STATUS "traced == untraced digests ${traced}")

pintebench(run sampled)
