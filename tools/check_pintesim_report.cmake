# ctest helper: pintesim --report. A dump must be a valid JSON report
# (check_report.py) and the machine of the very run its flags describe:
# it honours --seed, its LLC and PInTE counters equal the plain run's,
# a --pair dump shows both cores, and each campaign flag it cannot
# honour is refused by name. Invoked from tools/CMakeLists.txt with
# -DPINTESIM=... -DPYTHON=... -DCHECKER=... -DWORKDIR=...

# Run pintesim with ARGN and a JSON report into WORKDIR/pintesim_<name>
# .json; return the document in `var`. At this scale, stepping the ROI
# in --sample chunks and running it in one call give different LLC
# counters.
function(pintesim_json var name)
    set(out "${WORKDIR}/pintesim_${name}.json")
    execute_process(
        COMMAND ${PINTESIM} --workload 450.soplex --warmup 8000
            --roi 30000 ${ARGN} --format json --out ${out}
        RESULT_VARIABLE rc
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "pintesim ${ARGN} failed (${rc}):\n${err}")
    endif()
    file(READ ${out} doc)
    set(${var} "${doc}" PARENT_SCOPE)
endfunction()

# The rows (a JSON array of arrays) of table `table` in report `doc`.
function(table_rows var doc table)
    string(JSON n LENGTH "${doc}" tables)
    math(EXPR last "${n} - 1")
    foreach(i RANGE ${last})
        string(JSON name GET "${doc}" tables ${i} name)
        if(name STREQUAL table)
            string(JSON rows GET "${doc}" tables ${i} rows)
            set(${var} "${rows}" PARENT_SCOPE)
            return()
        endif()
    endforeach()
    message(FATAL_ERROR "report has no '${table}' table")
endfunction()

foreach(seed 0 5)
    pintesim_json(dump dump_seed${seed} -p 0.2 --seed ${seed} --report)
    pintesim_json(plain plain_seed${seed} -p 0.2 --seed ${seed})
    table_rows(llc "${dump}" llc)
    table_rows(pinte "${dump}" pinte)
    set(pinte_seed${seed} "${pinte}")
    # what|dump table|column|path in the plain run's runs[0]
    foreach(check
            "llc accesses|llc|1|metrics;llc_accesses"
            "llc misses|llc|3|metrics;llc_misses"
            "pinte accesses|pinte|2|pinte;accesses_seen"
            "pinte triggers|pinte|3|pinte;triggers")
        string(REPLACE "|" ";" check "${check}")
        list(POP_FRONT check what rows column)
        string(JSON got GET "${${rows}}" 0 ${column})
        string(JSON want GET "${plain}" runs 0 ${check})
        if(NOT got EQUAL want)
            message(FATAL_ERROR "--seed ${seed}: --report ${what} "
                "${got} differ from the plain run's ${want}")
        endif()
    endforeach()
endforeach()
if(pinte_seed0 STREQUAL pinte_seed5)
    message(FATAL_ERROR "--report ignores --seed: the pinte table is "
        "${pinte_seed0} at --seed 0 and --seed 5")
endif()

execute_process(
    COMMAND ${PYTHON} ${CHECKER} ${WORKDIR}/pintesim_dump_seed5.json
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "schema validation failed (${rc}):\n${out}\n${err}")
endif()
message(STATUS "${out}")

pintesim_json(dump dump_pair --pair 470.lbm --report)
table_rows(cores "${dump}" cores)
string(JSON n LENGTH "${cores}")
if(NOT n EQUAL 2)
    message(FATAL_ERROR "--pair --report dumps ${n} cores, not 2")
endif()

# A worker on a complete spool would exit at once: only the rejection
# can make it fail.
set(spool "${WORKDIR}/pintesim_report_spool")
file(MAKE_DIRECTORY ${spool})
file(TOUCH ${spool}/complete)
# flag|the rest of the command line
foreach(combo
        "--sweep|--sweep"
        "--policies|--sweep|--policies|lru,rrip"
        "--isolation=process|--sweep|--isolation=process"
        "--isolation=spool|--sweep|--isolation=spool|--spool|${spool}"
        "--worker|--worker|--spool|${spool}"
        "--resume|-p|0.2|--resume|${WORKDIR}/pintesim_report.journal")
    string(REPLACE "|" ";" combo "${combo}")
    list(POP_FRONT combo flag)
    execute_process(
        COMMAND ${PINTESIM} --workload 450.soplex --warmup 2000
            --roi 6000 ${combo} --report --format json
            --out ${WORKDIR}/pintesim_rejected.json
        RESULT_VARIABLE rc
        ERROR_VARIABLE err)
    string(FIND "${err}" "${flag}" at)
    if(rc EQUAL 0 OR at EQUAL -1)
        list(JOIN combo " " combo)
        message(FATAL_ERROR "--report ${combo} was not refused by name "
            "(exit ${rc}):\n${err}")
    endif()
endforeach()
