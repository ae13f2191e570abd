# Golden-reference figure/table bench check, run as a ctest against
# the real bench binary:
#
#   cmake -DBENCH=<bench_x> -DGOLDEN=<x.golden.txt> -DWORK_DIR=<scratch>
#         -P golden_bench.cmake
#
# Runs the bench on a three-app, 20000-instruction slice of the suite
# at RCACHE_JOBS=1 and RCACHE_JOBS=2 and byte-compares both stdouts
# against the checked-in golden. RCACHE_ENGINE and RCACHE_SCENARIO_DIR
# are cleared so a caller's environment cannot leak into the run. Any
# drift in a figure's numbers, rows or layout fails loudly, as does a
# table that depends on the worker count. Regenerate after a
# reviewed, intentional contract change with:
#
#   RCACHE_INSTS=20000 RCACHE_APPS=ammp,gcc,swim RCACHE_JOBS=1 \
#       build/bench_<x> > tests/golden/bench/<x>.golden.txt

foreach(var BENCH GOLDEN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_bench.cmake needs -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

foreach(jobs 1 2)
  set(out ${WORK_DIR}/jobs${jobs}.txt)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env
            --unset=RCACHE_ENGINE --unset=RCACHE_SCENARIO_DIR
            RCACHE_INSTS=20000 RCACHE_APPS=ammp,gcc,swim
            RCACHE_JOBS=${jobs}
            ${BENCH}
    OUTPUT_FILE ${out}
    RESULT_VARIABLE rc
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "${BENCH} at RCACHE_JOBS=${jobs} failed (exit ${rc}): "
            "${stderr}")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${out} ${GOLDEN}
    RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR
            "golden mismatch at RCACHE_JOBS=${jobs}: ${out} differs "
            "from ${GOLDEN}. If the change is intentional and "
            "reviewed, regenerate the golden (see this script's "
            "header).")
  endif()
endforeach()
