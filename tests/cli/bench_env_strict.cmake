# Strict parsing of the bench environment knobs, run as a ctest
# script against a real bench binary:
#
#   cmake -DBENCH=<bench_table1_hybrid_granularity>
#         -P bench_env_strict.cmake
#
# bench/common.hh reads RCACHE_INSTS and RCACHE_JOBS strictly: a
# malformed value (a suffix, letters, or a zero instruction count)
# must exit nonzero with a diagnostic naming the variable, never run
# with a silently misread value. Table 1 simulates nothing, so each
# probe is instant; its banner still validates every knob.

if(NOT BENCH)
  message(FATAL_ERROR "pass -DBENCH=<path to a bench binary>")
endif()

function(check_rejects expect)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env ${ARGN} ${BENCH}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(SEND_ERROR "expected nonzero exit with ${ARGN}")
  endif()
  if(NOT err MATCHES "${expect}")
    message(SEND_ERROR
            "missing diagnostic '${expect}' with ${ARGN}"
            " — stderr was: ${err}")
  endif()
endfunction()

check_rejects("RCACHE_INSTS: expected a positive integer, got '20k'"
              RCACHE_INSTS=20k)
check_rejects("RCACHE_INSTS: expected a positive integer, got 'abc'"
              RCACHE_INSTS=abc)
check_rejects("RCACHE_INSTS: expected a positive integer, got '0'"
              RCACHE_INSTS=0)
check_rejects("RCACHE_JOBS: expected a non-negative integer, got 'abc'"
              RCACHE_JOBS=abc)

# Well-formed values still run.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env RCACHE_INSTS=20000 RCACHE_JOBS=0
          ${BENCH}
  RESULT_VARIABLE rc
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(SEND_ERROR "well-formed knobs rejected (exit ${rc}): ${err}")
endif()
