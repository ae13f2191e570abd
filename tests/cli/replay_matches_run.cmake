# replay and `run --app trace:` read trace files through the same
# streaming reader, so on a native fixture they must simulate
# identically. Run as a ctest against the real binary:
#
#   cmake -DRCACHE_SIM=<rcache-sim> -DDATA_DIR=<tests/data>
#         -P replay_matches_run.cmake
#
# Only the first report line (the workload name) may differ.

foreach(var RCACHE_SIM DATA_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "replay_matches_run.cmake needs -D${var}=...")
  endif()
endforeach()

# Run rcache-sim, require exit 0, return stdout minus its first line.
function(report_body outvar)
  execute_process(COMMAND ${RCACHE_SIM} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "expected exit 0 from: rcache-sim ${ARGN} — stderr: ${err}")
  endif()
  string(FIND "${out}" "\n" eol)
  if(eol LESS 0)
    message(FATAL_ERROR "one-line report from: rcache-sim ${ARGN}")
  endif()
  math(EXPR body_start "${eol} + 1")
  string(SUBSTRING "${out}" ${body_start} -1 body)
  set(${outvar} "${body}" PARENT_SCOPE)
endfunction()

foreach(fixture mini.trace skewed_scan.trace)
  set(trace ${DATA_DIR}/${fixture})
  foreach(point "--insts;20000"
                "--insts;30000;--policy;slru;--dl1-org;sets;--dl1-strategy;dynamic"
                "--insts;25000;--il1-org;ways;--il1-strategy;static;--il1-level;1")
    report_body(replayed replay --trace ${trace} ${point})
    report_body(ran run --app trace:${trace} ${point})
    if(NOT replayed STREQUAL ran)
      message(FATAL_ERROR
              "replay and run disagree on ${fixture} (${point}):\n"
              "replay:\n${replayed}\nrun:\n${ran}")
    endif()
  endforeach()
endforeach()
