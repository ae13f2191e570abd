# Strict argv parsing of the example programs, run as a ctest script
# against one example binary:
#
#   cmake -DEXAMPLE=<example_NAME binary> -DNAME=<NAME>
#         -P example_args_strict.cmake
#
# examples/example_args.hh reads every numeric argument strictly: a
# malformed value (a suffix, letters, a sign, a zero count) must exit
# 2 with a one-line "<NAME>: ..." diagnostic naming the argument,
# never run with a silently misread value. Each probe fails while
# parsing, before any simulation.

foreach(var EXAMPLE NAME)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "example_args_strict.cmake needs -D${var}=...")
  endif()
endforeach()

# check_rejects(<expected diagnostic> <args...>)
function(check_rejects expect)
  execute_process(
    COMMAND ${EXAMPLE} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(SEND_ERROR "expected exit 2 with '${ARGN}', got ${rc}")
  endif()
  if(NOT err STREQUAL "${NAME}: ${expect}\n")
    message(SEND_ERROR
            "expected the one-line diagnostic '${NAME}: ${expect}' "
            "with '${ARGN}' — stderr was: ${err}")
  endif()
endfunction()

if(NAME STREQUAL "quickstart")
  check_rejects("instructions: expected a positive integer, got '20k'"
                ammp 20k)
  check_rejects("instructions: expected a positive integer, got '0'"
                ammp 0)
elseif(NAME STREQUAL "resizing_explorer")
  check_rejects("instructions: expected a positive integer, got 'abc'"
                compress hybrid d 4 abc 2)
  check_rejects("jobs: expected a non-negative integer, got '-1'"
                compress hybrid d 4 20000 -1)
  check_rejects("side: expected d or i, got 'x'" compress hybrid x)
  check_rejects("unknown organization 'way' (expected ways|sets|hybrid)"
                compress way)
  check_rejects(
    "assoc: invalid 32K geometry (assoc 3 does not divide size)"
    compress hybrid d 3)
elseif(NAME STREQUAL "dynamic_adaptation")
  check_rejects("missBound%: expected a non-negative number, got 'abc'"
                su2cor abc)
  check_rejects("instructions: expected a positive integer, got '1e5'"
                su2cor 2.5 1e5)
elseif(NAME STREQUAL "energy_breakdown")
  check_rejects("core: expected inorder or ooo, got '20000'" 20000)
  check_rejects("instructions: expected a positive integer, got '20k'"
                inorder 20k)
else()
  message(FATAL_ERROR "no malformed-argument probes for '${NAME}'")
endif()
