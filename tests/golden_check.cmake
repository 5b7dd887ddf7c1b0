# Determinism golden: run a bench binary under pinned workload
# parameters and require its --json output and/or its stdout report to
# be byte-identical to committed references. Guards the hot-path
# engine's bit-identity contract (docs/PERFORMANCE.md) against drift
# from any PR. Usage:
#   cmake -DCMD="<binary> <args...>" -DOUT=<file>
#         [-DGOLDEN=<json file>] [-DSTDOUT_GOLDEN=<text file>]
#         -P golden_check.cmake
# At least one of GOLDEN and STDOUT_GOLDEN is required; the JSON is
# always written to OUT (so the --json path runs either way) and the
# report to OUT.txt.
if(NOT DEFINED CMD OR NOT DEFINED OUT OR
   (NOT DEFINED GOLDEN AND NOT DEFINED STDOUT_GOLDEN))
    message(FATAL_ERROR "golden_check.cmake needs -DCMD, -DOUT and "
                        "-DGOLDEN and/or -DSTDOUT_GOLDEN")
endif()

# The same parameters the references in tests/golden/ were captured
# with (see that directory's README.md for the regeneration recipe).
set(ENV{GRIT_FOOTPRINT_DIVISOR} 128)
set(ENV{GRIT_INTENSITY} 0.2)

# Optional extra NAME=VALUE environment settings (CMake list), used by
# the *_streamed variants to prove a small trace chunk size produces
# byte-identical JSON.
if(DEFINED EXTRA_ENV)
    foreach(kv IN LISTS EXTRA_ENV)
        string(FIND "${kv}" "=" eq)
        string(SUBSTRING "${kv}" 0 ${eq} k)
        math(EXPR after "${eq} + 1")
        string(SUBSTRING "${kv}" ${after} -1 v)
        set(ENV{${k}} "${v}")
    endforeach()
endif()

separate_arguments(cmd_list UNIX_COMMAND "${CMD}")
execute_process(COMMAND ${cmd_list} --json ${OUT}
                RESULT_VARIABLE code
                OUTPUT_FILE ${OUT}.txt
                ERROR_VARIABLE err)
if(NOT code EQUAL 0)
    message(FATAL_ERROR "exit ${code} from: ${CMD}\nstderr:\n${err}")
endif()

function(require_same produced golden what)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            ${produced} ${golden}
                    RESULT_VARIABLE same)
    if(NOT same EQUAL 0)
        message(FATAL_ERROR
                "${what} drifted from the golden reference.\n"
                "  produced: ${produced}\n  golden:   ${golden}\n"
                "If the change is intentional, regenerate per "
                "tests/golden/README.md and explain the drift in the PR.")
    endif()
endfunction()

if(DEFINED GOLDEN)
    require_same(${OUT} ${GOLDEN} "JSON output")
endif()
if(DEFINED STDOUT_GOLDEN)
    require_same(${OUT}.txt ${STDOUT_GOLDEN} "The stdout report")
endif()
