# Runs dna_cli and compares its standard output with a checked-in report,
# byte for byte:
#
#   cmake -DCLI=path/to/dna_cli "-DARGS=whatif;--gen=ring:8;--json" \
#         -DEXPECTED=tests/golden/x.json -DACTUAL=build/x.json \
#         -P tests/golden/compare.cmake
string(REPLACE ";" " " command "dna_cli ${ARGS}")
execute_process(COMMAND ${CLI} ${ARGS}
                OUTPUT_FILE ${ACTUAL}
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${command} exited with ${status}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${ACTUAL} ${EXPECTED}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${command} wrote ${ACTUAL}, which differs from "
                      "${EXPECTED}")
endif()
