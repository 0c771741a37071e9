# Runs a program and compares its standard output with a checked-in file,
# byte for byte:
#
#   cmake -DPROGRAM=path/to/dna_cli "-DARGS=whatif;--gen=ring:8;--json" \
#         -DEXPECTED=tests/golden/x.json -DACTUAL=build/x.json \
#         -P tests/golden/compare.cmake
get_filename_component(program ${PROGRAM} NAME)
string(REPLACE ";" " " command "${program} ${ARGS}")
string(STRIP "${command}" command)
execute_process(COMMAND ${PROGRAM} ${ARGS}
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
