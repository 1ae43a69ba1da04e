# Runs one paper driver at --jobs=1 and compares its stdout byte for
# byte with the committed output in tests/golden/.
#
#   cmake -DDRIVER=<binary> -DGOLDEN=<tests/golden/x.txt> -DOUT=<file>
#         -P tests/compare_golden.cmake
#
# A speed-only change leaves tests/golden/ alone; a change that moves
# an output on purpose updates the file in the same change.
execute_process(COMMAND ${DRIVER} --jobs=1
                OUTPUT_FILE ${OUT}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${DRIVER} --jobs=1 exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
    message(FATAL_ERROR "${OUT} differs from ${GOLDEN}: "
                        "diff -u ${GOLDEN} ${OUT}")
endif()
