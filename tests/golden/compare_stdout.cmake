# Runs EXE and compares its stdout, byte for byte, with the GOLDEN file;
# stderr (log lines) is ignored.  On a mismatch the actual output is left
# next to the run as <golden name>.actual.
#
#   cmake -DEXE=<binary> -DGOLDEN=<file> -P compare_stdout.cmake
execute_process(COMMAND "${EXE}" OUTPUT_VARIABLE actual ERROR_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${rc}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  get_filename_component(name "${GOLDEN}" NAME)
  file(WRITE "${name}.actual" "${actual}")
  message(FATAL_ERROR "stdout of ${EXE} differs from ${GOLDEN}; "
                      "actual output written to ${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
endif()
