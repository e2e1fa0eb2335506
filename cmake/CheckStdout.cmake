# Runs one program and compares its stdout with a golden file, byte for
# byte (script mode, registered as a ctest by bench/CMakeLists.txt):
#   cmake -DPROGRAM=<exe> -DGOLDEN=<file> -P cmake/CheckStdout.cmake
# On a mismatch the actual output is written to <name>.actual.txt in the
# working directory. To regenerate after an INTENTIONAL output change:
#   MEDCC_UPDATE_GOLDEN=1 ctest -R _stdout
execute_process(COMMAND "${PROGRAM}"
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${status}")
endif()

if(DEFINED ENV{MEDCC_UPDATE_GOLDEN})
  file(WRITE "${GOLDEN}" "${actual}")
  message(STATUS "golden regenerated at ${GOLDEN}")
  return()
endif()

if(NOT EXISTS "${GOLDEN}")
  message(FATAL_ERROR "missing golden file ${GOLDEN} "
                      "(run with MEDCC_UPDATE_GOLDEN=1 to create)")
endif()
file(READ "${GOLDEN}" expected)
if(NOT "${actual}" STREQUAL "${expected}")
  get_filename_component(name "${GOLDEN}" NAME_WE)
  file(WRITE "${name}.actual.txt" "${actual}")
  message(FATAL_ERROR "stdout of ${PROGRAM} differs from ${GOLDEN}; "
                      "actual output written to ${name}.actual.txt")
endif()
