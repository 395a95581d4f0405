# Fails if any source file under src/ outside src/support/ reads the
# environment (getenv, EnvInt or EnvDouble). The library's behaviour is set
# by its options and constants; an environment variable read deep in a
# layer is a knob no option documents and no test sets.
#
# Usage: cmake -DSRC_DIR=<repo>/src -P check_env_reads.cmake
if(NOT IS_DIRECTORY "${SRC_DIR}")
  message(FATAL_ERROR "source directory ${SRC_DIR} does not exist")
endif()
file(GLOB_RECURSE sources "${SRC_DIR}/*.cc" "${SRC_DIR}/*.h")
set(offenders "")
foreach(source IN LISTS sources)
  file(RELATIVE_PATH relative "${SRC_DIR}" "${source}")
  if(relative MATCHES "^support/")
    continue()
  endif()
  file(READ "${source}" text)
  string(REGEX MATCH "[^A-Za-z0-9_](getenv|EnvInt|EnvDouble)[ \t]*\\(" call "${text}")
  if(call)
    string(REGEX REPLACE "^[^A-Za-z0-9_]" "" call "${call}")
    list(APPEND offenders "src/${relative}: ${call}")
  endif()
endforeach()
if(offenders)
  list(JOIN offenders "\n  " listing)
  message(FATAL_ERROR "environment read outside src/support/:\n  ${listing}")
endif()
message(STATUS "no file under src/ outside src/support/ reads the environment")
