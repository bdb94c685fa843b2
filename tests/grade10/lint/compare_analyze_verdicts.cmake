# Runs g10_analyze in four modes (strict, --lenient, --no-preflight,
# --no-preflight --lenient) over every trace-*.log fixture in this directory
# against trace-model.g10, and over trace-sample-gap.log against every
# model-*.g10 fixture. Compares the exit codes with the pinned
# expected/analyze-verdicts.txt, one line per fixture: "<fixture> <strict>
# <lenient> <no-preflight> <no-preflight lenient>".
#
#   cmake -DG10_ANALYZE=<path to g10_analyze> -P compare_analyze_verdicts.cmake
set(dir ${CMAKE_CURRENT_LIST_DIR})
file(GLOB fixtures RELATIVE ${dir} ${dir}/trace-*.log ${dir}/model-*.g10)
set(actual "")
foreach(fixture IN LISTS fixtures)
  string(REGEX REPLACE "\\.(log|g10)$" "" name ${fixture})
  if(fixture MATCHES "\\.log$")
    set(inputs --model trace-model.g10 --log ${fixture})
  else()
    set(inputs --model ${fixture} --log trace-sample-gap.log)
  endif()
  set(line ${name})
  # Flags per mode, comma-separated; "-" is the strict default.
  foreach(mode - --lenient --no-preflight --no-preflight,--lenient)
    string(REPLACE "," ";" flags ${mode})
    list(REMOVE_ITEM flags -)
    execute_process(
      COMMAND ${G10_ANALYZE} ${inputs} ${flags}
      WORKING_DIRECTORY ${dir}
      OUTPUT_QUIET ERROR_QUIET
      RESULT_VARIABLE status)
    string(APPEND line " ${status}")
  endforeach()
  string(APPEND actual "${line}\n")
endforeach()
file(READ ${dir}/expected/analyze-verdicts.txt expected)
if(NOT actual STREQUAL expected)
  message(SEND_ERROR "g10_analyze verdicts differ from the pinned matrix\n"
                     "--- expected\n${expected}--- actual\n${actual}")
endif()
