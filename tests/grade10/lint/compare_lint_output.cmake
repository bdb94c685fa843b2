# Runs g10_lint over every trace-*.log fixture in this directory (against
# trace-model.g10) and over every model-*.g10 fixture (--model alone), as
# text and as --json, and compares its stdout byte for byte with the pinned
# expected/<fixture>.txt and expected/<fixture>.json. Finding order is part
# of the pinned output.
#
#   cmake -DG10_LINT=<path to g10_lint> -P compare_lint_output.cmake
set(dir ${CMAKE_CURRENT_LIST_DIR})
file(GLOB fixtures RELATIVE ${dir} ${dir}/trace-*.log ${dir}/model-*.g10)
foreach(fixture IN LISTS fixtures)
  string(REGEX REPLACE "\\.(log|g10)$" "" name ${fixture})
  if(fixture MATCHES "\\.log$")
    set(inputs --model trace-model.g10 --log ${fixture})
  else()
    set(inputs --model ${fixture})
  endif()
  foreach(format txt json)
    set(flags "")
    if(format STREQUAL "json")
      set(flags --json)
    endif()
    execute_process(
      COMMAND ${G10_LINT} ${inputs} ${flags}
      WORKING_DIRECTORY ${dir}
      OUTPUT_VARIABLE actual
      RESULT_VARIABLE status)
    if(NOT status MATCHES "^[01]$")
      message(SEND_ERROR "${fixture} (${format}): g10_lint exited ${status}")
    endif()
    set(expected_file ${dir}/expected/${name}.${format})
    if(NOT EXISTS ${expected_file})
      message(SEND_ERROR "${fixture}: no pinned output ${expected_file}")
      continue()
    endif()
    file(READ ${expected_file} expected)
    if(NOT actual STREQUAL expected)
      message(SEND_ERROR "${fixture} (${format}) differs from its pinned output\n"
                         "--- expected\n${expected}--- actual\n${actual}")
    endif()
  endforeach()
endforeach()
