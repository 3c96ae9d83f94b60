# check_slices.cmake — asserts that the per-file ctest slices partition
# the test binary: every test it lists is selected by exactly one slice
# filter.  Run by the `dpbyz_tests` ctest entry:
#
#   cmake -DTEST_BINARY=<dpbyz_tests> -DSLICES=<file, one filter per line>
#         -P tests/check_slices.cmake

# Full test names ("Suite.Test", "Prefix/Suite.Test/0") selected by the
# gtest filter `filter`, stored in `out`.
function(list_tests filter out)
  execute_process(COMMAND ${TEST_BINARY} --gtest_list_tests "--gtest_filter=${filter}"
                  OUTPUT_VARIABLE listing RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${TEST_BINARY} --gtest_list_tests failed (${rc})")
  endif()
  string(REPLACE ";" "," listing "${listing}")
  string(REPLACE "\n" ";" lines "${listing}")
  set(names "")
  set(suite "")
  foreach(line ${lines})
    string(REGEX REPLACE "  #.*$" "" line "${line}")
    if(line MATCHES "^  (.+)$")
      list(APPEND names "${suite}${CMAKE_MATCH_1}")
    elseif(NOT line STREQUAL "")
      set(suite "${line}")
    endif()
  endforeach()
  set(${out} "${names}" PARENT_SCOPE)
endfunction()

list_tests("*" all)
file(STRINGS ${SLICES} filters)
set(sliced "")
foreach(filter ${filters})
  list_tests("${filter}" names)
  list(APPEND sliced ${names})
endforeach()

set(missing ${all})
if(sliced)
  list(REMOVE_ITEM missing ${sliced})
endif()
set(unique ${sliced})
list(REMOVE_DUPLICATES unique)
list(LENGTH all n_all)
list(LENGTH sliced n_sliced)
list(LENGTH unique n_unique)
if(missing OR NOT n_sliced EQUAL n_unique OR NOT n_unique EQUAL n_all)
  message(FATAL_ERROR "ctest slices do not partition the suite: ${n_all} tests, "
                      "${n_sliced} selected (${n_unique} distinct); "
                      "in no slice: ${missing}")
endif()
message(STATUS "${n_all} tests, each in exactly one ctest slice")
