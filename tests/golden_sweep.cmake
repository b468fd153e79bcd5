# Golden output gate: run one sweep spec through the real CLI at an odd
# thread count and demand its CSV and its --metrics-out JSON match the
# committed goldens in tests/data/golden/ exactly.  Every metric in the
# snapshot is deterministic (work counts, never wall time), and the CSV
# carries no timing column, so any difference is an output change.
#
# Goldens per spec NAME (the spec file's basename):
#   NAME.metrics.json        the metrics snapshot, verbatim
#   NAME.csv                 the CSV, verbatim, when it is at most 25 KB
#   NAME.csv.sha256          otherwise: its `cmake -E sha256sum` line ...
#   NAME.csv.head            ... and its first 20 lines, for reading diffs
#
# Invoked by ctest (label `golden`) as
#
#   cmake -DMSTCTL=<mstctl> -DSPEC=<spec> -DGOLDEN_DIR=<dir> -DWORKDIR=<dir>
#         -P tests/golden_sweep.cmake
#
# Regenerate every golden from a build in build/ (only for a reviewed
# output change; record old -> new and the reason in CHANGES.md):
#
#   for spec in tests/data/specs/*.spec perfbench/specs/solve-large-star.spec; do
#     cmake -DMSTCTL=build/mstctl -DSPEC=$spec -DGOLDEN_DIR=tests/data/golden \
#           -DWORKDIR=build/golden_update -DUPDATE=ON -P tests/golden_sweep.cmake
#   done

foreach(var MSTCTL SPEC GOLDEN_DIR WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_sweep.cmake needs -D${var}=...")
  endif()
endforeach()

set(kVerbatimLimit 25600)
set(kHeadLines 20)

get_filename_component(name ${SPEC} NAME_WE)
set(csv ${WORKDIR}/${name}.csv)
set(metrics ${WORKDIR}/${name}.metrics.json)
file(MAKE_DIRECTORY ${WORKDIR})
file(REMOVE ${csv} ${metrics})

execute_process(COMMAND ${MSTCTL} --mode=sweep --spec=${SPEC} --threads=3 --out=csv
                        --out-file=${csv} --metrics-out=${metrics}
                RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "mstctl sweep of ${SPEC} failed with status ${status}")
endif()

# The first `kHeadLines` lines of `file`, newlines included.
function(read_head file out)
  file(READ ${file} content)
  set(offset 0)
  foreach(i RANGE 1 ${kHeadLines})
    string(SUBSTRING "${content}" ${offset} -1 rest)
    string(FIND "${rest}" "\n" newline)
    if(newline EQUAL -1)
      string(LENGTH "${content}" offset)
      break()
    endif()
    math(EXPR offset "${offset} + ${newline} + 1")
  endforeach()
  string(SUBSTRING "${content}" 0 ${offset} head)
  set(${out} "${head}" PARENT_SCOPE)
endfunction()

file(SIZE ${csv} csv_size)
file(SHA256 ${csv} csv_hash)
read_head(${csv} csv_head)

if(UPDATE)
  file(REMOVE ${GOLDEN_DIR}/${name}.csv ${GOLDEN_DIR}/${name}.csv.sha256
       ${GOLDEN_DIR}/${name}.csv.head)
  configure_file(${metrics} ${GOLDEN_DIR}/${name}.metrics.json COPYONLY)
  if(csv_size LESS_EQUAL kVerbatimLimit)
    configure_file(${csv} ${GOLDEN_DIR}/${name}.csv COPYONLY)
  else()
    file(WRITE ${GOLDEN_DIR}/${name}.csv.sha256 "${csv_hash}  ${name}.csv\n")
    file(WRITE ${GOLDEN_DIR}/${name}.csv.head "${csv_head}")
  endif()
  message(STATUS "updated the ${name} goldens")
  return()
endif()

set(failures "")
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${metrics}
                        ${GOLDEN_DIR}/${name}.metrics.json
                RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  list(APPEND failures "metrics JSON differs (${metrics} vs ${GOLDEN_DIR}/${name}.metrics.json)")
endif()

if(EXISTS ${GOLDEN_DIR}/${name}.csv)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${csv} ${GOLDEN_DIR}/${name}.csv
                  RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    list(APPEND failures "CSV differs (${csv} vs ${GOLDEN_DIR}/${name}.csv)")
  endif()
elseif(EXISTS ${GOLDEN_DIR}/${name}.csv.sha256)
  file(READ ${GOLDEN_DIR}/${name}.csv.sha256 golden_line)
  string(REGEX MATCH "^[0-9a-f]+" golden_hash "${golden_line}")
  file(READ ${GOLDEN_DIR}/${name}.csv.head golden_head)
  if(NOT csv_head STREQUAL golden_head)
    list(APPEND failures "CSV head differs (${csv} vs ${GOLDEN_DIR}/${name}.csv.head)")
  endif()
  if(NOT csv_hash STREQUAL golden_hash)
    list(APPEND failures "CSV SHA-256 ${csv_hash} differs from the golden ${golden_hash} (${csv})")
  endif()
else()
  list(APPEND failures "no CSV golden for ${name} in ${GOLDEN_DIR}")
endif()

if(failures)
  string(REPLACE ";" "\n  " report "${failures}")
  message(FATAL_ERROR "golden mismatch for ${SPEC}:\n  ${report}")
endif()
message(STATUS "${name}: CSV and metrics match the goldens")
