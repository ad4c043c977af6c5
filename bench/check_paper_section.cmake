# Checks one section of a bench_paper --smoke report.
#
#   cmake -DREPORT=bench_paper_smoke.json -DSECTION=table3 -DCOUNT=8 \
#         -P check_paper_section.cmake
#
# Passes when REPORT is a "paper" report of a smoke run holding exactly
# COUNT metrics named SECTION.<cell>, each with a numeric value and a
# direction of "lower" or "higher". Fails (nonzero exit) otherwise.
foreach(var REPORT SECTION COUNT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_paper_section: -D${var}=... is required")
  endif()
endforeach()
if(NOT EXISTS "${REPORT}")
  message(FATAL_ERROR "${REPORT}: no such report")
endif()
file(READ "${REPORT}" doc)

string(JSON bench GET "${doc}" bench)
string(JSON smoke GET "${doc}" config smoke)
if(NOT bench STREQUAL "paper" OR NOT smoke EQUAL 1)
  message(FATAL_ERROR
    "${REPORT}: bench \"${bench}\", smoke ${smoke}; want paper, 1")
endif()

string(JSON n LENGTH "${doc}" metrics)
set(found 0)
if(n GREATER 0)
  math(EXPR last "${n} - 1")
  foreach(i RANGE ${last})
    string(JSON name MEMBER "${doc}" metrics ${i})
    if(NOT name MATCHES "^${SECTION}\\.")
      continue()
    endif()
    math(EXPR found "${found} + 1")
    string(JSON type TYPE "${doc}" metrics ${name} value)
    string(JSON dir GET "${doc}" metrics ${name} direction)
    if(NOT type STREQUAL "NUMBER")
      message(FATAL_ERROR "${name}: value is ${type}, not a number")
    endif()
    if(NOT dir STREQUAL "lower" AND NOT dir STREQUAL "higher")
      message(FATAL_ERROR "${name}: direction \"${dir}\"")
    endif()
  endforeach()
endif()

if(NOT found EQUAL COUNT)
  message(FATAL_ERROR
    "${REPORT}: ${found} ${SECTION}.* metrics, want ${COUNT}")
endif()
message(STATUS "${SECTION}: ${found} metrics recorded")
