# Fails when a metric-family literal ("morph_..." or "echo_...") appears in
# a source file under SRC_DIR. Families are declared once, in the catalog
# (src/obs/catalog.hpp, which spells none: it stringizes its identifiers),
# and every registration names them as obs::Metric enumerators.
#
#   cmake -DSRC_DIR=src -P tests/check_metric_literals.cmake
file(GLOB_RECURSE sources "${SRC_DIR}/*.hpp" "${SRC_DIR}/*.cpp")
set(found "")
foreach(source ${sources})
  file(STRINGS "${source}" hits REGEX "\"(morph|echo)_[a-z0-9_]+")
  foreach(hit ${hits})
    string(APPEND found "${source}: ${hit}\n")
  endforeach()
endforeach()
if(found)
  message(FATAL_ERROR "metric family literals outside the catalog:\n${found}")
endif()
list(LENGTH sources n)
message(STATUS "no metric family literal in ${n} sources")
