# Checks a TuningService::MetricsSnapshotJson() file for the fleet gauges
# that only the snapshot's refresh step writes.
#
# Usage: cmake -DSNAPSHOT=<metrics.json> -P check_metrics_snapshot.cmake
if(NOT EXISTS "${SNAPSHOT}")
  message(FATAL_ERROR "metrics snapshot ${SNAPSHOT} does not exist")
endif()
file(READ "${SNAPSHOT}" snapshot)
foreach(gauge IN ITEMS service.shared_cache.hits trace.spans)
  string(FIND "${snapshot}" "\"name\":\"${gauge}\"" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "metrics snapshot ${SNAPSHOT} lacks the ${gauge} gauge")
  endif()
endforeach()
message(STATUS "metrics snapshot ${SNAPSHOT} carries the fleet gauges")
