# Checks a TuningService::MetricsSnapshotJson() file for one entry in each of
# its three sections: the service.trials counter, the fleet gauges read from
# the shared caches and the trace sink, and the job.turnaround_seconds
# histogram.
#
# Usage: cmake -DSNAPSHOT=<metrics.json> -P check_metrics_snapshot.cmake
if(NOT EXISTS "${SNAPSHOT}")
  message(FATAL_ERROR "metrics snapshot ${SNAPSHOT} does not exist")
endif()
file(READ "${SNAPSHOT}" snapshot)
string(FIND "${snapshot}" "\"counters\":[" counters_at)
string(FIND "${snapshot}" "\"gauges\":[" gauges_at)
string(FIND "${snapshot}" "\"histograms\":[" histograms_at)
if(counters_at EQUAL -1 OR gauges_at EQUAL -1 OR histograms_at EQUAL -1
   OR NOT counters_at LESS gauges_at OR NOT gauges_at LESS histograms_at)
  message(FATAL_ERROR "metrics snapshot ${SNAPSHOT} lacks the counters/gauges/histograms sections")
endif()
math(EXPR counters_len "${gauges_at} - ${counters_at}")
math(EXPR gauges_len "${histograms_at} - ${gauges_at}")
string(SUBSTRING "${snapshot}" ${counters_at} ${counters_len} section_counters)
string(SUBSTRING "${snapshot}" ${gauges_at} ${gauges_len} section_gauges)
string(SUBSTRING "${snapshot}" ${histograms_at} -1 section_histograms)
foreach(entry IN ITEMS
    counters:service.trials
    gauges:service.shared_cache.hits
    gauges:trace.spans
    histograms:job.turnaround_seconds)
  string(REPLACE ":" ";" parts "${entry}")
  list(GET parts 0 section)
  list(GET parts 1 name)
  string(FIND "${section_${section}}" "{\"name\":\"${name}\"" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "metrics snapshot ${SNAPSHOT} lacks ${name} in its ${section}")
  endif()
endforeach()
message(STATUS "metrics snapshot ${SNAPSHOT} carries a counter, the fleet gauges and a histogram")
