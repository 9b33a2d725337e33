# Runs one cheap bench_micro_hotpath row into a JSON file that already holds
# a "scalability" key, then checks that the merged file keeps it beside
# google-benchmark's "context" and "benchmarks".
#
#   cmake -DBENCH=<bench_micro_hotpath> -DJSON=<scratch file> -P check_hotpath_keys.cmake
file(WRITE "${JSON}" "{\n  \"scalability\": {\"cells\": [4, 8]}\n}\n")
set(ENV{HAWKEYE_BENCH_JSON} "${JSON}")
execute_process(
  COMMAND "${BENCH}" "--benchmark_filter=^BM_FiveTupleHash$"
          --benchmark_min_time=0.01
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_micro_hotpath exited with ${rc}")
endif()
if(EXISTS "${JSON}.gbench.tmp")
  message(FATAL_ERROR "the temporary google-benchmark file was left behind")
endif()
file(READ "${JSON}" body)
string(JSON cell GET "${body}" scalability cells 1)
if(NOT cell EQUAL 8)
  message(FATAL_ERROR "scalability key changed: ${body}")
endif()
string(JSON row GET "${body}" benchmarks 0 name)
if(NOT row STREQUAL "BM_FiveTupleHash")
  message(FATAL_ERROR "benchmarks key missing the row: ${body}")
endif()
string(JSON cpus GET "${body}" context num_cpus)
message(STATUS "scalability, context (${cpus} CPUs) and benchmarks present")
