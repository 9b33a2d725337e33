# Runs bench_scalability's two k=4 cells in a scratch directory that already
# holds a BENCH_hotpath.json, then checks that the bench wrote its table to
# its own BENCH_scalability.json and left the other file byte for byte.
#
#   cmake -DBENCH=<bench_scalability> -DDIR=<scratch dir> -P check_scalability_json.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
set(sentinel "{\n  \"context\": {\"num_cpus\": 4},\n  \"benchmarks\": []\n}\n")
file(WRITE "${DIR}/BENCH_hotpath.json" "${sentinel}")
set(ENV{HAWKEYE_BENCH_SEEDS} 1)
execute_process(
  COMMAND "${BENCH}" --k 4
  WORKING_DIRECTORY "${DIR}"
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_scalability exited with ${rc}")
endif()
file(READ "${DIR}/BENCH_hotpath.json" after)
if(NOT after STREQUAL sentinel)
  message(FATAL_ERROR "BENCH_hotpath.json was rewritten: ${after}")
endif()
if(NOT EXISTS "${DIR}/BENCH_scalability.json")
  message(FATAL_ERROR "no BENCH_scalability.json in ${DIR}")
endif()
file(READ "${DIR}/BENCH_scalability.json" body)
string(JSON cpus GET "${body}" host_cpus)
string(JSON cells LENGTH "${body}" cells)
if(NOT cells EQUAL 2)
  message(FATAL_ERROR "expected the 2 k=4 cells, got ${cells}: ${body}")
endif()
message(STATUS "BENCH_scalability.json holds ${cells} cells (${cpus} CPUs)")
