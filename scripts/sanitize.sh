#!/usr/bin/env bash
# Sanitizer pass, run by CI's sanitize job.
#
#   scripts/sanitize.sh [asan|tsan|all]
#
# asan: ASan+UBSan build. Runs the whole unit binary (hawkeye_tests) but
#       RunMemoryTest.* (ASan's shadow memory alone exceeds its peak-RSS
#       bound), plus the case-file corpus mutation fuzz
#       (HuntCorpusTest.MutatedCases*; the slow corpus replay, the golden
#       records and the shard-identity suite are left to the plain ctest
#       job). Selection is by binary and exclusion, so a new suite runs
#       here without a list to edit. UBSan halts on its first report, so
#       any undefined behaviour fails the job.
# tsan: TSan build. Every run executes on one event calendar on one
#       thread; the only threads are eval::run_sweep's workers, each
#       running whole runs. Each worker's run owns its own fault injector,
#       network and collector, and none of them takes a lock, so TSan over
#       the fault suites (injector, flaps, PFC frame loss, self-healing,
#       reconvergence, fault attribution, fleet runs) is what shows that
#       no worker shares one. TSan also runs the sweep-runner tests, the
#       calibration suite and the misdiagnosis-hunter campaign
#       (HuntCampaignTest: trial evaluation through multi-threaded
#       run_sweep). The golden-trace suite is deliberately NOT run under
#       TSan: it replays single deterministic simulations with no
#       cross-thread surface, and the plain ctest job already covers it.
#
# Each flavour builds into its own tree (build-asan/, build-tsan/) so the
# default build/ stays sanitizer-free. Both compile with assertions on:
# RelWithDebInfo's default flags add -DNDEBUG, which would compile out the
# runtime asserts in src/ (the calendar's invariant, the packet flow-hash
# check, the wired-port check).
set -euo pipefail
cd "$(dirname "$0")/.."

flavour="${1:-all}"
asserts_on=(-DCMAKE_CXX_FLAGS_RELWITHDEBINFO='-O2 -g')

run_asan() {
  cmake -B build-asan -S . -DHAWKEYE_SANITIZE=address \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo "${asserts_on[@]}"
  cmake --build build-asan -j "$(nproc)" \
        --target hawkeye_tests hawkeye_hunt_corpus_test
  (cd build-asan/tests &&
     export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 &&
     ./hawkeye_tests --gtest_filter='-RunMemoryTest.*' &&
     ./hawkeye_hunt_corpus_test --gtest_filter='HuntCorpusTest.MutatedCases*')
}

run_tsan() {
  cmake -B build-tsan -S . -DHAWKEYE_SANITIZE=thread \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo "${asserts_on[@]}"
  cmake --build build-tsan -j "$(nproc)" \
        --target hawkeye_tests
  (cd build-tsan && ctest --output-on-failure -j "$(nproc)" \
        -R 'SweepTest|FaultPlanTest|FaultInjectorTest|FaultRunnerTest|LinkFlapTest|PfcFrameFaultTest|TargetedRepollTest|SelfHealingTest|ReconvergenceTest|FaultAttributionTest|ConfidenceCurveTest|FleetPlanTest|FleetRunTest|CalibrationTest|HuntCampaignTest')
}

case "$flavour" in
  asan) run_asan ;;
  tsan) run_tsan ;;
  all)  run_asan; run_tsan ;;
  *) echo "usage: $0 [asan|tsan|all]" >&2; exit 2 ;;
esac
