#!/usr/bin/env bash
# Sanitizer pass, run by CI's sanitize job.
#
#   scripts/sanitize.sh [asan|tsan|all]
#
# asan: ASan+UBSan build, runs the simulator-core and device tests (the
#       allocation-free event calendar and packet-slab paths, every
#       switch/host/packet suite: PFC, lossless incast sweep, DCQCN,
#       TIMELY, go-back-N loss recovery), the routing and topology tests
#       (the flat routing table's offset arithmetic), the telemetry engine
#       tests (the flow tables' occupied-slot index), the provenance
#       builder tests,
#       the fault-plan validation tests, the run-stage API tests and the
#       case-file parser (round trips plus the corpus mutation fuzz; the
#       slow corpus replay is left to the plain ctest job). UBSan halts on
#       its first report, so any undefined behaviour fails the job.
# tsan: TSan build. Every run executes on one event calendar on one
#       thread; the only threads are eval::run_sweep's workers, each
#       running whole runs. TSan runs the sweep-runner tests plus the suites
#       that drive run_sweep or share an object across its workers: the
#       fault-injection suite (link flaps / PFC frame loss exercise the
#       injector from every sweep worker thread), the reconvergence /
#       fault-attribution suites (routing withdrawal callbacks fire inside
#       sweep workers), the calibration suite and the misdiagnosis-hunter
#       campaign (HuntCampaignTest: batched trial evaluation through
#       multi-threaded run_sweep). The golden-trace suite is deliberately
#       NOT run under TSan: it replays single deterministic simulations
#       with no cross-thread surface, and the plain ctest job already
#       covers it.
#
# Each flavour builds into its own tree (build-asan/, build-tsan/) so the
# default build/ stays sanitizer-free.
set -euo pipefail
cd "$(dirname "$0")/.."

flavour="${1:-all}"

run_asan() {
  cmake -B build-asan -S . -DHAWKEYE_SANITIZE=address \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-asan -j "$(nproc)" \
        --target hawkeye_tests hawkeye_hunt_corpus_test
  (cd build-asan && UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
        ctest --output-on-failure -j "$(nproc)" \
        -R 'SimulatorTest|InlineActionTest|CalendarTest|Switch|Host|Device|Network|PacketTest|RoutingTest|TopologyTest|LosslessSweep|DcqcnTest|TimelyTest|CcAlgorithmTest|LossRecoveryTest|TelemetryEngineTest|BuilderTest|FleetRunTest|FleetSignatureTest|ScenarioIoTest|HuntClassifyTest|FaultPlanTest|RunStageTest|HuntCorpusTest\.MutatedCases')
}

run_tsan() {
  cmake -B build-tsan -S . -DHAWKEYE_SANITIZE=thread \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
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
