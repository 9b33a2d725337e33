// Micro-benchmarks of the hot paths: the per-packet telemetry update (the
// software twin of the Tofino egress pipeline), ECMP lookup, the event
// loop, and the per-diagnosis cost of Run::diagnose (provenance build +
// signature matching). Not a paper figure; used to keep the simulator fast
// enough for the trace sweeps. google-benchmark's own flags record the rows:
// `--benchmark_out=BENCH_hotpath.json --benchmark_out_format=json` writes
// the committed file, so the perf trajectory is tracked across changes.
#include <benchmark/benchmark.h>

#include <optional>

#include "eval/runner.hpp"
#include "net/routing.hpp"
#include "sim/simulator.hpp"
#include "telemetry/engine.hpp"

using namespace hawkeye;

namespace {

/// The schedule+dispatch workload: `n` self-rescheduling timers with the
/// capture footprint of the real packet-arrival closure (four words —
/// pointer, pointer, slot, port), hopping the delay mix the fabric
/// actually schedules: 80–1103 ns serialization + propagation hops (MTU at
/// 100 Gbps ≈ 123 ns; per-link delay 1000 ns) with ~1.6% of events arming
/// a 3 ms retransmit-timeout-like far delay. `timers` is the pending-event
/// population. Sampled every 1 µs, the runs hold 300–700 pending events on
/// average and at most 1.9 k at k=4, at most 5.9 k at k=8 and 33.5 k at
/// k=16: the 1000 row is paper scale, 20000 lies between the k=8 and k=16
/// peaks, and 100000 is beyond any run. Each timer fires `hops` times.
std::uint64_t pump_events(sim::Simulator& simu, int timers, int hops) {
  std::uint64_t fired = 0;
  struct Timer {
    sim::Simulator* simu;
    std::uint64_t* fired;
    std::uint32_t state;
    std::int32_t left;
    void operator()() {
      ++*fired;
      if (--left <= 0) return;
      state = state * 1664525u + 1013904223u;  // LCG: deterministic delays
      sim::Time delay = 80 + (state >> 22);    // 80 .. 1103 ns hop
      if ((state & 63u) == 0) delay = 3'000'000;  // RTO-like far event
      simu->schedule(delay, *this);
    }
  };
  for (int i = 0; i < timers; ++i) {
    simu.schedule(i, Timer{&simu, &fired,
                           static_cast<std::uint32_t>(i) * 2654435761u, hops});
  }
  simu.run();
  return fired;
}

void BM_ScheduleDispatchCalendar(benchmark::State& state) {
  const int timers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator simu;
    benchmark::DoNotOptimize(pump_events(simu, timers, 64));
  }
  state.SetItemsProcessed(state.iterations() * timers * 64);
}
BENCHMARK(BM_ScheduleDispatchCalendar)->Arg(1000)->Arg(20000)->Arg(100000);

net::FiveTuple tup(std::uint32_t s, std::uint32_t d, std::uint16_t sp) {
  net::FiveTuple t;
  t.src_ip = s;
  t.dst_ip = d;
  t.src_port = sp;
  t.dst_port = 4791;
  return t;
}

void BM_FiveTupleHash(benchmark::State& state) {
  const net::FiveTuple t = tup(12, 13, 777);
  for (auto _ : state) benchmark::DoNotOptimize(t.hash());
}
BENCHMARK(BM_FiveTupleHash);

void BM_TelemetryEnqueue(benchmark::State& state) {
  telemetry::TelemetryConfig cfg;
  telemetry::TelemetryEngine eng(1, 64, cfg);
  const net::Packet pkt = net::make_data_packet(tup(1, 2, 3), 1, 0, 1000,
                                                false, 0);
  sim::Time now = 0;
  for (auto _ : state) {
    eng.on_enqueue(pkt, 2, 7, 5, false, now);
    now += 80;
  }
}
BENCHMARK(BM_TelemetryEnqueue);

void BM_TelemetrySnapshot(benchmark::State& state) {
  telemetry::TelemetryConfig cfg;
  telemetry::TelemetryEngine eng(1, 64, cfg);
  sim::Rng rng(1);
  for (int i = 0; i < 5000; ++i) {
    const auto pkt = net::make_data_packet(
        tup(static_cast<std::uint32_t>(rng.uniform_int(1, 16)), 2,
            static_cast<std::uint16_t>(rng.uniform_int(1, 200))),
        1, 0, 1000, false, 0);
    eng.on_enqueue(pkt, 2, 7, 5, false, i * 100);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.snapshot(500'000));
  }
}
BENCHMARK(BM_TelemetrySnapshot);

void BM_EcmpLookup(benchmark::State& state) {
  const net::FatTree ft = net::build_fat_tree(4);
  const net::Routing routing(ft.topo);
  const net::FiveTuple t = tup(net::Topology::ip_of(ft.hosts[0]),
                               net::Topology::ip_of(ft.hosts[15]), 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing.egress_port(ft.edges[0], t));
  }
}
BENCHMARK(BM_EcmpLookup);

void BM_SimulatorEventLoop(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simu;
    int count = 0;
    for (int i = 0; i < 1000; ++i) {
      simu.schedule(i, [&count] { ++count; });
    }
    simu.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorEventLoop);

/// One full diagnosis episode: simulate an incast trace once, then measure
/// Run::diagnose (graph construction + signature matching) in isolation.
void BM_AnalyzerProvenanceAndDiagnosis(benchmark::State& state) {
  eval::RunConfig cfg;
  cfg.scenario = diagnosis::AnomalyType::kMicroBurstIncast;
  cfg.seed = 7;
  cfg.background_load = 0;
  eval::Run run(cfg);
  run.simulate();
  const std::optional<collect::Episode> ep = run.victim_episode();
  if (!ep) {
    state.SkipWithError("no episode triggered");
    return;
  }
  for (auto _ : state) benchmark::DoNotOptimize(run.diagnose(*ep));
}
BENCHMARK(BM_AnalyzerProvenanceAndDiagnosis)->Unit(benchmark::kMicrosecond);

void BM_EndToEndIncastTrace(benchmark::State& state) {
  for (auto _ : state) {
    eval::RunConfig cfg;
    cfg.scenario = diagnosis::AnomalyType::kMicroBurstIncast;
    cfg.seed = 7;
    benchmark::DoNotOptimize(eval::run_one(cfg));
  }
  state.SetLabel("full 2ms fat-tree trace + diagnosis");
}
BENCHMARK(BM_EndToEndIncastTrace)->Unit(benchmark::kMillisecond)
    ->Iterations(3);

}  // namespace

BENCHMARK_MAIN();
