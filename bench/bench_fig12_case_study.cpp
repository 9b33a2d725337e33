// Figure 12: case-study provenance graphs for the four typical anomalies
// of §2.1 — (a) PFC backpressure by incast micro-bursts, (b) PFC storm,
// (c) initiator-in-loop deadlock, (d) initiator-out-of-loop deadlock.
// Prints each crafted trace's heterogeneous wait-for graph and diagnosis.
// Exits 1 when any case's verdict type differs from its crafted truth.
#include "bench_common.hpp"
#include "eval/runner.hpp"

using namespace hawkeye;
using namespace hawkeye::bench;

namespace {

/// True when the verdict type matches the crafted truth.
bool case_study(char label, diagnosis::AnomalyType type, std::uint64_t seed) {
  eval::RunConfig cfg;
  cfg.scenario = type;
  cfg.seed = seed;
  cfg.background_load = 0;
  eval::Run run(cfg);
  run.simulate();
  const workload::ScenarioSpec& spec = run.spec();
  std::printf("\n(%c) %s — victim %s\n", label, spec.name.c_str(),
              spec.victim.to_string().c_str());
  const std::optional<collect::Episode> ep = run.victim_episode();
  if (!ep) {
    std::printf("  (no episode triggered; try another seed)\n");
    return false;
  }
  const eval::Run::Diagnosis d = run.diagnose(*ep);
  const diagnosis::DiagnosisResult& dx = d.dx;
  std::printf("%s", d.graph.to_string().c_str());
  std::printf("  diagnosis: %s\n", std::string(to_string(dx.type)).c_str());
  std::printf("    %s\n", dx.narrative.c_str());
  if (!dx.loop_ports.empty()) {
    std::printf("    CBD loop:");
    for (const auto& p : dx.loop_ports) {
      std::printf(" %s", net::to_string(p).c_str());
    }
    std::printf("\n");
  }
  for (const auto& f : dx.root_cause_flows) {
    std::printf("    root-cause flow: %s\n", f.to_string().c_str());
  }
  if (dx.injecting_peer != net::kInvalidNode) {
    std::printf("    PFC injected by host H%d\n", dx.injecting_peer);
  }
  for (const auto& f : dx.spreading_flows) {
    std::printf("    spreading flow (paused at 2+ hops): %s\n",
                f.to_string().c_str());
  }
  std::printf("    expected: %s\n",
              std::string(to_string(spec.truth.type)).c_str());
  return dx.type == spec.truth.type;
}

}  // namespace

int main() {
  print_header("Figure 12", "provenance graphs for the typical anomalies");
  bool ok = case_study('a', diagnosis::AnomalyType::kMicroBurstIncast, 7);
  ok = case_study('b', diagnosis::AnomalyType::kPfcStorm, 1) && ok;
  ok = case_study('c', diagnosis::AnomalyType::kInLoopDeadlock, 1) && ok;
  ok = case_study('d', diagnosis::AnomalyType::kOutOfLoopDeadlockInjection,
                  2) && ok;
  if (!ok) {
    std::printf("\nFAIL: a case study's verdict differs from its truth\n");
    return 1;
  }
  return 0;
}
