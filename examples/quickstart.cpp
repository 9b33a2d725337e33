// Quickstart: simulate an incast micro-burst on a 100 Gbps fat-tree,
// let Hawkeye detect the victim flow's degradation, trace the PFC
// causality in-band, and print the provenance graph plus the diagnosis.
//
//   $ ./quickstart [seed]
//
// This is the smallest end-to-end tour of the public API: eval::Run runs
// the stages eval::run_one scores — craft the scenario, build the fabric,
// simulate, merge the victim's episodes, diagnose.
#include <cstdio>
#include <cstdlib>

#include "diagnosis/contention_cause.hpp"
#include "eval/runner.hpp"

using namespace hawkeye;

int main(int argc, char** argv) {
  // 1. Craft an incast-burst anomaly trace on a (k=4) fat-tree and build
  //    the simulated fabric with the Hawkeye stack installed, plus the
  //    default 10% background load.
  eval::RunConfig cfg;
  cfg.scenario = diagnosis::AnomalyType::kMicroBurstIncast;
  cfg.seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;
  eval::Run run(cfg);
  const workload::ScenarioSpec& spec = run.spec();
  std::printf("scenario: %s, victim flow %s, anomaly at %.0f us\n",
              spec.name.c_str(), spec.victim.to_string().c_str(),
              static_cast<double>(spec.anomaly_start) / 1000.0);

  // 2. Run the trace.
  run.simulate();
  const eval::Testbed& tb = run.testbed();
  std::printf("simulated %llu events, %llu data drops\n",
              static_cast<unsigned long long>(tb.simu.executed_events()),
              static_cast<unsigned long long>(tb.net.data_drops()));

  // 3. Merge the victim's diagnosis episodes.
  const std::optional<collect::Episode> ep = run.victim_episode();
  if (!ep) {
    std::printf("no episode triggered for the victim — try another seed\n");
    return 1;
  }
  std::printf("episode: %zu switches collected, %lld telemetry bytes, "
              "%llu polling packets\n",
              ep->reports.size(),
              static_cast<long long>(ep->telemetry_bytes),
              static_cast<unsigned long long>(ep->polling_packets));

  // 4. Provenance graph (Algorithm 1) + signature diagnosis (Algorithm 2),
  //    then the fine-grained cause of the contention at the initial port.
  const eval::Run::Diagnosis d = run.diagnose(*ep);
  const diagnosis::DiagnosisResult& dx = d.dx;
  std::printf("%s\n", d.graph.to_string().c_str());
  std::printf("victim %s: %s\n  %s\n", spec.victim.to_string().c_str(),
              std::string(to_string(dx.type)).c_str(), dx.narrative.c_str());
  std::printf("  initial congestion: %s\n",
              net::to_string(dx.initial_port).c_str());
  for (const auto& f : dx.root_cause_flows) {
    std::printf("  root-cause flow %s\n", f.to_string().c_str());
  }
  const diagnosis::ContentionCauseReport cause =
      diagnosis::analyze_contention_cause(d.graph, tb.ft.topo, tb.routing, dx);
  if (cause.cause != diagnosis::ContentionCause::kUnknown) {
    std::printf("  contention cause: %s (%s)\n",
                std::string(to_string(cause.cause)).c_str(),
                cause.narrative.c_str());
  }
  for (const auto& f : dx.spreading_flows) {
    std::printf("  spreading flow %s\n", f.to_string().c_str());
  }
  std::printf("ground truth: %s with %zu burst flows\n",
              std::string(to_string(spec.truth.type)).c_str(),
              spec.truth.root_cause_flows.size());
  return dx.type == spec.truth.type ? 0 : 1;
}
