// Quickstart: simulate an incast micro-burst on a 100 Gbps fat-tree,
// let Hawkeye detect the victim flow's degradation, trace the PFC
// causality in-band, and print the provenance graph plus the diagnosis.
//
//   $ ./quickstart [seed]
//
// This is the smallest end-to-end tour of the public API:
//   workload::make_scenario -> eval::Testbed -> provenance -> diagnosis.
#include <cstdio>
#include <cstdlib>

#include "diagnosis/analyzer.hpp"
#include "eval/testbed.hpp"
#include "workload/scenario.hpp"

using namespace hawkeye;

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;

  // 1. Craft an incast-burst anomaly trace on a (k=4) fat-tree.
  sim::Rng rng(seed);
  workload::ScenarioSpec spec;
  {
    const net::FatTree probe = net::build_fat_tree(4);
    const net::Routing probe_routing(probe.topo);
    spec = workload::make_scenario(diagnosis::AnomalyType::kMicroBurstIncast,
                                   probe, probe_routing, rng);
  }
  std::printf("scenario: %s, victim flow %s, anomaly at %.0f us\n",
              spec.name.c_str(), spec.victim.to_string().c_str(),
              static_cast<double>(spec.anomaly_start) / 1000.0);

  // 2. Wire up the simulated fabric with the Hawkeye stack installed.
  eval::Testbed tb;
  tb.install(spec);
  for (const auto& f :
       workload::background_flows(tb.ft, rng, 0.1, sim::us(5), sim::ms(2))) {
    tb.add_flow(f);
  }

  // 3. Run the trace.
  tb.run_for(spec.duration);
  std::printf("simulated %llu events, %llu data drops\n",
              static_cast<unsigned long long>(tb.simu.executed_events()),
              static_cast<unsigned long long>(tb.net.data_drops()));

  // 4. Grab the victim's diagnosis episode.
  const collect::Episode* ep = nullptr;
  for (const std::uint64_t id : tb.collector.episode_order()) {
    const collect::Episode* cand = tb.collector.episode(id);
    if (cand != nullptr && cand->victim == spec.victim) {
      ep = cand;
      break;
    }
  }
  if (ep == nullptr) {
    std::printf("no episode triggered for the victim — try another seed\n");
    return 1;
  }
  std::printf("episode: %zu switches collected, %lld telemetry bytes, "
              "%llu polling packets\n",
              ep->reports.size(),
              static_cast<long long>(ep->telemetry_bytes),
              static_cast<unsigned long long>(ep->polling_packets));

  // 5. One-call analysis: provenance graph + signature diagnosis +
  //    contention-cause classification + (for deadlocks) CBD fixes.
  const diagnosis::Analyzer analyzer(tb.ft.topo, tb.routing);
  const diagnosis::AnalysisReport rep = analyzer.analyze(*ep);
  std::printf("%s\n", rep.graph.to_string().c_str());
  std::printf("%s", rep.summary.c_str());
  std::printf("ground truth: %s with %zu burst flows\n",
              std::string(to_string(spec.truth.type)).c_str(),
              spec.truth.root_cause_flows.size());
  return rep.dx.type == spec.truth.type ? 0 : 1;
}
