// Storm monitor: multi-tenant "diagnosis as a service". Two unrelated
// anomalies hit the fabric in sequence — a malfunctioning NIC injects a
// PFC storm, and later an incast burst hits another pod. The always-on
// detection agents open episodes per complaining tenant flow; the
// analyzer diagnoses each victim's episodes on their own (§3.4: "HAWKEYE
// can easily support multiple NPAs concurrently").
//
// A second pass replays both incidents over a faulty substrate (polling
// loss + switch-CPU DMA failures) to show the per-victim health report
// an operator would see from the self-healing pipeline: each victim's
// re-triggered episodes merge into one view, as eval::run_one merges them.
//
//   $ ./storm_monitor
#include <algorithm>
#include <cstdio>
#include <vector>

#include "eval/runner.hpp"
#include "fault/fault.hpp"

using namespace hawkeye;

namespace {

/// Both tenants' traffic plus the two staged incidents.
workload::ScenarioSpec incidents() {
  const std::vector<net::NodeId> h = net::build_fat_tree(4).hosts;
  workload::ScenarioSpec spec;
  spec.name = "storm-monitor";
  spec.duration = sim::ms(3);
  // Tenant A: storage traffic into host 2 (pod 0).
  spec.flows.push_back(
      {h[13], h[2], 100, 4791, 40'000'000, sim::us(10), true, 40.0});
  // Tenant B: training traffic into host 10 (pod 2).
  spec.flows.push_back(
      {h[5], h[10], 200, 4791, 40'000'000, sim::us(10), true, 15.0});
  spec.victim = device::tuple_of(spec.flows[0]);

  // Incident 1 (t=400us): host 2's NIC malfunctions and floods PAUSE
  // frames for 600 us — tenant A's flow stalls behind the storm.
  spec.injections.push_back(
      {h[2], sim::us(400), sim::us(1000), sim::us(50), 65535});
  spec.anomaly_start = sim::us(400);

  // Incident 2 (t=1600us): a 4-to-1 incast micro-burst slams host 10's
  // ToR port — tenant B suffers classic PFC backpressure.
  for (int i = 0; i < 4; ++i) {
    spec.flows.push_back({h[static_cast<std::size_t>(12 + i)], h[10],
                          static_cast<std::uint16_t>(2000 + i), 4791, 600'000,
                          sim::us(1600) + i * sim::us(1), false, 0});
  }
  return spec;
}

/// Every complaining victim's episodes, merged, in first-trigger order.
std::vector<collect::Episode> victim_episodes(eval::Run& run) {
  collect::Collector& collector = run.testbed().collector;
  std::vector<collect::Episode> out;
  for (const auto id : collector.episode_order()) {
    const net::FiveTuple victim = collector.episode(id)->victim;
    if (std::none_of(out.begin(), out.end(), [&](const collect::Episode& ep) {
          return ep.victim == victim;
        })) {
      out.push_back(*collector.merged_episode(victim, 0));
    }
  }
  return out;
}

}  // namespace

int main() {
  eval::RunConfig cfg;
  cfg.background_load = 0;
  eval::Run run(cfg, incidents());
  run.simulate();

  std::printf("episodes opened by the detection agents:\n");
  for (const collect::Episode& ep : victim_episodes(run)) {
    const diagnosis::DiagnosisResult dx = run.diagnose(ep).dx;
    std::printf("\n[%7.0f us] victim %s (%zu switches collected)\n",
                static_cast<double>(ep.triggered_at) / 1e3,
                ep.victim.to_string().c_str(), ep.reports.size());
    std::printf("  verdict: %s\n", std::string(to_string(dx.type)).c_str());
    std::printf("  %s\n", dx.narrative.c_str());
    if (dx.injecting_peer != net::kInvalidNode) {
      std::printf("  -> ticket to host team: H%d is injecting PFC\n",
                  dx.injecting_peer);
    }
    for (const auto& f : dx.root_cause_flows) {
      std::printf("  -> contributing flow %s\n", f.to_string().c_str());
    }
  }
  std::printf("\nexpected: tenant A's complaint -> pfc-storm at H2;\n"
              "          tenant B's complaint -> micro-burst incast.\n");

  // ---- Second pass: the same incidents on a faulty substrate ----
  std::printf("\n=== replay with 10%% polling loss + 20%% DMA failures ===\n");
  workload::ScenarioSpec faulty_spec = incidents();
  fault::FaultPlan plan = fault::FaultPlan::uniform_poll_loss(0.10, 7);
  fault::DmaFaultSpec dma;
  dma.fail_prob = 0.20;
  plan.dma_faults.push_back(dma);
  faulty_spec.faults = plan;
  eval::Run faulty(cfg, faulty_spec);
  faulty.simulate();

  const fault::FaultInjector& fi = *faulty.testbed().faults;
  std::printf("injected: %llu polls dropped, %llu DMA reads failed\n",
              static_cast<unsigned long long>(fi.polls_dropped()),
              static_cast<unsigned long long>(fi.dma_failed()));
  for (const collect::Episode& ep : victim_episodes(faulty)) {
    const diagnosis::DiagnosisResult dx = faulty.diagnose(ep).dx;
    std::printf(
        "victim %s: %s (coverage %.0f%%, %u re-polls, %u failed DMAs, "
        "confidence %.2f%s)\n",
        ep.victim.to_string().c_str(), std::string(to_string(dx.type)).c_str(),
        ep.coverage() * 100, ep.repolls, ep.failed_collections, dx.confidence,
        ep.degraded ? ", DEGRADED" : "");
  }
  return 0;
}
