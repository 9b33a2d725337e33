// Deadlock hunt: a routing misconfiguration creates a cyclic buffer
// dependency (CBD) inside one fat-tree pod; a micro-burst then locks the
// cycle into a PFC deadlock. Hawkeye's polling packets chase the PFC
// causality around the loop, and the provenance analysis names the CBD,
// the deadlock type (initiator in/out of loop) and the initiating flow —
// the §2.1/Figure 1(c) scenario end-to-end.
//
//   $ ./deadlock_hunt [seed]
// A second pass repeats the hunt over a hostile telemetry substrate (15%
// of polling packets vanish at every switch) to show the self-healing
// pipeline: re-polls close the coverage gap and the verdict carries an
// explicit confidence score.
#include <cstdio>
#include <cstdlib>

#include "eval/runner.hpp"
#include "fault/fault.hpp"

using namespace hawkeye;

int main(int argc, char** argv) {
  eval::RunConfig cfg;
  cfg.scenario = diagnosis::AnomalyType::kInLoopDeadlock;
  cfg.seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1;
  cfg.background_load = 0;
  eval::Run run(cfg);
  const workload::ScenarioSpec& spec = run.spec();

  std::printf("crafted routing misconfiguration (%zu overrides):\n",
              spec.overrides.size());
  for (const auto& ov : spec.overrides) {
    std::printf("  SW%d: traffic to H%d forced out port %d\n", ov.sw, ov.dst,
                ov.port);
  }
  std::printf("latent CBD:");
  for (const auto& p : spec.truth.loop_ports) {
    std::printf(" %s", net::to_string(p).c_str());
  }
  std::printf("\nburst initiator fires at %.0f us\n\n",
              static_cast<double>(spec.anomaly_start) / 1e3);

  run.simulate();
  eval::Testbed& tb = run.testbed();

  // The loop flows freeze: show their stalled state.
  std::printf("flow progress at end of trace:\n");
  for (const net::NodeId h : tb.ft.hosts) {
    for (const auto& st : tb.host(h).flow_stats()) {
      if (st.complete()) continue;
      std::printf("  %-24s sent=%-6u acked=%-6u STALLED (last ack %.0f us)\n",
                  st.tuple.to_string().c_str(), st.pkts_sent, st.pkts_acked,
                  static_cast<double>(st.last_ack) / 1e3);
    }
  }

  // Diagnose the victim's merged episode.
  const std::optional<collect::Episode> ep = run.victim_episode();
  if (!ep) {
    std::printf("\nno diagnosis episode; try another seed\n");
    return 1;
  }
  const diagnosis::DiagnosisResult dx = run.diagnose(*ep).dx;
  std::printf("\ndiagnosis: %s\n", std::string(to_string(dx.type)).c_str());
  if (!dx.loop_ports.empty()) {
    std::printf("  detected CBD:");
    for (const auto& p : dx.loop_ports) {
      std::printf(" %s", net::to_string(p).c_str());
    }
    std::printf("\n  -> check routing configuration on these switches\n");
  }
  std::printf("  initial congestion: %s\n",
              net::to_string(dx.initial_port).c_str());
  for (const auto& f : dx.root_cause_flows) {
    std::printf("  initiating flow: %s\n", f.to_string().c_str());
  }
  std::printf("\nexpected: %s initiated by %s\n",
              std::string(to_string(spec.truth.type)).c_str(),
              spec.truth.root_cause_flows.empty()
                  ? "?"
                  : spec.truth.root_cause_flows[0].to_string().c_str());

  // ---- Second pass: same hunt, hostile substrate ----
  std::printf("\n=== re-running with 15%% polling-packet loss injected ===\n");
  cfg.faults = fault::FaultPlan::uniform_poll_loss(0.15, cfg.seed);
  eval::Run faulty(cfg);
  faulty.simulate();
  std::printf("fault injector: %llu polls dropped\n",
              static_cast<unsigned long long>(
                  faulty.testbed().faults->polls_dropped()));
  const std::optional<collect::Episode> fep = faulty.victim_episode();
  if (!fep) {
    std::printf("no episode survived the faults for this seed\n");
  } else {
    const diagnosis::DiagnosisResult fdx = faulty.diagnose(*fep).dx;
    std::printf(
        "self-healed verdict: %s (coverage %.0f%%, %u re-polls, "
        "confidence %.2f%s)\n",
        std::string(to_string(fdx.type)).c_str(), fep->coverage() * 100,
        fep->repolls, fdx.confidence, fep->degraded ? ", DEGRADED" : "");
  }
  return dx.type == spec.truth.type ? 0 : 1;
}
