// Extension experiment (paper §1/§2.1): "even with fine-grained congestion
// control, PFC cannot be fully eliminated and still occurs frequently."
// The same incast trace is replayed under no end-to-end CC, DCQCN and a
// TIMELY-style RTT-gradient CC; the PFC PAUSE frames generated and the
// victim's degradation quantify how much (and how little) CC helps.
#include "bench_common.hpp"
#include "eval/testbed.hpp"
#include "workload/scenario.hpp"

using namespace hawkeye;
using namespace hawkeye::bench;

namespace {

struct CcResult {
  std::uint64_t pause_frames = 0;
  double victim_max_over_min_rtt = 0;
  double avg_burst_fct_us = 0;
};

CcResult run_case(device::CcAlgorithm algo, std::uint64_t seed) {
  eval::RunConfig cfg;
  cfg.scenario = diagnosis::AnomalyType::kMicroBurstIncast;
  cfg.seed = seed;
  sim::Rng rng(cfg.seed);
  const workload::ScenarioSpec spec = eval::craft_scenario(cfg, rng);
  // A plain fabric without the Hawkeye stack, so it is built here rather
  // than through eval::Run.
  eval::Testbed::Options opts;
  opts.install_hawkeye = false;
  opts.cc_algo = algo;
  eval::Testbed tb(opts);
  tb.install(spec);
  tb.run_for(spec.duration);

  CcResult r;
  for (const net::NodeId sw : tb.ft.topo.switches()) {
    r.pause_frames += tb.switch_at(sw).pause_frames_sent();
  }
  int bursts = 0;
  for (const net::NodeId h : tb.ft.hosts) {
    for (const auto& st : tb.host(h).flow_stats()) {
      if (st.tuple == spec.victim && st.min_rtt > 0) {
        r.victim_max_over_min_rtt =
            static_cast<double>(st.max_rtt) / static_cast<double>(st.min_rtt);
      }
      for (const auto& rc : spec.truth.root_cause_flows) {
        if (st.tuple == rc && st.complete()) {
          r.avg_burst_fct_us += static_cast<double>(st.fct()) / 1e3;
          ++bursts;
        }
      }
    }
  }
  if (bursts > 0) r.avg_burst_fct_us /= bursts;
  return r;
}

}  // namespace

int main() {
  print_header("Extension", "congestion control vs PFC (incast trace)");
  std::printf("%-10s %-14s %-20s %-16s\n", "CC", "PAUSE frames",
              "victim max/min RTT", "burst FCT (us)");
  struct Row {
    const char* name;
    device::CcAlgorithm algo;
  };
  const Row rows[] = {{"none", device::CcAlgorithm::kNone},
                      {"dcqcn", device::CcAlgorithm::kDcqcn},
                      {"timely", device::CcAlgorithm::kTimely}};
  const int n = seeds_per_point(3);
  for (const Row& row : rows) {
    double pauses = 0, ratio = 0, fct = 0;
    for (int s = 1; s <= n; ++s) {
      const CcResult r = run_case(row.algo, static_cast<std::uint64_t>(s));
      pauses += static_cast<double>(r.pause_frames);
      ratio += r.victim_max_over_min_rtt;
      fct += r.avg_burst_fct_us;
    }
    std::printf("%-10s %-14.1f %-20.1f %-16.1f\n", row.name, pauses / n,
                ratio / n, fct / n);
  }
  std::printf("\nExpected: CC reduces PAUSE frames and victim impact but\n"
              "never eliminates them — the crafted bursts start at line\n"
              "rate faster than any feedback loop can react.\n");
  return 0;
}
