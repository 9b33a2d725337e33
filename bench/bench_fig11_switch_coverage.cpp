// Figure 11: number of switches collected per diagnosis and coverage of
// the causally-relevant switch set, per anomaly, for Hawkeye vs full
// polling vs victim-only.
//
// Expected shape (paper §4.3): full polling always collects 20 switches
// (coverage 1.0 by construction); Hawkeye collects far fewer with ~100%
// causal coverage; victim-only collects the least but its coverage drops
// on deadlocks (the CBD spans switches off the victim path).
#include "bench_common.hpp"

using namespace hawkeye;
using namespace hawkeye::bench;

int main() {
  print_header("Figure 11", "collected-switch count & causal coverage");
  const int n = seeds_per_point();
  const eval::Method methods[] = {eval::Method::kHawkeye,
                                  eval::Method::kFullPolling,
                                  eval::Method::kVictimOnly};

  for (const auto type : diagnosis::kTable2Anomalies) {
    std::printf("\n--- %s ---\n", std::string(to_string(type)).c_str());
    std::printf("%-14s %-18s %-16s\n", "method", "switches collected",
                "causal coverage");
    for (const auto m : methods) {
      eval::RunConfig cfg;
      cfg.scenario = type;
      cfg.method = m;
      const PointStats st = run_point(cfg, n);
      std::printf("%-14s %-18.1f %-16.2f\n",
                  std::string(to_string(m)).c_str(),
                  st.avg(st.collected_switches), st.avg(st.causal_coverage));
    }
  }
  return 0;
}
