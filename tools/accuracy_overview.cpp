// Validation sweep: one line per (anomaly, seed) with the diagnosis
// verdict and scoring — the quick health check used during development.
//   $ ./accuracy_overview [seeds-per-type]
#include <climits>
#include <cstdio>
#include "eval/runner.hpp"
#include "parse_int.hpp"
using namespace hawkeye;
int main(int argc, char** argv) {
  int seeds = 3;
  if (argc > 2 || (argc == 2 && !parse_int(argv[1], 1, INT_MAX, seeds))) {
    std::fprintf(stderr, "usage: accuracy_overview [seeds-per-type >= 1]\n");
    return 2;
  }
  for (auto t : diagnosis::kTable2Anomalies) {
    for (std::uint64_t seed = 1; seed <= (std::uint64_t)seeds; ++seed) {
      eval::RunConfig cfg;
      cfg.scenario = t;
      cfg.seed = seed;
      auto r = eval::run_one(cfg);
      std::printf("%-30s seed=%llu trig=%d dx=%-28s tp=%d fp=%d fn=%d sw=%zu cov=%.2f\n",
        r.scenario_name.c_str(), (unsigned long long)seed, r.triggered,
        std::string(to_string(r.dx.type)).c_str(), r.tp, r.fp, r.fn,
        r.collected_switches, r.causal_coverage);
      if (r.fp) {
        std::printf("   reported:");
        for (auto& f : r.dx.root_cause_flows) std::printf(" %s", f.to_string().c_str());
        std::printf("  peer=%d\n", r.dx.injecting_peer);
      }
    }
  }
  return 0;
}
