// Extension experiment (paper §3.5.2, called orthogonal there): classify
// the *cause* of flow contention at the diagnosed initial port — incast
// fan-in vs ECMP hash imbalance vs a dominating elephant flow — using the
// contributing flows' endpoints and the ECMP-group traffic ratio computed
// from the collected telemetry.
#include "bench_common.hpp"
#include "diagnosis/contention_cause.hpp"

using namespace hawkeye;
using namespace hawkeye::bench;

namespace {

eval::RunConfig case_config(diagnosis::AnomalyType type, std::uint64_t seed) {
  eval::RunConfig cfg;
  cfg.scenario = type;
  cfg.seed = seed;
  cfg.background_load = 0;
  return cfg;
}

void run_case(const char* label, std::uint64_t seed, eval::Run& run) {
  run.simulate();
  const std::optional<collect::Episode> ep = run.victim_episode();
  if (!ep) {
    std::printf("%-18s seed=%llu  (no episode)\n", label,
                static_cast<unsigned long long>(seed));
    return;
  }
  const eval::Run::Diagnosis d = run.diagnose(*ep);
  const eval::Testbed& tb = run.testbed();
  const auto cause = diagnosis::analyze_contention_cause(
      d.graph, tb.ft.topo, tb.routing, d.dx);
  std::printf("%-18s seed=%llu  type=%-22s cause=%-14s imbalance=%.2f srcs=%d\n",
              label, static_cast<unsigned long long>(seed),
              std::string(to_string(d.dx.type)).c_str(),
              std::string(to_string(cause.cause)).c_str(),
              cause.ecmp_imbalance_ratio, cause.distinct_sources);
}

}  // namespace

int main() {
  print_header("Extension", "contention-cause classification");
  std::printf("%-18s %-8s %-28s %-20s\n", "scenario", "", "", "");
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    eval::Run run(case_config(diagnosis::AnomalyType::kMicroBurstIncast, seed));
    run_case("incast", seed, run);
  }
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    sim::Rng rng(seed);
    const net::FatTree ft = net::build_fat_tree(4);
    const net::Routing routing(ft.topo);
    eval::Run run(case_config(diagnosis::AnomalyType::kNormalContention, seed),
                  workload::make_ecmp_imbalance(ft, routing, rng));
    run_case("ecmp-imbalance", seed, run);
  }
  std::printf("\nExpected: incast traces classify as 'incast' (fan-in of\n"
              "distinct sources); skew traces classify as 'ecmp-imbalance'\n"
              "with a hot-uplink ratio well above 1.\n");
  return 0;
}
