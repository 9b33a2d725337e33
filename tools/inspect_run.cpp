#include <cstdio>
#include <cstdlib>
#include "eval/runner.hpp"
#include "parse_int.hpp"
#include "sim/logger.hpp"
using namespace hawkeye;

int main(int argc, char** argv) {
  const long max_scenario =
      (long)diagnosis::AnomalyType::kOversubscribedDownlink;
  const long max_workload = (long)workload::FleetWorkload::kAllToAll;
  int scenario = 1, fleet_workload = 0;
  if ((argc > 1 && !parse_int(argv[1], 0, max_scenario, scenario)) ||
      (argc > 6 && !parse_int(argv[6], 0, max_workload, fleet_workload))) {
    std::fprintf(stderr,
                 "usage: inspect_run [scenario 0-%ld] [seed] [epoch_shift] "
                 "[threshold] [bg_load] [fleet_workload 0-%ld] [severity] "
                 "[k]\n",
                 max_scenario, max_workload);
    return 2;
  }
  eval::RunConfig cfg;
  cfg.scenario = (diagnosis::AnomalyType)scenario;
  cfg.seed = argc > 2 ? strtoull(argv[2], nullptr, 10) : 1;
  if (argc > 3) cfg.epoch_shift = atoi(argv[3]);
  if (argc > 4) cfg.threshold_factor = atof(argv[4]);
  if (argc > 5) cfg.background_load = atof(argv[5]);
  cfg.fleet_workload = (workload::FleetWorkload)fleet_workload;
  if (argc > 7) cfg.fleet_severity = atof(argv[7]);
  if (argc > 8) cfg.fat_tree_k = atoi(argv[8]);
  cfg.verbose = true;
  sim::Logger::level() = sim::LogLevel::kDebug;
  auto r = eval::run_one(cfg);
  std::printf("%s: trig=%d dx=%s tp=%d fp=%d fn=%d sw=%zu cov=%.2f\n",
    r.scenario_name.c_str(), r.triggered, std::string(to_string(r.dx.type)).c_str(),
    r.tp, r.fp, r.fn, r.collected_switches, r.causal_coverage);
  std::printf("init=%s peer=%d\nroots:\n", net::to_string(r.dx.initial_port).c_str(), r.dx.injecting_peer);
  for (auto& f : r.dx.root_cause_flows) std::printf("  %s\n", f.to_string().c_str());
  std::printf("collected:");
  for (auto n : r.collected) std::printf(" %d", n);
  std::printf("\nconf=%.2f crc=%llu retx=%llu ratelim=%llu drain=%llu\n",
    r.confidence, (unsigned long long)r.crc_drops,
    (unsigned long long)r.retransmissions,
    (unsigned long long)r.rate_limited_pkts,
    (unsigned long long)r.host_drain_delayed);
  for (auto& l : r.fleet_evidence.links)
    std::printf("link %d<->%d crc=%llu nom=%.0f act=%.0f slow=%llu oversub=%d\n",
      l.node_a, l.node_b, (unsigned long long)l.crc_errors, l.nominal_gbps,
      l.actual_gbps, (unsigned long long)l.slow_serializations, l.oversub_tier);
  for (auto& h : r.fleet_evidence.hosts)
    std::printf("host %d drain_delayed=%llu backlog=%lld\n", h.host,
      (unsigned long long)h.drain_delayed_pkts, (long long)h.max_drain_backlog_ns);
  if (!r.dx.narrative.empty()) std::printf("narrative: %s\n", r.dx.narrative.c_str());
  return 0;
}
