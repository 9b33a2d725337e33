// Inspect one run end to end: the crafted scenario, the PAUSE frames each
// port sent, every flow's progress, the episodes the detection agents
// opened, the victim's merged episode and provenance graph, and the scored
// result run_one reports (the poll-by-poll trace goes to stderr).
//
//   inspect_run [scenario 0-10] [seed] [epoch_shift] [threshold] [bg_load]
//               [fleet_workload 0-2] [severity] [k]
//
// Every argument must parse whole, and the config must be one a run can
// take (the case-file range rules); otherwise it prints the usage line and
// exits 2.
#include <cstdio>
#include <map>
#include "eval/runner.hpp"
#include "eval/scenario_io.hpp"
#include "parse_int.hpp"
#include "sim/logger.hpp"
using namespace hawkeye;

int main(int argc, char** argv) {
  const long max_scenario =
      (long)diagnosis::AnomalyType::kOversubscribedDownlink;
  const long max_workload = (long)workload::FleetWorkload::kAllToAll;
  eval::RunConfig cfg;
  int scenario = 1, fleet_workload = 0;
  const bool parsed =
      argc <= 9 &&
      (argc <= 1 || parse_int(argv[1], 0, max_scenario, scenario)) &&
      (argc <= 2 || parse_number(argv[2], cfg.seed)) &&
      (argc <= 3 || parse_number(argv[3], cfg.epoch_shift)) &&
      (argc <= 4 || parse_number(argv[4], cfg.threshold_factor)) &&
      (argc <= 5 || parse_number(argv[5], cfg.background_load)) &&
      (argc <= 6 || parse_int(argv[6], 0, max_workload, fleet_workload)) &&
      (argc <= 7 || parse_number(argv[7], cfg.fleet_severity)) &&
      (argc <= 8 || parse_number(argv[8], cfg.fat_tree_k));
  cfg.scenario = (diagnosis::AnomalyType)scenario;
  cfg.fleet_workload = (workload::FleetWorkload)fleet_workload;
  const std::string err = parsed ? eval::config_error(cfg) : "";
  if (!parsed || !err.empty()) {
    if (!err.empty()) std::fprintf(stderr, "inspect_run: bad %s\n", err.c_str());
    std::fprintf(stderr,
                 "usage: inspect_run [scenario 0-%ld] [seed] [epoch_shift] "
                 "[threshold] [bg_load] [fleet_workload 0-%ld] [severity] "
                 "[k]\n",
                 max_scenario, max_workload);
    return 2;
  }
  sim::Logger::level() = sim::LogLevel::kDebug;
  eval::Run run(cfg);
  const workload::ScenarioSpec& spec = run.spec();
  std::printf("scenario %s anomaly@%.0fus victim=%s\n", spec.name.c_str(),
              spec.anomaly_start/1e3, spec.victim.to_string().c_str());
  for (auto& f : spec.flows)
    std::printf("  flow %d->%d sp=%u bytes=%lld start=%.0fus cap=%.0fG cc=%d\n",
      f.src, f.dst, f.src_port, (long long)f.bytes, f.start/1e3, f.rate_cap_gbps, f.cc_enabled);
  for (auto& o : spec.overrides) std::printf("  override sw%d dst%d -> p%d\n", o.sw, o.dst, o.port);
  for (auto& p : spec.truth.loop_ports) std::printf("  loop port %s\n", net::to_string(p).c_str());

  run.simulate();
  eval::Testbed& tb = run.testbed();
  std::map<std::pair<int,int>, int> pauses;
  for (auto& ev : tb.net.pfc_trace()) if (ev.quanta>0) pauses[{ev.node, ev.port}]++;
  for (auto& [k,c] : pauses) std::printf("  PAUSE by node%d port%d x%d\n", k.first, k.second, c);
  for (auto h : tb.ft.hosts) for (auto& st : tb.host(h).flow_stats())
    std::printf("  flow %s sent=%u acked=%u fin=%d last_ack=%.0fus\n",
      st.tuple.to_string().c_str(), st.pkts_sent, st.pkts_acked, (int)st.complete(), st.last_ack/1e3);
  for (auto id : tb.collector.episode_order()) {
    auto* ep = tb.collector.episode(id);
    std::printf("  episode victim=%s at %.0fus switches=%zu\n",
      ep->victim.to_string().c_str(), ep->triggered_at/1e3, ep->reports.size());
  }
  if (const auto ep = run.victim_episode()) {
    std::printf("merged victim episode at %.0fus switches=%zu\n",
      ep->triggered_at/1e3, ep->reports.size());
    for (auto& [sw, rep] : ep->reports) {
      std::printf("  report sw%d at %.0fus status:", sw, rep.collected_at/1e3);
      for (auto& ps : rep.port_status)
        std::printf(" P%d%s(q=%lld)", ps.port, ps.paused_now?"*":"", (long long)ps.queue_pkts);
      std::printf("\n");
    }
    std::printf("%s", run.diagnose(*ep).graph.to_string().c_str());
  }

  const eval::RunResult r = run.result();
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
