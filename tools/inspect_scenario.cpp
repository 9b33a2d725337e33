#include <cstdio>
#include <map>
#include "eval/testbed.hpp"
#include "provenance/builder.hpp"
#include "diagnosis/diagnosis.hpp"
#include "workload/scenario.hpp"
#include "parse_int.hpp"
using namespace hawkeye;

int main(int argc, char** argv) {
  const long max_scenario =
      (long)diagnosis::AnomalyType::kOversubscribedDownlink;
  int type_i = 3;
  if (argc > 1 && !parse_int(argv[1], 0, max_scenario, type_i)) {
    std::fprintf(stderr,
                 "usage: inspect_scenario [scenario 0-%ld] [seed] [bg_load]\n",
                 max_scenario);
    return 2;
  }
  std::uint64_t seed = argc > 2 ? strtoull(argv[2], nullptr, 10) : 1;
  sim::Rng rng(seed);
  workload::ScenarioSpec spec;
  {
    const net::FatTree probe = net::build_fat_tree(4);
    const net::Routing pr(probe.topo);
    spec = workload::make_scenario((diagnosis::AnomalyType)type_i, probe, pr, rng);
  }
  std::printf("scenario %s anomaly@%.0fus victim=%s\n", spec.name.c_str(),
              spec.anomaly_start/1e3, spec.victim.to_string().c_str());
  for (auto& f : spec.flows)
    std::printf("  flow %d->%d sp=%u bytes=%lld start=%.0fus cap=%.0fG cc=%d\n",
      f.src, f.dst, f.src_port, (long long)f.bytes, f.start/1e3, f.rate_cap_gbps, f.cc_enabled);
  for (auto& o : spec.overrides) std::printf("  override sw%d dst%d -> p%d\n", o.sw, o.dst, o.port);
  for (auto& p : spec.truth.loop_ports) std::printf("  loop port %s\n", net::to_string(p).c_str());

  eval::Testbed::Options opts;
  if (spec.xoff_bytes) opts.switch_cfg.pfc_xoff_bytes = *spec.xoff_bytes;
  if (spec.xon_bytes) opts.switch_cfg.pfc_xon_bytes = *spec.xon_bytes;
  eval::Testbed tb(opts);
  tb.install(spec);
  double load = argc > 3 ? atof(argv[3]) : 0.0;
  sim::Rng brng(seed);
  for (auto& f : workload::background_flows(tb.ft, brng, load, sim::us(5), spec.duration - sim::us(100))) tb.add_flow(f);
  tb.run_for(spec.duration);

  // PFC trace summary
  std::map<std::pair<int,int>, int> pauses;
  for (auto& ev : tb.net.pfc_trace()) if (ev.quanta>0) pauses[{ev.node, ev.port}]++;
  for (auto& [k,c] : pauses) std::printf("  PAUSE by node%d port%d x%d\n", k.first, k.second, c);
  // flow progress
  for (auto h : tb.ft.hosts) for (auto& st : tb.host(h).flow_stats())
    std::printf("  flow %s sent=%u acked=%u fin=%d last_ack=%.0fus\n",
      st.tuple.to_string().c_str(), st.pkts_sent, st.pkts_acked, (int)st.complete(), st.last_ack/1e3);
  // episodes
  for (auto id : tb.collector.episode_order()) {
    auto* ep = tb.collector.episode(id);
    std::printf("  episode victim=%s at %.0fus switches=%zu\n",
      ep->victim.to_string().c_str(), ep->triggered_at/1e3, ep->reports.size());
    if (ep->victim == spec.victim) {
      for (auto& [sw, rep] : ep->reports) {
        std::printf("    report sw%d at %.0fus status:", sw, rep.collected_at/1e3);
        for (auto& ps : rep.port_status)
          std::printf(" P%d%s(q=%lld)", ps.port, ps.paused_now?"*":"", (long long)ps.queue_pkts);
        std::printf("\n");
      }
      auto g = provenance::build_provenance(*ep, tb.ft.topo);
      std::printf("%s", g.to_string().c_str());
      auto dx = diagnosis::diagnose(g, tb.ft.topo, tb.routing, spec.victim);
      std::printf("  DX=%s init=%s peer=%d roots:\n", std::string(to_string(dx.type)).c_str(),
                  net::to_string(dx.initial_port).c_str(), dx.injecting_peer);
      for (auto& f : dx.root_cause_flows) std::printf("    %s\n", f.to_string().c_str());
    }
  }
  return 0;
}
