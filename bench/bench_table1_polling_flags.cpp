// Table 1: polling flag specifications — demonstrates each flag's tracing
// behaviour by injecting polling packets directly into a congested fabric
// and counting which switches end up collected.
//
//   00  useless tracing              -> dropped, nothing collected
//   01  trace along victim path      -> victim-path switches
//   10  trace along PFC causality    -> downstream causal switches
//   11  both                         -> union
#include "bench_common.hpp"
#include "eval/testbed.hpp"
#include "workload/scenario.hpp"

using namespace hawkeye;
using namespace hawkeye::bench;

namespace {

std::size_t collected_with_flag(net::PollingFlag flag) {
  sim::Rng rng(7);
  workload::ScenarioSpec spec;
  {
    const net::FatTree probe = net::build_fat_tree(4);
    const net::Routing pr(probe.topo);
    spec = workload::make_scenario(diagnosis::AnomalyType::kMicroBurstIncast,
                                   probe, pr, rng);
  }
  // Disable the built-in agent: we inject the polling packet by hand.
  eval::Testbed::Options opts;
  opts.agent_cfg.threshold_factor = 1e9;
  eval::Testbed tb(opts);
  tb.install(spec);

  const net::NodeId src = net::Topology::node_of_ip(spec.victim.src_ip);
  tb.collector.open_episode(42, spec.victim, 0);
  tb.simu.schedule_at(spec.anomaly_start + sim::us(60), [&] {
    net::Packet poll = net::make_polling(spec.victim, 42, flag);
    tb.net.deliver(src, 0, std::move(poll), 1);
  });
  tb.run_for(spec.duration);
  const collect::Episode* ep = tb.collector.episode(42);
  return ep == nullptr ? 0 : ep->reports.size();
}

}  // namespace

int main() {
  print_header("Table 1", "polling flag semantics");
  std::printf("%-6s %-38s %s\n", "flag", "meaning", "switches collected");
  struct Row {
    net::PollingFlag flag;
    const char* meaning;
  };
  const Row rows[] = {
      {net::PollingFlag::kUseless, "useless tracing (dropped)"},
      {net::PollingFlag::kVictimPath, "(default) trace along victim path"},
      {net::PollingFlag::kPfcCausality, "trace along PFC causality"},
      {net::PollingFlag::kBoth, "trace both"},
  };
  for (const Row& r : rows) {
    std::printf("%02d     %-38s %zu\n",
                static_cast<int>(r.flag), r.meaning,
                collected_with_flag(r.flag));
  }
  return 0;
}
