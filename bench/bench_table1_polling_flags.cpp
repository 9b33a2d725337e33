// Table 1: polling flag specifications — demonstrates each flag's tracing
// behaviour by injecting polling packets directly into a congested fabric
// and counting which switches end up collected.
//
//   00  useless tracing              -> dropped, nothing collected
//   01  trace along victim path      -> victim-path switches
//   10  trace along PFC causality    -> downstream causal switches
//   11  both                         -> union
//
// Exits 1 unless flag 00 collects no switch and every other flag collects
// at least one.
#include "bench_common.hpp"

using namespace hawkeye;
using namespace hawkeye::bench;

namespace {

std::size_t collected_with_flag(net::PollingFlag flag) {
  eval::RunConfig cfg;
  cfg.scenario = diagnosis::AnomalyType::kMicroBurstIncast;
  cfg.seed = 7;
  cfg.background_load = 0;
  // Disable the built-in agent: we inject the polling packet by hand.
  cfg.threshold_factor = 1e9;
  eval::Run run(cfg);
  eval::Testbed& tb = run.testbed();
  const workload::ScenarioSpec& spec = run.spec();

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
  bool ok = true;
  for (const Row& r : rows) {
    const std::size_t collected = collected_with_flag(r.flag);
    std::printf("%02d     %-38s %zu\n",
                static_cast<int>(r.flag), r.meaning, collected);
    ok = ok && (r.flag == net::PollingFlag::kUseless) == (collected == 0);
  }
  if (!ok) {
    std::printf("\nFAIL: a flag's collection differs from its Table 1 row\n");
    return 1;
  }
  return 0;
}
