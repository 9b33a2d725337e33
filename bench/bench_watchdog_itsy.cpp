// Extension experiment (paper §2.3's critique of existing PFC tooling):
// the industrial PFC watchdog and ITSY-style in-data-plane loop probing
// against Hawkeye, per anomaly type.
//
// Expected shape:
//  * the watchdog alarms on persistent pause (storms, deadlocks) but its
//    detection degrades with the polling period, it misses transient
//    incast pauses, and it never names a victim, a loop or a root cause;
//  * ITSY detects exactly the deadlock loops (and only those) with no
//    root-cause attribution;
//  * Hawkeye names the anomaly type and the culprits in every case.
#include "bench_common.hpp"
#include "baselines/itsy.hpp"
#include "baselines/pfc_watchdog.hpp"

using namespace hawkeye;
using namespace hawkeye::bench;

namespace {

struct CaseResult {
  int watchdog_alarms = 0;
  double watchdog_latency_us = -1;
  bool itsy_loop = false;
  std::uint64_t sim_events = 0;
};

CaseResult run_case(diagnosis::AnomalyType type, std::uint64_t seed,
                    sim::Time watchdog_period) {
  eval::RunConfig cfg;
  cfg.scenario = type;
  cfg.seed = seed;
  cfg.background_load = 0;
  eval::Run run(cfg);
  eval::Testbed& tb = run.testbed();
  const workload::ScenarioSpec& spec = run.spec();

  baselines::PfcWatchdog watchdog(tb.net, watchdog_period);
  baselines::ItsyDetector itsy(tb.net);
  for (const net::NodeId sw : tb.ft.topo.switches()) {
    watchdog.watch(tb.switch_at(sw));
    itsy.watch(tb.switch_at(sw));
  }
  watchdog.start();
  itsy.start();
  tb.run_for(spec.duration);

  CaseResult r;
  r.watchdog_alarms = static_cast<int>(watchdog.alarms().size());
  const sim::Time first = watchdog.first_alarm_after(spec.anomaly_start);
  if (first >= 0) {
    r.watchdog_latency_us =
        static_cast<double>(first - spec.anomaly_start) / 1e3;
  }
  r.itsy_loop = !itsy.loops().empty();
  r.sim_events = tb.simu.executed_events();
  return r;
}

}  // namespace

int main() {
  print_header("Extension", "PFC watchdog & ITSY vs Hawkeye");
  std::printf("%-34s %-12s %-8s %-14s %-10s\n", "anomaly", "wd period",
              "alarms", "wd latency", "ITSY loop");
  for (const auto type : diagnosis::kTable2Anomalies) {
    for (const sim::Time period : {sim::us(50), sim::us(400), sim::ms(100)}) {
      const CaseResult r = run_case(type, 2, period);
      char lat[24];
      if (r.watchdog_latency_us >= 0) {
        std::snprintf(lat, sizeof(lat), "%.0f us", r.watchdog_latency_us);
      } else {
        std::snprintf(lat, sizeof(lat), "missed");
      }
      std::printf("%-34s %8.0f us  %-8d %-14s %-10s\n",
                  std::string(to_string(type)).c_str(),
                  static_cast<double>(period) / 1e3, r.watchdog_alarms, lat,
                  r.itsy_loop ? "yes" : "no");
    }
  }
  std::printf("\nNeither tool reports victims or root causes; Hawkeye's full\n"
              "diagnosis of the same traces is shown in Figures 7/8/12.\n");
  return 0;
}
