// Figure 9: (a) processing overhead — telemetry bytes collected for one
// diagnosis; (b) monitoring bandwidth overhead — extra in-band traffic a
// method adds to the fabric during the trace.
//
// Expected shape (paper §4.3): NetSight ≫ full polling > Hawkeye >
// victim-only ≈ SpiderMon on processing; on bandwidth, NetSight (postcards
// per packet-hop) ≫ SpiderMon (per-packet header) ≫ Hawkeye/victim-only
// (a handful of 64 B polling packets), full polling = 0.
#include "bench_common.hpp"

using namespace hawkeye;
using namespace hawkeye::bench;

int main() {
  print_header("Figure 9", "processing & bandwidth overhead vs baselines");
  const int n = seeds_per_point(2);
  const eval::Method methods[] = {
      eval::Method::kHawkeye, eval::Method::kFullPolling,
      eval::Method::kVictimOnly, eval::Method::kSpiderMon,
      eval::Method::kNetSight};

  // Averaged over the PFC-related anomaly scenarios (the paper's focus).
  std::printf("\n(a) telemetry collected per diagnosis   (b) monitoring bandwidth per trace\n");
  std::printf("%-14s %-16s %-18s %-16s\n", "method", "telemetry",
              "report packets", "monitor bw");
  for (const auto m : methods) {
    PointStats agg;
    for (const auto type : diagnosis::kTable2Anomalies) {
      if (type == diagnosis::AnomalyType::kNormalContention) continue;
      eval::RunConfig cfg;
      cfg.scenario = type;
      cfg.method = m;
      const PointStats st = run_point(cfg, n);
      agg.pr.tp += st.pr.tp;
      agg.runs += st.runs;
      agg.telemetry_bytes += st.telemetry_bytes;
      agg.report_packets += st.report_packets;
      agg.monitor_bw_bytes += st.monitor_bw_bytes;
    }
    std::printf("%-14s %-16s %-18.1f %-16s\n",
                std::string(to_string(m)).c_str(),
                human_bytes(agg.avg(agg.telemetry_bytes)).c_str(),
                agg.avg(agg.report_packets),
                human_bytes(agg.avg(agg.monitor_bw_bytes)).c_str());
  }
  std::printf("\nNote: full-polling sends no polling packets (0 bandwidth) but\n"
              "collects every switch; NetSight's postcards dominate both axes.\n");
  return 0;
}
