// Figure 14: CPU-poller efficiency — (a) telemetry size reduction from
// zero-value filtering vs a full register dump, (b) report packet count
// reduction from MTU batching vs PHV-limited data-plane export; plus the
// §4.5 poll-latency model (80 ms for 2 epochs, 120 ms for 4).
//
// Expected shape: >80% size reduction in most cases (live flows per epoch
// ≪ 4096 slots) and ~95% packet-count reduction (1500 B MTU vs ~200 B PHV).
#include "bench_common.hpp"
#include "collect/collector.hpp"

using namespace hawkeye;
using namespace hawkeye::bench;

int main() {
  print_header("Figure 14", "controller-assisted collection efficiency");
  const int n = seeds_per_point(2);

  std::printf("%-12s %-34s %-34s\n", "", "(a) telemetry size", "(b) report packets");
  std::printf("%-12s %-12s %-12s %-8s %-12s %-12s %-8s\n", "load",
              "filtered", "raw dump", "saved", "CPU (MTU)", "dataplane",
              "saved");
  for (const double load : {0.05, 0.1, 0.2, 0.3}) {
    PointStats agg;
    for (const auto type :
         {diagnosis::AnomalyType::kMicroBurstIncast,
          diagnosis::AnomalyType::kPfcStorm}) {
      eval::RunConfig cfg;
      cfg.scenario = type;
      cfg.background_load = load;
      cfg.epoch_index_bits = 2;  // the paper's 4-epoch hardware setup
      const PointStats st = run_point(cfg, n);
      agg.runs += st.runs;
      agg.telemetry_bytes += st.telemetry_bytes;
      agg.raw_telemetry_bytes += st.raw_telemetry_bytes;
      agg.report_packets += st.report_packets;
      agg.dataplane_report_packets += st.dataplane_report_packets;
    }
    const double size_saved =
        100.0 * (1.0 - agg.telemetry_bytes /
                           std::max(1.0, agg.raw_telemetry_bytes));
    const double pkt_saved =
        100.0 * (1.0 - agg.report_packets /
                           std::max(1.0, agg.dataplane_report_packets));
    std::printf("%-12.2f %-12s %-12s %5.1f%%   %-12.1f %-12.1f %5.1f%%\n",
                load, human_bytes(agg.avg(agg.telemetry_bytes)).c_str(),
                human_bytes(agg.avg(agg.raw_telemetry_bytes)).c_str(),
                size_saved, agg.avg(agg.report_packets),
                agg.avg(agg.dataplane_report_packets), pkt_saved);
  }

  // §4.5 CPU poll latency model: parallel per-switch DMA reads.
  std::printf("\nCPU poll latency (parallel across switches):\n");
  for (const int epochs : {2, 4}) {
    std::printf("  %d epochs x (64 ports, 4096 flows): %lld ms\n", epochs,
                static_cast<long long>(collect::Collector::kDmaPerEpoch *
                                           epochs / 1000000));
  }
  return 0;
}
