// Figure 7: precision & recall of each anomaly case over epoch sizes and
// detection thresholds. The paper sweeps epochs 100 us – 2 ms and
// thresholds 200% – 500% of RTT; epochs are demarcated by timestamp bits,
// so the sizes are powers of two (2^17 ns ≈ 131 us ... 2^21 ns ≈ 2.1 ms).
//
// Expected shape (paper §4.2): precision ≈ 1 at fine epochs and degrades
// as the epoch grows (contributor smearing, event conflation); recall stays
// ≈ 1 across thresholds because the host agent catches every degradation.
#include "bench_common.hpp"

using namespace hawkeye;
using namespace hawkeye::bench;

int main() {
  print_header("Figure 7", "precision & recall vs epoch size x threshold");
  const int n = seeds_per_point();
  const int shifts[] = {17, 19, 21};        // ~131 us, ~524 us, ~2.1 ms
  const double thresholds[] = {2.0, 3.0, 5.0};  // 200%, 300%, 500% RTT

  for (const auto type : diagnosis::kTable2Anomalies) {
    std::printf("\n--- %s ---\n", std::string(to_string(type)).c_str());
    std::printf("%-10s %-12s %-10s %-8s %-8s\n", "epoch", "threshold",
                "precision", "recall", "traces");
    for (const int shift : shifts) {
      for (const double thr : thresholds) {
        eval::RunConfig cfg;
        cfg.scenario = type;
        cfg.epoch_shift = shift;
        // Keep the telemetry window ~1 ms regardless of the epoch size.
        cfg.epoch_index_bits = shift >= 20 ? 1 : (20 - shift);
        cfg.threshold_factor = thr;
        // Busier fabric than the defaults: long epochs then conflate
        // stale background contention with the anomaly (§4.2).
        cfg.background_load = 0.15;
        const PointStats st = run_point(cfg, n);
        std::printf("%6.0f us   %5.0f%% RTT   %-10.2f %-8.2f %d\n",
                    static_cast<double>(sim::Time{1} << shift) / 1e3,
                    thr * 100, st.pr.precision(), st.pr.recall(), st.runs);
      }
    }
  }
  return 0;
}
