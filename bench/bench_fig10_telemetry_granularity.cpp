// Figure 10: diagnosis effectiveness of different telemetry granularities
// over mixed anomalies — full Hawkeye telemetry vs port-level-only vs
// flow-level-only (§4.3 "Telemetry logging effectiveness").
//
// Expected shape: port-only finds the PFC path but cannot name root-cause
// flows; flow-only cannot trace PFC at all; both show much lower precision
// than the combined telemetry. A 1-bit ITSY-style meter ablation is also
// reported (DESIGN.md design-choice ablation).
#include "bench_common.hpp"

using namespace hawkeye;
using namespace hawkeye::bench;

int main() {
  print_header("Figure 10", "telemetry granularity ablation");
  const int n = seeds_per_point();

  struct Mode {
    const char* name;
    telemetry::TelemetryMode mode;
    bool one_bit;
  };
  const Mode modes[] = {
      {"hawkeye-full", telemetry::TelemetryMode::kFull, false},
      {"port-only", telemetry::TelemetryMode::kPortOnly, false},
      {"flow-only", telemetry::TelemetryMode::kFlowOnly, false},
      {"1-bit-meter", telemetry::TelemetryMode::kFull, true},
  };

  std::printf("%-14s %-10s %-8s   (mixed over all six anomaly cases)\n",
              "telemetry", "precision", "recall");
  for (const Mode& m : modes) {
    eval::PrecisionRecall pr;
    for (const auto type : diagnosis::kTable2Anomalies) {
      eval::RunConfig cfg;
      cfg.scenario = type;
      cfg.tele_mode = m.mode;
      cfg.one_bit_meter = m.one_bit;
      const PointStats st = run_point(cfg, n);
      pr.tp += st.pr.tp;
      pr.fp += st.pr.fp;
      pr.fn += st.pr.fn;
    }
    std::printf("%-14s %-10.2f %-8.2f\n", m.name, pr.precision(), pr.recall());
  }
  return 0;
}
