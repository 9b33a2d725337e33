// Figure 8: upper-bound precision & recall of Hawkeye vs baselines
// (full polling, victim-only, SpiderMon, NetSight), per anomaly type,
// each method at its optimal parameters.
//
// Expected shape (paper §4.2): Hawkeye ≈ full polling ≈ 1.0 everywhere;
// victim-only collapses on deadlocks (incomplete loop provenance);
// SpiderMon/NetSight ≈ 0 on PFC-related anomalies but fine on plain
// contention (no PFC vocabulary in their diagnosis).
//
// PR 4 addition: per-method accuracy-vs-confidence-threshold curves.
// Every run carries RunResult::confidence (collection-quality discounts);
// sweeping the assertion threshold τ shows whether confidence is a useful
// gate — runs the method would still assert at high τ should be MORE
// accurate, never less. Curves land in BENCH_fig8.json (in the working
// directory) next to the per-scenario precision/recall table.
//
// Fault rounds: fault-free runs all collect perfectly, so every sample
// lands at confidence 1.0 and the τ-sweep is a flat line — it cannot show
// whether the gate separates anything. Three faulted rounds (polling
// loss, DMA snapshot failure, a link-flap train on the victim path) feed
// the same curves with genuinely degraded collections; the curve earns
// its knee only if low-confidence verdicts are in fact less accurate.
#include "bench_common.hpp"

using namespace hawkeye;
using namespace hawkeye::bench;

namespace {

/// One τ-sweep round: a fault-axis label and the plan that drives it.
struct FaultRound {
  const char* name;
  fault::FaultPlan plan;
};

std::vector<FaultRound> fault_rounds() {
  std::vector<FaultRound> rounds;
  rounds.push_back({"none", {}});
  {
    fault::FaultPlan plan;
    fault::PollFaultSpec poll;  // every switch eats 30% of polling packets
    poll.drop_prob = 0.3;
    plan.poll_faults.push_back(poll);
    rounds.push_back({"polling-loss", plan});
  }
  {
    fault::FaultPlan plan;
    fault::DmaFaultSpec dma;  // switch-CPU snapshots fail or arrive stale
    dma.fail_prob = 0.3;
    dma.stale_prob = 0.2;
    plan.dma_faults.push_back(dma);
    rounds.push_back({"dma-failure", plan});
  }
  rounds.push_back(
      {"flap-train", fault::FaultPlan::victim_path_flaps(sim::us(500), 0, 1)});
  return rounds;
}

}  // namespace

int main() {
  print_header("Figure 8", "precision & recall upper bound vs baselines");
  const int n = seeds_per_point();
  const eval::Method methods[] = {
      eval::Method::kHawkeye, eval::Method::kFullPolling,
      eval::Method::kVictimOnly, eval::Method::kSpiderMon,
      eval::Method::kNetSight};

  // One curve per method, accumulated across every scenario AND every
  // fault round: the threshold gate is a property of the method's
  // confidence signal, not of one anomaly type or of a clean fabric.
  eval::ConfidenceCurve curves[std::size(methods)];

  std::string json = "{\n  \"bench\": \"fig8\",\n  \"seeds_per_point\": " +
                     std::to_string(n) + ",\n  \"points\": [\n";
  bool first_point = true;

  for (const FaultRound& round : fault_rounds()) {
    for (const auto type : diagnosis::kTable2Anomalies) {
      std::printf("\n--- %s (faults: %s) ---\n",
                  std::string(to_string(type)).c_str(), round.name);
      std::printf("%-14s %-10s %-8s %-11s\n", "method", "precision", "recall",
                  "confidence");
      for (std::size_t mi = 0; mi < std::size(methods); ++mi) {
        eval::RunConfig cfg;
        cfg.scenario = type;
        cfg.method = methods[mi];
        cfg.epoch_shift = 17;  // optimal parameters (fine epochs)
        cfg.threshold_factor = 3.0;
        cfg.faults = round.plan;
        PointStats st;
        double confidence = 0;
        for (const eval::RunResult& r :
             eval::run_sweep(eval::seed_sweep(cfg, n))) {
          st.add(r);
          confidence += r.confidence;
          curves[mi].add(r.confidence, r.tp);
        }
        std::printf("%-14s %-10.2f %-8.2f %-11.2f\n",
                    std::string(to_string(methods[mi])).c_str(),
                    st.pr.precision(), st.pr.recall(), st.avg(confidence));
        if (!first_point) json += ",\n";
        first_point = false;
        json += "    {\"scenario\": \"" + std::string(to_string(type)) + "\"" +
                ", \"method\": \"" + std::string(to_string(methods[mi])) +
                "\"" + ", \"faults\": \"" + round.name + "\"" +
                ", \"precision\": " + std::to_string(st.pr.precision()) +
                ", \"recall\": " + std::to_string(st.pr.recall()) +
                ", \"avg_confidence\": " + std::to_string(st.avg(confidence)) +
                ", \"runs\": " + std::to_string(st.runs) + "}";
      }
    }
  }
  json += "\n  ],\n  \"confidence_curves\": [\n";

  std::printf("\n--- accuracy vs confidence threshold τ (all scenarios) ---\n");
  std::printf("%-14s", "method");
  for (int i = 0; i <= 10; ++i) std::printf(" τ>=%.1f", i / 10.0);
  std::printf("\n");
  for (std::size_t mi = 0; mi < std::size(methods); ++mi) {
    const auto pts = curves[mi].points(10);
    std::printf("%-14s", std::string(to_string(methods[mi])).c_str());
    for (const auto& p : pts) std::printf(" %6.2f", p.accuracy());
    std::printf("\n");
    if (mi > 0) json += ",\n";
    json += "    {\"method\": \"" + std::string(to_string(methods[mi])) +
            "\", \"points\": [";
    for (std::size_t pi = 0; pi < pts.size(); ++pi) {
      if (pi > 0) json += ", ";
      json += "{\"threshold\": " + std::to_string(pts[pi].threshold) +
              ", \"asserted\": " + std::to_string(pts[pi].asserted) +
              ", \"correct\": " + std::to_string(pts[pi].correct) +
              ", \"accuracy\": " + std::to_string(pts[pi].accuracy()) + "}";
    }
    json += "]}";
  }
  json += "\n  ]\n}\n";

  return write_results("BENCH_fig8.json", json) ? 0 : 1;
}
