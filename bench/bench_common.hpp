#pragma once

// Shared plumbing for the figure/table reproduction benches. Each bench is
// a standalone binary that prints the rows/series of one paper figure.
// Seeds per data point default to a small count so the whole bench suite
// runs in minutes; set HAWKEYE_BENCH_SEEDS=<n> for tighter error bars
// (the paper crafts 100 traces per scenario).

#include <cstdio>
#include <cstdlib>
#include <string>

#include "eval/runner.hpp"
#include "eval/sweep.hpp"

namespace hawkeye::bench {

inline int seeds_per_point(int def = 3) {
  if (const char* env = std::getenv("HAWKEYE_BENCH_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return def;
}

/// Aggregate of N trace runs at one parameter point.
struct PointStats {
  eval::PrecisionRecall pr;
  int runs = 0;
  double telemetry_bytes = 0;
  double raw_telemetry_bytes = 0;
  double report_packets = 0;
  double dataplane_report_packets = 0;
  double polling_packets = 0;
  double monitor_bw_bytes = 0;
  double collected_switches = 0;
  double causal_coverage = 0;
  double detection_latency_us = 0;
  double sim_events = 0;

  void add(const eval::RunResult& r) {
    pr.add(r);
    ++runs;
    telemetry_bytes += static_cast<double>(r.telemetry_bytes);
    raw_telemetry_bytes += static_cast<double>(r.raw_telemetry_bytes);
    report_packets += static_cast<double>(r.report_packets);
    dataplane_report_packets +=
        static_cast<double>(r.dataplane_report_packets);
    polling_packets += static_cast<double>(r.polling_packets);
    monitor_bw_bytes += static_cast<double>(r.monitor_bw_bytes);
    collected_switches += static_cast<double>(r.collected_switches);
    sim_events += static_cast<double>(r.sim_events);
    causal_coverage += r.causal_coverage;
    if (r.detection_latency >= 0) {
      detection_latency_us += static_cast<double>(r.detection_latency) / 1e3;
    }
  }
  double avg(double sum) const { return runs == 0 ? 0 : sum / runs; }
};

/// Run one (scenario, config) point over `n` trace seeds. Runs fan out
/// across the sweep runner's thread pool (HAWKEYE_SWEEP_THREADS to pin);
/// results are aggregated in seed order, so the stats are identical to the
/// old serial loop regardless of thread count.
inline PointStats run_point(eval::RunConfig cfg, int n,
                            std::uint64_t seed0 = 1) {
  PointStats st;
  for (const eval::RunResult& r :
       eval::run_sweep(eval::seed_sweep(cfg, n, seed0))) {
    st.add(r);
  }
  return st;
}

inline void print_header(const char* fig, const char* what) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", fig, what);
  std::printf("(shape reproduction on the simulated fabric; see EXPERIMENTS.md)\n");
  std::printf("==============================================================\n");
}

/// Write `json` to `path` in the working directory and say so on stdout.
/// Every results file has exactly one bench that writes it, whole. False,
/// with a message on stderr, when the file cannot be opened.
inline bool write_results(const char* path, const std::string& json) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return false;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
  return true;
}

inline std::string human_bytes(double b) {
  char buf[32];
  if (b >= 1e9) std::snprintf(buf, sizeof(buf), "%.2f GB", b / 1e9);
  else if (b >= 1e6) std::snprintf(buf, sizeof(buf), "%.2f MB", b / 1e6);
  else if (b >= 1e3) std::snprintf(buf, sizeof(buf), "%.2f KB", b / 1e3);
  else std::snprintf(buf, sizeof(buf), "%.0f B", b);
  return buf;
}

}  // namespace hawkeye::bench
