#pragma once

// Shared plumbing for the figure/table reproduction benches. Each bench is
// a standalone binary that prints the rows/series of one paper figure.
// Seeds per data point default to a small count so the whole bench suite
// runs in minutes; set HAWKEYE_BENCH_SEEDS=<n> for tighter error bars
// (the paper crafts 100 traces per scenario).

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

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

inline const std::vector<diagnosis::AnomalyType>& all_anomalies() {
  static const std::vector<diagnosis::AnomalyType> kAll = {
      diagnosis::AnomalyType::kMicroBurstIncast,
      diagnosis::AnomalyType::kPfcStorm,
      diagnosis::AnomalyType::kInLoopDeadlock,
      diagnosis::AnomalyType::kOutOfLoopDeadlockContention,
      diagnosis::AnomalyType::kOutOfLoopDeadlockInjection,
      diagnosis::AnomalyType::kNormalContention,
  };
  return kAll;
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

/// The members of the JSON object `text`, in order, as (key, raw value
/// text); nullopt when `text` is not one well-formed JSON object. Values
/// are kept verbatim, so a round trip only normalizes the whitespace
/// between members.
inline std::optional<std::vector<std::pair<std::string, std::string>>>
json_members(const std::string& text) {
  std::size_t i = 0;
  const auto skip_ws = [&] {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])))
      ++i;
  };
  // Advance past the string starting at text[i] (an opening quote).
  const auto skip_string = [&] {
    for (++i; i < text.size(); ++i) {
      if (text[i] == '\\') {
        ++i;
      } else if (text[i] == '"') {
        ++i;
        return true;
      }
    }
    return false;
  };
  // Advance past the value starting at text[i].
  const auto skip_value = [&] {
    if (i >= text.size()) return false;
    if (text[i] == '"') return skip_string();
    if (text[i] == '{' || text[i] == '[') {
      int depth = 0;
      while (i < text.size()) {
        const char c = text[i];
        if (c == '"') {
          if (!skip_string()) return false;
          continue;
        }
        if (c == '{' || c == '[') ++depth;
        if (c == '}' || c == ']') --depth;
        ++i;
        if (depth == 0) return true;
      }
      return false;
    }
    const std::size_t start = i;
    while (i < text.size() && text[i] != ',' && text[i] != '}' &&
           text[i] != ']' && !std::isspace(static_cast<unsigned char>(text[i])))
      ++i;
    return i > start;
  };
  std::vector<std::pair<std::string, std::string>> members;
  skip_ws();
  if (i >= text.size() || text[i] != '{') return std::nullopt;
  ++i;
  skip_ws();
  if (i < text.size() && text[i] == '}') {
    ++i;
  } else {
    for (;;) {
      skip_ws();
      if (i >= text.size() || text[i] != '"') return std::nullopt;
      const std::size_t key_start = i + 1;
      if (!skip_string()) return std::nullopt;
      std::string key = text.substr(key_start, i - 1 - key_start);
      skip_ws();
      if (i >= text.size() || text[i] != ':') return std::nullopt;
      ++i;
      skip_ws();
      const std::size_t value_start = i;
      if (!skip_value()) return std::nullopt;
      members.emplace_back(std::move(key),
                           text.substr(value_start, i - value_start));
      skip_ws();
      if (i < text.size() && text[i] == ',') {
        ++i;
        continue;
      }
      if (i < text.size() && text[i] == '}') {
        ++i;
        break;
      }
      return std::nullopt;
    }
  }
  skip_ws();
  if (i != text.size()) return std::nullopt;
  return members;
}

/// Whole contents of the file at `path`; empty when it cannot be read.
inline std::string read_file(const std::string& path) {
  std::string body;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    char buf[1 << 16];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      body.append(buf, got);
    }
    std::fclose(f);
  }
  return body;
}

/// Merge `payload` (a JSON value) into the top-level object of the JSON
/// file at `path` under `key`, creating the file if needed. A present key
/// keeps its position and gets the new value; a new key is appended.
/// Every other member is kept verbatim, so the benches that share
/// BENCH_hotpath.json (google-benchmark's `context` and `benchmarks`,
/// bench_scalability's `scalability`, the recorded `parent`) each replace
/// only their own keys. Returns false, leaving the file alone, when it
/// holds something other than one JSON object or cannot be written.
inline bool merge_json_key(const std::string& path, const std::string& key,
                           const std::string& payload) {
  const std::string body = read_file(path);
  auto members =
      json_members(body.find_first_not_of(" \t\r\n") == std::string::npos
                       ? std::string("{}")
                       : body);
  if (!members) return false;
  bool replaced = false;
  for (auto& [k, v] : *members) {
    if (k == key) {
      v = payload;
      replaced = true;
    }
  }
  if (!replaced) members->emplace_back(key, payload);
  std::string out = "{";
  for (std::size_t m = 0; m < members->size(); ++m) {
    out += (m == 0 ? "\n  \"" : ",\n  \"") + (*members)[m].first +
           "\": " + (*members)[m].second;
  }
  out += "\n}\n";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
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
