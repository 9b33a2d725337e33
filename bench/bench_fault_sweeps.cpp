// Fault sweeps: diagnosis accuracy under injected faults, one table entry
// per fault family, each writing its own BENCH_*.json:
//   robustness            polling-packet loss at every switch (DESIGN.md §9)
//   dataplane_robustness  PFC pause/resume frame loss and victim-path link
//                         flap trains (§10)
//   path_churn            victim-path flap trains with routing frozen vs
//                         reconverging after a 50 us hold-down (§11)
//   fleet_faults          fleet-ops fault class x workload x severity (§13)
//
// Every run is classified as
//   correct          true positive despite the faults
//   degraded         wrong/missing verdict, explicitly flagged degraded
//   fault_attributed wrong/missing verdict, not flagged, but an injected
//                    data-plane fault bit the victim's forwarding path — only
//                    in sweeps whose entry grants that excuse (fleet faults
//                    fire data-plane faults by design, so they never do)
//   misclassified    wrong verdict, full confidence, nothing to blame
//   missed           no verdict, no flag, nothing to blame
// The last two are silent verdicts. Exit code 1 on any silent verdict in any
// sweep, or when a group falls below its floor group's correct count
// (reconverging routing less accurate than frozen routing at a flap period).
//
//   $ bench_fault_sweeps [--smoke]
// HAWKEYE_BENCH_SEEDS sets the seeds per cell (default 3); `--smoke` runs
// one seed over each sweep's CI subset.
#include <cstring>
#include <string_view>
#include <utility>

#include "bench_common.hpp"

using namespace hawkeye;
using namespace hawkeye::bench;

namespace {

enum Verdict { kCorrect, kDegraded, kFaultAttributed, kMisclassified, kMissed,
               kVerdicts };
constexpr const char* kVerdictKeys[kVerdicts] = {
    "correct", "degraded", "fault_attributed", "misclassified", "missed"};

using R = eval::RunResult;
// Per-run observables every row averages, in JSON key order.
const std::pair<const char*, double (*)(const R&)> kAverages[] = {
    {"avg_coverage", [](const R& r) { return r.collection_coverage; }},
    {"avg_confidence", [](const R& r) { return r.confidence; }},
    {"avg_repolls", [](const R& r) { return double(r.repolls); }},
    {"avg_polling_drops", [](const R& r) { return double(r.polling_drops); }},
    {"avg_link_down_drops",
     [](const R& r) { return double(r.link_down_drops); }},
    {"avg_pfc_frames_lost",
     [](const R& r) { return double(r.pfc_pause_lost + r.pfc_resume_lost); }},
    {"avg_pfc_loss_drops", [](const R& r) { return double(r.pfc_loss_drops); }},
    {"avg_routing_epochs", [](const R& r) { return double(r.routing_epochs); }},
    {"avg_crc_drops", [](const R& r) { return double(r.crc_drops); }},
    {"avg_retransmissions",
     [](const R& r) { return double(r.retransmissions); }},
    {"avg_rate_limited",
     [](const R& r) { return double(r.rate_limited_pkts); }},
    {"avg_drain_delayed",
     [](const R& r) { return double(r.host_drain_delayed); }},
};
constexpr std::size_t kObservables = std::size(kAverages);

Verdict classify(const R& r, bool excuse_victim_path_faults) {
  if (r.tp) return kCorrect;
  if (r.degraded) return kDegraded;
  if (excuse_victim_path_faults && r.dataplane_fault_fired &&
      r.fault_on_victim_path) {
    return kFaultAttributed;
  }
  return r.fp ? kMisclassified : kMissed;
}

struct Stats {
  int verdicts[kVerdicts] = {};
  int runs = 0, churned_runs = 0;
  double sums[kObservables] = {};

  void add(const R& r, bool excuse_victim_path_faults) {
    ++verdicts[classify(r, excuse_victim_path_faults)];
    ++runs;
    churned_runs += r.path_churned ? 1 : 0;
    for (std::size_t i = 0; i < kObservables; ++i) {
      sums[i] += kAverages[i].second(r);
    }
  }
  int silent() const { return verdicts[kMisclassified] + verdicts[kMissed]; }
  double avg(std::size_t i) const { return runs == 0 ? 0 : sums[i] / runs; }
};

struct Cell {
  std::string labels;  // JSON members naming the row's grid point
  eval::RunConfig cfg;
};

// One point of a sweep's fault axis: a printed block with a TOTAL line.
struct Group {
  std::string title;
  bool smoke = false;  // in the --smoke subset
  int floor = -1;      // group whose correct count this one may not fall below
  std::vector<Cell> cells;
};

struct Sweep {
  const char* bench;     // "bench" value in the JSON file
  const char* file;
  const char* rows_key;  // the JSON array holding one row per cell
  // May an injected data-plane fault on the victim's path excuse a wrong
  // verdict (fault_attributed instead of silent)?
  bool excuse_victim_path_faults;
  std::vector<Group> groups;
};

std::string num(double v) { return std::to_string(v); }  // JSON value
std::string quoted(std::string_view s) { return "\"" + std::string(s) + "\""; }
std::string shortnum(double v) {  // table title
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

// The six crafted anomalies under one fault plan.
Group anomaly_group(std::string title, bool smoke, const std::string& labels,
                    const fault::FaultPlan& plan) {
  Group g{std::move(title), smoke, -1, {}};
  for (const auto type : diagnosis::kTable2Anomalies) {
    eval::RunConfig cfg;
    cfg.scenario = type;
    cfg.faults = plan;
    g.cells.push_back({labels, cfg});
  }
  return g;
}

std::vector<Sweep> sweeps() {
  Sweep robust{"robustness", "BENCH_robustness.json", "points", false, {}};
  for (const double rate : {0.0, 0.05, 0.10, 0.20, 0.30}) {
    robust.groups.push_back(anomaly_group(
        "polling drop rate " + shortnum(rate * 100) + "%", true,
        "\"drop_rate\": " + num(rate),
        rate > 0 ? fault::FaultPlan::uniform_poll_loss(rate, 1)
                 : fault::FaultPlan{}));
  }

  Sweep dataplane{"dataplane_robustness", "BENCH_dataplane.json", "points",
                  true, {}};
  for (const double rate : {0.0, 0.10, 0.25, 0.50}) {
    dataplane.groups.push_back(anomaly_group(
        "pfc_loss = " + shortnum(rate), rate == 0.0 || rate == 0.25,
        "\"axis\": \"pfc_loss\", \"value\": " + num(rate),
        rate > 0 ? fault::FaultPlan::uniform_pfc_loss(rate, 1)
                 : fault::FaultPlan{}));
  }
  for (const int period_us : {1000, 500, 250}) {
    dataplane.groups.push_back(anomaly_group(
        "flap_period_us = " + std::to_string(period_us), period_us == 500,
        "\"axis\": \"flap_period_us\", \"value\": " + num(period_us),
        fault::FaultPlan::victim_path_flaps(sim::us(period_us), 0, 1)));
  }

  Sweep churn{"path_churn", "BENCH_pathchurn.json", "points", true, {}};
  for (const int period_us : {1000, 500, 250}) {
    for (const int holddown_us : {0, 50}) {
      const char* mode = holddown_us > 0 ? "reconverge" : "frozen";
      Group g = anomaly_group(
          "flap period " + std::to_string(period_us) + " us, " + mode +
              " routing",
          period_us == 500,
          "\"flap_period_us\": " + num(period_us) + ", \"mode\": " +
              quoted(mode) + ", \"holddown_us\": " +
              std::to_string(holddown_us),
          fault::FaultPlan::victim_path_flaps(sim::us(period_us),
                                              sim::us(holddown_us), 1));
      // Withdrawing dead ports must not make diagnosis worse.
      if (holddown_us > 0) g.floor = static_cast<int>(churn.groups.size()) - 1;
      churn.groups.push_back(std::move(g));
    }
  }

  Sweep fleet{"fleet_faults", "BENCH_fleetfaults.json", "cells", false, {}};
  for (const double severity : {0.5, 1.0, 2.0}) {
    Group g{"severity x" + shortnum(severity), severity == 1.0, -1, {}};
    for (const auto type : {diagnosis::AnomalyType::kDegradedLink,
                            diagnosis::AnomalyType::kLinkSpeedMismatch,
                            diagnosis::AnomalyType::kHostPcieBottleneck,
                            diagnosis::AnomalyType::kOversubscribedDownlink}) {
      for (const auto w : {workload::FleetWorkload::kCrafted,
                           workload::FleetWorkload::kRpcClientServer,
                           workload::FleetWorkload::kAllToAll}) {
        eval::RunConfig cfg;
        cfg.scenario = type;
        cfg.fleet_workload = w;
        cfg.fleet_severity = severity;
        g.cells.push_back({"\"class\": " + quoted(diagnosis::to_string(type)) +
                               ", \"workload\": " +
                               quoted(workload::to_string(w)) +
                               ", \"severity\": " + num(severity),
                           cfg});
      }
    }
    fleet.groups.push_back(std::move(g));
  }
  return {robust, dataplane, churn, fleet};
}

// Verdict counts plus the first three averages: coverage, confidence,
// re-polls.
void print_row(const char* name, const Stats& st) {
  std::printf("%-34s %-8d %-9d %-11d %-14d %-7d %-9.2f %-11.2f %-8.2f\n",
              name, st.verdicts[kCorrect], st.verdicts[kDegraded],
              st.verdicts[kFaultAttributed], st.verdicts[kMisclassified],
              st.verdicts[kMissed], st.avg(0), st.avg(1), st.avg(2));
}

std::string row_json(const std::string& labels, const std::string& scenario,
                     const Stats& st) {
  std::string row = "    {" + labels + ", \"scenario\": " + quoted(scenario);
  for (int v = 0; v < kVerdicts; ++v) {
    row += ", \"" + std::string(kVerdictKeys[v]) +
           "\": " + std::to_string(st.verdicts[v]);
  }
  row += ", \"runs\": " + std::to_string(st.runs) +
         ", \"churned_runs\": " + std::to_string(st.churned_runs);
  for (std::size_t i = 0; i < kObservables; ++i) {
    row += ", \"" + std::string(kAverages[i].first) + "\": " + num(st.avg(i));
  }
  return row + "}";
}

// Runs one sweep, prints its tables, writes its JSON file and returns the
// number of failures (silent verdicts plus floor violations).
int run(const Sweep& sweep, bool smoke, int n) {
  std::printf("\n==== %s ====\n", sweep.bench);
  std::vector<eval::RunConfig> cfgs;
  for (const Group& g : sweep.groups) {
    if (smoke && !g.smoke) continue;
    for (const Cell& c : g.cells) {
      for (const eval::RunConfig& cfg : eval::seed_sweep(c.cfg, n)) {
        cfgs.push_back(cfg);
      }
    }
  }
  const std::vector<eval::RunResult> results = eval::run_sweep(cfgs);

  std::string rows;
  std::vector<Stats> totals(sweep.groups.size());
  std::size_t next = 0;
  for (std::size_t gi = 0; gi < sweep.groups.size(); ++gi) {
    const Group& g = sweep.groups[gi];
    if (smoke && !g.smoke) continue;
    std::printf("\n--- %s ---\n", g.title.c_str());
    std::printf("%-34s %-8s %-9s %-11s %-14s %-7s %-9s %-11s %-8s\n",
                "scenario", "correct", "degraded", "fault_attr",
                "misclassified", "missed", "coverage", "confidence",
                "repolls");
    for (const Cell& c : g.cells) {
      Stats st;
      std::string scenario;
      for (int s = 0; s < n; ++s, ++next) {
        st.add(results[next], sweep.excuse_victim_path_faults);
        totals[gi].add(results[next], sweep.excuse_victim_path_faults);
        scenario = results[next].scenario_name;
      }
      print_row(scenario.c_str(), st);
      rows += (rows.empty() ? "" : ",\n") + row_json(c.labels, scenario, st);
    }
    print_row("TOTAL", totals[gi]);
  }

  int failures = 0;
  for (std::size_t gi = 0; gi < sweep.groups.size(); ++gi) {
    failures += totals[gi].silent();
    const int floor = sweep.groups[gi].floor;
    if (floor < 0 || totals[gi].runs == 0) continue;
    const Stats& base = totals[floor];
    const bool below = totals[gi].verdicts[kCorrect] < base.verdicts[kCorrect];
    failures += below ? 1 : 0;
    std::printf("%s: %d/%d correct vs %d/%d for %s%s\n",
                sweep.groups[gi].title.c_str(), totals[gi].verdicts[kCorrect],
                totals[gi].runs, base.verdicts[kCorrect], base.runs,
                sweep.groups[floor].title.c_str(),
                below ? " — FLOOR VIOLATION" : "");
  }

  const std::string json = "{\n  \"bench\": " + quoted(sweep.bench) +
                           ",\n  \"seeds_per_point\": " + std::to_string(n) +
                           ",\n  " + quoted(sweep.rows_key) + ": [\n" + rows +
                           "\n  ]\n}\n";
  write_results(sweep.file, json);
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  print_header("Fault sweeps", "diagnosis accuracy under injected faults");
  const int n = smoke ? 1 : seeds_per_point();
  int failures = 0;
  for (const Sweep& sweep : sweeps()) failures += run(sweep, smoke, n);
  if (failures > 0) {
    std::printf("\nFAIL: %d silent verdict(s) or floor violation(s)\n",
                failures);
    return 1;
  }
  std::printf("\nOK: no silent verdicts; reconvergence never hurts "
              "accuracy\n");
  return 0;
}
