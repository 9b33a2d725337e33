// Golden-trace regression suite (PR 4; k=8 tier added in PR 6).
//
// Every scenario x seed cell runs the full pipeline (workload -> fabric ->
// telemetry -> collection -> provenance -> diagnosis) and canonicalises the
// RunResult into one text line (eval/canonical.hpp); the lines are checked
// against committed fixtures under tests/golden/. With the reconvergence
// knobs at their defaults (hold-down 0 = frozen routing) a
// behaviour-preserving change must reproduce every fixture byte-for-byte —
// any drift in verdicts, drop counters, fault-epoch truth or event counts
// fails loudly with a diff-able message instead of silently shifting the
// paper figures.
//
// Two fixture tiers: the seed's k=4 fabric (run_results.txt) and a k=8
// fabric (run_results_k8.txt), whose real pod boundaries and longer paths
// the k=4 cells do not exercise.
//
// A third tier, the parity records (run_records.txt), pins every
// deterministic RunResult field (eval::canonical_record) over 182 seed-1
// configs: 11 scenarios x 5 methods x two background loads, polling loss,
// PFC loss and frozen / reconverging victim-path flaps on the six Table-2
// anomalies, the four fleet classes x three workloads x two severities,
// the six anomalies at k=8, and the three telemetry ablations.
// A refactor that claims "run_one output unchanged" passes this tier as
// is; a deliberate re-baseline shows up as a reviewed fixture diff.
//
// Refreshing fixtures after an INTENTIONAL behaviour change:
//   HAWKEYE_UPDATE_GOLDEN=1 ./build/tests/hawkeye_golden_test
// then review the textual diff like any other code change.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <map>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "eval/canonical.hpp"
#include "eval/runner.hpp"
#include "eval/sweep.hpp"
#include "fault/fault.hpp"

#ifndef HAWKEYE_GOLDEN_DIR
#error "HAWKEYE_GOLDEN_DIR must point at the committed fixture directory"
#endif

namespace hawkeye::eval {
namespace {

using diagnosis::AnomalyType;

constexpr AnomalyType kScenarios[] = {
    AnomalyType::kMicroBurstIncast,
    AnomalyType::kPfcStorm,
    AnomalyType::kInLoopDeadlock,
    AnomalyType::kOutOfLoopDeadlockContention,
    AnomalyType::kOutOfLoopDeadlockInjection,
    AnomalyType::kNormalContention,
};
constexpr std::uint64_t kSeeds[] = {1, 3, 7};
constexpr int kFabrics[] = {4, 8};

std::string golden_path(int k) {
  return std::string(HAWKEYE_GOLDEN_DIR) +
         (k == 4 ? "/run_results.txt"
                 : "/run_results_k" + std::to_string(k) + ".txt");
}

RunResult run_cell(int k, AnomalyType scenario, std::uint64_t seed) {
  RunConfig cfg;
  cfg.scenario = scenario;
  cfg.seed = seed;
  cfg.fat_tree_k = k;
  return run_one(cfg);
}

bool update_mode() {
  const char* env = std::getenv("HAWKEYE_UPDATE_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/// key (first token) -> full line of the fixture at `path`, loaded once;
/// empty if the fixture is missing.
const std::map<std::string, std::string>& fixture_lines(
    const std::string& path) {
  static std::map<std::string, std::map<std::string, std::string>> by_path;
  const auto [it, fresh] = by_path.try_emplace(path);
  if (fresh) {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      it->second[line.substr(0, line.find(' '))] = line;
    }
  }
  return it->second;
}

class GoldenTrace
    : public ::testing::TestWithParam<
          std::tuple<int, AnomalyType, std::uint64_t>> {};

TEST_P(GoldenTrace, RunResultMatchesFixture) {
  const auto [k, scenario, seed] = GetParam();
  if (update_mode()) GTEST_SKIP() << "fixture regeneration run";
  const auto& fixtures = fixture_lines(golden_path(k));
  ASSERT_FALSE(fixtures.empty())
      << "no fixtures at " << golden_path(k)
      << " — regenerate with HAWKEYE_UPDATE_GOLDEN=1";
  const RunResult r = run_cell(k, scenario, seed);
  const std::string key = canonical_cell_key(scenario, seed);
  const auto it = fixtures.find(key);
  ASSERT_NE(it, fixtures.end()) << "no fixture line for " << key;
  EXPECT_EQ(canonical_line(scenario, seed, r), it->second)
      << "RunResult drifted from the committed golden trace. If the change "
         "is intentional, regenerate: HAWKEYE_UPDATE_GOLDEN=1 "
         "./hawkeye_golden_test, and review the fixture diff.";
}

std::string cell_name(
    const ::testing::TestParamInfo<GoldenTrace::ParamType>& info) {
  std::string name(diagnosis::to_string(std::get<1>(info.param)));
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  name += "_s" + std::to_string(std::get<2>(info.param));
  if (std::get<0>(info.param) != 4) {
    name = "k" + std::to_string(std::get<0>(info.param)) + "_" + name;
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Cells, GoldenTrace,
                         ::testing::Combine(::testing::Values(4),
                                            ::testing::ValuesIn(kScenarios),
                                            ::testing::ValuesIn(kSeeds)),
                         cell_name);
INSTANTIATE_TEST_SUITE_P(CellsK8, GoldenTrace,
                         ::testing::Combine(::testing::Values(8),
                                            ::testing::ValuesIn(kScenarios),
                                            ::testing::ValuesIn(kSeeds)),
                         cell_name);

// ---- Parity tier ----

struct ParityCell {
  std::string key;  // fixture key; the test name is its sanitised form
  RunConfig cfg;
};

void PrintTo(const ParityCell& c, std::ostream* os) { *os << c.key; }

std::string records_path() {
  return std::string(HAWKEYE_GOLDEN_DIR) + "/run_records.txt";
}

std::vector<ParityCell> parity_cells() {
  constexpr Method kMethods[] = {Method::kHawkeye, Method::kFullPolling,
                                 Method::kVictimOnly, Method::kSpiderMon,
                                 Method::kNetSight};
  const auto name = [](AnomalyType t) {
    return std::string(diagnosis::to_string(t));
  };
  std::vector<ParityCell> cells;
  for (int s = 0; s <= static_cast<int>(AnomalyType::kOversubscribedDownlink);
       ++s) {
    for (const Method m : kMethods) {
      for (const double load : {0.1, 0.3}) {
        RunConfig cfg;
        cfg.scenario = static_cast<AnomalyType>(s);
        cfg.method = m;
        cfg.background_load = load;
        cells.push_back({std::string(to_string(m)) + "/" +
                             name(cfg.scenario) + "/load" +
                             (load == 0.1 ? "0.1" : "0.3"),
                         cfg});
      }
    }
  }
  const std::pair<const char*, fault::FaultPlan> plans[] = {
      {"poll-loss", fault::FaultPlan::uniform_poll_loss(0.10, 1)},
      {"pfc-loss", fault::FaultPlan::uniform_pfc_loss(0.25, 1)},
      {"flap-frozen", fault::FaultPlan::victim_path_flaps(sim::us(500), 0, 1)},
      {"flap-reconverge",
       fault::FaultPlan::victim_path_flaps(sim::us(500), sim::us(50), 1)},
  };
  for (const auto& [label, plan] : plans) {
    for (const AnomalyType t : kScenarios) {
      RunConfig cfg;
      cfg.scenario = t;
      cfg.faults = plan;
      cells.push_back({std::string(label) + "/" + name(t), cfg});
    }
  }
  for (int s = static_cast<int>(AnomalyType::kDegradedLink);
       s <= static_cast<int>(AnomalyType::kOversubscribedDownlink); ++s) {
    for (const auto w : {workload::FleetWorkload::kCrafted,
                         workload::FleetWorkload::kRpcClientServer,
                         workload::FleetWorkload::kAllToAll}) {
      for (const double severity : {0.5, 2.0}) {
        RunConfig cfg;
        cfg.scenario = static_cast<AnomalyType>(s);
        cfg.fleet_workload = w;
        cfg.fleet_severity = severity;
        cells.push_back({"fleet/" + name(cfg.scenario) + "/" +
                             std::string(workload::to_string(w)) + "/sev" +
                             (severity == 0.5 ? "0.5" : "2"),
                         cfg});
      }
    }
  }
  for (const AnomalyType t : kScenarios) {
    RunConfig cfg;
    cfg.scenario = t;
    cfg.fat_tree_k = 8;
    cells.push_back({"k8/" + name(t), cfg});
  }
  const std::tuple<const char*, telemetry::TelemetryMode, bool> ablations[] = {
      {"port-only", telemetry::TelemetryMode::kPortOnly, false},
      {"flow-only", telemetry::TelemetryMode::kFlowOnly, false},
      {"one-bit-meter", telemetry::TelemetryMode::kFull, true},
  };
  for (const auto& [label, mode, one_bit] : ablations) {
    for (const AnomalyType t : kScenarios) {
      RunConfig cfg;
      cfg.scenario = t;
      cfg.tele_mode = mode;
      cfg.one_bit_meter = one_bit;
      cells.push_back({std::string(label) + "/" + name(t), cfg});
    }
  }
  return cells;
}

std::string record_line(const ParityCell& c, const RunResult& r) {
  return c.key + " " + canonical_record(c.cfg.scenario, c.cfg.seed, r);
}

class GoldenRecord : public ::testing::TestWithParam<ParityCell> {};

TEST_P(GoldenRecord, RunRecordMatchesFixture) {
  const ParityCell& cell = GetParam();
  if (update_mode()) GTEST_SKIP() << "fixture regeneration run";
  const auto& fixtures = fixture_lines(records_path());
  ASSERT_FALSE(fixtures.empty())
      << "no fixtures at " << records_path()
      << " — regenerate with HAWKEYE_UPDATE_GOLDEN=1";
  const auto it = fixtures.find(cell.key);
  ASSERT_NE(it, fixtures.end()) << "no fixture line for " << cell.key;
  EXPECT_EQ(record_line(cell, run_one(cell.cfg)), it->second)
      << "RunResult drifted from the committed parity record. If the change "
         "is intentional, regenerate: HAWKEYE_UPDATE_GOLDEN=1 "
         "./hawkeye_golden_test, and review the fixture diff.";
}

INSTANTIATE_TEST_SUITE_P(
    Records, GoldenRecord, ::testing::ValuesIn(parity_cells()),
    [](const ::testing::TestParamInfo<ParityCell>& info) {
      std::string name = info.param.key;
      for (char& c : name) {
        if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
      }
      return name;
    });

/// Not a check: when HAWKEYE_UPDATE_GOLDEN is set, rewrite the fixture
/// files from the current build. Runs last so a regeneration pass is one
/// command.
TEST(GoldenTraceUpdate, RegenerateFixturesWhenRequested) {
  if (!update_mode()) GTEST_SKIP() << "set HAWKEYE_UPDATE_GOLDEN=1 to rewrite";
  for (const int k : kFabrics) {
    std::ofstream out(golden_path(k), std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path(k);
    // k=4 keeps the PR 4 header verbatim so a no-drift regeneration leaves
    // the file byte-identical.
    if (k == 4) {
      out << "# Golden RunResult traces — regenerate with "
             "HAWKEYE_UPDATE_GOLDEN=1 ./hawkeye_golden_test\n";
    } else {
      out << "# Golden RunResult traces (fat-tree k=" << k
          << ") — regenerate with "
             "HAWKEYE_UPDATE_GOLDEN=1 ./hawkeye_golden_test\n";
    }
    for (const AnomalyType scenario : kScenarios) {
      for (const std::uint64_t seed : kSeeds) {
        out << canonical_line(scenario, seed, run_cell(k, scenario, seed))
            << "\n";
      }
    }
  }
  const std::vector<ParityCell> cells = parity_cells();
  std::vector<RunConfig> cfgs;
  for (const ParityCell& c : cells) cfgs.push_back(c.cfg);
  const std::vector<RunResult> results = run_sweep(cfgs);
  std::ofstream out(records_path(), std::ios::trunc);
  ASSERT_TRUE(out.good()) << "cannot write " << records_path();
  out << "# Golden RunResult records (every deterministic field) — "
         "regenerate with HAWKEYE_UPDATE_GOLDEN=1 ./hawkeye_golden_test\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out << record_line(cells[i], results[i]) << "\n";
  }
}

}  // namespace
}  // namespace hawkeye::eval
