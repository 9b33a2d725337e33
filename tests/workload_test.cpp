#include <gtest/gtest.h>

#include <algorithm>

#include "fault/fault.hpp"
#include "workload/flow_size.hpp"
#include "workload/scenario.hpp"

namespace hawkeye::workload {
namespace {

using diagnosis::AnomalyType;

TEST(FlowSizeTest, RoceLongtailMatchesPaperQuantiles) {
  sim::Rng rng(1);
  int below_10mb = 0, below_100mb = 0, above_100mb = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const auto s = sample_flow_size(rng);
    ASSERT_GE(s, 1000);
    ASSERT_LE(s, 300'000'000);
    if (s < 10'000'000) ++below_10mb;
    if (s < 100'000'000) ++below_100mb;
    if (s >= 100'000'000) ++above_100mb;
  }
  // Paper §4.1: <80% below 10 MB, <90% below 100 MB, ~10% at 100-300 MB.
  EXPECT_NEAR(below_10mb / static_cast<double>(n), 0.80, 0.02);
  EXPECT_NEAR(below_100mb / static_cast<double>(n), 0.90, 0.02);
  EXPECT_NEAR(above_100mb / static_cast<double>(n), 0.10, 0.02);
}

TEST(BackgroundTest, LoadScalesArrivalCount) {
  const net::FatTree ft = net::build_fat_tree(4);
  sim::Rng r1(3), r2(3);
  const auto light = background_flows(ft, r1, 0.05, 0, sim::ms(10));
  const auto heavy = background_flows(ft, r2, 0.30, 0, sim::ms(10));
  EXPECT_GT(heavy.size(), 3 * light.size());
  for (const auto& f : heavy) {
    EXPECT_NE(f.src, f.dst);
    EXPECT_GE(f.start, 0);
    EXPECT_LT(f.start, sim::ms(10));
    EXPECT_GT(f.bytes, 0);
  }
}

TEST(BackgroundTest, ZeroLoadMeansNoFlows) {
  const net::FatTree ft = net::build_fat_tree(4);
  sim::Rng rng(4);
  EXPECT_TRUE(background_flows(ft, rng, 0.0, 0, sim::ms(10)).empty());
}


// ---- Scenario crafting invariants, swept over seeds x anomaly types ----
//
// Each (type, seed) case crafts at k = 4 and k = 8, and the fleet classes
// once per FleetWorkload.

void check_well_formed(AnomalyType type, const net::FatTree& ft,
                       const ScenarioSpec& spec) {
  EXPECT_EQ(spec.truth.type, type);
  EXPECT_FALSE(spec.flows.empty());
  EXPECT_GT(spec.duration, spec.anomaly_start);

  // The victim tuple corresponds to one of the crafted flows.
  bool victim_found = false;
  for (const auto& f : spec.flows) {
    if (device::tuple_of(f) == spec.victim) victim_found = true;
    EXPECT_TRUE(ft.topo.is_host(f.src));
    EXPECT_TRUE(ft.topo.is_host(f.dst));
    EXPECT_NE(f.src, f.dst);
    EXPECT_GT(f.bytes, 0);
  }
  EXPECT_TRUE(victim_found);

  // Root-cause flows are crafted flows.
  for (const auto& rc : spec.truth.root_cause_flows) {
    const bool found = std::any_of(
        spec.flows.begin(), spec.flows.end(),
        [&](const device::FlowSpec& f) { return device::tuple_of(f) == rc; });
    EXPECT_TRUE(found);
  }

  // Overrides reference existing switch ports, and distinct (switch, dst).
  std::set<std::pair<net::NodeId, net::NodeId>> okeys;
  for (const auto& ov : spec.overrides) {
    EXPECT_TRUE(ft.topo.is_switch(ov.sw));
    EXPECT_GE(ov.port, 0);
    EXPECT_LT(ov.port, ft.topo.port_count(ov.sw));
    EXPECT_TRUE(okeys.insert({ov.sw, ov.dst}).second)
        << "conflicting overrides for one (switch,dst)";
  }

  // Deadlock scenarios carry a valid CBD: consecutive loop egress ports
  // are physically chained (peer of L_i is L_{i+1}'s switch).
  if (diagnosis::is_deadlock(type)) {
    ASSERT_EQ(spec.truth.loop_ports.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
      const net::PortRef cur = spec.truth.loop_ports[i];
      const net::PortRef nxt = spec.truth.loop_ports[(i + 1) % 4];
      EXPECT_EQ(ft.topo.peer(cur).node, nxt.node);
    }
  } else {
    EXPECT_TRUE(spec.truth.loop_ports.empty());
  }

  // Injection scenarios name the injecting host and schedule frames.
  if (type == AnomalyType::kPfcStorm ||
      type == AnomalyType::kOutOfLoopDeadlockInjection) {
    EXPECT_NE(spec.truth.injecting_host, net::kInvalidNode);
    ASSERT_EQ(spec.injections.size(), 1u);
    EXPECT_EQ(spec.injections[0].host, spec.truth.injecting_host);
    EXPECT_LT(spec.injections[0].start, spec.injections[0].stop);
  } else {
    EXPECT_TRUE(spec.injections.empty());
  }

  // Every anomalous trace names its culprit site: a congestion port or an
  // injecting host. The benign trace names neither and blames no flow.
  if (type == AnomalyType::kNone) {
    EXPECT_TRUE(spec.truth.congestion_ports.empty());
    EXPECT_EQ(spec.truth.injecting_host, net::kInvalidNode);
    EXPECT_TRUE(spec.truth.root_cause_flows.empty());
  } else {
    EXPECT_TRUE(!spec.truth.congestion_ports.empty() ||
                spec.truth.injecting_host != net::kInvalidNode);
  }

  // Fleet classes carry their own installable fault plan, with every link
  // spec bound to a concrete link; no other trace carries a plan.
  if (diagnosis::is_fleet_fault(type)) {
    ASSERT_TRUE(spec.faults.has_value());
    EXPECT_EQ(spec.faults->validate(), "");
    EXPECT_TRUE(spec.faults->fleet_enabled());
    fault::FaultPlan::families(
        *spec.faults, [](auto, auto, const auto& specs) {
          if constexpr (fault::LinkSpec<decltype(specs.front())>) {
            for (const auto& s : specs) {
              EXPECT_NE(s.node_a, net::kInvalidNode);
              EXPECT_NE(s.node_b, net::kInvalidNode);
            }
          }
        });
  } else {
    EXPECT_FALSE(spec.faults.has_value());
  }
}

class ScenarioInvariants
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(ScenarioInvariants, WellFormed) {
  const auto type = static_cast<AnomalyType>(std::get<0>(GetParam()));
  const std::uint64_t seed = std::get<1>(GetParam());
  const bool fleet = diagnosis::is_fleet_fault(type);
  for (const int k : {4, 8}) {
    const net::FatTree ft = net::build_fat_tree(k);
    const net::Routing routing(ft.topo);
    for (const FleetWorkload w :
         {FleetWorkload::kCrafted, FleetWorkload::kRpcClientServer,
          FleetWorkload::kAllToAll}) {
      if (!fleet && w != FleetWorkload::kCrafted) continue;
      SCOPED_TRACE("k=" + std::to_string(k) + " workload=" +
                   std::string(to_string(w)));
      sim::Rng rng(seed);
      check_well_formed(type, ft, make_scenario(type, ft, routing, rng, w));
    }
  }
}

// Every AnomalyType, kNone (0) through the fleet classes.
INSTANTIATE_TEST_SUITE_P(
    TypesAndSeeds, ScenarioInvariants,
    ::testing::Combine(::testing::Range(0, 11),
                       ::testing::Values(1ull, 7ull, 23ull, 99ull)));

}  // namespace
}  // namespace hawkeye::workload
