#include <gtest/gtest.h>

#include "diagnosis/diagnosis.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "provenance/graph.hpp"

namespace hawkeye::diagnosis {
namespace {

using net::FiveTuple;
using net::NodeId;
using net::PortRef;
using provenance::ProvenanceGraph;

FiveTuple tup(std::uint32_t s, std::uint32_t d, std::uint16_t sp) {
  FiveTuple t;
  t.src_ip = s;
  t.dst_ip = d;
  t.src_port = sp;
  t.dst_port = 4791;
  return t;
}

/// Synthetic-graph fixture on a real fat-tree so the victim path and
/// port/peer relationships are authentic. The victim runs cross-ToR within
/// one pod: src -> E1 -> Agg -> E2 -> dst.
struct SignatureFixture {
  net::FatTree ft = net::build_fat_tree(4);
  net::Routing routing{ft.topo};
  FiveTuple victim;
  std::vector<PortRef> vpath;  // victim's switch egress hops
  ProvenanceGraph g;
  int vf = -1;
  DiagnosisConfig cfg;

  SignatureFixture() {
    victim = tup(net::Topology::ip_of(ft.hosts[0]),
                 net::Topology::ip_of(ft.hosts[2]), 77);
    for (const PortRef& hop : routing.path_of(victim)) {
      if (ft.topo.is_switch(hop.node)) vpath.push_back(hop);
    }
    vf = g.add_flow(victim);
  }

  /// Marks the victim as PFC-paused at its i-th path hop.
  int paused_hop(std::size_t i, double paused = 100) {
    const int pn = g.add_port(vpath.at(i), {paused, 10.0, 1000, false});
    g.add_flow_port_edge(vf, pn, paused);
    return pn;
  }

  /// A congested port with a set of contending flows (positive weights).
  int contention_port(const PortRef& at,
                      const std::vector<std::pair<FiveTuple, double>>& flows,
                      double paused = 0) {
    const int pn = g.add_port(at, {paused, 50.0, 5000, paused > 0});
    for (const auto& [f, w] : flows) {
      g.add_port_flow_edge(pn, g.add_flow(f), w);
    }
    return pn;
  }

  DiagnosisResult run() {
    return diagnose(g, ft.topo, routing, victim, cfg);
  }
};

TEST(SignatureTest, NormalFlowContention) {
  SignatureFixture fx;
  // No port-level edges; contention on a victim-path port.
  fx.contention_port(fx.vpath.back(),
                     {{tup(5, 3, 1), 30.0}, {tup(6, 3, 2), 25.0},
                      {fx.victim, 10.0}});
  const auto dx = fx.run();
  EXPECT_EQ(dx.type, AnomalyType::kNormalContention);
  EXPECT_EQ(dx.root_cause_flows.size(), 2u) << "victim must be excluded";
  EXPECT_EQ(dx.initial_port, fx.vpath.back());
}

TEST(SignatureTest, MicroBurstIncastBackpressure) {
  SignatureFixture fx;
  const int start = fx.paused_hop(0);
  // PFC chain: paused ToR hop waits on the agg hop, which waits on a
  // congested terminal off the victim path (a sibling host port).
  const int midn = fx.g.add_port(fx.vpath[1], {80, 20, 500, false});
  const PortRef term{fx.ft.edges[1], fx.ft.topo.port_towards(
                                          fx.ft.edges[1], fx.ft.hosts[3])};
  const int termn = fx.contention_port(
      term, {{tup(8, 3, 1), 40.0}, {tup(9, 3, 2), 35.0}});
  fx.g.add_port_edge(start, midn, 900.0);
  fx.g.add_port_edge(midn, termn, 800.0);
  const auto dx = fx.run();
  EXPECT_EQ(dx.type, AnomalyType::kMicroBurstIncast);
  EXPECT_EQ(dx.initial_port, term);
  EXPECT_EQ(dx.root_cause_flows.size(), 2u);
  EXPECT_EQ(dx.spreading_path.size(), 3u);
}

TEST(SignatureTest, PfcStormFromHostInjection) {
  SignatureFixture fx;
  const int start = fx.paused_hop(1);
  // Terminal: paused port facing a host, no contention.
  const NodeId tor = fx.ft.edges[1];
  const NodeId host = fx.ft.hosts[2];
  const PortRef term{tor, fx.ft.topo.port_towards(tor, host)};
  const int termn = fx.g.add_port(term, {120, 60, 800, true});
  fx.g.add_port_edge(start, termn, 1500.0);
  const auto dx = fx.run();
  EXPECT_EQ(dx.type, AnomalyType::kPfcStorm);
  EXPECT_EQ(dx.injecting_peer, host);
  EXPECT_EQ(dx.initial_port, term);
}

TEST(SignatureTest, StormWinsOverIncidentalContentionWhenTerminalPaused) {
  SignatureFixture fx;
  const int start = fx.paused_hop(1);
  const NodeId tor = fx.ft.edges[1];
  const NodeId host = fx.ft.hosts[2];
  const PortRef term{tor, fx.ft.topo.port_towards(tor, host)};
  // Paused terminal with *some* contention: injection still dominates.
  const int termn =
      fx.contention_port(term, {{tup(8, 3, 1), 5.0}, {tup(9, 3, 2), 4.0}},
                         /*paused=*/150);
  fx.g.add_port_edge(start, termn, 1500.0);
  const auto dx = fx.run();
  EXPECT_EQ(dx.type, AnomalyType::kPfcStorm);
  EXPECT_EQ(dx.injecting_peer, host);
}

/// Builds the canonical 4-port CBD cycle E1->A1->E2->A2->E1 in pod 0.
struct LoopFixture : SignatureFixture {
  std::vector<PortRef> loop;
  std::vector<int> loop_nodes;

  LoopFixture() {
    const NodeId e1 = ft.edges[0], e2 = ft.edges[1];
    const NodeId a1 = ft.aggs[0], a2 = ft.aggs[1];
    loop = {{e1, ft.topo.port_towards(e1, a1)},
            {a1, ft.topo.port_towards(a1, e2)},
            {e2, ft.topo.port_towards(e2, a2)},
            {a2, ft.topo.port_towards(a2, e1)}};
    for (const PortRef& p : loop) {
      loop_nodes.push_back(g.add_port(p, {100, 30, 1000, true}));
    }
    for (std::size_t i = 0; i < 4; ++i) {
      g.add_port_edge(loop_nodes[i], loop_nodes[(i + 1) % 4], 1000.0);
    }
    // Victim is paused at the first loop port (E1 is its ToR).
    g.add_flow_port_edge(vf, loop_nodes[0], 50);
  }
};

TEST(SignatureTest, InLoopDeadlock) {
  LoopFixture fx;
  // Contention at a loop port: the initiator is inside the CBD.
  fx.g.add_port_flow_edge(fx.loop_nodes[1], fx.g.add_flow(tup(7, 9, 1)), 25.0);
  const auto dx = fx.run();
  EXPECT_EQ(dx.type, AnomalyType::kInLoopDeadlock);
  EXPECT_EQ(dx.loop_ports.size(), 4u);
  ASSERT_EQ(dx.root_cause_flows.size(), 1u);
  EXPECT_EQ(dx.root_cause_flows[0], tup(7, 9, 1));
  EXPECT_EQ(dx.initial_port, fx.loop[1]);
}

TEST(SignatureTest, OutOfLoopDeadlockByContention) {
  LoopFixture fx;
  // A loop port also waits on an out-of-loop congested terminal.
  const NodeId e2 = fx.ft.edges[1];
  const PortRef sink{e2, fx.ft.topo.port_towards(e2, fx.ft.hosts[3])};
  const int sinkn = fx.contention_port(
      sink, {{tup(11, 4, 1), 60.0}, {tup(12, 4, 2), 45.0}});
  fx.g.add_port_edge(fx.loop_nodes[1], sinkn, 900.0);
  const auto dx = fx.run();
  EXPECT_EQ(dx.type, AnomalyType::kOutOfLoopDeadlockContention);
  EXPECT_EQ(dx.initial_port, sink);
  EXPECT_EQ(dx.root_cause_flows.size(), 2u);
  EXPECT_EQ(dx.loop_ports.size(), 4u);
}

TEST(SignatureTest, OutOfLoopDeadlockByInjection) {
  LoopFixture fx;
  const NodeId e2 = fx.ft.edges[1];
  const NodeId host = fx.ft.hosts[3];
  const PortRef sink{e2, fx.ft.topo.port_towards(e2, host)};
  const int sinkn = fx.g.add_port(sink, {140, 70, 900, true});
  fx.g.add_port_edge(fx.loop_nodes[1], sinkn, 900.0);
  const auto dx = fx.run();
  EXPECT_EQ(dx.type, AnomalyType::kOutOfLoopDeadlockInjection);
  EXPECT_EQ(dx.injecting_peer, host);
  EXPECT_EQ(dx.loop_ports.size(), 4u);
}

TEST(SignatureTest, FaintSideBranchDoesNotBreakInLoopVerdict) {
  LoopFixture fx;
  fx.g.add_port_flow_edge(fx.loop_nodes[1], fx.g.add_flow(tup(7, 9, 1)), 25.0);
  // A weak edge (incidental background congestion) off the loop.
  const PortRef side{fx.ft.edges[1],
                     fx.ft.topo.port_towards(fx.ft.edges[1], fx.ft.hosts[3])};
  const int siden = fx.contention_port(side, {{tup(13, 4, 1), 3.0},
                                              {tup(14, 4, 2), 2.0}});
  fx.g.add_port_edge(fx.loop_nodes[1], siden, 50.0);  // << loop edge 1000
  const auto dx = fx.run();
  EXPECT_EQ(dx.type, AnomalyType::kInLoopDeadlock);
}

TEST(SignatureTest, NothingObservableYieldsNone) {
  SignatureFixture fx;
  const auto dx = fx.run();
  EXPECT_EQ(dx.type, AnomalyType::kNone);
  EXPECT_FALSE(dx.detected());
}

TEST(SignatureTest, ContentionFloorFiltersNoise) {
  SignatureFixture fx;
  // Sub-packet contention weights: below the materiality floor.
  fx.contention_port(fx.vpath.back(), {{tup(5, 3, 1), 0.2},
                                       {tup(6, 3, 2), 0.1}});
  const auto dx = fx.run();
  EXPECT_EQ(dx.type, AnomalyType::kNone);
}

TEST(SignatureTest, SpreadingFlowsArePausedAtTwoHops) {
  SignatureFixture fx;
  const int p0 = fx.paused_hop(0);
  const int p1 = fx.g.add_port(fx.vpath[1], {60, 15, 400, false});
  fx.g.add_port_edge(p0, p1, 500.0);
  const NodeId tor = fx.ft.edges[1];
  const PortRef term{tor, fx.ft.topo.port_towards(tor, fx.ft.hosts[3])};
  const int tn = fx.contention_port(term, {{tup(8, 3, 1), 40.0},
                                           {tup(9, 3, 2), 20.0}});
  fx.g.add_port_edge(p1, tn, 400.0);
  // A spreading flow paused at both chained ports (like F2 in Fig 12a).
  const FiveTuple spreader = tup(10, 3, 9);
  const int sn = fx.g.add_flow(spreader);
  fx.g.add_flow_port_edge(sn, p0, 30);
  fx.g.add_flow_port_edge(sn, p1, 25);
  const auto dx = fx.run();
  ASSERT_EQ(dx.spreading_flows.size(), 1u);
  EXPECT_EQ(dx.spreading_flows[0], spreader);
}

}  // namespace
}  // namespace hawkeye::diagnosis

#include "diagnosis/resolution.hpp"
#include "workload/scenario.hpp"

namespace hawkeye::diagnosis {
namespace {

class CbdResolutionTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CbdResolutionTest, SuggestsAndBreaksCraftedDeadlocks) {
  const net::FatTree ft = net::build_fat_tree(4);
  net::Routing routing(ft.topo);
  sim::Rng rng(GetParam());
  const auto spec = workload::make_scenario(AnomalyType::kInLoopDeadlock, ft,
                                            routing, rng);
  for (const auto& ov : spec.overrides) {
    routing.add_override(ov.sw, ov.dst, ov.port);
  }

  const auto suggestions =
      cbd_break_suggestions(spec.truth.loop_ports, routing, ft.topo);
  ASSERT_FALSE(suggestions.empty());
  // Every suggestion points at one of the crafted misconfigurations.
  for (const auto& s : suggestions) {
    const bool crafted = std::any_of(
        spec.overrides.begin(), spec.overrides.end(),
        [&](const workload::RouteOverride& ov) {
          return ov.sw == s.override_entry.sw && ov.dst == s.override_entry.dst;
        });
    EXPECT_TRUE(crafted) << s.reason;
  }
  // At least one valley route is named (the CBD needs one by construction).
  EXPECT_TRUE(std::any_of(suggestions.begin(), suggestions.end(),
                          [](const CbdSuggestion& s) { return s.valley_route; }));
  // Removing the implicated overrides provably breaks the cycle.
  EXPECT_TRUE(verify_cbd_broken(spec.truth.loop_ports, routing, suggestions,
                                ft.topo));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CbdResolutionTest,
                         ::testing::Values(1ull, 2ull, 3ull, 11ull));

TEST(CbdResolutionTest, IntactLoopIsNotReportedBroken) {
  const net::FatTree ft = net::build_fat_tree(4);
  net::Routing routing(ft.topo);
  sim::Rng rng(5);
  const auto spec = workload::make_scenario(AnomalyType::kInLoopDeadlock, ft,
                                            routing, rng);
  for (const auto& ov : spec.overrides) {
    routing.add_override(ov.sw, ov.dst, ov.port);
  }
  // With no overrides removed, every segment can still carry traffic.
  EXPECT_FALSE(verify_cbd_broken(spec.truth.loop_ports, routing, {}, ft.topo));
}

}  // namespace
}  // namespace hawkeye::diagnosis

#include "diagnosis/resolution.hpp"
#include "eval/runner.hpp"

namespace hawkeye::eval {
namespace {

using diagnosis::AnomalyType;

TEST(RunStageTest, InLoopDeadlockReportsLoopAndFixSuggestions) {
  RunConfig cfg;
  cfg.scenario = AnomalyType::kInLoopDeadlock;
  cfg.seed = 2;
  cfg.background_load = 0;
  eval::Run run(cfg);
  run.simulate();
  const std::optional<collect::Episode> ep = run.victim_episode();
  ASSERT_TRUE(ep.has_value());
  const eval::Run::Diagnosis d = run.diagnose(*ep);

  EXPECT_EQ(d.dx.type, AnomalyType::kInLoopDeadlock);
  EXPECT_EQ(d.dx.loop_ports.size(), 4u);
  EXPECT_TRUE(d.graph.has_port_level_edges());
  EXPECT_FALSE(diagnosis::cbd_break_suggestions(
                   d.dx.loop_ports, run.testbed().routing,
                   run.testbed().ft.topo)
                   .empty())
      << "the loop must implicate the crafted route overrides";
}

TEST(RunStageTest, SlowReceiverDiagnosedAsInjection) {
  sim::Rng rng(1);
  const net::FatTree ft = net::build_fat_tree(4);
  RunConfig cfg;
  cfg.background_load = 0;
  eval::Run run(cfg, workload::make_slow_receiver(ft, rng));
  run.simulate();
  const std::optional<collect::Episode> ep = run.victim_episode();
  ASSERT_TRUE(ep.has_value());
  const diagnosis::DiagnosisResult dx = run.diagnose(*ep).dx;
  EXPECT_EQ(dx.type, AnomalyType::kPfcStorm);
  EXPECT_EQ(dx.injecting_peer, run.spec().truth.injecting_host);
}

/// The stages benches and examples call must give the verdict run_one
/// scores, field by field.
TEST(RunStageTest, PublicStagesReproduceRunOne) {
  std::vector<RunConfig> cfgs;
  for (int s = static_cast<int>(AnomalyType::kMicroBurstIncast);
       s <= static_cast<int>(AnomalyType::kNormalContention); ++s) {
    for (const Method m : {Method::kHawkeye, Method::kSpiderMon}) {
      RunConfig cfg;
      cfg.scenario = static_cast<AnomalyType>(s);
      cfg.method = m;
      cfgs.push_back(cfg);
    }
  }
  RunConfig fleet;
  fleet.scenario = AnomalyType::kDegradedLink;
  cfgs.push_back(fleet);

  for (const RunConfig& cfg : cfgs) {
    SCOPED_TRACE(std::string(diagnosis::to_string(cfg.scenario)) + " / " +
                 std::string(to_string(cfg.method)));
    const RunResult want = run_one(cfg);
    eval::Run run(cfg);
    run.simulate();
    const std::optional<collect::Episode> ep = run.victim_episode();
    ASSERT_TRUE(ep.has_value());
    const diagnosis::DiagnosisResult got = run.diagnose(*ep).dx;
    EXPECT_EQ(got.type, want.dx.type);
    EXPECT_EQ(got.root_cause_flows, want.dx.root_cause_flows);
    EXPECT_EQ(got.injecting_peer, want.dx.injecting_peer);
    EXPECT_EQ(got.initial_port, want.dx.initial_port);
    EXPECT_EQ(got.loop_ports, want.dx.loop_ports);
    EXPECT_EQ(got.spreading_path, want.dx.spreading_path);
    EXPECT_EQ(got.spreading_flows, want.dx.spreading_flows);
    EXPECT_EQ(got.narrative, want.dx.narrative);
    EXPECT_EQ(got.confidence, want.dx.confidence);
  }
}

}  // namespace
}  // namespace hawkeye::eval
