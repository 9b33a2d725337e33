#include <gtest/gtest.h>

#include "collect/episode.hpp"
#include "net/topology.hpp"
#include "provenance/builder.hpp"

namespace hawkeye::provenance {
namespace {

using collect::Episode;
using net::FatTree;
using net::FiveTuple;
using net::NodeId;
using net::PortId;
using net::PortRef;
using telemetry::EpochRecord;
using telemetry::FlowRecord;
using telemetry::SwitchTelemetryReport;

FiveTuple tup(std::uint32_t s, std::uint32_t d, std::uint16_t sp) {
  FiveTuple t;
  t.src_ip = s;
  t.dst_ip = d;
  t.src_port = sp;
  t.dst_port = 4791;
  return t;
}

FlowRecord frec(const FiveTuple& f, PortId port, std::uint32_t pkts,
                std::uint32_t paused, std::uint64_t qsum) {
  FlowRecord r;
  r.flow = f;
  r.egress_port = port;
  r.pkt_cnt = pkts;
  r.paused_cnt = paused;
  r.qdepth_pkts_sum = qsum;
  return r;
}

telemetry::PortRecord prec(PortId port, std::uint32_t pkts,
                           std::uint32_t paused, std::uint64_t qsum) {
  telemetry::PortRecord r;
  r.port = port;
  r.pkt_cnt = pkts;
  r.paused_cnt = paused;
  r.qdepth_pkts_sum = qsum;
  return r;
}

/// Fixture: upstream switch A's egress toward downstream B, with B fanning
/// into two of its own egress ports (a congested one and an idle one).
struct ChainFixture {
  FatTree ft = net::build_fat_tree(4);
  NodeId a, b;
  PortId a_to_b, b_in, b_hot, b_cold;
  Episode ep;

  ChainFixture() {
    a = ft.aggs[0];
    b = ft.edges[0];
    a_to_b = ft.topo.port_towards(a, b);
    b_in = ft.topo.peer(a, a_to_b).port;
    b_hot = ft.topo.port_towards(b, ft.hosts[0]);
    b_cold = ft.topo.port_towards(b, ft.hosts[1]);
    ep.probe_id = 1;
    ep.triggered_at = sim::ms(1);
  }

  SwitchTelemetryReport& report(NodeId sw) {
    auto& rep = ep.report_ref(sw);
    rep.sw = sw;
    if (rep.epochs.empty()) {
      rep.epochs.emplace_back();
      rep.epochs[0].epoch_id = 1;
      rep.epochs[0].start = 0;
    }
    return rep;
  }
};

TEST(BuilderTest, PortEdgeWeightFollowsAlgorithm1) {
  ChainFixture fx;
  // A's egress toward B saw 200 paused packets.
  fx.report(fx.a).epochs[0].ports.push_back(prec(fx.a_to_b, 500, 200, 1000));
  // At B: 3/4 of the ingress traffic went to the hot port, 1/4 to cold.
  auto& brep = fx.report(fx.b);
  brep.epochs[0].meters.push_back({fx.b_in, fx.b_hot, 7500});
  brep.epochs[0].meters.push_back({fx.b_in, fx.b_cold, 2500});
  brep.epochs[0].ports.push_back(prec(fx.b_hot, 100, 0, 4000));  // qdepth 40
  brep.epochs[0].ports.push_back(prec(fx.b_cold, 10, 0, 0));     // idle

  const ProvenanceGraph g = build_provenance(fx.ep, fx.ft.topo);
  const int from = g.port_node({fx.a, fx.a_to_b});
  ASSERT_GE(from, 0);
  ASSERT_EQ(g.port_out_degree(from), 1) << "idle sibling must be pruned";
  const auto& e = g.port_out(from)[0];
  EXPECT_EQ(g.port(e.to), (PortRef{fx.b, fx.b_hot}));
  // weight = paused(200) * share(0.75) * qdepth(40) = 6000.
  EXPECT_NEAR(e.weight, 6000.0, 1.0);
}

TEST(BuilderTest, NoEdgeWithoutPauseEvidence) {
  ChainFixture fx;
  fx.report(fx.a).epochs[0].ports.push_back(prec(fx.a_to_b, 500, 0, 1000));
  auto& brep = fx.report(fx.b);
  brep.epochs[0].meters.push_back({fx.b_in, fx.b_hot, 1000});
  brep.epochs[0].ports.push_back(prec(fx.b_hot, 100, 0, 4000));
  // No pause anywhere: the builder falls back to all epochs but the
  // unpaused upstream port still gets no causality edge.
  const ProvenanceGraph g = build_provenance(fx.ep, fx.ft.topo);
  const int from = g.port_node({fx.a, fx.a_to_b});
  ASSERT_GE(from, 0);
  EXPECT_EQ(g.port_out_degree(from), 0);
}

TEST(BuilderTest, FrozenStatusRegisterSubstitutesPausedCounts) {
  ChainFixture fx;
  // No paused packet counts at A (frozen deadlock: nothing enqueued), but
  // the PFC status register shows the port held down at collection.
  fx.report(fx.a).epochs[0].ports.push_back(prec(fx.a_to_b, 10, 0, 0));
  fx.report(fx.a).port_status.push_back({fx.a_to_b, true, sim::ms(2), 55});
  auto& brep = fx.report(fx.b);
  brep.epochs[0].meters.push_back({fx.b_in, fx.b_hot, 1000});
  // Downstream port also frozen with a standing queue only visible in the
  // snapshot occupancy.
  brep.epochs[0].ports.push_back(prec(fx.b_hot, 5, 1, 0));
  brep.port_status.push_back({fx.b_hot, true, sim::ms(2), 80});

  const ProvenanceGraph g = build_provenance(fx.ep, fx.ft.topo);
  const int from = g.port_node({fx.a, fx.a_to_b});
  ASSERT_GE(from, 0);
  EXPECT_TRUE(g.port_info(from).paused_at_collection);
  ASSERT_EQ(g.port_out_degree(from), 1);
  EXPECT_GT(g.port_out(from)[0].weight, 0.0);
}

TEST(BuilderTest, FlowPortEdgesFromPausedCounts) {
  ChainFixture fx;
  const FiveTuple f = tup(1, 2, 100);
  auto& arep = fx.report(fx.a);
  arep.epochs[0].ports.push_back(prec(fx.a_to_b, 100, 40, 0));
  arep.epochs[0].flows.push_back(frec(f, fx.a_to_b, 100, 40, 0));
  const ProvenanceGraph g = build_provenance(fx.ep, fx.ft.topo);
  const int fn = g.flow_node(f);
  ASSERT_GE(fn, 0);
  ASSERT_EQ(g.flow_ports(fn).size(), 1u);
  EXPECT_EQ(g.flow_ports(fn)[0].weight, 40.0);
  EXPECT_EQ(g.port(g.flow_ports(fn)[0].to), (PortRef{fx.a, fx.a_to_b}));
}

TEST(BuilderTest, ContributionSignsSeparateBurstsFromVictims) {
  ChainFixture fx;
  auto& brep = fx.report(fx.b);
  brep.epochs[0].ports.push_back(prec(fx.b_hot, 1300, 1, 30000));
  const FiveTuple burst1 = tup(1, 9, 1);
  const FiveTuple burst2 = tup(2, 9, 2);
  const FiveTuple mouse = tup(3, 9, 3);
  // Bursts own the congested queue's mass; the mouse barely queued.
  brep.epochs[0].flows.push_back(frec(burst1, fx.b_hot, 600, 0, 15000));
  brep.epochs[0].flows.push_back(frec(burst2, fx.b_hot, 600, 0, 14000));
  brep.epochs[0].flows.push_back(frec(mouse, fx.b_hot, 100, 0, 1000));
  const ProvenanceGraph g = build_provenance(fx.ep, fx.ft.topo);
  const int pn = g.port_node({fx.b, fx.b_hot});
  ASSERT_GE(pn, 0);
  double w_b1 = 0, w_b2 = 0, w_m = 0;
  for (const auto& e : g.port_flows(pn)) {
    if (e.to == g.flow_node(burst1)) w_b1 = e.weight;
    if (e.to == g.flow_node(burst2)) w_b2 = e.weight;
    if (e.to == g.flow_node(mouse)) w_m = e.weight;
  }
  EXPECT_GT(w_b1, 0.0);
  EXPECT_GT(w_b2, 0.0);
  EXPECT_LT(w_m, 0.0) << "low-share flows are victims, not contributors";
}

TEST(BuilderTest, SingleFlowIsNotContention) {
  ChainFixture fx;
  auto& brep = fx.report(fx.b);
  brep.epochs[0].ports.push_back(prec(fx.b_hot, 600, 1, 15000));
  brep.epochs[0].flows.push_back(frec(tup(1, 9, 1), fx.b_hot, 600, 0, 15000));
  const ProvenanceGraph g = build_provenance(fx.ep, fx.ft.topo);
  const int pn = g.port_node({fx.b, fx.b_hot});
  ASSERT_GE(pn, 0);
  EXPECT_TRUE(g.port_flows(pn).empty())
      << "a lone flow cannot contend with itself";
}

TEST(BuilderTest, AnomalyEpochFilterDropsPreAnomalyContention) {
  ChainFixture fx;
  auto& brep = fx.report(fx.b);
  // Epoch 0: harmless contention, no pause anywhere (asymmetric shares so
  // the contribution formula yields nonzero weights).
  brep.epochs[0].flows.push_back(frec(tup(1, 9, 1), fx.b_hot, 300, 0, 6000));
  brep.epochs[0].flows.push_back(frec(tup(2, 9, 2), fx.b_hot, 100, 0, 2000));
  brep.epochs[0].ports.push_back(prec(fx.b_hot, 400, 0, 8000));
  // Epoch 1: the anomaly — pause activity at A.
  EpochRecord e1;
  e1.epoch_id = 2;
  e1.start = 1 << 17;
  fx.report(fx.a).epochs.push_back(e1);
  fx.report(fx.a).epochs.back().ports.push_back(
      prec(fx.a_to_b, 100, 60, 500));

  const ProvenanceGraph g = build_provenance(fx.ep, fx.ft.topo);
  // The epoch-0 contention at B must be filtered out.
  const int pn = g.port_node({fx.b, fx.b_hot});
  if (pn >= 0) {
    EXPECT_TRUE(g.port_flows(pn).empty());
  }

  // Without the pause at A no epoch is an anomaly epoch, so the no-PFC
  // fallback keeps epoch 0 and the B contention is back: the filter, not
  // the fixture, removed it above.
  fx.report(fx.a).epochs.back().ports.back().paused_cnt = 0;
  const ProvenanceGraph g2 = build_provenance(fx.ep, fx.ft.topo);
  const int pn2 = g2.port_node({fx.b, fx.b_hot});
  ASSERT_GE(pn2, 0);
  EXPECT_FALSE(g2.port_flows(pn2).empty());
}

TEST(BuilderTest, EvictedRecordsAreFoldedIn) {
  ChainFixture fx;
  auto& brep = fx.report(fx.b);
  brep.epochs[0].ports.push_back(prec(fx.b_hot, 700, 1, 17000));
  brep.epochs[0].flows.push_back(frec(tup(1, 9, 1), fx.b_hot, 600, 0, 15000));
  // A colliding flow was evicted to the controller mid-epoch; its entry
  // follows the occupant in the epoch's flow records.
  brep.epochs[0].flows.push_back(frec(tup(2, 9, 2), fx.b_hot, 100, 0, 2000));
  const ProvenanceGraph g = build_provenance(fx.ep, fx.ft.topo);
  EXPECT_GE(g.flow_node(tup(2, 9, 2)), 0);
  const int pn = g.port_node({fx.b, fx.b_hot});
  ASSERT_GE(pn, 0);
  EXPECT_EQ(g.port_flows(pn).size(), 2u) << "evicted flow joins the replay";
}

TEST(GraphTest, EdgeAccumulationAndLookups) {
  ProvenanceGraph g;
  const int p0 = g.add_port({1, 0});
  const int p1 = g.add_port({2, 3});
  EXPECT_EQ(g.add_port(net::PortRef{1, 0}), p0) << "idempotent add";
  g.add_port_edge(p0, p1, 5.0);
  g.add_port_edge(p0, p1, 2.5);
  ASSERT_EQ(g.port_out_degree(p0), 1);
  EXPECT_DOUBLE_EQ(g.port_out(p0)[0].weight, 7.5);
  const int f = g.add_flow(tup(1, 2, 3));
  g.add_flow_port_edge(f, p1, 10);
  g.add_port_flow_edge(p1, f, -2);
  EXPECT_EQ(g.flow_ports(f).size(), 1u);
  EXPECT_EQ(g.port_flows(p1).size(), 1u);
  EXPECT_TRUE(g.has_port_level_edges());
  EXPECT_EQ(g.port_node(net::PortRef{9, 9}), -1);
}

}  // namespace
}  // namespace hawkeye::provenance
