#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "net/packet.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "net/types.hpp"

namespace hawkeye::net {
namespace {

FiveTuple tuple(std::uint32_t s, std::uint32_t d, std::uint16_t sp) {
  FiveTuple t;
  t.src_ip = s;
  t.dst_ip = d;
  t.src_port = sp;
  t.dst_port = 4791;
  return t;
}

TEST(FiveTupleTest, EqualityAndHash) {
  const FiveTuple a = tuple(1, 2, 100);
  const FiveTuple b = tuple(1, 2, 100);
  const FiveTuple c = tuple(1, 2, 101);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_NE(a.hash(), c.hash());  // FNV over distinct bytes
}

// Collision smoke test for the hash the telemetry flow tables bucket with
// (`hash() % flow_slots`, see telemetry::TelemetryEngine::on_enqueue) and
// ECMP reuses. A naive XOR/sum hash fails this badly: fabric tuples differ
// in only a few low bytes, so both the full 64-bit values and the low-bit
// slot indices must still spread.
TEST(FiveTupleTest, HashSpreadsAcrossFlowTableSlots) {
  // Tuple population shaped like a k=8 fabric workload: 128 hosts all
  // pairs-ish, a few source ports each.
  std::vector<FiveTuple> tuples;
  for (std::uint32_t s = 1; s <= 128; ++s) {
    for (std::uint32_t d = 1; d <= 32; ++d) {
      if (s == d) continue;
      for (std::uint16_t sp = 1000; sp < 1004; ++sp) {
        tuples.push_back(tuple(s, d, sp));
      }
    }
  }
  // Full-width hashes must be collision-free on this population.
  std::set<std::uint64_t> full;
  for (const FiveTuple& t : tuples) full.insert(t.hash());
  EXPECT_EQ(full.size(), tuples.size());

  // Low-bit slot indices (the 4096-slot flow table) must look uniform:
  // the most loaded slot stays within a small factor of the mean.
  constexpr std::uint64_t kSlots = 4096;
  std::vector<int> load(kSlots, 0);
  for (const FiveTuple& t : tuples) ++load[t.hash() % kSlots];
  const double mean =
      static_cast<double>(tuples.size()) / static_cast<double>(kSlots);
  const int worst = *std::max_element(load.begin(), load.end());
  EXPECT_LE(worst, static_cast<int>(mean * 5.0 + 4.0))
      << "flow-table slot skew: worst=" << worst << " mean=" << mean;
  // And single-field increments must not map to adjacent-slot runs.
  const std::uint64_t s0 = tuple(1, 2, 1000).hash() % kSlots;
  const std::uint64_t s1 = tuple(1, 2, 1001).hash() % kSlots;
  const std::uint64_t s2 = tuple(1, 2, 1002).hash() % kSlots;
  EXPECT_FALSE(s1 == s0 + 1 && s2 == s0 + 2);
}

TEST(PacketTest, DataPacketFactory) {
  const Packet p = make_data_packet(tuple(1, 2, 7), 99, 5, 1000, true, 1234);
  EXPECT_EQ(p.kind, PacketKind::kData);
  EXPECT_EQ(p.size_bytes, 1000 + kHeaderBytes);
  EXPECT_EQ(p.seq, 5u);
  EXPECT_TRUE(p.last_of_flow);
  EXPECT_EQ(p.tx_time, 1234);
}

TEST(PacketTest, AckReversesTupleAndEchoesTimestamp) {
  const Packet d = make_data_packet(tuple(1, 2, 7), 99, 5, 1000, false, 777);
  const Packet a = make_ack(d, 999);
  EXPECT_EQ(a.kind, PacketKind::kAck);
  EXPECT_EQ(a.flow().src_ip, 2u);
  EXPECT_EQ(a.flow().dst_ip, 1u);
  EXPECT_EQ(a.tx_time, 777);  // echoed for RTT measurement
  EXPECT_EQ(a.flow_id, 99u);
}

TEST(PacketTest, CarriedFlowHashMatchesTheTuple) {
  // Every factory sets the flow through set_flow(), so each kind carries
  // the hash of its own tuple: the data tuple, the reversed one for the
  // ACK/CNP/NACK, the empty one for PFC and polling frames.
  const Packet d = make_data_packet(tuple(1, 2, 7), 99, 5, 1000, false, 777);
  for (const Packet& p : {d, make_ack(d, 1), make_cnp(d), make_nack(d, 3),
                          make_pfc(1), make_polling(tuple(4, 5, 6), 1,
                                                    PollingFlag::kBoth),
                          Packet{}}) {
    EXPECT_EQ(p.flow_hash(), p.flow().hash()) << p.to_string();
  }
  EXPECT_EQ(d.flow_hash(), tuple(1, 2, 7).hash());
  EXPECT_NE(make_ack(d, 1).flow_hash(), d.flow_hash());
  // A hand-built packet gets its hash the same way.
  Packet p;
  p.set_flow(tuple(3, 4, 9));
  EXPECT_EQ(p.flow_hash(), tuple(3, 4, 9).hash());
}

TEST(PacketTest, PfcFrameCarriesQuanta) {
  const Packet pause = make_pfc(65535);
  EXPECT_EQ(pause.kind, PacketKind::kPfc);
  EXPECT_EQ(pause.pause_quanta, 65535u);
  const Packet resume = make_pfc(0);
  EXPECT_EQ(resume.pause_quanta, 0u);
}

TEST(PacketTest, PollingFlagBits) {
  EXPECT_FALSE(traces_victim_path(PollingFlag::kUseless));
  EXPECT_TRUE(traces_victim_path(PollingFlag::kVictimPath));
  EXPECT_FALSE(traces_pfc_causality(PollingFlag::kVictimPath));
  EXPECT_TRUE(traces_pfc_causality(PollingFlag::kPfcCausality));
  EXPECT_TRUE(traces_victim_path(PollingFlag::kBoth));
  EXPECT_TRUE(traces_pfc_causality(PollingFlag::kBoth));
}

TEST(TopologyTest, ConnectWiresBothEnds) {
  Topology topo;
  const NodeId a = topo.add_node(NodeKind::kHost);
  const NodeId b = topo.add_node(NodeKind::kSwitch);
  topo.connect(a, b, 100.0, 2000);
  EXPECT_EQ(topo.peer(a, 0), (PortRef{b, 0}));
  EXPECT_EQ(topo.peer(b, 0), (PortRef{a, 0}));
  EXPECT_EQ(topo.port_towards(a, b), 0);
  EXPECT_EQ(topo.link_of(a, 0), topo.link_of(b, 0));
}

TEST(FatTreeTest, K4HasPaperScale) {
  const FatTree ft = build_fat_tree(4);
  EXPECT_EQ(ft.hosts.size(), 16u);
  EXPECT_EQ(ft.edges.size(), 8u);
  EXPECT_EQ(ft.aggs.size(), 8u);
  EXPECT_EQ(ft.cores.size(), 4u);
  EXPECT_EQ(ft.topo.switches().size(), 20u);  // paper §4.1: 20 switches
  // Links: 16 host-edge + 16 edge-agg + 16 agg-core.
  EXPECT_EQ(ft.topo.link_count(), 48u);
  // Every switch has exactly k=4 ports; hosts one.
  for (const NodeId sw : ft.topo.switches()) {
    EXPECT_EQ(ft.topo.port_count(sw), 4);
  }
  for (const NodeId h : ft.hosts) EXPECT_EQ(ft.topo.port_count(h), 1);
}

class RoutingAllPairs : public ::testing::TestWithParam<int> {};

TEST_P(RoutingAllPairs, EveryPairIsRoutable) {
  const FatTree ft = build_fat_tree(GetParam());
  const Routing routing(ft.topo);
  for (const NodeId s : ft.hosts) {
    for (const NodeId d : ft.hosts) {
      if (s == d) continue;
      const FiveTuple t = tuple(Topology::ip_of(s), Topology::ip_of(d), 99);
      const auto path = routing.path_of(t);
      ASSERT_FALSE(path.empty());
      // Path terminates adjacent to the destination.
      const PortRef last = path.back();
      EXPECT_EQ(ft.topo.peer(last).node, d)
          << "path must end at the destination host";
      // No repeated switch (loop-free under default routing).
      std::set<NodeId> seen;
      for (const auto& hop : path) {
        EXPECT_TRUE(seen.insert(hop.node).second);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, RoutingAllPairs, ::testing::Values(2, 4, 6));

TEST(RoutingTest, EcmpCandidatesMatchFatTreeStructure) {
  const FatTree ft = build_fat_tree(4);
  const Routing routing(ft.topo);
  // An edge switch reaching a host in another pod has k/2 = 2 up-links.
  const NodeId src_edge = ft.edges[0];
  const NodeId far_host = ft.hosts[15];
  EXPECT_EQ(routing.candidates(src_edge, far_host).size(), 2u);
  // Reaching a locally-attached host: exactly one port.
  const NodeId near_host = ft.hosts[0];
  EXPECT_EQ(routing.candidates(src_edge, near_host).size(), 1u);
}

TEST(RoutingTest, PathIsDeterministicPerTuple) {
  const FatTree ft = build_fat_tree(4);
  const Routing routing(ft.topo);
  const FiveTuple t = tuple(Topology::ip_of(ft.hosts[0]),
                            Topology::ip_of(ft.hosts[9]), 321);
  EXPECT_EQ(routing.path_of(t), routing.path_of(t));
}

TEST(RoutingTest, DifferentTuplesCanTakeDifferentPaths) {
  const FatTree ft = build_fat_tree(4);
  const Routing routing(ft.topo);
  std::set<std::vector<PortRef>> paths;
  for (std::uint16_t sp = 0; sp < 64; ++sp) {
    paths.insert(routing.path_of(tuple(Topology::ip_of(ft.hosts[0]),
                                       Topology::ip_of(ft.hosts[9]), sp)));
  }
  EXPECT_GT(paths.size(), 1u) << "ECMP should spread across paths";
}

TEST(RoutingTest, OverrideRedirectsTraffic) {
  const FatTree ft = build_fat_tree(4);
  Routing routing(ft.topo);
  const NodeId sw = ft.edges[0];
  const NodeId dst = ft.hosts[9];
  const PortId forced = ft.topo.port_towards(sw, ft.aggs[1]);
  routing.add_override(sw, dst, forced);
  const FiveTuple t =
      tuple(Topology::ip_of(ft.hosts[0]), Topology::ip_of(dst), 5);
  EXPECT_EQ(routing.egress_port(sw, t), forced);
  routing.clear_overrides();
  // Back to hash-selected candidate.
  const PortId normal = routing.egress_port(sw, t);
  EXPECT_NE(normal, kInvalidPort);
}

TEST(RoutingTest, OverrideLoopIsTruncated) {
  const FatTree ft = build_fat_tree(4);
  Routing routing(ft.topo);
  // Create a two-switch routing loop for some destination.
  const NodeId e0 = ft.edges[0];
  const NodeId a0 = ft.aggs[0];
  const NodeId dst = ft.hosts[9];
  routing.add_override(e0, dst, ft.topo.port_towards(e0, a0));
  routing.add_override(a0, dst, ft.topo.port_towards(a0, e0));
  const FiveTuple t =
      tuple(Topology::ip_of(ft.hosts[0]), Topology::ip_of(dst), 5);
  const auto path = routing.path_of(t, 16);
  EXPECT_LE(path.size(), 18u);  // bounded despite the loop
}

TEST(RoutingTest, OverrideLoopTruncatesAtExactlyMaxHops) {
  const FatTree ft = build_fat_tree(4);
  Routing routing(ft.topo);
  // Two-switch ping-pong: e0 <-> a0 forever for this destination.
  const NodeId e0 = ft.edges[0];
  const NodeId a0 = ft.aggs[0];
  const NodeId dst = ft.hosts[9];
  routing.add_override(e0, dst, ft.topo.port_towards(e0, a0));
  routing.add_override(a0, dst, ft.topo.port_towards(a0, e0));
  const FiveTuple t =
      tuple(Topology::ip_of(ft.hosts[0]), Topology::ip_of(dst), 5);
  // The walk emits the host NIC hop, then one switch hop per iteration
  // while ++hops <= max_hops: exactly max_hops switch entries.
  for (const int max_hops : {1, 2, 7, 16}) {
    EXPECT_EQ(routing.path_of(t, max_hops).size(),
              static_cast<std::size_t>(max_hops) + 1)
        << "max_hops=" << max_hops;
  }
}

TEST(RoutingTest, RebuildPreservesOverrides) {
  const FatTree ft = build_fat_tree(4);
  Routing routing(ft.topo);
  const NodeId sw = ft.edges[0];
  const NodeId dst = ft.hosts[9];
  const PortId forced = ft.topo.port_towards(sw, ft.aggs[1]);
  routing.add_override(sw, dst, forced);
  routing.rebuild();
  const FiveTuple t =
      tuple(Topology::ip_of(ft.hosts[0]), Topology::ip_of(dst), 5);
  EXPECT_EQ(routing.egress_port(sw, t), forced);
  EXPECT_EQ(routing.overrides().size(), 1u);
}

TEST(RoutingTest, DisablePortWithdrawsEcmpCandidate) {
  const FatTree ft = build_fat_tree(4);
  Routing routing(ft.topo);
  const NodeId sw = ft.edges[0];
  const NodeId far_host = ft.hosts[15];
  const auto before = routing.candidates(sw, far_host);
  ASSERT_EQ(before.size(), 2u);
  const PortId dead = before[0];

  EXPECT_EQ(routing.epoch(), 0u);
  EXPECT_TRUE(routing.disable_port(sw, dead));
  EXPECT_TRUE(routing.port_disabled(sw, dead));
  EXPECT_EQ(routing.epoch(), 1u);
  // Withdrawn from EVERY destination's candidate set on this switch...
  for (const NodeId d : ft.hosts) {
    const auto& cands = routing.candidates(sw, d);
    EXPECT_TRUE(std::find(cands.begin(), cands.end(), dead) == cands.end());
  }
  // ...and every flow through sw now hashes onto the surviving uplink.
  for (std::uint16_t sp = 0; sp < 32; ++sp) {
    const FiveTuple t =
        tuple(Topology::ip_of(ft.hosts[0]), Topology::ip_of(far_host), sp);
    EXPECT_EQ(routing.egress_port(sw, t), before[1]);
  }
  // Re-disable is a no-op and does not bump the epoch.
  EXPECT_FALSE(routing.disable_port(sw, dead));
  EXPECT_EQ(routing.epoch(), 1u);
}

TEST(RoutingTest, EnablePortRestoresCandidatesExactly) {
  const FatTree ft = build_fat_tree(4);
  Routing routing(ft.topo);
  const NodeId sw = ft.edges[0];
  // Snapshot the pristine candidate sets for every destination.
  std::vector<std::vector<PortId>> pristine;
  for (const NodeId d : ft.hosts) pristine.push_back(routing.candidates(sw, d));

  const PortId dead = routing.candidates(sw, ft.hosts[15])[0];
  ASSERT_TRUE(routing.disable_port(sw, dead));
  ASSERT_TRUE(routing.enable_port(sw, dead));
  EXPECT_FALSE(routing.port_disabled(sw, dead));
  EXPECT_EQ(routing.epoch(), 2u);  // one bump per mutation

  // Byte-identical restore: order included, so the hash -> port mapping of
  // every flow returns to its pre-flap value.
  std::size_t i = 0;
  for (const NodeId d : ft.hosts) {
    EXPECT_EQ(routing.candidates(sw, d), pristine[i++]) << "dst " << d;
  }
  // Enabling a port that was never disabled: no-op, no epoch bump.
  EXPECT_FALSE(routing.enable_port(sw, dead));
  EXPECT_EQ(routing.epoch(), 2u);
}

TEST(RoutingTest, DisableNeverEmptiesACandidateSet) {
  const FatTree ft = build_fat_tree(4);
  Routing routing(ft.topo);
  // A core reaches each pod through exactly one downlink: no ECMP
  // alternative, so the (black-holed) route is kept rather than leaving
  // the destination unroutable.
  const NodeId core = ft.cores[0];
  const auto before = routing.candidates(core, ft.hosts[0]);
  ASSERT_EQ(before.size(), 1u);
  EXPECT_TRUE(routing.disable_port(core, before[0]));
  EXPECT_EQ(routing.candidates(core, ft.hosts[0]), before);
  EXPECT_TRUE(routing.port_disabled(core, before[0]));
  // The flap heal must still round-trip cleanly.
  EXPECT_TRUE(routing.enable_port(core, before[0]));
  EXPECT_EQ(routing.candidates(core, ft.hosts[0]), before);
}

TEST(RoutingTest, OverridesBypassDisabledPorts) {
  // Overrides model pinned static routes: they keep forwarding into a dead
  // port (the black hole IS the anomaly), so disable_port must not touch
  // them.
  const FatTree ft = build_fat_tree(4);
  Routing routing(ft.topo);
  const NodeId sw = ft.edges[0];
  const NodeId dst = ft.hosts[9];
  const PortId forced = ft.topo.port_towards(sw, ft.aggs[0]);
  routing.add_override(sw, dst, forced);
  routing.disable_port(sw, forced);
  const FiveTuple t =
      tuple(Topology::ip_of(ft.hosts[0]), Topology::ip_of(dst), 5);
  EXPECT_EQ(routing.egress_port(sw, t), forced);
}

TEST(RoutingTest, CopiesAreIndependent) {
  const FatTree ft = build_fat_tree(4);
  Routing routing(ft.topo);
  const NodeId sw = ft.edges[0];
  const NodeId dst = ft.hosts[9];
  const PortId forced = ft.topo.port_towards(sw, ft.aggs[1]);
  routing.add_override(sw, dst, forced);
  Routing copy = routing;
  copy.remove_override(sw, dst);
  const PortId dead = copy.candidates(sw, ft.hosts[15])[0];
  copy.disable_port(sw, dead);
  const FiveTuple t =
      tuple(Topology::ip_of(ft.hosts[0]), Topology::ip_of(dst), 5);
  EXPECT_EQ(routing.egress_port(sw, t), forced);
  EXPECT_EQ(routing.overrides().size(), 1u);
  EXPECT_EQ(routing.candidates(sw, ft.hosts[15]).size(), 2u);
  EXPECT_EQ(routing.epoch(), 0u);
  EXPECT_FALSE(routing.port_disabled(sw, dead));
  EXPECT_TRUE(copy.overrides().empty());
  EXPECT_EQ(copy.candidates(sw, ft.hosts[15]).size(), 1u);
  EXPECT_EQ(copy.egress_port(sw, t), copy.candidates(sw, dst)[0]);
  EXPECT_TRUE(copy.port_disabled(sw, dead));
  EXPECT_EQ(copy.epoch(), 1u);
}

TEST(RoutingTest, OverridesNeedASwitchAndAHost) {
  const FatTree ft = build_fat_tree(4);
  Routing routing(ft.topo);
  EXPECT_THROW(routing.add_override(ft.hosts[0], ft.hosts[1], 0),
               std::invalid_argument);
  EXPECT_THROW(routing.add_override(ft.edges[0], ft.aggs[0], 0),
               std::invalid_argument);
  EXPECT_TRUE(routing.overrides().empty());
  // Only (switch, host) pairs have candidates.
  EXPECT_TRUE(routing.candidates(ft.hosts[0], ft.hosts[1]).empty());
  EXPECT_TRUE(routing.candidates(ft.edges[0], ft.aggs[0]).empty());
  EXPECT_EQ(routing.egress_port(ft.edges[0], ft.aggs[0], 7), kInvalidPort);
  EXPECT_EQ(routing.egress_port(-1, ft.hosts[1], 7), kInvalidPort);
}

TEST(RoutingTest, RebuildReappliesDisabledPorts) {
  const FatTree ft = build_fat_tree(4);
  Routing routing(ft.topo);
  const NodeId sw = ft.edges[0];
  const PortId dead = routing.candidates(sw, ft.hosts[15])[0];
  routing.disable_port(sw, dead);
  const std::uint64_t epoch_before = routing.epoch();
  routing.rebuild();
  EXPECT_GT(routing.epoch(), epoch_before);  // rebuild-with-disabled mutates
  EXPECT_TRUE(routing.port_disabled(sw, dead));
  const auto& cands = routing.candidates(sw, ft.hosts[15]);
  EXPECT_TRUE(std::find(cands.begin(), cands.end(), dead) == cands.end());
}

TEST(RoutingTest, SwitchesOnPathAreSwitchesOnly) {
  const FatTree ft = build_fat_tree(4);
  const Routing routing(ft.topo);
  const FiveTuple t = tuple(Topology::ip_of(ft.hosts[0]),
                            Topology::ip_of(ft.hosts[15]), 4);
  for (const NodeId n : routing.switches_on_path(t)) {
    EXPECT_TRUE(ft.topo.is_switch(n));
  }
  EXPECT_EQ(routing.switches_on_path(t).size(), 5u);  // edge-agg-core-agg-edge
}

TEST(RoutingTest, MiddleLinkIsTheMiddleOfTheSwitchPath) {
  const FatTree ft = build_fat_tree(4);
  const Routing routing(ft.topo);
  // Inter-pod: edge-agg-core-agg-edge, so the middle link is agg-core.
  const FiveTuple far = tuple(Topology::ip_of(ft.hosts[0]),
                              Topology::ip_of(ft.hosts[15]), 4);
  const std::vector<NodeId> sws = routing.switches_on_path(far);
  ASSERT_EQ(sws.size(), 5u);
  EXPECT_EQ(routing.middle_link(far), std::make_pair(sws[1], sws[2]));
  // Same ToR: one switch, so the link is the source host's uplink.
  const FiveTuple near = tuple(Topology::ip_of(ft.hosts[1]),
                               Topology::ip_of(ft.hosts[0]), 4);
  const NodeId tor = ft.topo.peer(ft.hosts[1], 0).node;
  ASSERT_EQ(routing.switches_on_path(near), std::vector<NodeId>{tor});
  EXPECT_EQ(routing.middle_link(near), std::make_pair(ft.hosts[1], tor));
}

TEST(RoutingTest, HopOfLinkFindsEitherEndpointOrder) {
  const FatTree ft = build_fat_tree(4);
  const Routing routing(ft.topo);
  const NodeId src = ft.hosts[0];
  const NodeId dst = ft.hosts[15];
  const FiveTuple t = tuple(Topology::ip_of(src), Topology::ip_of(dst), 4);
  const std::vector<PortRef> path = routing.path_of(t);
  const std::vector<NodeId> sws = routing.switches_on_path(t);
  ASSERT_EQ(path.size(), 6u);  // host NIC + five switch hops
  EXPECT_EQ(Routing::hop_of_link(path, dst, src, sws[0]), 0u);
  EXPECT_EQ(Routing::hop_of_link(path, dst, sws[2], sws[1]), 2u);
  EXPECT_EQ(Routing::hop_of_link(path, dst, dst, sws[4]), 5u);
  // Two on-path switches that are not adjacent on the path.
  EXPECT_EQ(Routing::hop_of_link(path, dst, sws[0], sws[2]), std::nullopt);
  EXPECT_EQ(Routing::hop_of_link({}, dst, src, sws[0]), std::nullopt);
}

}  // namespace
}  // namespace hawkeye::net

namespace hawkeye::net {
namespace {

TEST(LeafSpineTest, StructureAndRoutability) {
  const LeafSpine ls = build_leaf_spine(4, 2, 3);
  EXPECT_EQ(ls.hosts.size(), 12u);
  EXPECT_EQ(ls.leaves.size(), 4u);
  EXPECT_EQ(ls.spines.size(), 2u);
  EXPECT_EQ(ls.topo.link_count(), 12u + 8u);
  const Routing routing(ls.topo);
  for (const NodeId s : ls.hosts) {
    for (const NodeId d : ls.hosts) {
      if (s == d) continue;
      FiveTuple t;
      t.src_ip = Topology::ip_of(s);
      t.dst_ip = Topology::ip_of(d);
      t.src_port = 9;
      t.dst_port = 4791;
      const auto path = routing.path_of(t);
      ASSERT_FALSE(path.empty());
      EXPECT_EQ(ls.topo.peer(path.back()).node, d);
    }
  }
  // A cross-leaf destination has one ECMP candidate per spine.
  EXPECT_EQ(routing.candidates(ls.leaves[0], ls.hosts[11]).size(), 2u);
}

TEST(LeafSpineTest, RejectsBadDimensions) {
  EXPECT_THROW(build_leaf_spine(0, 2, 3), std::invalid_argument);
  EXPECT_THROW(build_leaf_spine(2, 0, 3), std::invalid_argument);
}

}  // namespace
}  // namespace hawkeye::net
