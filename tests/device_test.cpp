#include <gtest/gtest.h>

#include <stdexcept>

#include "eval/testbed.hpp"

namespace hawkeye::device {
namespace {

using eval::Testbed;

Testbed::Options plain() {
  Testbed::Options o;
  o.install_hawkeye = false;
  return o;
}

TEST(HostTest, FlowCompletesAtLineRate) {
  Testbed tb(plain());
  const net::NodeId src = tb.ft.hosts[0];
  const net::NodeId dst = tb.ft.hosts[15];  // cross-pod, 5 switch hops
  tb.add_flow({src, dst, 100, 4791, 1'000'000, sim::us(1), true, 0});
  tb.run_for(sim::ms(2));
  const auto& st = tb.host(src).flow_stats()[0];
  ASSERT_TRUE(st.complete());
  // 1 MB at 100 Gbps is 80 us of serialization plus ~25 us path RTT.
  EXPECT_LT(st.fct(), sim::us(200));
  EXPECT_GT(st.fct(), sim::us(80));
  EXPECT_EQ(st.pkts_sent, 1000u);
  EXPECT_EQ(st.pkts_acked, 1000u);
  EXPECT_EQ(tb.net.data_drops(), 0u);
}

TEST(HostTest, MinRttMatchesUnloadedPath) {
  Testbed tb(plain());
  tb.add_flow({tb.ft.hosts[0], tb.ft.hosts[15], 100, 4791, 200'000,
               sim::us(1), true, 0});
  tb.run_for(sim::ms(1));
  const auto& st = tb.host(tb.ft.hosts[0]).flow_stats()[0];
  // 6 links each way, 2 us propagation each: >= 24 us; the data direction
  // adds store-and-forward serialization (~0.08 us/hop at 100G).
  EXPECT_GE(st.min_rtt, sim::us(24));
  EXPECT_LE(st.min_rtt, sim::us(40));
}

TEST(HostTest, RateCapThrottlesFlow) {
  Testbed tb(plain());
  tb.add_flow({tb.ft.hosts[0], tb.ft.hosts[3], 100, 4791, 1'000'000,
               sim::us(1), false, 10.0});  // 10 Gbps cap
  tb.run_for(sim::ms(2));
  const auto& st = tb.host(tb.ft.hosts[0]).flow_stats()[0];
  ASSERT_TRUE(st.complete());
  // 1 MB at 10 Gbps = 800 us minimum.
  EXPECT_GE(st.fct(), sim::us(780));
}

TEST(HostTest, PfcInjectionPausesUplinkTraffic) {
  Testbed tb(plain());
  const net::NodeId sink = tb.ft.hosts[1];
  const net::NodeId src = tb.ft.hosts[5];
  tb.add_flow({src, sink, 100, 4791, 5'000'000, sim::us(1), true, 0});
  // Sink floods PAUSE frames for 500 us starting at 100 us.
  tb.host(sink).inject_pfc(sim::us(100), sim::us(600), sim::us(50), 65535);
  tb.run_for(sim::ms(2));
  const auto& st = tb.host(src).flow_stats()[0];
  ASSERT_TRUE(st.complete());
  // 5 MB at line rate would take ~400 us; the 500 us storm must stall it.
  EXPECT_GT(st.fct(), sim::us(550));
  EXPECT_GT(st.max_rtt, 3 * st.min_rtt);
  EXPECT_GT(tb.host(sink).pfc_frames_injected(), 5u);
}

TEST(SwitchTest, IncastGeneratesPfcWithoutDrops) {
  Testbed tb(plain());
  const net::NodeId sink = tb.ft.hosts[0];
  // Four line-rate senders from other pods overwhelm the sink's ToR port.
  for (int i = 0; i < 4; ++i) {
    tb.add_flow({tb.ft.hosts[static_cast<size_t>(4 + 3 * i)], sink,
                 static_cast<std::uint16_t>(100 + i), 4791, 500'000,
                 sim::us(1), false, 0});
  }
  tb.run_for(sim::ms(3));
  std::uint64_t pauses = 0;
  for (const net::NodeId sw : tb.ft.topo.switches()) {
    pauses += tb.switch_at(sw).pause_frames_sent();
  }
  EXPECT_GT(pauses, 0u) << "4:1 incast must trip Xoff";
  EXPECT_EQ(tb.net.data_drops(), 0u) << "PFC keeps the fabric lossless";
  for (const net::NodeId h : tb.ft.hosts) {
    for (const auto& st : tb.host(h).flow_stats()) {
      EXPECT_TRUE(st.complete()) << "incast drains after the burst";
    }
  }
}

// Losslessness property: no drops across a sweep of offered loads.
class LosslessSweep : public ::testing::TestWithParam<int> {};

TEST_P(LosslessSweep, NeverDropsUnderIncast) {
  Testbed tb(plain());
  const int senders = GetParam();
  const net::NodeId sink = tb.ft.hosts[2];
  for (int i = 0; i < senders; ++i) {
    tb.add_flow({tb.ft.hosts[static_cast<size_t>(4 + i)], sink,
                 static_cast<std::uint16_t>(100 + i), 4791, 300'000,
                 sim::us(1 + i), false, 0});
  }
  tb.run_for(sim::ms(3));
  EXPECT_EQ(tb.net.data_drops(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Senders, LosslessSweep, ::testing::Values(2, 4, 6, 8));

TEST(SwitchTest, PauseFrameFreezesEgressUntilResume) {
  Testbed tb(plain());
  const net::NodeId sw_id = tb.ft.edges[0];
  auto& sw = tb.switch_at(sw_id);
  // Deliver a PAUSE frame on port 0 (as if the attached host sent it).
  tb.simu.schedule(100, [&] {
    sw.receive(net::make_pfc(65535), 0);
  });
  tb.simu.run_until(sim::us(1));
  EXPECT_TRUE(sw.egress_paused(0));
  // 65535 quanta at 100 Gbps = 335 us; expires on its own.
  tb.simu.run_until(sim::us(400));
  EXPECT_FALSE(sw.egress_paused(0));
}

TEST(SwitchTest, ResumeUnfreezesImmediately) {
  Testbed tb(plain());
  auto& sw = tb.switch_at(tb.ft.edges[0]);
  tb.simu.schedule(100, [&] { sw.receive(net::make_pfc(65535), 0); });
  tb.simu.schedule(200, [&] { sw.receive(net::make_pfc(0), 0); });
  tb.simu.run_until(sim::us(1));
  EXPECT_FALSE(sw.egress_paused(0));
}

TEST(DcqcnTest, EcnFeedbackTamesPersistentContention) {
  // Two long cc-enabled flows share one egress: DCQCN should bring the
  // aggregate near the bottleneck rate without deep standing queues.
  Testbed::Options o = plain();
  o.switch_cfg.pfc_xoff_bytes = 8 * 1024 * 1024;  // keep PFC out of the test
  o.switch_cfg.pfc_xon_bytes = 4 * 1024 * 1024;
  Testbed tb(o);
  const net::NodeId sink = tb.ft.hosts[0];
  tb.add_flow({tb.ft.hosts[4], sink, 100, 4791, 8'000'000, 0, true, 0});
  tb.add_flow({tb.ft.hosts[8], sink, 200, 4791, 8'000'000, 0, true, 0});
  tb.run_for(sim::ms(3));
  const net::NodeId tor = tb.ft.topo.peer(sink, 0).node;
  const net::PortId to_sink = tb.ft.topo.port_towards(tor, sink);
  // After convergence the shared queue is bounded (ECN marks did their job).
  EXPECT_LT(tb.switch_at(tor).queue_bytes(to_sink), 2'000'000);
  EXPECT_EQ(tb.net.data_drops(), 0u);
}

TEST(NetworkTest, WireTableMatchesTopology) {
  Testbed tb(plain());
  const net::Topology& topo = tb.ft.topo;
  for (std::size_t i = 0; i < topo.node_count(); ++i) {
    const auto n = static_cast<net::NodeId>(i);
    for (net::PortId p = 0; p < topo.port_count(n); ++p) {
      const Wire& w = tb.net.wire(n, p);
      EXPECT_EQ(w.peer, topo.peer(n, p));
      ASSERT_NE(w.link, nullptr);
      EXPECT_EQ(w.link, &topo.link(static_cast<std::size_t>(topo.link_of(n, p))));
      EXPECT_EQ(&tb.net.link_at(n, p), w.link);
    }
    // Past the last port, and negative ports, are unwired.
    for (const net::PortId p : {topo.port_count(n), net::PortId{-1}}) {
      EXPECT_FALSE(tb.net.wire(n, p).peer.valid());
      EXPECT_EQ(tb.net.wire(n, p).link, nullptr);
      EXPECT_THROW(tb.net.link_at(n, p), std::out_of_range);
    }
  }
  const auto nodes = static_cast<net::NodeId>(topo.node_count());
  EXPECT_EQ(tb.net.wire(nodes, 0).link, nullptr);
  EXPECT_EQ(tb.net.wire(-1, 0).link, nullptr);
}

TEST(NetworkTest, DataHopAccountingCountsSwitchTraversals) {
  Testbed tb(plain());
  tb.add_flow({tb.ft.hosts[0], tb.ft.hosts[1], 100, 4791, 100'000, 0, true, 0});
  tb.run_for(sim::ms(1));
  // 100 packets through exactly 1 switch (same ToR) = 100 packet-hops.
  EXPECT_EQ(tb.net.data_hops(), 100u);
}

}  // namespace
}  // namespace hawkeye::device

namespace hawkeye::device {
namespace {

TEST(LossRecoveryTest, GoBackNRecoversFromBufferExhaustion) {
  // Deliberately misconfigured fabric: a tiny shared buffer with deep PFC
  // thresholds, so the incast DROPS instead of pausing. RoCEv2 go-back-N
  // (NACK + rewind, tail-loss RTO) must still complete every flow.
  eval::Testbed::Options o;
  o.install_hawkeye = false;
  o.switch_cfg.buffer_bytes = 96 * 1024;            // ~96 packets
  o.switch_cfg.pfc_xoff_bytes = 8 * 1024 * 1024;    // PFC never engages
  o.switch_cfg.pfc_xon_bytes = 4 * 1024 * 1024;
  eval::Testbed tb(o);
  const net::NodeId sink = tb.ft.hosts[0];
  for (int i = 0; i < 4; ++i) {
    tb.add_flow({tb.ft.hosts[static_cast<size_t>(4 + 3 * i)], sink,
                 static_cast<std::uint16_t>(100 + i), 4791, 400'000,
                 sim::us(1), false, 0});
  }
  tb.run_for(sim::ms(10));

  EXPECT_GT(tb.net.data_drops(), 0u) << "the test needs actual losses";
  std::uint64_t retx = 0;
  for (const net::NodeId h : tb.ft.hosts) {
    retx += tb.host(h).retransmissions();
    for (const auto& st : tb.host(h).flow_stats()) {
      EXPECT_TRUE(st.complete()) << st.tuple.to_string()
                                 << " must finish despite drops";
    }
  }
  EXPECT_GT(retx, 0u) << "completion must be via retransmission";
}

TEST(LossRecoveryTest, NoRetransmissionsOnLosslessFabric) {
  eval::Testbed::Options o;
  o.install_hawkeye = false;
  eval::Testbed tb(o);
  const net::NodeId sink = tb.ft.hosts[0];
  for (int i = 0; i < 4; ++i) {
    tb.add_flow({tb.ft.hosts[static_cast<size_t>(4 + 3 * i)], sink,
                 static_cast<std::uint16_t>(100 + i), 4791, 400'000,
                 sim::us(1), false, 0});
  }
  tb.run_for(sim::ms(5));
  for (const net::NodeId h : tb.ft.hosts) {
    EXPECT_EQ(tb.host(h).retransmissions(), 0u);
  }
  EXPECT_EQ(tb.net.data_drops(), 0u);
}

}  // namespace
}  // namespace hawkeye::device

namespace hawkeye::device {
namespace {

TEST(TimelyTest, RttGradientTamesPersistentContention) {
  Testbed::Options o = plain();
  o.cc_algo = CcAlgorithm::kTimely;
  o.switch_cfg.pfc_xoff_bytes = 8 * 1024 * 1024;  // isolate CC behaviour
  o.switch_cfg.pfc_xon_bytes = 4 * 1024 * 1024;
  Testbed tb(o);
  const net::NodeId sink = tb.ft.hosts[0];
  tb.add_flow({tb.ft.hosts[4], sink, 100, 4791, 8'000'000, 0, true, 0});
  tb.add_flow({tb.ft.hosts[8], sink, 200, 4791, 8'000'000, 0, true, 0});
  tb.run_for(sim::ms(3));
  const net::NodeId tor = tb.ft.topo.peer(sink, 0).node;
  const net::PortId to_sink = tb.ft.topo.port_towards(tor, sink);
  // The RTT-gradient loop bounds the standing queue like DCQCN does.
  EXPECT_LT(tb.switch_at(tor).queue_bytes(to_sink), 3'000'000);
  EXPECT_EQ(tb.net.data_drops(), 0u);
}

// ---------------------------------------------------------------------------
// PFC pause lifecycle edges: what happens when the RESUME never comes, and
// whether a long-lived pause is re-advertised before its quanta expire.
// These are the exact mechanisms the injected PFC frame loss in
// fault_test.cpp leans on, pinned here at the single-switch level.

TEST(SwitchPfcTest, PausedEgressDrainsOnlyAfterQuantaAgeOut) {
  Testbed tb(plain());
  const net::NodeId sw_id = tb.ft.edges[0];
  auto& sw = tb.switch_at(sw_id);
  const net::PortId host_port = tb.ft.topo.port_towards(sw_id, tb.ft.hosts[0]);
  const net::PortId uplink = tb.ft.topo.port_towards(sw_id, tb.ft.aggs[0]);
  net::FiveTuple t;
  t.src_ip = net::Topology::ip_of(tb.ft.hosts[4]);
  t.dst_ip = net::Topology::ip_of(tb.ft.hosts[0]);
  t.src_port = 5;
  t.dst_port = 4791;

  // The attached host advertises a full pause (65535 quanta at 100G is
  // ~335 us) and then goes silent — the RESUME it would normally send is
  // the frame the fault injector eats in the end-to-end tests.
  tb.simu.schedule(100, [&] { sw.receive(net::make_pfc(65535), host_port); });
  for (int i = 0; i < 10; ++i) {
    tb.simu.schedule(sim::us(1) + i * 100, [&sw, &t, uplink, i] {
      sw.receive(net::make_data_packet(t, 7, static_cast<std::uint32_t>(i),
                                       1000, false, 0),
                 uplink);
    });
  }
  tb.simu.run_until(sim::us(300));
  EXPECT_TRUE(sw.egress_paused(host_port)) << "quanta still running";
  EXPECT_EQ(sw.queue_pkts(host_port), 10) << "no RESUME, nothing may drain";
  tb.simu.run_until(sim::us(400));
  EXPECT_FALSE(sw.egress_paused(host_port))
      << "the pause must age out on its own";
  EXPECT_EQ(sw.queue_pkts(host_port), 0) << "aged-out egress drains fully";
}

TEST(SwitchPfcTest, PauseReAdvertisedWhileIngressHeldBetweenXonAndXoff) {
  Testbed tb(plain());
  const net::NodeId sw_id = tb.ft.edges[0];
  auto& sw = tb.switch_at(sw_id);
  const net::PortId host_port = tb.ft.topo.port_towards(sw_id, tb.ft.hosts[0]);
  const net::PortId uplink = tb.ft.topo.port_towards(sw_id, tb.ft.aggs[0]);
  net::FiveTuple t;
  t.src_ip = net::Topology::ip_of(tb.ft.hosts[4]);
  t.dst_ip = net::Topology::ip_of(tb.ft.hosts[0]);
  t.src_port = 5;
  t.dst_port = 4791;

  // Freeze the egress toward the host, then push the uplink ingress past
  // Xoff (64K): PAUSE #1 goes out of the uplink.
  tb.simu.schedule(100, [&] { sw.receive(net::make_pfc(65535), host_port); });
  for (int i = 0; i < 68; ++i) {
    tb.simu.schedule(sim::us(1) + i * 10, [&sw, &t, uplink, i] {
      sw.receive(net::make_data_packet(t, 7, static_cast<std::uint32_t>(i),
                                       1000, false, 0),
                 uplink);
    });
  }
  // Un-freeze briefly so the ingress drains into the band BETWEEN Xon
  // (32K) and Xoff (64K), then freeze again before it reaches Xon.
  tb.simu.schedule(sim::us(10), [&] { sw.receive(net::make_pfc(0), host_port); });
  tb.simu.schedule(sim::us(11) + 500,
                   [&] { sw.receive(net::make_pfc(65535), host_port); });

  tb.simu.run_until(sim::us(50));
  ASSERT_GT(sw.ingress_bytes(uplink), tb.switch_at(sw_id).config().pfc_xon_bytes)
      << "rig error: drained past Xon, refresh would RESUME instead";
  ASSERT_LT(sw.ingress_bytes(uplink),
            tb.switch_at(sw_id).config().pfc_xoff_bytes)
      << "rig error: ingress never left the Xoff region";
  EXPECT_EQ(sw.pause_frames_sent(), 1u);

  // The advertised pause lasts ~335 us; with kPauseRefreshFraction = 0.5
  // the switch must re-advertise around 168 us while still above Xon.
  tb.simu.run_until(sim::us(250));
  EXPECT_GE(sw.pause_frames_sent(), 2u)
      << "held between Xon and Xoff, the pause must be re-advertised "
         "before the upstream's quanta age out";
  for (const auto& ev : tb.net.pfc_trace()) {
    if (ev.node == sw_id && ev.port == uplink) {
      EXPECT_GT(ev.quanta, 0u)
          << "no RESUME may be sent while the ingress sits above Xon";
    }
  }
}

TEST(CcAlgorithmTest, NoneKeepsFixedRate) {
  Testbed::Options o = plain();
  o.cc_algo = CcAlgorithm::kNone;
  Testbed tb(o);
  tb.add_flow({tb.ft.hosts[0], tb.ft.hosts[3], 100, 4791, 1'000'000,
               sim::us(1), true, 20.0});
  tb.run_for(sim::ms(2));
  const auto& st = tb.host(tb.ft.hosts[0]).flow_stats()[0];
  ASSERT_TRUE(st.complete());
  // 1 MB at a fixed 20 Gbps: ~400 us, CC never changes the rate.
  EXPECT_GE(st.fct(), sim::us(390));
  EXPECT_LE(st.fct(), sim::us(480));
}

}  // namespace
}  // namespace hawkeye::device
