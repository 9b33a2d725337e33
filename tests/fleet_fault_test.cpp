// Fleet-ops fault classes (PR 7): per-class tests for the silent fleet
// failure modes — degraded (CRC-erroring) links, mis-negotiated link
// speeds, host-side PCIe drain bottlenecks, oversubscribed down-link
// tiers — plus the fabric-scale detection calibration.
//
// Three layers:
//  - plan layer: FaultPlan validation accepts well-formed fleet specs and
//    rejects the typos that would otherwise silently never fire;
//  - signature layer: refine_fleet_verdict's Table-2 decision rules, each
//    row driven directly with synthetic fleet-health counters over a real
//    topology/routing pair;
//  - run layer: every class end-to-end through eval::run_one — the
//    injected defect leaves its truth counters, the verdict names the
//    class (or is explicitly degraded), and the whole trace is
//    deterministic under a fixed seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "collect/detection_agent.hpp"
#include "diagnosis/diagnosis.hpp"
#include "eval/canonical.hpp"
#include "eval/runner.hpp"
#include "eval/testbed.hpp"
#include "fault/fault.hpp"
#include "net/topology.hpp"
#include "provenance/builder.hpp"

namespace hawkeye {
namespace {

using diagnosis::AnomalyType;
using eval::Testbed;

// ---------------------------------------------------------------------------
// Plan layer

TEST(FleetPlanTest, FleetSpecsEnableThePlan) {
  fault::FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  EXPECT_FALSE(plan.fleet_enabled());
  fault::DegradedLinkSpec bad_cable;
  bad_cable.ber = 1e-6;
  plan.degraded_links.push_back(bad_cable);
  EXPECT_TRUE(plan.fleet_enabled());
  EXPECT_TRUE(plan.enabled());
  // Fleet classes live below the telemetry layer: data-plane axes.
  EXPECT_TRUE(plan.dataplane_enabled());
  EXPECT_TRUE(plan.validate().empty()) << plan.validate();
}

TEST(FleetPlanTest, ValidateRejectsMalformedFleetSpecs) {
  {
    fault::FaultPlan plan;
    fault::DegradedLinkSpec s;
    s.ber = -1e-9;  // negative bit-error rate
    plan.degraded_links.push_back(s);
    EXPECT_FALSE(plan.validate().empty());
  }
  {
    fault::FaultPlan plan;
    fault::LinkSpeedMismatchSpec s;
    s.gbps = 0;  // a zero-rate link is an outage, not a mismatch
    plan.speed_mismatches.push_back(s);
    EXPECT_FALSE(plan.validate().empty());
  }
  {
    fault::FaultPlan plan;
    fault::HostPcieBottleneckSpec s;
    s.drain_gbps = -1;
    plan.pcie_bottlenecks.push_back(s);
    EXPECT_FALSE(plan.validate().empty());
  }
  {
    fault::FaultPlan plan;
    fault::OversubscribedDownlinkSpec s;
    s.factor = 1.5;  // "oversubscribed" must reduce capacity
    plan.oversub_downlinks.push_back(s);
    EXPECT_FALSE(plan.validate().empty());
  }
  {
    fault::FaultPlan plan;
    fault::DegradedLinkSpec s;
    s.ber = 1e-6;
    s.start = sim::us(500);
    s.stop = sim::us(100);  // inverted window
    plan.degraded_links.push_back(s);
    EXPECT_FALSE(plan.validate().empty());
  }
}

TEST(FleetPlanTest, TestbedRejectsInvalidFleetPlan) {
  Testbed tb;
  fault::FaultPlan plan;
  fault::DegradedLinkSpec s;
  s.ber = -1;
  plan.degraded_links.push_back(s);
  EXPECT_THROW(tb.install_faults(plan), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Evidence layer: FaultInjector::fleet_evidence over hand-driven counters.

TEST(FleetEvidenceTest, OverridesThenCrcLinksThenDrainHosts) {
  const net::FatTree ft = net::build_fat_tree(4);
  const double nominal = ft.topo.link(0).gbps;
  const auto uplink = [&ft](std::size_t i) {
    return std::make_pair(ft.hosts[i], ft.topo.peer(ft.hosts[i], 0).node);
  };
  const auto [a, b] = uplink(0);   // speed mismatch
  const auto [c, d] = uplink(4);   // bound override, CRC-erroring too
  const auto [e, f] = uplink(8);   // CRC only
  const auto [g, h] = uplink(12);  // CRC only
  fault::FaultPlan plan;
  fault::LinkSpeedMismatchSpec sm;
  sm.node_a = a;
  sm.node_b = b;
  sm.gbps = 25;
  plan.speed_mismatches.push_back(sm);
  for (const auto& [x, y] :
       {std::pair{c, d}, std::pair{g, h}, std::pair{e, f}}) {
    fault::DegradedLinkSpec dl;
    dl.node_a = x;
    dl.node_b = y;
    dl.ber = 1;  // every frame fails its FCS check
    plan.degraded_links.push_back(dl);
  }
  fault::HostPcieBottleneckSpec pcie;
  pcie.host = ft.hosts[2];
  plan.pcie_bottlenecks.push_back(pcie);
  pcie.host = ft.hosts[3];  // never delays a frame
  plan.pcie_bottlenecks.push_back(pcie);
  fault::FaultInjector fi(plan);
  fi.bind_rate_override(c, d, nominal / 2, 0, -1, /*oversub=*/true);

  net::Packet pkt;
  pkt.size_bytes = 1000;
  EXPECT_TRUE(fi.on_wire_crc(h, g, pkt, 10));
  EXPECT_TRUE(fi.on_wire_crc(e, f, pkt, 20));
  EXPECT_TRUE(fi.on_wire_crc(c, d, pkt, 30));
  fi.note_rate_limited(a, b, 40);
  fi.note_rate_limited(b, a, 41);
  const net::NodeId victim_dst = ft.hosts[9];
  fi.note_host_drain_delay(ft.hosts[2], 700, 50);
  fi.note_host_drain_delay(victim_dst, 300, 60);
  fi.note_host_drain_delay(victim_dst, 200, 61);
  fi.note_host_drain_delay(ft.hosts[5], 900, 70);  // neither victim nor spec

  const fault::FleetEvidence ev = fi.fleet_evidence(ft.topo, victim_dst, 100);
  const auto ends = [](const fault::LinkCounterEvidence& l) {
    return std::make_pair(l.node_a, l.node_b);
  };
  ASSERT_EQ(ev.links.size(), 4u);
  // Rate overrides first, in bind order.
  EXPECT_EQ(ends(ev.links[0]), std::make_pair(a, b));
  EXPECT_EQ(ev.links[0].nominal_gbps, nominal);
  EXPECT_EQ(ev.links[0].actual_gbps, 25);
  EXPECT_EQ(ev.links[0].slow_serializations, 2u);
  EXPECT_EQ(ev.links[0].crc_errors, 0u);
  EXPECT_FALSE(ev.links[0].oversub_tier);
  EXPECT_EQ(ends(ev.links[1]), std::make_pair(c, d));
  EXPECT_EQ(ev.links[1].actual_gbps, nominal / 2);
  EXPECT_EQ(ev.links[1].crc_errors, 1u);
  EXPECT_TRUE(ev.links[1].oversub_tier);
  // Then the CRC-only links, sorted by endpoints; (c, d) is not repeated.
  using Link = std::pair<net::NodeId, net::NodeId>;
  const Link ef = std::minmax(e, f);
  const Link gh = std::minmax(g, h);
  EXPECT_EQ(ends(ev.links[2]), std::min(ef, gh));
  EXPECT_EQ(ends(ev.links[3]), std::max(ef, gh));
  for (const auto& l : {ev.links[2], ev.links[3]}) {
    EXPECT_EQ(l.crc_errors, 1u);
    EXPECT_EQ(l.nominal_gbps, nominal);
    EXPECT_EQ(l.actual_gbps, nominal);
  }
  // Hosts: the victim's destination, then PCIe-spec hosts that waited.
  ASSERT_EQ(ev.hosts.size(), 2u);
  EXPECT_EQ(ev.hosts[0].host, victim_dst);
  EXPECT_EQ(ev.hosts[0].drain_delayed_pkts, 2u);
  EXPECT_EQ(ev.hosts[0].max_drain_backlog_ns, 300);
  EXPECT_EQ(ev.hosts[1].host, ft.hosts[2]);
  EXPECT_EQ(ev.hosts[1].max_drain_backlog_ns, 700);
  EXPECT_EQ(ev.sender_retransmissions, 0u);
}

// ---------------------------------------------------------------------------
// Signature layer: refine_fleet_verdict's decision rules, one per Table-2
// row, driven with synthetic counters over a real k=4 fat-tree.

struct SignatureRig {
  Testbed tb;
  net::FiveTuple victim;
  net::PortRef mid_hop;          // a switch-side hop on the victim path
  net::NodeId mid_a, mid_b;      // that link's endpoints

  SignatureRig() {
    victim = device::tuple_of({tb.ft.hosts[12], tb.ft.hosts[1], 900});
    const auto path = tb.routing.path_of(victim);
    // Skip the source-host NIC hop; pick a middle switch hop so the link
    // is unambiguously "on the victim path".
    mid_hop = path[path.size() / 2];
    mid_a = mid_hop.node;
    mid_b = tb.ft.topo.peer(mid_hop).node;
  }

  diagnosis::DiagnosisResult congestion_verdict() const {
    diagnosis::DiagnosisResult dx;
    dx.type = AnomalyType::kNormalContention;
    dx.initial_port = mid_hop;
    dx.root_cause_flows = {
        device::tuple_of({tb.ft.hosts[4], tb.ft.hosts[1], 2000})};
    dx.confidence = 1.0;
    return dx;
  }

  diagnosis::DiagnosisResult refine(
      const diagnosis::DiagnosisResult& dx,
      const fault::FleetEvidence& ev) const {
    return diagnosis::refine_fleet_verdict(dx, ev, tb.ft.topo, tb.routing,
                                           victim);
  }
};

TEST(FleetSignatureTest, EmptyEvidenceIsIdentity) {
  SignatureRig rig;
  const auto dx = rig.congestion_verdict();
  const auto out = rig.refine(dx, {});
  EXPECT_EQ(out.type, dx.type);
  EXPECT_EQ(out.confidence, dx.confidence);
}

TEST(FleetSignatureTest, CrcErrorsPlusRetransmitsMeanDegradedLink) {
  SignatureRig rig;
  fault::FleetEvidence ev;
  fault::LinkCounterEvidence link;
  link.node_a = rig.mid_a;
  link.node_b = rig.mid_b;
  link.crc_errors = 40;
  link.nominal_gbps = 100;
  link.actual_gbps = 100;
  ev.links.push_back(link);
  ev.sender_retransmissions = 12;
  const auto out = rig.refine(rig.congestion_verdict(), ev);
  EXPECT_EQ(out.type, AnomalyType::kDegradedLink);
  // Localized to the erroring link, and confidence reflects the rewrite.
  EXPECT_TRUE(out.initial_port.node == rig.mid_a ||
              out.initial_port.node == rig.mid_b);
  EXPECT_GT(out.confidence, 0.0);
  EXPECT_LT(out.confidence, 1.0);
}

TEST(FleetSignatureTest, BelievableIncastSurvivesOffPathCrcNoise) {
  SignatureRig rig;
  // A genuine 4-source incast NOT traced to the erroring link must keep
  // its verdict: the fleet counters explain the path, not the fan-in.
  diagnosis::DiagnosisResult dx;
  dx.type = AnomalyType::kMicroBurstIncast;
  net::PortRef elsewhere;
  elsewhere.node = rig.tb.ft.edges[3];
  elsewhere.port = 0;
  dx.initial_port = elsewhere;
  for (int i = 0; i < 4; ++i) {
    dx.root_cause_flows.push_back(device::tuple_of({
        rig.tb.ft.hosts[static_cast<size_t>(4 + i)], rig.tb.ft.hosts[1],
        static_cast<std::uint16_t>(2000 + i)}));
  }
  fault::FleetEvidence ev;
  fault::LinkCounterEvidence link;
  link.node_a = rig.mid_a;
  link.node_b = rig.mid_b;
  link.crc_errors = 5;
  link.nominal_gbps = 100;
  link.actual_gbps = 100;
  ev.links.push_back(link);
  ev.sender_retransmissions = 2;
  const auto out = rig.refine(dx, ev);
  EXPECT_EQ(out.type, AnomalyType::kMicroBurstIncast);
}

TEST(FleetSignatureTest, LoneReducedLinkIsSpeedMismatch) {
  SignatureRig rig;
  fault::FleetEvidence ev;
  fault::LinkCounterEvidence link;
  link.node_a = rig.mid_a;
  link.node_b = rig.mid_b;
  link.nominal_gbps = 100;
  link.actual_gbps = 25;  // the 25G optic in a 100G fabric
  link.slow_serializations = 500;
  ev.links.push_back(link);
  const auto out = rig.refine(rig.congestion_verdict(), ev);
  EXPECT_EQ(out.type, AnomalyType::kLinkSpeedMismatch);
}

TEST(FleetSignatureTest, ReducedTierIsOversubscriptionNotMismatch) {
  SignatureRig rig;
  fault::FleetEvidence ev;
  // Three sibling down-links share the tier-wide reduction; the victim
  // crosses one of them.
  for (int i = 0; i < 3; ++i) {
    fault::LinkCounterEvidence link;
    link.node_a = i == 0 ? rig.mid_a : rig.tb.ft.aggs[0];
    link.node_b = i == 0 ? rig.mid_b : rig.tb.ft.edges[static_cast<size_t>(i)];
    link.nominal_gbps = 100;
    link.actual_gbps = 50;
    link.slow_serializations = 200;
    link.oversub_tier = true;
    ev.links.push_back(link);
  }
  const auto out = rig.refine(rig.congestion_verdict(), ev);
  EXPECT_EQ(out.type, AnomalyType::kOversubscribedDownlink);
}

TEST(FleetSignatureTest, DrainBacklogOnQuietFabricIsPcieBottleneck) {
  SignatureRig rig;
  fault::FleetEvidence ev;
  fault::HostCounterEvidence host;
  host.host = net::Topology::node_of_ip(rig.victim.dst_ip);
  host.drain_delayed_pkts = 400;
  host.max_drain_backlog_ns = sim::us(900);
  ev.hosts.push_back(host);
  diagnosis::DiagnosisResult dx;  // detection fired, nothing upstream paused
  dx.type = AnomalyType::kNone;
  const auto out = rig.refine(dx, ev);
  EXPECT_EQ(out.type, AnomalyType::kHostPcieBottleneck);
}

TEST(FleetSignatureTest, DeadlockVerdictIsNeverRewritten) {
  SignatureRig rig;
  fault::FleetEvidence ev;
  fault::LinkCounterEvidence link;
  link.node_a = rig.mid_a;
  link.node_b = rig.mid_b;
  link.crc_errors = 100;
  link.nominal_gbps = 100;
  link.actual_gbps = 25;
  link.slow_serializations = 1000;
  ev.links.push_back(link);
  ev.sender_retransmissions = 50;
  diagnosis::DiagnosisResult dx;
  dx.type = AnomalyType::kInLoopDeadlock;
  dx.loop_ports = {rig.mid_hop};
  const auto out = rig.refine(dx, ev);
  EXPECT_EQ(out.type, AnomalyType::kInLoopDeadlock);
}

// ---------------------------------------------------------------------------
// Run layer: each class end-to-end. The injected defect must leave its own
// truth counters in RunResult, and the verdict must name the class (tp) or
// come back explicitly degraded — never silently wrong (the acceptance bar
// of bench_fault_sweeps' fleet sweep, pinned here per class at unit scale).

eval::RunResult run_class(AnomalyType type, std::uint64_t seed = 1) {
  eval::RunConfig cfg;
  cfg.scenario = type;
  cfg.seed = seed;
  return eval::run_one(cfg);
}

void expect_not_silently_wrong(const eval::RunResult& r) {
  EXPECT_TRUE(r.tp || r.degraded)
      << "verdict=" << diagnosis::to_string(r.dx.type)
      << " tp=" << r.tp << " fp=" << r.fp << " degraded=" << r.degraded;
}

TEST(FleetRunTest, DegradedLinkLeavesCrcTruthAndItsVerdict) {
  const auto r = run_class(AnomalyType::kDegradedLink);
  EXPECT_TRUE(r.triggered);
  EXPECT_GT(r.crc_drops, 0u);          // MAC FCS registers moved
  EXPECT_GT(r.retransmissions, 0u);    // go-back-N repaired the loss
  EXPECT_FALSE(r.fleet_evidence.empty());
  expect_not_silently_wrong(r);
}

TEST(FleetRunTest, SpeedMismatchLeavesSlowSerializationTruth) {
  const auto r = run_class(AnomalyType::kLinkSpeedMismatch);
  EXPECT_TRUE(r.triggered);
  EXPECT_GT(r.rate_limited_pkts, 0u);  // frames serialized below nominal
  EXPECT_EQ(r.crc_drops, 0u);          // clean FCS separates it from class 1
  expect_not_silently_wrong(r);
}

TEST(FleetRunTest, PcieBottleneckLeavesDrainTruth) {
  const auto r = run_class(AnomalyType::kHostPcieBottleneck);
  EXPECT_TRUE(r.triggered);
  EXPECT_GT(r.host_drain_delayed, 0u);  // NIC DMA drain gauge moved
  expect_not_silently_wrong(r);
}

TEST(FleetRunTest, OversubscribedDownlinkLeavesRateTruth) {
  const auto r = run_class(AnomalyType::kOversubscribedDownlink);
  EXPECT_TRUE(r.triggered);
  EXPECT_GT(r.rate_limited_pkts, 0u);
  expect_not_silently_wrong(r);
}

TEST(FleetRunTest, FleetRunsAreDeterministic) {
  const auto a = run_class(AnomalyType::kDegradedLink, 3);
  const auto b = run_class(AnomalyType::kDegradedLink, 3);
  EXPECT_EQ(eval::canonical_line(AnomalyType::kDegradedLink, 3, a),
            eval::canonical_line(AnomalyType::kDegradedLink, 3, b));
}

// ---------------------------------------------------------------------------
// Fabric-scale calibration knobs (PR 7): all three default OFF, so every
// k<=8 trace — and every golden — is byte-identical to the uncalibrated
// pipeline. The headroom term is exercised directly through the detection
// agent's exposed threshold.

TEST(CalibrationTest, ScaleKnobsDefaultOff) {
  EXPECT_EQ(collect::DetectionAgent::Config{}.hop_noise_headroom, 0);
  EXPECT_EQ(provenance::BuilderConfig{}.trigger_scope_ns, 0);
  EXPECT_FALSE(diagnosis::DiagnosisConfig{}.signature_rank);
}

TEST(CalibrationTest, ZeroHeadroomThresholdIsFactorTimesBaseline) {
  Testbed tb;
  const net::FiveTuple v =
      device::tuple_of({tb.ft.hosts[12], tb.ft.hosts[1], 900});
  const sim::Time base = tb.agent->baseline_rtt(v);
  ASSERT_GT(base, 0);
  EXPECT_EQ(tb.agent->trigger_threshold(v),
            static_cast<sim::Time>(3.0 * static_cast<double>(base)));
}

TEST(CalibrationTest, HeadroomAddsPerHopOfTheVictimPath) {
  Testbed::Options opts;
  opts.agent_cfg.hop_noise_headroom = sim::us(1);
  Testbed with(opts);
  Testbed without;
  const net::FiveTuple cross_pod =
      device::tuple_of({with.ft.hosts[12], with.ft.hosts[1], 900});
  const net::FiveTuple same_edge =
      device::tuple_of({with.ft.hosts[0], with.ft.hosts[1], 901});
  const sim::Time d_cross = with.agent->trigger_threshold(cross_pod) -
                            without.agent->trigger_threshold(cross_pod);
  const sim::Time d_local = with.agent->trigger_threshold(same_edge) -
                            without.agent->trigger_threshold(same_edge);
  // Headroom is per hop: the cross-pod path has strictly more hops than
  // the single-edge path, so its threshold moves strictly more.
  EXPECT_GT(d_local, 0);
  EXPECT_GT(d_cross, d_local);
  EXPECT_EQ(d_local % sim::us(1), 0);
  EXPECT_EQ(d_cross % sim::us(1), 0);
}

}  // namespace
}  // namespace hawkeye
