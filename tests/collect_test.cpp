#include <gtest/gtest.h>

#include <algorithm>

#include "eval/testbed.hpp"
#include "incast_rig.hpp"

namespace hawkeye::collect {
namespace {

using eval::Testbed;

TEST(DetectionAgentTest, BaselineRttMatchesTopology) {
  Testbed tb;
  // Cross-pod: 6 links each way at 2 us ≈ 24 us + serialization.
  const auto rtt = tb.agent->baseline_rtt(
      device::tuple_of({tb.ft.hosts[0], tb.ft.hosts[15], 1}));
  EXPECT_GE(rtt, sim::us(24));
  EXPECT_LE(rtt, sim::us(32));
  // Same-ToR: 2 links each way.
  const auto near = tb.agent->baseline_rtt(
      device::tuple_of({tb.ft.hosts[0], tb.ft.hosts[1], 1}));
  EXPECT_LT(near, rtt);
}

TEST(DetectionAgentTest, TriggersOnRttDegradation) {
  IncastRig rig;
  rig.tb.run_for(sim::ms(2));
  const Episode* ep = nullptr;
  for (const auto id : rig.tb.collector.episode_order()) {
    const Episode* cand = rig.tb.collector.episode(id);
    if (cand->victim == rig.victim) ep = cand;
  }
  ASSERT_NE(ep, nullptr) << "victim's RTT spike must open an episode";
  EXPECT_GE(ep->triggered_at, sim::us(200));
  EXPECT_LE(ep->triggered_at, sim::us(600));
}

TEST(DetectionAgentTest, NoTriggerOnHealthyTraffic) {
  Testbed tb;
  tb.add_flow({tb.ft.hosts[0], tb.ft.hosts[15], 900, 4791, 2'000'000,
               sim::us(1), true, 0});
  tb.run_for(sim::ms(2));
  EXPECT_TRUE(tb.collector.episode_order().empty());
}

TEST(DetectionAgentTest, PerFlowTriggerDedup) {
  IncastRig rig;
  rig.tb.run_for(sim::ms(2));
  int victim_episodes = 0;
  for (const auto id : rig.tb.collector.episode_order()) {
    if (rig.tb.collector.episode(id)->victim == rig.victim) ++victim_episodes;
  }
  // The anomaly lasts < 1 ms; dedup allows at most a couple of re-triggers.
  EXPECT_GE(victim_episodes, 1);
  EXPECT_LE(victim_episodes, 3);
}

TEST(CollectionTest, PollingCoversVictimPath) {
  IncastRig rig;
  rig.tb.run_for(sim::ms(2));
  const Episode* ep = nullptr;
  for (const auto id : rig.tb.collector.episode_order()) {
    const Episode* cand = rig.tb.collector.episode(id);
    if (cand->victim == rig.victim && ep == nullptr) ep = cand;
  }
  ASSERT_NE(ep, nullptr);
  // Every switch on the victim path must be collected (causal coverage).
  for (const net::NodeId sw : rig.tb.routing.switches_on_path(rig.victim)) {
    EXPECT_TRUE(ep->has_report(sw)) << "missing victim-path switch " << sw;
  }
  EXPECT_GT(ep->polling_packets, 0u);
  EXPECT_GT(ep->telemetry_bytes, 0);
  EXPECT_GT(ep->raw_telemetry_bytes, ep->telemetry_bytes);
  EXPECT_GT(ep->dataplane_report_packets, ep->report_packets);
}

TEST(CollectionTest, FullPollingCollectsEverySwitch) {
  Testbed::Options opts;
  opts.agent_cfg.full_polling = true;
  IncastRig rig(opts);
  rig.tb.run_for(sim::ms(2));
  const Episode* ep = nullptr;
  for (const auto id : rig.tb.collector.episode_order()) {
    const Episode* cand = rig.tb.collector.episode(id);
    if (cand->victim == rig.victim && ep == nullptr) ep = cand;
  }
  ASSERT_NE(ep, nullptr);
  EXPECT_EQ(ep->reports.size(), 20u);   // all switches in the k=4 fabric
  EXPECT_EQ(ep->polling_packets, 0u);   // no in-band tracing traffic
}

TEST(CollectionTest, VictimOnlyNeverLeavesVictimPath) {
  Testbed::Options opts;
  opts.switch_agent_cfg.trace_pfc_causality = false;
  IncastRig rig(opts);
  rig.tb.run_for(sim::ms(2));
  const Episode* ep = nullptr;
  for (const auto id : rig.tb.collector.episode_order()) {
    const Episode* cand = rig.tb.collector.episode(id);
    if (cand->victim == rig.victim && ep == nullptr) ep = cand;
  }
  ASSERT_NE(ep, nullptr);
  const auto path = rig.tb.routing.switches_on_path(rig.victim);
  for (const auto& [sw, rep] : ep->reports) {
    EXPECT_TRUE(std::find(path.begin(), path.end(), sw) != path.end())
        << "victim-only collected off-path switch " << sw;
  }
}

TEST(CollectionTest, CpuPollerLatencyModelScalesWithEpochs) {
  // 40 ms per epoch: 2 epochs -> 80 ms, 4 -> 160... the paper measures
  // 80/120 ms for 2/4 epochs; our linear model keeps the same order.
  EXPECT_EQ(Collector::kDmaPerEpoch * 2, sim::ms(80));
}

TEST(PollingFlagTest, Table1Semantics) {
  using net::PollingFlag;
  // 00: useless tracing — switches drop it (verified in agent logic).
  EXPECT_FALSE(net::traces_victim_path(PollingFlag::kUseless));
  // 01: default — victim path only.
  EXPECT_TRUE(net::traces_victim_path(PollingFlag::kVictimPath));
  EXPECT_FALSE(net::traces_pfc_causality(PollingFlag::kVictimPath));
  // 10: PFC causality only.
  EXPECT_FALSE(net::traces_victim_path(PollingFlag::kPfcCausality));
  EXPECT_TRUE(net::traces_pfc_causality(PollingFlag::kPfcCausality));
  // 11: both.
  EXPECT_TRUE(net::traces_victim_path(PollingFlag::kBoth));
  EXPECT_TRUE(net::traces_pfc_causality(PollingFlag::kBoth));
}

TEST(StalenessGuardTest, EpochStartingExactlyAtLimitIsKept) {
  // Pins the half-open boundary of the ring-overwrite guard
  // (Collector::do_collect): stale_limit = mirror + snapshot_delay +
  // epoch_ns, and records are rejected only when start > stale_limit. An
  // epoch starting EXACTLY at the limit is the legitimate tail of the
  // grace window and must survive; the epochs after it must not.
  Testbed::Options o;
  o.install_hawkeye = false;
  Testbed tb(o);
  // A capped long-lived flow keeps the first-hop ToR's epoch ring turning
  // with traffic in every epoch.
  tb.add_flow({tb.ft.hosts[0], tb.ft.hosts[15], 900, 4791, 2'000'000, 0,
               false, 10.0});
  auto& sw = tb.switch_at(tb.ft.edges[0]);
  const sim::Time E = sw.config().telemetry.epoch.epoch_ns();
  // Mirror instant chosen so the limit lands exactly on epoch 8's start.
  const sim::Time limit = 8 * E;
  const sim::Time mirror = limit - tb.collector.config().snapshot_delay - E;
  ASSERT_GT(mirror, 0);

  // A stale DMA read lands the snapshot at 10.5 E, when the 8-deep ring
  // holds epochs 3..10: epoch 8 starts at the limit, 9 and 10 after it.
  fault::FaultPlan plan;
  fault::DmaFaultSpec dma;
  dma.stale_prob = 1.0;
  dma.extra_delay = 3 * E + E / 2;
  plan.dma_faults.push_back(dma);
  tb.install_faults(plan);
  tb.collector.register_switch(sw);
  Episode& ep = tb.collector.open_episode(
      7, device::tuple_of({tb.ft.hosts[0], tb.ft.hosts[15], 900}), mirror);
  tb.simu.schedule_at(mirror,
                      [&] { tb.collector.collect_from(sw, 7, mirror); });
  tb.run_for(11 * E);

  ASSERT_EQ(tb.faults->dma_stale(), 1u);
  ASSERT_TRUE(ep.has_report(sw.id()));
  bool boundary_epoch_kept = false;
  for (const auto& er : ep.find_report(sw.id())->epochs) {
    EXPECT_LE(er.start, limit) << "guard leaked a post-limit epoch";
    boundary_epoch_kept = boundary_epoch_kept || er.start == limit;
  }
  EXPECT_TRUE(boundary_epoch_kept)
      << "start == stale_limit sits inside the half-open grace window";
  EXPECT_GT(ep.stale_epochs_rejected, 0u)
      << "epochs 9 and 10 (start > limit) can only reflect post-mirror "
         "traffic";
}

TEST(CollectorTest, SwitchCollectionDeduplicated) {
  Testbed tb;
  auto& sw = tb.switch_at(tb.ft.edges[0]);
  net::FiveTuple v1 = device::tuple_of({tb.ft.hosts[0], tb.ft.hosts[5], 1});
  net::FiveTuple v2 = device::tuple_of({tb.ft.hosts[1], tb.ft.hosts[6], 2});
  tb.collector.open_episode(1, v1, 100);
  tb.collector.open_episode(2, v2, 200);
  tb.collector.collect_from(sw, 1, 100);
  tb.collector.collect_from(sw, 2, 200);  // within interval: shares snapshot
  tb.simu.run_until(sim::ms(1));  // let the asynchronous CPU reads fire
  EXPECT_EQ(tb.collector.episode(1)->reports.size(), 1u);
  EXPECT_EQ(tb.collector.episode(2)->reports.size(), 1u);
}

}  // namespace
}  // namespace hawkeye::collect

namespace hawkeye::collect {
namespace {

TEST(PollingEdgeTest, UselessFlagCollectsNothing) {
  Testbed tb;
  tb.collector.open_episode(
      7, device::tuple_of({tb.ft.hosts[0], tb.ft.hosts[9], 1}), 0);
  net::Packet poll = net::make_polling(
      device::tuple_of({tb.ft.hosts[0], tb.ft.hosts[9], 1}), 7,
      net::PollingFlag::kUseless);
  tb.net.deliver(tb.ft.hosts[0], 0, std::move(poll), 1);
  tb.run_for(sim::ms(1));
  EXPECT_TRUE(tb.collector.episode(7)->reports.empty());
}

TEST(PollingEdgeTest, HopLimitBoundsForwarding) {
  Testbed::Options opts;
  opts.switch_agent_cfg.hop_limit = 1;  // mirror at most one extra hop
  IncastRig rig(opts);
  rig.tb.run_for(sim::ms(2));
  for (const auto id : rig.tb.collector.episode_order()) {
    const Episode* ep = rig.tb.collector.episode(id);
    EXPECT_LE(ep->reports.size(), 2u)
        << "hop limit 1: origin ToR + one forward only";
  }
}

TEST(PollingEdgeTest, EvictedFlowsReachAnalyzerThroughController) {
  // Force constant flow-table collisions: 1-slot tables hold one occupant
  // per epoch, so an epoch with more than one flow record can only carry
  // the entries its collisions displaced to the controller.
  Testbed::Options opts;
  opts.switch_cfg.telemetry.flow_slots = 1;
  IncastRig rig(opts);
  rig.tb.run_for(sim::ms(2));
  bool any_evicted = false;
  for (const auto id : rig.tb.collector.episode_order()) {
    for (const auto& [sw, rep] : rig.tb.collector.episode(id)->reports) {
      for (const auto& er : rep.epochs) any_evicted |= er.flows.size() > 1;
    }
  }
  EXPECT_TRUE(any_evicted);
}

// ---- Collector::merged_episode, over hand-built episodes ----

/// A report from switch `sw` collected at `at`, one empty epoch per start.
telemetry::SwitchTelemetryReport hand_report(
    net::NodeId sw, sim::Time at, const std::vector<sim::Time>& starts) {
  telemetry::SwitchTelemetryReport r;
  r.sw = sw;
  r.collected_at = at;
  for (const sim::Time s : starts) {
    telemetry::EpochRecord e;
    e.start = s;
    r.epochs.push_back(e);
  }
  return r;
}

std::vector<sim::Time> epoch_starts(const telemetry::SwitchTelemetryReport& r) {
  std::vector<sim::Time> out;
  for (const auto& e : r.epochs) out.push_back(e.start);
  return out;
}

struct MergeRig {
  static constexpr sim::Time kOnset = 1000;
  sim::Simulator simu;
  Collector collector;
  net::FiveTuple victim = device::tuple_of({0, 15, 900});
  net::FiveTuple other = device::tuple_of({1, 14, 901});

  explicit MergeRig(Collector::Config cfg = {}) : collector(simu, cfg) {}

  Episode& open(std::uint64_t probe, sim::Time at,
                const net::FiveTuple* who = nullptr) {
    return collector.open_episode(probe, who ? *who : victim, at);
  }
};

TEST(MergedEpisodeTest, NeverTriggeredVictimIsNullopt) {
  MergeRig rig;
  EXPECT_FALSE(rig.collector.merged_episode(rig.victim, rig.kOnset));
  rig.open(1, 1200, &rig.other).put_report(20, hand_report(20, 1300, {0}));
  EXPECT_FALSE(rig.collector.merged_episode(rig.victim, rig.kOnset));
}

TEST(MergedEpisodeTest, UnionsPostOnsetReportsAndContracts) {
  MergeRig rig;
  Episode& pre = rig.open(1, 500);  // pre-onset: ignored once post exists
  pre.put_report(30, hand_report(30, 600, {0}));
  pre.expected_switches = {30};
  Episode& a = rig.open(2, 1100);
  a.expected_switches = {10, 11};
  a.put_report(10, hand_report(10, 1200, {1000}));
  a.repolls = 1;
  rig.open(3, 1150, &rig.other).put_report(40, hand_report(40, 1200, {0}));
  Episode& b = rig.open(4, 1500);
  b.expected_switches = {12, 11};
  b.put_report(12, hand_report(12, 1600, {1000}));
  b.repolls = 2;
  b.degraded = true;

  const auto m = rig.collector.merged_episode(rig.victim, rig.kOnset);
  ASSERT_TRUE(m);
  EXPECT_EQ(m->probe_id, 2u);
  EXPECT_EQ(m->triggered_at, 1100);
  EXPECT_EQ(m->collected_switches(), (std::vector<net::NodeId>{10, 12}));
  EXPECT_EQ(m->expected_switches, (std::vector<net::NodeId>{10, 11, 12}));
  EXPECT_EQ(m->repolls, 3u);
  EXPECT_TRUE(m->degraded);
}

TEST(MergedEpisodeTest, LaterReportOfASwitchMergesIntoTheEarlierOne) {
  MergeRig rig;
  telemetry::SwitchTelemetryReport earlier = hand_report(10, 1200, {0, 1000});
  earlier.port_status.push_back({1, false, 0, 0});
  rig.open(1, 1100).put_report(10, earlier);
  telemetry::SwitchTelemetryReport later = hand_report(10, 1700, {1000, 2000});
  later.epochs[0].ports.push_back({});  // the later view of epoch 1000
  later.port_status.push_back({2, false, 0, 0});
  later.port_status.push_back({1, true, 0, 0});
  rig.open(2, 1600).put_report(10, later);

  const auto m = rig.collector.merged_episode(rig.victim, rig.kOnset);
  ASSERT_TRUE(m);
  const telemetry::SwitchTelemetryReport* rep = m->find_report(10);
  ASSERT_NE(rep, nullptr);
  EXPECT_EQ(epoch_starts(*rep), (std::vector<sim::Time>{0, 1000, 2000}));
  EXPECT_EQ(rep->epochs[1].ports.size(), 1u) << "later epoch view wins";
  // The earlier report is the base: its port-status rows stay first.
  ASSERT_EQ(rep->port_status.size(), 2u);
  EXPECT_EQ(rep->port_status[0].port, 1);
  EXPECT_TRUE(rep->port_status[0].paused_now);
  EXPECT_EQ(rep->port_status[1].port, 2);
}

TEST(MergedEpisodeTest, PreOnsetFallbackOnlyWithoutPostOnsetEpisodes) {
  {
    MergeRig rig;  // only pre-onset episodes: the first one stands in
    rig.open(1, 400).put_report(10, hand_report(10, 500, {0}));
    rig.open(2, 800).put_report(11, hand_report(11, 900, {0}));
    const auto m = rig.collector.merged_episode(rig.victim, rig.kOnset);
    ASSERT_TRUE(m);
    EXPECT_EQ(m->probe_id, 1u);
    EXPECT_EQ(m->collected_switches(), std::vector<net::NodeId>{10});
  }
  {
    MergeRig rig;  // a post-onset episode without reports still wins
    rig.open(1, 400).put_report(10, hand_report(10, 500, {0}));
    rig.open(2, 1100).failed_collections = 2;
    const auto m = rig.collector.merged_episode(rig.victim, rig.kOnset);
    ASSERT_TRUE(m);
    EXPECT_EQ(m->probe_id, 2u);
    EXPECT_TRUE(m->reports.empty());
    EXPECT_EQ(m->failed_collections, 2u);
  }
}

TEST(MergedEpisodeTest, ReportAccountingSumsTheMergedReports) {
  Collector::Config cfg;
  cfg.report_mtu_bytes = 40;  // several packets per report
  cfg.dataplane_phv_bytes = 64;
  MergeRig rig(cfg);
  rig.open(1, 1050).raw_telemetry_bytes = 7000;  // no reports: no raw rate
  Episode& a = rig.open(2, 1100);
  a.put_report(10, hand_report(10, 1200, {1000}));
  a.put_report(11, hand_report(11, 1200, {1000, 1100}));
  a.raw_telemetry_bytes = 2 * 300;  // 300 raw bytes per switch
  a.telemetry_bytes = 1;            // ignored: recomputed from the reports
  Episode& b = rig.open(3, 1500);
  b.put_report(10, hand_report(10, 1600, {2000}));
  b.put_report(12, hand_report(12, 1600, {}));
  b.raw_telemetry_bytes = 2 * 900;

  const auto m = rig.collector.merged_episode(rig.victim, rig.kOnset);
  ASSERT_TRUE(m);
  ASSERT_EQ(m->reports.size(), 3u);
  std::int64_t bytes = 0;
  std::uint64_t packets = 0;
  for (const auto& [sw, rep] : m->reports) {
    const std::int64_t n = telemetry::serialized_bytes(rep);
    bytes += n;
    packets += static_cast<std::uint64_t>((n + 39) / 40);
  }
  EXPECT_EQ(m->telemetry_bytes, bytes);
  EXPECT_EQ(m->report_packets, packets);
  EXPECT_GT(m->report_packets, m->reports.size());
  EXPECT_EQ(m->raw_telemetry_bytes, 3 * 300);
  EXPECT_EQ(m->dataplane_report_packets, 3u * 5u);  // ceil(300 / 64) = 5
}

}  // namespace
}  // namespace hawkeye::collect
