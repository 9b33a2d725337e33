// Fault-injection substrate + self-healing collection pipeline tests.
//
// The scenarios here deliberately break the telemetry path — polling-packet
// loss, switch-CPU DMA failures, agent blackouts, stale (delayed) register
// snapshots — and check that (a) every fault stream is deterministic under a
// fixed FaultPlan, (b) the detection agent's re-poll/backoff loop heals
// transient losses, and (c) unhealable episodes come back explicitly
// degraded instead of silently wrong.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <vector>

#include "eval/runner.hpp"
#include "eval/testbed.hpp"
#include "fault/fault.hpp"
#include "net/packet.hpp"
#include "net/topology.hpp"
#include "workload/scenario.hpp"

namespace hawkeye::collect {
namespace {

using eval::Testbed;

net::FiveTuple flow_tuple(net::NodeId src, net::NodeId dst,
                          std::uint16_t sp) {
  net::FiveTuple t;
  t.src_ip = net::Topology::ip_of(src);
  t.dst_ip = net::Topology::ip_of(dst);
  t.src_port = sp;
  t.dst_port = 4791;
  return t;
}

/// Same incast rig as collect_test: cross-pod victim degrades ~200-600 us
/// in, Hawkeye triggers and collects along the victim path.
struct IncastRig {
  Testbed tb;
  net::FiveTuple victim;

  explicit IncastRig(Testbed::Options opts = {}) : tb(opts) {
    const net::NodeId sink = tb.ft.hosts[0];
    const net::NodeId vdst = tb.ft.hosts[1];
    const net::NodeId vsrc = tb.ft.hosts[12];
    victim = flow_tuple(vsrc, vdst, 900);
    tb.add_flow({vsrc, vdst, 900, 4791, 20'000'000, sim::us(1), true, 0});
    for (int i = 0; i < 4; ++i) {
      tb.add_flow({tb.ft.hosts[static_cast<size_t>(4 + 2 * i)], sink,
                   static_cast<std::uint16_t>(2000 + i), 4791, 600'000,
                   sim::us(200), false, 0});
    }
  }

  const Episode* victim_episode() {
    const Episode* ep = nullptr;
    for (const auto id : tb.collector.episode_order()) {
      const Episode* cand = tb.collector.episode(id);
      if (cand->victim == victim && ep == nullptr) ep = cand;
    }
    return ep;
  }
};

// ---------------------------------------------------------------------------
// Determinism

TEST(FaultInjectorTest, SamePlanSameDecisionStream) {
  fault::FaultPlan plan = fault::FaultPlan::uniform_poll_loss(0.3, 42);
  plan.rtt_jitter = {0.5, 2.0};
  fault::FaultInjector a(plan);
  fault::FaultInjector b(plan);
  const net::FiveTuple v = flow_tuple(0, 1, 7);
  for (int i = 0; i < 200; ++i) {
    const auto va = a.on_polling(3, v, i * 100);
    const auto vb = b.on_polling(3, v, i * 100);
    EXPECT_EQ(static_cast<int>(va.action), static_cast<int>(vb.action));
    EXPECT_EQ(a.jitter_rtt(sim::us(10), v, i * 100),
              b.jitter_rtt(sim::us(10), v, i * 100));
  }
  EXPECT_EQ(a.polls_dropped(), b.polls_dropped());
  EXPECT_GT(a.polls_dropped(), 0u);
}

// The one match rule behind every hook: a spec covers a site during
// [start, stop), stop < 0 leaving the window open; a switch, port or host
// left invalid is a wildcard; a link matches in either endpoint order; an
// unbound link placeholder never fires. Every spec below fires whenever it
// covers a probe, and the probes straddle each window edge. In each family
// spec 1 names a site for [100, 200) ns and spec 2 (a wildcard, or another
// link) is open from 300 ns.
TEST(FaultInjectorTest, EveryHookMatchesItsSiteAndWindow) {
  constexpr net::NodeId kAny = net::kInvalidNode;
  constexpr sim::Time kLate = sim::ms(500);  // inside every open window
  const net::FiveTuple v = flow_tuple(0, 1, 7);
  fault::FaultPlan plan;
  plan.poll_faults = {{.sw = 3, .drop_prob = 1, .start = 100, .stop = 200},
                      {.delay_prob = 1, .delay_ns = 7, .start = 300}};
  plan.dma_faults = {{.sw = 3, .fail_prob = 1, .start = 100, .stop = 200},
                     {.stale_prob = 1, .extra_delay = 9, .start = 300}};
  plan.blackouts = {{.sw = 3, .start = 100, .stop = 200}, {.start = 300}};
  plan.pfc_faults = {
      {.sw = 5, .port = 2, .loss_prob = 1, .affect_resume = false,
       .start = 100, .stop = 200},
      {.sw = 6, .delay_prob = 1, .delay_ns = 11, .start = 100, .stop = 200},
      {.loss_prob = 1, .affect_pause = false, .start = 300}};
  plan.degraded_links = {
      {.node_a = 2, .node_b = 9, .ber = 1, .start = 100, .stop = 200},
      {.node_a = 4, .node_b = 7, .ber = 1, .start = 300},
      {.ber = 1}};  // unbound placeholder
  plan.speed_mismatches = {
      {.node_a = 2, .node_b = 9, .gbps = 25, .start = 100, .stop = 200},
      {.node_a = 4, .node_b = 7, .gbps = 40, .start = 300},
      {.gbps = 10}};
  plan.pcie_bottlenecks = {{.host = 6, .drain_gbps = 8, .start = 100,
                            .stop = 200},
                           {.drain_gbps = 4, .start = 300}};
  // Flap 1's single outage is cut to [100, 200) by its stop; flap 2 is a
  // 200 ns outage every 100 us from 300 ns with no stop.
  plan.link_flaps = {
      {.node_a = 2, .node_b = 9, .start = 100, .stop = 200, .down_ns = 1000},
      {.node_a = 4, .node_b = 7, .start = 300, .down_ns = 200,
       .period_ns = sim::us(100)},
      {}};
  fault::FaultInjector inj(plan);

  const auto poll = [&](net::NodeId sw, sim::Time t) {
    return inj.on_polling(sw, v, t).action;
  };
  EXPECT_EQ(poll(3, 99), fault::PollAction::kDeliver);
  EXPECT_EQ(poll(3, 100), fault::PollAction::kDrop);
  EXPECT_EQ(poll(3, 199), fault::PollAction::kDrop);
  EXPECT_EQ(poll(3, 200), fault::PollAction::kDeliver);
  EXPECT_EQ(poll(4, 150), fault::PollAction::kDeliver);
  EXPECT_EQ(poll(4, 299), fault::PollAction::kDeliver);
  EXPECT_EQ(poll(4, 300), fault::PollAction::kDelay);
  EXPECT_EQ(inj.on_polling(3, v, kLate).delay_ns, 7);

  // -1 for a failed snapshot, else the extra delay.
  const auto dma = [&](net::NodeId sw, sim::Time t) {
    const fault::DmaVerdict d = inj.on_dma(sw, t);
    return d.failed ? -1 : d.extra_delay;
  };
  EXPECT_EQ(dma(3, 99), 0);
  EXPECT_EQ(dma(3, 100), -1);
  EXPECT_EQ(dma(3, 199), -1);
  EXPECT_EQ(dma(3, 200), 0);
  EXPECT_EQ(dma(4, 150), 0);
  EXPECT_EQ(dma(4, 299), 0);
  EXPECT_EQ(dma(4, 300), 9);
  EXPECT_EQ(dma(3, kLate), 9);

  EXPECT_FALSE(inj.agent_down(3, 99));
  EXPECT_TRUE(inj.agent_down(3, 100));
  EXPECT_TRUE(inj.agent_down(3, 199));
  EXPECT_FALSE(inj.agent_down(3, 200));
  EXPECT_FALSE(inj.agent_down(4, 150));
  EXPECT_FALSE(inj.agent_down(4, 299));
  EXPECT_TRUE(inj.agent_down(4, 300));
  EXPECT_TRUE(inj.agent_down(3, kLate));

  // -1 for a lost frame, else the extra delay. quanta > 0 is a PAUSE.
  const auto pfc = [&](net::NodeId sw, net::PortId port, std::uint32_t quanta,
                       sim::Time t) {
    const fault::PfcVerdict p = inj.on_pfc_frame(sw, port, quanta, t);
    return p.dropped ? -1 : p.extra_delay;
  };
  EXPECT_EQ(pfc(5, 2, 1, 99), 0);
  EXPECT_EQ(pfc(5, 2, 1, 100), -1);
  EXPECT_EQ(pfc(5, 2, 1, 199), -1);
  EXPECT_EQ(pfc(5, 2, 1, 200), 0);
  EXPECT_EQ(pfc(5, 2, 0, 150), 0) << "spec 1 spares RESUME frames";
  EXPECT_EQ(pfc(5, 3, 1, 150), 0) << "other port";
  EXPECT_EQ(pfc(6, 3, 1, 150), 11) << "wildcard port, PAUSE";
  EXPECT_EQ(pfc(6, 0, 0, 199), 11) << "wildcard port, RESUME";
  EXPECT_EQ(pfc(6, 3, 1, 200), 0);
  EXPECT_EQ(pfc(7, 2, 1, 150), 0) << "other switch";
  EXPECT_EQ(pfc(7, 1, 0, 299), 0);
  EXPECT_EQ(pfc(7, 1, 0, 300), -1);
  EXPECT_EQ(pfc(5, 2, 0, kLate), -1);
  EXPECT_EQ(pfc(5, 2, 1, kLate), 0) << "spec 3 spares PAUSE frames";
  EXPECT_EQ(inj.pfc_pause_lost(), 2u);
  EXPECT_EQ(inj.pfc_resume_lost(), 2u);
  EXPECT_EQ(inj.pfc_frames_delayed(), 2u);
  EXPECT_EQ(inj.pause_frames_lost(5), 2u);
  EXPECT_EQ(inj.pause_frames_lost(7), 0u);

  net::Packet frame;
  frame.size_bytes = 1000;  // ber 1: every covered frame fails its FCS
  const auto crc = [&](net::NodeId a, net::NodeId b, sim::Time t) {
    return inj.on_wire_crc(a, b, frame, t);
  };
  EXPECT_TRUE(inj.has_degraded_links());
  EXPECT_FALSE(crc(2, 9, 99));
  EXPECT_TRUE(crc(2, 9, 100));
  EXPECT_TRUE(crc(9, 2, 199));
  EXPECT_FALSE(crc(2, 9, 200));
  EXPECT_FALSE(crc(2, 4, 150)) << "shares one endpoint, other link";
  EXPECT_FALSE(crc(4, 7, 299));
  EXPECT_TRUE(crc(7, 4, 300));
  EXPECT_TRUE(crc(4, 7, kLate));
  EXPECT_FALSE(crc(kAny, kAny, 150)) << "placeholders stay inert";
  EXPECT_EQ(inj.crc_drops(), 4u);

  constexpr double kNominal = 100;
  const auto gbps = [&](net::NodeId a, net::NodeId b, sim::Time t) {
    return inj.link_gbps(a, b, kNominal, t);
  };
  EXPECT_TRUE(inj.has_rate_overrides());
  EXPECT_EQ(gbps(2, 9, 99), kNominal);
  EXPECT_EQ(gbps(2, 9, 100), 25);
  EXPECT_EQ(gbps(9, 2, 199), 25);
  EXPECT_EQ(gbps(2, 9, 200), kNominal);
  EXPECT_EQ(gbps(2, 4, 150), kNominal);
  EXPECT_EQ(gbps(4, 7, 299), kNominal);
  EXPECT_EQ(gbps(7, 4, 300), 40);
  EXPECT_EQ(gbps(4, 7, kLate), 40);
  EXPECT_EQ(gbps(kAny, kAny, 150), kNominal);
  // A later override of the same link yields where an earlier one covers.
  inj.bind_rate_override(9, 2, 50, 0, -1, /*oversub=*/true);
  EXPECT_EQ(gbps(2, 9, 150), 25);
  EXPECT_EQ(gbps(2, 9, 99), 50);
  EXPECT_EQ(gbps(9, 2, kLate), 50);

  EXPECT_EQ(inj.host_drain_gbps(6, 99), 0);
  EXPECT_EQ(inj.host_drain_gbps(6, 100), 8);
  EXPECT_EQ(inj.host_drain_gbps(6, 199), 8);
  EXPECT_EQ(inj.host_drain_gbps(6, 200), 0);
  EXPECT_EQ(inj.host_drain_gbps(7, 150), 0);
  EXPECT_EQ(inj.host_drain_gbps(7, 299), 0);
  EXPECT_EQ(inj.host_drain_gbps(7, 300), 4);
  EXPECT_EQ(inj.host_drain_gbps(6, kLate), 4);

  EXPECT_TRUE(inj.has_link_faults());
  EXPECT_FALSE(inj.link_down(2, 9, 99));
  EXPECT_TRUE(inj.link_down(2, 9, 100));
  EXPECT_TRUE(inj.link_down(9, 2, 199));
  EXPECT_FALSE(inj.link_down(2, 9, 200));
  EXPECT_FALSE(inj.link_down(2, 4, 150));
  EXPECT_FALSE(inj.link_down(4, 7, 299));
  EXPECT_TRUE(inj.link_down(7, 4, 300));
  EXPECT_TRUE(inj.link_down(4, 7, 499));
  EXPECT_FALSE(inj.link_down(4, 7, 500));
  EXPECT_FALSE(inj.link_down(7, 4, kLate + 299));
  EXPECT_TRUE(inj.link_down(7, 4, kLate + 300));
  EXPECT_FALSE(inj.link_down(kAny, kAny, 150));
  EXPECT_EQ(inj.link_down_until(9, 2, 150), 200);
  EXPECT_EQ(inj.link_down_until(4, 7, 400), 500);
  EXPECT_EQ(inj.link_down_until(2, 9, 250), 250);

  // A plan whose link specs are all placeholders arms no link hook.
  fault::FaultPlan unbound;
  unbound.link_flaps.emplace_back();
  unbound.degraded_links.push_back({.ber = 1});
  unbound.speed_mismatches.emplace_back();
  const fault::FaultInjector idle(unbound);
  EXPECT_FALSE(idle.has_link_faults());
  EXPECT_FALSE(idle.has_degraded_links());
  EXPECT_FALSE(idle.has_rate_overrides());
}

TEST(FaultRunnerTest, FaultEnabledRunsAreDeterministic) {
  eval::RunConfig cfg;
  cfg.scenario = diagnosis::AnomalyType::kMicroBurstIncast;
  cfg.seed = 3;
  cfg.faults = fault::FaultPlan::uniform_poll_loss(0.10, 11);
  const eval::RunResult a = eval::run_one(cfg);
  const eval::RunResult b = eval::run_one(cfg);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.polling_drops, b.polling_drops);
  EXPECT_EQ(a.repolls, b.repolls);
  EXPECT_EQ(a.collection_coverage, b.collection_coverage);
  EXPECT_EQ(a.confidence, b.confidence);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(static_cast<int>(a.dx.type), static_cast<int>(b.dx.type));
  EXPECT_EQ(a.tp, b.tp);
}

TEST(FaultRunnerTest, FaultFreeRunReportsFullHealth) {
  eval::RunConfig cfg;
  cfg.scenario = diagnosis::AnomalyType::kMicroBurstIncast;
  cfg.seed = 1;
  const eval::RunResult r = eval::run_one(cfg);
  ASSERT_TRUE(r.triggered);
  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(r.collection_coverage, 1.0);
  EXPECT_EQ(r.confidence, 1.0);
  EXPECT_EQ(r.dx.confidence, 1.0);
  EXPECT_EQ(r.repolls, 0u);
  EXPECT_EQ(r.failed_collections, 0u);
  EXPECT_EQ(r.stale_epochs, 0u);
}

// ---------------------------------------------------------------------------
// Self-healing re-poll

TEST(SelfHealingTest, TransientPollLossHealsViaRepoll) {
  Testbed::Options opts;
  opts.agent_cfg.max_repolls = 3;
  IncastRig rig(opts);
  // Every polling packet is eaten until 900 us — past the latest possible
  // first trigger — then the fabric heals. The coverage check must notice
  // the silence and re-poll until the victim path is fully covered.
  fault::FaultPlan plan;
  fault::PollFaultSpec drop;
  drop.drop_prob = 1.0;
  drop.stop = sim::us(900);
  plan.poll_faults.push_back(drop);
  rig.tb.install_faults(plan);

  rig.tb.run_for(sim::ms(6));
  const Episode* ep = rig.victim_episode();
  ASSERT_NE(ep, nullptr);
  EXPECT_GE(ep->repolls, 1u) << "healing must have issued a re-poll";
  EXPECT_TRUE(ep->coverage_complete())
      << "after the fault window, retries must recover full coverage";
  EXPECT_FALSE(ep->degraded);
  EXPECT_GT(rig.tb.faults->polls_dropped(), 0u);
}

TEST(SelfHealingTest, ExhaustedRetryBudgetMarksDegraded) {
  Testbed::Options opts;
  opts.agent_cfg.max_repolls = 2;
  IncastRig rig(opts);
  // Black out the first victim-path switch for the whole run: polling
  // packets die there, coverage can never complete, and the budget must
  // end in an explicit degraded flag — not a silent partial episode.
  const auto path = rig.tb.routing.switches_on_path(rig.victim);
  ASSERT_FALSE(path.empty());
  fault::FaultPlan plan;
  fault::AgentBlackout down;
  down.sw = path.front();
  down.start = 0;
  down.stop = sim::ms(100);
  plan.blackouts.push_back(down);
  rig.tb.install_faults(plan);

  rig.tb.run_for(sim::ms(6));
  const Episode* ep = rig.victim_episode();
  ASSERT_NE(ep, nullptr);
  EXPECT_TRUE(ep->degraded);
  EXPECT_LT(ep->coverage(), 1.0);
  EXPECT_GT(rig.tb.faults->blackout_drops(), 0u);
  EXPECT_GT(rig.tb.faults->faults_for(rig.victim), 0u);
  EXPECT_GT(rig.tb.net.polling_drops(), 0u);
  EXPECT_EQ(rig.tb.net.data_drops(), 0u)
      << "collection faults must not leak into the data plane";
}

TEST(SelfHealingTest, DmaFailureCountsFailedCollections) {
  IncastRig rig;
  fault::FaultPlan plan;
  fault::DmaFaultSpec dma;
  dma.fail_prob = 1.0;
  plan.dma_faults.push_back(dma);
  rig.tb.install_faults(plan);

  rig.tb.run_for(sim::ms(2));
  const Episode* ep = rig.victim_episode();
  ASSERT_NE(ep, nullptr);
  EXPECT_GE(ep->failed_collections, 1u);
  EXPECT_TRUE(ep->reports.empty())
      << "a CPU that never finishes the DMA contributes no report";
  EXPECT_GT(rig.tb.faults->dma_failed(), 0u);
}

TEST(FaultInjectorTest, RttJitterCausesSpuriousTriggers) {
  // Healthy traffic never triggers (see DetectionAgentTest); with every
  // RTT sample inflated up to 20x, the detector's own sensor lies and
  // episodes appear anyway.
  Testbed tb;
  fault::FaultPlan plan;
  plan.rtt_jitter = {1.0, 20.0};
  tb.install_faults(plan);
  tb.add_flow({tb.ft.hosts[0], tb.ft.hosts[15], 900, 4791, 2'000'000,
               sim::us(1), true, 0});
  tb.run_for(sim::ms(2));
  EXPECT_FALSE(tb.collector.episode_order().empty());
  EXPECT_GT(tb.faults->rtt_jittered(), 0u);
}

// ---------------------------------------------------------------------------
// Ring-overwrite (stale epoch) rejection through the Collector path.
// Companion of TelemetryEngineTest.EpochWrapAroundResetsSlot: there the
// engine reuses a slot correctly; here a snapshot delayed past a full ring
// rotation must contribute ZERO stale records to the episode.

TEST(StaleEpochTest, LateCollectionYieldsNoStaleRecords) {
  IncastRig rig;
  const auto& ecfg =
      rig.tb.switch_at(rig.tb.ft.topo.switches()[0]).config().telemetry.epoch;
  const sim::Time ring_span = ecfg.epoch_ns() * ecfg.epoch_count();

  // Every DMA completes, but only after the epoch ring has fully rotated
  // (incast + victim traffic keeps churning it the whole time).
  fault::FaultPlan plan;
  fault::DmaFaultSpec dma;
  dma.stale_prob = 1.0;
  dma.extra_delay = 2 * ring_span;
  plan.dma_faults.push_back(dma);
  rig.tb.install_faults(plan);

  rig.tb.run_for(sim::ms(8));
  const Episode* ep = rig.victim_episode();
  ASSERT_NE(ep, nullptr);
  EXPECT_GT(ep->stale_epochs_rejected, 0u)
      << "a ring that rotated under the DMA must shed stale records";
  // Whatever survived the filter genuinely belongs to the episode: nothing
  // newer than the mirror instant plus the collection grace window.
  const sim::Time limit = ep->triggered_at + sim::ms(4) +
                          rig.tb.collector.config().snapshot_delay +
                          ecfg.epoch_ns();
  for (const auto& [sw, rep] : ep->reports) {
    for (const auto& er : rep.epochs) {
      EXPECT_LE(er.start, limit)
          << "sw" << sw << " leaked a post-overwrite epoch into the episode";
    }
  }
  EXPECT_GT(rig.tb.faults->dma_stale(), 0u);
}

TEST(StaleEpochTest, StaleCountIsBoundedByRingEpochs) {
  // The stale count feeds the verdict's confidence, so it must count ring
  // epochs, never flow records: one report can reject at most the ring's
  // epochs. 1-slot flow tables make every packet of a second flow evict,
  // so an epoch's evictions far outnumber its epochs.
  sim::Rng rng(1);
  const net::FatTree probe = net::build_fat_tree(4);
  const net::Routing probe_routing(probe.topo);
  const workload::ScenarioSpec spec =
      workload::make_pfc_storm(probe, probe_routing, rng);
  Testbed::Options opts;
  opts.switch_cfg.telemetry.flow_slots = 1;
  if (spec.xoff_bytes) opts.switch_cfg.pfc_xoff_bytes = *spec.xoff_bytes;
  if (spec.xon_bytes) opts.switch_cfg.pfc_xon_bytes = *spec.xon_bytes;
  Testbed tb(opts);
  tb.install(spec);

  const auto& ecfg = opts.switch_cfg.telemetry.epoch;
  fault::FaultPlan plan;
  fault::DmaFaultSpec dma;
  dma.stale_prob = 1.0;
  dma.extra_delay = 2 * ecfg.epoch_ns() * ecfg.epoch_count();
  plan.dma_faults.push_back(dma);
  tb.install_faults(plan);
  tb.run_for(spec.duration + sim::ms(5));

  std::uint64_t rejected = 0;
  for (const auto id : tb.collector.episode_order()) {
    const Episode* ep = tb.collector.episode(id);
    EXPECT_LE(ep->stale_epochs_rejected,
              ep->reports.size() * static_cast<std::size_t>(
                                       ecfg.epoch_count()))
        << "episode " << id << " with " << ep->reports.size() << " reports";
    rejected += ep->stale_epochs_rejected;
  }
  EXPECT_GT(rejected, 0u) << "the delayed DMA must outlive the ring";
}

// ---------------------------------------------------------------------------
// Per-reason drop accounting

TEST(DropAccountingTest, UselessPollingPacketCountsAsPollingDrop) {
  Testbed tb;
  const net::NodeId sw = tb.ft.topo.switches()[0];
  net::Packet poll =
      net::make_polling(flow_tuple(tb.ft.hosts[0], tb.ft.hosts[1], 5), 1,
                        net::PollingFlag::kUseless);
  tb.switch_at(sw).receive(std::move(poll), 0);
  EXPECT_EQ(tb.net.polling_drops(), 1u);
  EXPECT_EQ(tb.net.data_drops(), 0u);
}

// ---------------------------------------------------------------------------
// Fault-window sentinel + plan validation. Every spec shares the same
// window convention: [start, stop), stop < 0 => until the end of the run.
// A default-constructed blackout is therefore permanently active — the old
// `stop = 0` default made it silently inert, which is exactly the typo
// validate() now rejects elsewhere.

TEST(FaultPlanTest, DefaultBlackoutCoversWholeRun) {
  fault::FaultPlan plan;
  plan.blackouts.push_back({});  // all defaults: every agent, forever
  ASSERT_EQ(plan.validate(), "");
  fault::FaultInjector inj(plan);
  EXPECT_TRUE(inj.agent_down(0, 0));
  EXPECT_TRUE(inj.agent_down(17, sim::ms(500)));
}

TEST(FaultPlanTest, BlackoutWindowAndWildcardSemantics) {
  fault::FaultPlan plan;
  fault::AgentBlackout b;
  b.sw = 3;
  b.start = sim::us(100);
  b.stop = sim::us(200);
  plan.blackouts.push_back(b);
  fault::FaultInjector inj(plan);
  EXPECT_FALSE(inj.agent_down(3, sim::us(100) - 1));
  EXPECT_TRUE(inj.agent_down(3, sim::us(100)));
  EXPECT_TRUE(inj.agent_down(3, sim::us(200) - 1));
  EXPECT_FALSE(inj.agent_down(3, sim::us(200)))
      << "windows are half-open: [start, stop)";
  EXPECT_FALSE(inj.agent_down(4, sim::us(150)));
}

TEST(FaultPlanTest, ValidateRejectsBadSpecs) {
  const auto broken = [](auto mutate) {
    fault::FaultPlan p;
    mutate(p);
    return p.validate();
  };
  EXPECT_NE(broken([](fault::FaultPlan& p) {
              fault::PollFaultSpec s;
              s.start = sim::us(200);
              s.stop = sim::us(200);  // empty window
              p.poll_faults.push_back(s);
            }),
            "");
  EXPECT_NE(broken([](fault::FaultPlan& p) {
              fault::AgentBlackout b;
              b.start = sim::us(500);
              b.stop = sim::us(100);  // inverted window
              p.blackouts.push_back(b);
            }),
            "");
  EXPECT_NE(broken([](fault::FaultPlan& p) {
              fault::PollFaultSpec s;
              s.drop_prob = 0.8;
              s.delay_prob = 0.5;  // sum > 1
              p.poll_faults.push_back(s);
            }),
            "");
  EXPECT_NE(broken([](fault::FaultPlan& p) {
              fault::DmaFaultSpec s;
              s.fail_prob = -0.1;
              p.dma_faults.push_back(s);
            }),
            "");
  EXPECT_NE(broken([](fault::FaultPlan& p) {
              fault::LinkFlapSpec s;
              s.node_a = 3;  // half-bound: one real endpoint, one wildcard
              p.link_flaps.push_back(s);
            }),
            "");
  EXPECT_NE(broken([](fault::FaultPlan& p) {
              fault::LinkFlapSpec s;
              s.node_a = 3;
              s.node_b = 4;
              s.down_ns = sim::us(50);
              s.period_ns = sim::us(20);  // period shorter than down time
              p.link_flaps.push_back(s);
            }),
            "");
  EXPECT_NE(broken([](fault::FaultPlan& p) {
              fault::LinkFlapSpec s;
              s.node_a = 3;
              s.node_b = 4;
              s.jitter = 1.5;
              p.link_flaps.push_back(s);
            }),
            "");
  EXPECT_NE(broken([](fault::FaultPlan& p) {
              fault::PfcFrameFaultSpec s;
              s.loss_prob = 0.7;
              s.delay_prob = 0.7;  // sum > 1
              p.pfc_faults.push_back(s);
            }),
            "");

  // A fully-loaded but well-formed plan passes.
  fault::FaultPlan ok = fault::FaultPlan::uniform_poll_loss(0.2, 5);
  ok.blackouts.push_back({});
  fault::LinkFlapSpec flap;  // unbound placeholder: valid, inert
  ok.link_flaps.push_back(flap);
  ok.pfc_faults.push_back({});
  EXPECT_EQ(ok.validate(), "");
}

TEST(FaultPlanTest, VictimPathFlapsIsAValidUnboundTrain) {
  const fault::FaultPlan plan =
      fault::FaultPlan::victim_path_flaps(sim::us(500), sim::us(50), 7);
  EXPECT_EQ(plan.validate(), "");
  EXPECT_EQ(plan.seed, 7u);
  ASSERT_EQ(plan.link_flaps.size(), 1u);
  const fault::LinkFlapSpec& flap = plan.link_flaps[0];
  EXPECT_EQ(flap.node_a, net::kInvalidNode) << "the runner binds the link";
  EXPECT_EQ(flap.node_b, net::kInvalidNode);
  EXPECT_EQ(flap.period_ns, sim::us(500));
  EXPECT_EQ(flap.holddown_ns, sim::us(50));
}

TEST(FaultPlanTest, ValidateRejectsOverlappingWindowsSameSite) {
  // Spec lookup is first-match-wins: a second spec covering the same site
  // in an overlapping window silently never fires. validate() rejects it.
  const auto check = [](auto mutate) {
    fault::FaultPlan p;
    mutate(p);
    return p.validate();
  };

  // Same switch, overlapping bounded windows.
  EXPECT_NE(check([](fault::FaultPlan& p) {
              fault::PollFaultSpec a, b;
              a.sw = 3;
              a.start = sim::us(100);
              a.stop = sim::us(300);
              b.sw = 3;
              b.start = sim::us(200);
              b.stop = sim::us(400);
              p.poll_faults = {a, b};
            }),
            "");
  // Wildcard (every switch) conflicts with any specific switch.
  EXPECT_NE(check([](fault::FaultPlan& p) {
              fault::DmaFaultSpec a, b;
              a.sw = net::kInvalidNode;
              b.sw = 7;
              b.start = sim::us(50);
              b.stop = sim::us(60);
              p.dma_faults = {a, b};
            }),
            "");
  // Unbounded stop (< 0) extends to the end of the run and overlaps any
  // later window on the same site.
  EXPECT_NE(check([](fault::FaultPlan& p) {
              fault::AgentBlackout a, b;
              a.sw = 2;
              a.start = 0;
              a.stop = -1;
              b.sw = 2;
              b.start = sim::ms(5);
              b.stop = sim::ms(6);
              p.blackouts = {a, b};
            }),
            "");
  // Two placeholder flaps bind to the same victim-path link.
  EXPECT_NE(check([](fault::FaultPlan& p) {
              fault::LinkFlapSpec a, b;
              a.stop = sim::us(500);
              b.start = sim::us(100);
              b.stop = sim::us(200);
              p.link_flaps = {a, b};
            }),
            "");
  // PFC: wildcard port aliases every port of the matching sender.
  EXPECT_NE(check([](fault::FaultPlan& p) {
              fault::PfcFrameFaultSpec a, b;
              a.sw = 4;
              a.port = net::kInvalidPort;
              b.sw = 4;
              b.port = 2;
              p.pfc_faults = {a, b};
            }),
            "");
  // Fleet classes use the same rule.
  EXPECT_NE(check([](fault::FaultPlan& p) {
              fault::HostPcieBottleneckSpec a, b;
              a.host = 11;
              b.host = 11;
              p.pcie_bottlenecks = {a, b};
            }),
            "");

  // Adjacent half-open windows ([a,b) then [b,c)) on the same site are
  // disjoint and pass.
  EXPECT_EQ(check([](fault::FaultPlan& p) {
              fault::PollFaultSpec a, b;
              a.sw = 3;
              a.start = sim::us(100);
              a.stop = sim::us(200);
              b.sw = 3;
              b.start = sim::us(200);
              b.stop = sim::us(300);
              p.poll_faults = {a, b};
            }),
            "");
  // Same window on different sites passes.
  EXPECT_EQ(check([](fault::FaultPlan& p) {
              fault::AgentBlackout a, b;
              a.sw = 2;
              b.sw = 3;
              p.blackouts = {a, b};
            }),
            "");
  EXPECT_EQ(check([](fault::FaultPlan& p) {
              fault::PfcFrameFaultSpec a, b;
              a.sw = 4;
              a.port = 1;
              b.sw = 4;
              b.port = 2;
              p.pfc_faults = {a, b};
            }),
            "");
  // Overlapping windows on different links pass.
  EXPECT_EQ(check([](fault::FaultPlan& p) {
              fault::DegradedLinkSpec a, b;
              a.node_a = 1;
              a.node_b = 2;
              a.ber = 1e-6;
              b.node_a = 2;
              b.node_b = 3;
              b.ber = 1e-6;
              p.degraded_links = {a, b};
            }),
            "");
}

TEST(FaultPlanTest, PfcSpecsOnDisjointFrameKindsMayOverlap) {
  // A PFC spec's site includes the frame kinds it affects, as in the
  // injector's match rule: no frame can match a PAUSE-only spec and a
  // RESUME-only one, so both fire and their windows may overlap.
  const auto plan = [](bool b_pause, bool b_resume) {
    fault::PfcFrameFaultSpec loss, delay;
    loss.sw = 5;
    loss.port = 2;
    loss.loss_prob = 0.5;
    loss.affect_resume = false;
    loss.start = sim::us(100);
    loss.stop = sim::us(300);
    delay.sw = 5;
    delay.port = 2;
    delay.delay_prob = 0.5;
    delay.affect_pause = b_pause;
    delay.affect_resume = b_resume;
    delay.start = sim::us(200);
    delay.stop = sim::us(400);
    fault::FaultPlan p;
    p.pfc_faults = {loss, delay};
    return p;
  };
  EXPECT_EQ(plan(false, true).validate(), "") << "PAUSE-only + RESUME-only";
  EXPECT_NE(plan(true, false).validate(), "") << "both affect PAUSE";
  EXPECT_NE(plan(true, true).validate(), "") << "both affect PAUSE";
}

TEST(FaultPlanTest, EveryFamilyChecksWindowsAndSameSiteOverlap) {
  // Default-constructed specs are valid and all share one site (wildcard
  // switch/port/host or placeholder link), so the same plans probe the
  // window and overlap rules of every family in FaultPlan::families.
  const fault::FaultPlan none;
  int families = 0;
  fault::FaultPlan::families(none, [&](std::string_view key, std::string_view,
                                       const auto& empty) {
    using Spec = typename std::decay_t<decltype(empty)>::value_type;
    SCOPED_TRACE(std::string(key));
    ++families;
    const auto validate = [](const std::vector<Spec>& specs) {
      fault::FaultPlan p;
      fault::FaultPlan::families(
          p, [&](std::string_view, std::string_view, auto& v) {
            if constexpr (std::is_same_v<std::decay_t<decltype(v)>,
                                         std::vector<Spec>>) {
              v = specs;
            }
          });
      return p.validate();
    };
    const auto window = [](sim::Time start, sim::Time stop) {
      Spec s;
      s.start = start;
      s.stop = stop;
      return s;
    };
    EXPECT_EQ(validate({Spec{}}), "");
    EXPECT_NE(validate({window(sim::us(200), sim::us(200))}), "")
        << "empty window";
    EXPECT_NE(validate({window(sim::us(500), sim::us(100))}), "")
        << "inverted window";
    EXPECT_NE(validate({Spec{}, Spec{}}), "") << "same-site overlap";
    EXPECT_EQ(validate({window(sim::us(100), sim::us(200)),
                        window(sim::us(200), sim::us(300))}),
              "")
        << "adjacent half-open windows";
  });
  EXPECT_EQ(families, 9);
}

TEST(FaultPlanTest, TestbedRejectsOverlappingPlan) {
  Testbed tb;
  fault::FaultPlan plan;
  fault::PollFaultSpec a, b;  // both wildcard, both whole-run
  a.drop_prob = 0.1;
  b.drop_prob = 0.2;
  plan.poll_faults = {a, b};
  EXPECT_THROW(tb.install_faults(plan), std::invalid_argument);
  EXPECT_EQ(tb.faults, nullptr);
}

TEST(FaultPlanTest, TestbedRejectsInvalidPlan) {
  Testbed tb;
  fault::FaultPlan plan;
  fault::AgentBlackout b;
  b.start = sim::us(300);
  b.stop = sim::us(100);
  plan.blackouts.push_back(b);
  EXPECT_THROW(tb.install_faults(plan), std::invalid_argument);
  EXPECT_EQ(tb.faults, nullptr) << "a rejected plan must install nothing";
}

// ---------------------------------------------------------------------------
// Link flaps: precomputed schedule semantics, seeded reproducibility, and
// the end-to-end black-hole behaviour (drops attributed, transmitters
// stalled, no routing reconvergence, flows recover via go-back-N/RTO).

TEST(LinkFlapTest, DeterministicTrainWindows) {
  fault::FaultPlan plan;
  fault::LinkFlapSpec s;
  s.node_a = 2;
  s.node_b = 9;
  s.start = sim::us(100);
  s.stop = sim::us(700);
  s.down_ns = sim::us(50);
  s.period_ns = sim::us(200);
  plan.link_flaps.push_back(s);
  fault::FaultInjector inj(plan);
  EXPECT_TRUE(inj.has_link_faults());
  // Jitter-free train: outages exactly [100,150) [300,350) [500,550) us.
  EXPECT_FALSE(inj.link_down(2, 9, sim::us(100) - 1));
  EXPECT_TRUE(inj.link_down(2, 9, sim::us(100)));
  EXPECT_TRUE(inj.link_down(9, 2, sim::us(150) - 1)) << "endpoint-symmetric";
  EXPECT_FALSE(inj.link_down(2, 9, sim::us(150)));
  EXPECT_TRUE(inj.link_down(2, 9, sim::us(320)));
  EXPECT_TRUE(inj.link_down(2, 9, sim::us(540)));
  EXPECT_FALSE(inj.link_down(2, 9, sim::us(900)));
  EXPECT_FALSE(inj.link_down(3, 9, sim::us(320))) << "other links untouched";
  EXPECT_EQ(inj.link_down_until(2, 9, sim::us(320)), sim::us(350));
  EXPECT_EQ(inj.link_down_until(9, 2, sim::us(501)), sim::us(550));
  EXPECT_EQ(inj.link_down_until(2, 9, sim::us(250)), sim::us(250))
      << "an up link reports `now` (nothing to wait for)";
  // A schedule is a plan, not impact: `fired` only flips when a packet is
  // dropped, a transmitter stalls, or a PFC frame is eaten.
  EXPECT_FALSE(inj.dataplane_fault_fired());
  EXPECT_EQ(inj.first_dataplane_fault(), -1);
}

TEST(LinkFlapTest, SeededTrainIsReproducible) {
  fault::FaultPlan plan;
  plan.seed = 77;
  fault::LinkFlapSpec s;
  s.node_a = 0;
  s.node_b = 1;
  s.down_ns = sim::us(20);
  s.period_ns = sim::us(100);
  s.jitter = 1.0;
  s.stop = sim::ms(2);
  plan.link_flaps.push_back(s);
  fault::FaultInjector a(plan);
  fault::FaultInjector b(plan);
  fault::FaultPlan other = plan;
  other.seed = 78;
  fault::FaultInjector c(other);
  bool diverged = false;
  for (sim::Time t = 0; t < sim::ms(2); t += sim::us(5)) {
    EXPECT_EQ(a.link_down(0, 1, t), b.link_down(0, 1, t)) << "t=" << t;
    diverged = diverged || (a.link_down(0, 1, t) != c.link_down(0, 1, t));
  }
  EXPECT_TRUE(diverged) << "a different seed must shift the jittered train";
}

TEST(LinkFlapTest, FlapBlackholesAndStallsWithoutModelDrops) {
  Testbed::Options opts;
  opts.install_hawkeye = false;
  Testbed tb(opts);
  const net::NodeId src = tb.ft.hosts[0];
  const net::NodeId dst = tb.ft.hosts[15];
  const net::FiveTuple t = flow_tuple(src, dst, 700);
  const auto path = tb.routing.switches_on_path(t);
  ASSERT_GE(path.size(), 2u);
  // One 300 us outage on a middle victim-path link, starting mid-flow.
  fault::FaultPlan plan;
  fault::LinkFlapSpec flap;
  flap.node_a = path[path.size() / 2 - 1];
  flap.node_b = path[path.size() / 2];
  flap.start = sim::us(100);
  flap.down_ns = sim::us(300);
  plan.link_flaps.push_back(flap);
  tb.install_faults(plan);

  tb.add_flow({src, dst, 700, 4791, 2'000'000, sim::us(1), true, 0});
  tb.run_for(sim::ms(12));

  const device::FlowStats* st = tb.stats_of(t);
  ASSERT_NE(st, nullptr);
  EXPECT_TRUE(st->complete())
      << "go-back-N + tail-loss RTO must recover once the link revives";
  // 2 MB at 100G is ~170 us clean; the outage must have cost real time.
  EXPECT_GT(st->fct(), sim::us(400));
  EXPECT_GT(tb.faults->link_drops(), 0u) << "in-flight packets were eaten";
  EXPECT_EQ(tb.net.link_down_drops(), tb.faults->link_drops());
  EXPECT_TRUE(tb.faults->dataplane_fault_fired());
  EXPECT_GE(tb.faults->first_dataplane_fault(), sim::us(100));
  EXPECT_LE(tb.faults->first_dataplane_fault(), sim::us(400));
  EXPECT_GE(tb.faults->last_dataplane_fault(),
            tb.faults->first_dataplane_fault());
  EXPECT_EQ(tb.net.data_drops(), 0u)
      << "flap losses are the experiment, never model (data/headroom) drops";
}

// ---------------------------------------------------------------------------
// PFC frame faults (Mittal et al., SIGCOMM'18: corrupted pause signaling).

TEST(PfcFrameFaultTest, LostResumeFreezesPeerUntilQuantaAgeOut) {
  const auto incast_max_fct = [](bool lose_resumes) {
    Testbed::Options opts;
    opts.install_hawkeye = false;
    Testbed tb(opts);
    if (lose_resumes) {
      fault::FaultPlan plan;
      fault::PfcFrameFaultSpec s;
      s.loss_prob = 1.0;
      s.affect_pause = false;  // PAUSEs fly, every RESUME is eaten
      plan.pfc_faults.push_back(s);
      tb.install_faults(plan);
    }
    const net::NodeId sink = tb.ft.hosts[0];
    for (int i = 0; i < 4; ++i) {
      tb.add_flow({tb.ft.hosts[static_cast<size_t>(4 + 3 * i)], sink,
                   static_cast<std::uint16_t>(100 + i), 4791, 500'000,
                   sim::us(1), false, 0});
    }
    tb.run_for(sim::ms(8));
    sim::Time max_fct = 0;
    for (const net::NodeId h : tb.ft.hosts) {
      for (const auto& st : tb.host(h).flow_stats()) {
        EXPECT_TRUE(st.complete())
            << "quanta age-out must eventually unfreeze every pause";
        max_fct = std::max(max_fct, st.fct());
      }
    }
    EXPECT_EQ(tb.net.data_drops(), 0u);
    if (lose_resumes) {
      EXPECT_GT(tb.faults->pfc_resume_lost(), 0u);
      EXPECT_EQ(tb.faults->pfc_pause_lost(), 0u);
      EXPECT_TRUE(tb.faults->dataplane_fault_fired());
    }
    return max_fct;
  };
  const sim::Time clean = incast_max_fct(false);
  const sim::Time faulty = incast_max_fct(true);
  // Without RESUMEs the upstream stays frozen for the full advertised
  // pause (~335 us at 100G) instead of resuming at Xon — visibly slower.
  EXPECT_GT(faulty, clean);
}

TEST(PfcFrameFaultTest, LostPauseOverflowIsAttributedNotHeadroom) {
  Testbed::Options opts;
  opts.install_hawkeye = false;
  // Tight shared buffer: each ingress crosses Xoff (64K) well before the
  // switch total (512K), so a PAUSE is always attempted before overflow.
  opts.switch_cfg.buffer_bytes = 512 * 1024;
  Testbed tb(opts);
  fault::FaultPlan plan;
  fault::PfcFrameFaultSpec s;
  s.loss_prob = 1.0;
  s.affect_resume = false;  // RESUMEs fly, every PAUSE is eaten
  plan.pfc_faults.push_back(s);
  tb.install_faults(plan);

  const net::NodeId sink = tb.ft.hosts[0];
  for (int i = 0; i < 4; ++i) {
    tb.add_flow({tb.ft.hosts[static_cast<size_t>(4 + 3 * i)], sink,
                 static_cast<std::uint16_t>(100 + i), 4791, 500'000,
                 sim::us(1), false, 0});
  }
  tb.run_for(sim::ms(20));

  EXPECT_GT(tb.faults->pfc_pause_lost(), 0u);
  EXPECT_GT(tb.net.pfc_loss_drops(), 0u)
      << "unheard PAUSEs must overflow the ingress";
  EXPECT_EQ(tb.net.drops(device::DropReason::kHeadroom), 0u)
      << "overflow downstream of an eaten PAUSE is attributed to the "
         "injection, not misfiled as a headroom bug";
  EXPECT_EQ(tb.net.data_drops(), 0u);
  EXPECT_TRUE(tb.faults->dataplane_fault_fired());
  for (const net::NodeId h : tb.ft.hosts) {
    for (const auto& st : tb.host(h).flow_stats()) {
      EXPECT_TRUE(st.complete()) << "go-back-N recovers the induced losses";
    }
  }
}

TEST(PfcFrameFaultTest, DelayedFramesStillArrive) {
  Testbed::Options opts;
  opts.install_hawkeye = false;
  Testbed tb(opts);
  fault::FaultPlan plan;
  fault::PfcFrameFaultSpec s;
  s.delay_prob = 1.0;
  s.delay_ns = sim::us(20);
  plan.pfc_faults.push_back(s);
  tb.install_faults(plan);
  const net::NodeId sink = tb.ft.hosts[0];
  for (int i = 0; i < 4; ++i) {
    tb.add_flow({tb.ft.hosts[static_cast<size_t>(4 + 3 * i)], sink,
                 static_cast<std::uint16_t>(100 + i), 4791, 500'000,
                 sim::us(1), false, 0});
  }
  tb.run_for(sim::ms(8));
  EXPECT_GT(tb.faults->pfc_frames_delayed(), 0u);
  EXPECT_EQ(tb.faults->pfc_pause_lost() + tb.faults->pfc_resume_lost(), 0u);
  // 20 us of extra pause latency overruns Xoff by ~250 KB — far inside the
  // default 32 MB shared buffer, so the fabric stays lossless.
  EXPECT_EQ(tb.net.data_drops(), 0u);
  for (const net::NodeId h : tb.ft.hosts) {
    for (const auto& st : tb.host(h).flow_stats()) {
      EXPECT_TRUE(st.complete());
    }
  }
}

// ---------------------------------------------------------------------------
// Targeted re-poll (Fig 9 metric): healing rounds must pay for the gap,
// not re-traverse the already-covered prefix of the victim path.

TEST(TargetedRepollTest, TargetedRepollCutsPollingBytes) {
  const auto polling_bytes_with = [](std::uint32_t max_repolls) {
    Testbed::Options opts;
    opts.agent_cfg.max_repolls = max_repolls;
    IncastRig rig(opts);
    // The LAST victim-path switch is blacked out forever: coverage can
    // never complete, so every retry round fires and a non-zero budget
    // ends in a degraded episode.
    const auto path = rig.tb.routing.switches_on_path(rig.victim);
    fault::FaultPlan plan;
    fault::AgentBlackout down;
    down.sw = path.back();
    plan.blackouts.push_back(down);  // stop = -1: whole run
    rig.tb.install_faults(plan);
    rig.tb.run_for(sim::ms(6));
    const Episode* ep = rig.victim_episode();
    EXPECT_NE(ep, nullptr);
    if (ep == nullptr) return std::int64_t{0};
    EXPECT_EQ(ep->degraded, max_repolls > 0);
    EXPECT_EQ(ep->repolls, max_repolls);
    EXPECT_LT(ep->coverage(), 1.0);
    return ep->polling_bytes;
  };
  const std::int64_t first_round = polling_bytes_with(0);
  const std::int64_t with_repolls = polling_bytes_with(2);
  ASSERT_GT(first_round, 0);
  ASSERT_GT(with_repolls, first_round);
  EXPECT_LT(with_repolls - first_round, first_round)
      << "two re-polls injected at the first silent hop must cost fewer "
         "in-band bytes than one probe along the whole victim path";
}

TEST(TargetedRepollTest, CollectMissingOnlySnapshotsUncoveredExpectedHops) {
  Testbed tb;
  const net::NodeId a = tb.ft.topo.switches()[0];
  const net::NodeId b = tb.ft.topo.switches()[1];
  Episode& ep = tb.collector.open_episode(42, flow_tuple(0, 1, 9), 0);
  ep.expected_switches = {a, b};
  tb.collector.collect_from(tb.switch_at(a), 42, tb.simu.now());
  tb.run_for(sim::us(300));  // flush the asynchronous snapshot
  ASSERT_TRUE(ep.has_report(a));
  const std::uint64_t before = tb.collector.snapshot_requests();
  tb.collector.collect_missing(42, tb.simu.now());
  EXPECT_EQ(tb.collector.snapshot_requests(), before + 1)
      << "only the one uncovered expected switch may be re-read";
  tb.run_for(sim::ms(1));
  EXPECT_TRUE(ep.has_report(b));
}

TEST(TargetedRepollTest, CollectMissingWithoutExpectationIsNoOp) {
  Testbed tb;
  tb.collector.open_episode(43, flow_tuple(0, 1, 9), 0);
  const std::uint64_t before = tb.collector.snapshot_requests();
  tb.collector.collect_missing(43, tb.simu.now());
  EXPECT_EQ(tb.collector.snapshot_requests(), before)
      << "no expectation means nothing is missing — a re-poll round must "
         "not degenerate into a full-fabric dump";
}

// ---------------------------------------------------------------------------
// Routing reconvergence under link flaps (PR 4).

TEST(ReconvergenceTest, HolddownWithdrawsAndRestoresPorts) {
  Testbed::Options opts;
  opts.install_hawkeye = false;
  Testbed tb(opts);
  const net::NodeId src = tb.ft.hosts[0];
  const net::NodeId dst = tb.ft.hosts[15];
  const net::FiveTuple t = flow_tuple(src, dst, 700);
  const auto sws = tb.routing.switches_on_path(t);
  ASSERT_EQ(sws.size(), 5u);  // edge-agg-core-agg-edge
  const net::NodeId agg = sws[1];
  const net::NodeId core = sws[2];
  const net::PortId up = tb.ft.topo.port_towards(agg, core);

  // One [100, 400) us outage with a 50 us hold-down: the agg must withdraw
  // its dead uplink at 150 us and restore it at 450 us.
  fault::FaultPlan plan;
  fault::LinkFlapSpec flap;
  flap.node_a = agg;
  flap.node_b = core;
  flap.start = sim::us(100);
  flap.down_ns = sim::us(300);
  flap.holddown_ns = sim::us(50);
  plan.link_flaps.push_back(flap);
  tb.install_faults(plan);
  ASSERT_TRUE(tb.faults->reconvergence_enabled());

  tb.run_for(sim::us(200));
  EXPECT_TRUE(tb.routing.port_disabled(agg, up)) << "withdrawn after hold-down";
  const auto& mid = tb.routing.candidates(agg, dst);
  EXPECT_TRUE(std::find(mid.begin(), mid.end(), up) == mid.end());
  EXPECT_GT(tb.routing.epoch(), 0u);

  tb.run_for(sim::us(600));  // past link-up (400 us) + restore hold-down
  EXPECT_FALSE(tb.routing.port_disabled(agg, up)) << "restored after heal";
  const auto& after = tb.routing.candidates(agg, dst);
  EXPECT_TRUE(std::find(after.begin(), after.end(), up) != after.end());
}

TEST(ReconvergenceTest, OutageShorterThanHolddownNeverReconverges) {
  Testbed::Options opts;
  opts.install_hawkeye = false;
  Testbed tb(opts);
  const net::FiveTuple t = flow_tuple(tb.ft.hosts[0], tb.ft.hosts[15], 700);
  const auto sws = tb.routing.switches_on_path(t);
  fault::FaultPlan plan;
  fault::LinkFlapSpec flap;
  flap.node_a = sws[1];
  flap.node_b = sws[2];
  flap.start = sim::us(100);
  flap.down_ns = sim::us(30);
  flap.holddown_ns = sim::us(50);  // dampening filter: 30 us outage < 50 us
  plan.link_flaps.push_back(flap);
  tb.install_faults(plan);
  tb.run_for(sim::ms(1));
  EXPECT_EQ(tb.routing.epoch(), 0u) << "micro-flap must not churn routing";
}

TEST(ReconvergenceTest, ZeroHolddownKeepsRoutingFrozen) {
  Testbed::Options opts;
  opts.install_hawkeye = false;
  Testbed tb(opts);
  const net::FiveTuple t = flow_tuple(tb.ft.hosts[0], tb.ft.hosts[15], 700);
  const auto sws = tb.routing.switches_on_path(t);
  fault::FaultPlan plan;
  fault::LinkFlapSpec flap;  // default holddown_ns = 0 => PR 3 behaviour
  flap.node_a = sws[1];
  flap.node_b = sws[2];
  flap.start = sim::us(100);
  flap.down_ns = sim::us(300);
  plan.link_flaps.push_back(flap);
  tb.install_faults(plan);
  EXPECT_FALSE(tb.faults->reconvergence_enabled());
  tb.add_flow({tb.ft.hosts[0], tb.ft.hosts[15], 700, 4791, 2'000'000,
               sim::us(1), true, 0});
  tb.run_for(sim::ms(12));
  EXPECT_EQ(tb.routing.epoch(), 0u) << "no hold-down => no routing events";
}

TEST(ReconvergenceTest, ReroutedFlowFinishesFasterThanFrozen) {
  // The same 1 ms outage on the same mid-path link, frozen vs reconverging:
  // the frozen fabric stalls the flow until the link heals, the
  // reconverging one reroutes it after the 50 us hold-down.
  //
  // The ACK stream hashes on the REVERSED tuple, whose byte multiset equals
  // the forward tuple's — so the FNV low bit (and hence every binary ECMP
  // choice) mirrors the data path exactly, and the ACKs would cross the
  // flapped link from the far side, where the last-candidate guard keeps
  // the black-holed route. An override pins the reverse path through the
  // OTHER core so the measurement isolates forward-path reconvergence;
  // the override is installed identically in both modes.
  const auto fct_with_holddown = [](sim::Time holddown) {
    Testbed::Options opts;
    opts.install_hawkeye = false;
    Testbed tb(opts);
    const net::NodeId src = tb.ft.hosts[0];
    const net::NodeId dst = tb.ft.hosts[15];
    const net::FiveTuple t = flow_tuple(src, dst, 700);
    const auto sws = tb.routing.switches_on_path(t);
    EXPECT_EQ(sws.size(), 5u);  // edge-agg-core-agg-edge
    net::NodeId alt_core = -1;
    for (const net::NodeId c : tb.ft.cores) {
      if (c != sws[2] && tb.ft.topo.port_towards(sws[3], c) != net::kInvalidPort) {
        alt_core = c;
        break;
      }
    }
    EXPECT_NE(alt_core, -1);
    tb.routing.add_override(sws[3], src,
                            tb.ft.topo.port_towards(sws[3], alt_core));
    fault::FaultPlan plan;
    fault::LinkFlapSpec flap;
    flap.node_a = sws[1];
    flap.node_b = sws[2];
    flap.start = sim::us(100);
    flap.down_ns = sim::ms(1);
    flap.holddown_ns = holddown;
    plan.link_flaps.push_back(flap);
    tb.install_faults(plan);
    tb.add_flow({src, dst, 700, 4791, 2'000'000, sim::us(1), true, 0});
    tb.run_for(sim::ms(12));
    const device::FlowStats* st = tb.stats_of(t);
    EXPECT_NE(st, nullptr);
    EXPECT_TRUE(st->complete());
    return st->fct();
  };
  const sim::Time frozen = fct_with_holddown(0);
  const sim::Time reconverged = fct_with_holddown(sim::us(50));
  EXPECT_GT(frozen, sim::ms(1)) << "frozen routing waits out the outage";
  EXPECT_LT(reconverged, frozen)
      << "reconvergence must beat waiting for the link to heal";
  EXPECT_LT(reconverged, sim::ms(1));
}

TEST(ReconvergenceTest, FaultFreeRunsStayByteIdenticalWithKnobsPresent) {
  // The reconvergence machinery must be inert without faults: two fault-free
  // runs (and one from a build where the knobs were never touched — proxied
  // by default RunConfig) execute the same event count.
  eval::RunConfig cfg;
  cfg.scenario = diagnosis::AnomalyType::kNormalContention;
  cfg.seed = 7;
  const eval::RunResult a = eval::run_one(cfg);
  const eval::RunResult b = eval::run_one(cfg);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.routing_epochs, 0u);
  EXPECT_FALSE(a.path_churned);
  EXPECT_FALSE(a.fault_on_victim_path);
}

// ---------------------------------------------------------------------------
// Victim-path-aware fault attribution (PR 4).

TEST(FaultAttributionTest, FlapHitVictimPathMatchesAdjacency) {
  Testbed::Options opts;
  opts.install_hawkeye = false;
  Testbed tb(opts);
  const net::NodeId src = tb.ft.hosts[0];
  const net::NodeId dst = tb.ft.hosts[15];
  const net::FiveTuple t = flow_tuple(src, dst, 700);
  const auto path = tb.routing.path_of(t);
  const auto sws = tb.routing.switches_on_path(t);
  ASSERT_EQ(sws.size(), 5u);

  // On-path links: host uplink, a middle hop, and the final hop into dst.
  EXPECT_TRUE(eval::flap_hit_victim_path({{src, sws[0]}}, path, dst));
  EXPECT_TRUE(eval::flap_hit_victim_path({{sws[2], sws[1]}}, path, dst))
      << "endpoint order must not matter";
  EXPECT_TRUE(eval::flap_hit_victim_path({{sws[4], dst}}, path, dst));

  // Off-path: a link in a pod the victim never crosses.
  const net::NodeId off_host = tb.ft.hosts[7];
  const net::NodeId off_tor = tb.ft.topo.peer(off_host, 0).node;
  EXPECT_FALSE(eval::flap_hit_victim_path({{off_host, off_tor}}, path, dst));
  // Two on-path SWITCHES that are not adjacent on the path: not a path link.
  EXPECT_FALSE(eval::flap_hit_victim_path({{sws[0], sws[2]}}, path, dst));
  EXPECT_FALSE(eval::flap_hit_victim_path({}, path, dst));
}

TEST(FaultAttributionTest, OffVictimPathFlapIsNotAttributed) {
  // A flap that fires — and genuinely eats traffic — on a link the victim
  // never crosses must NOT excuse a wrong verdict: fault_on_victim_path
  // stays false and the bench scores the run as a real misclassification.
  eval::RunConfig cfg;
  cfg.scenario = diagnosis::AnomalyType::kMicroBurstIncast;
  cfg.seed = 3;
  // Bind the flap explicitly to a host uplink in a far corner of the
  // fabric, then steer a crafted flow over it so the flap bites.
  const net::FatTree probe = net::build_fat_tree(4);
  net::Routing probe_routing(probe.topo);
  sim::Rng rng(cfg.seed);
  workload::ScenarioSpec spec =
      workload::make_scenario(cfg.scenario, probe, probe_routing, rng);
  // The incast victim never touches hosts[10]'s uplink unless it IS one of
  // the crafted endpoints; skip the seed if so (deterministic guard).
  const net::NodeId far_host = probe.hosts[10];
  ASSERT_NE(net::Topology::node_of_ip(spec.victim.src_ip), far_host);
  ASSERT_NE(net::Topology::node_of_ip(spec.victim.dst_ip), far_host);

  fault::LinkFlapSpec flap;
  flap.node_a = far_host;
  flap.node_b = probe.topo.peer(far_host, 0).node;
  flap.start = sim::us(50);
  flap.down_ns = sim::ms(8);  // most of the run: background flows WILL hit it
  cfg.faults.link_flaps.push_back(flap);
  cfg.faults.seed = 5;
  cfg.background_load = 0.3;  // enough churn that the far uplink carries load

  const eval::RunResult r = eval::run_one(cfg);
  ASSERT_GT(r.link_down_drops, 0u)
      << "the far host streams background/crafted traffic over its uplink "
         "during the outage; if this fires the guard below is meaningful";
  EXPECT_TRUE(r.dataplane_fault_fired);
  EXPECT_FALSE(r.fault_on_victim_path)
      << "an off-path flap must not be attributable";
}

TEST(FaultAttributionTest, VictimPathFlapIsAttributed) {
  // The default placeholder binding targets the middle victim-path link, so
  // when it bites, fault_on_victim_path must be set.
  eval::RunConfig cfg;
  cfg.scenario = diagnosis::AnomalyType::kMicroBurstIncast;
  cfg.seed = 1;
  cfg.faults = fault::FaultPlan::victim_path_flaps(sim::us(400), 0, 5);
  const eval::RunResult r = eval::run_one(cfg);
  ASSERT_TRUE(r.dataplane_fault_fired);
  EXPECT_TRUE(r.fault_on_victim_path);
}

TEST(DropAccountingTest, NonHawkeyeSwitchDropsPollingAsPolling) {
  Testbed::Options opts;
  opts.install_hawkeye = false;
  Testbed tb(opts);
  const net::NodeId sw = tb.ft.topo.switches()[0];
  net::Packet poll =
      net::make_polling(flow_tuple(tb.ft.hosts[0], tb.ft.hosts[1], 5), 1,
                        net::PollingFlag::kVictimPath);
  tb.switch_at(sw).receive(std::move(poll), 0);
  EXPECT_EQ(tb.net.polling_drops(), 1u);
  EXPECT_EQ(tb.net.data_drops(), 0u);
}

}  // namespace
}  // namespace hawkeye::collect
