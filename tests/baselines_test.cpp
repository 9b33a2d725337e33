#include <gtest/gtest.h>

#include "baselines/itsy.hpp"
#include "baselines/local_contention.hpp"
#include "baselines/pfc_watchdog.hpp"
#include "diagnosis/contention_cause.hpp"
#include "eval/runner.hpp"
#include "eval/testbed.hpp"
#include "workload/scenario.hpp"

namespace hawkeye::baselines {
namespace {

using eval::Testbed;

/// A crafted trace on a fully-wired testbed, with baseline monitors on.
/// NOTE: `spec` must be declared before `tb` — options() fills it during
/// tb's construction.
struct MonitoredTrace {
  workload::ScenarioSpec spec;
  Testbed tb;
  PfcWatchdog watchdog;
  ItsyDetector itsy;

  MonitoredTrace(diagnosis::AnomalyType type, std::uint64_t seed,
                 sim::Time watchdog_period)
      : tb(options(type, seed)),
        watchdog(tb.net, watchdog_period),
        itsy(tb.net) {
    for (const net::NodeId sw : tb.ft.topo.switches()) {
      watchdog.watch(tb.switch_at(sw));
      itsy.watch(tb.switch_at(sw));
    }
    watchdog.start();
    itsy.start();
    tb.install(spec);
    tb.run_for(spec.duration);
  }

  Testbed::Options options(diagnosis::AnomalyType type, std::uint64_t seed) {
    sim::Rng rng(seed);
    const net::FatTree probe = net::build_fat_tree(4);
    const net::Routing pr(probe.topo);
    spec = workload::make_scenario(type, probe, pr, rng);
    Testbed::Options o;
    if (spec.xoff_bytes) o.switch_cfg.pfc_xoff_bytes = *spec.xoff_bytes;
    if (spec.xon_bytes) o.switch_cfg.pfc_xon_bytes = *spec.xon_bytes;
    return o;
  }
};

TEST(PfcWatchdogTest, CatchesPersistentDeadlockPause) {
  MonitoredTrace t(diagnosis::AnomalyType::kInLoopDeadlock, 2, sim::us(50));
  EXPECT_FALSE(t.watchdog.alarms().empty());
  EXPECT_GE(t.watchdog.first_alarm_after(t.spec.anomaly_start), 0);
}

TEST(PfcWatchdogTest, CoarsePeriodMissesTransientIncast) {
  // An incast pause episode lasts well under a millisecond; a production
  // 100 ms polling period cannot observe two consecutive paused polls.
  MonitoredTrace t(diagnosis::AnomalyType::kMicroBurstIncast, 1, sim::ms(100));
  EXPECT_TRUE(t.watchdog.alarms().empty());
}

TEST(PfcWatchdogTest, QuietFabricRaisesNoAlarm) {
  Testbed tb;
  PfcWatchdog wd(tb.net, sim::us(50));
  for (const net::NodeId sw : tb.ft.topo.switches()) {
    wd.watch(tb.switch_at(sw));
  }
  wd.start();
  tb.add_flow({tb.ft.hosts[0], tb.ft.hosts[15], 1, 4791, 1'000'000, 0, true, 0});
  tb.run_for(sim::ms(2));
  EXPECT_TRUE(wd.alarms().empty());
  EXPECT_GT(wd.polls_performed(), 10u);
}

TEST(ItsyTest, DetectsDeadlockLoop) {
  MonitoredTrace t(diagnosis::AnomalyType::kInLoopDeadlock, 2, sim::ms(100));
  ASSERT_FALSE(t.itsy.loops().empty());
  const auto& loop = t.itsy.loops().front().loop_ports;
  EXPECT_GE(loop.size(), 3u);
  // Every reported loop port is one of the crafted CBD ports.
  for (const auto& p : loop) {
    EXPECT_TRUE(std::find(t.spec.truth.loop_ports.begin(),
                          t.spec.truth.loop_ports.end(),
                          p) != t.spec.truth.loop_ports.end());
  }
}

TEST(ItsyTest, IgnoresNonLoopBackpressure) {
  // The paper's critique: ITSY "ignores non-loop PFC backpressure".
  MonitoredTrace t(diagnosis::AnomalyType::kMicroBurstIncast, 1, sim::ms(100));
  EXPECT_TRUE(t.itsy.loops().empty());
}

TEST(ItsyTest, IgnoresPfcStorms) {
  MonitoredTrace t(diagnosis::AnomalyType::kPfcStorm, 1, sim::ms(100));
  EXPECT_TRUE(t.itsy.loops().empty());
}

TEST(OverheadModelTest, NetSightBytesScaleWithPacketHops) {
  EXPECT_EQ(netsight_telemetry_bytes(1000), 15000);
  EXPECT_EQ(netsight_telemetry_bytes(0), 0);
}

}  // namespace
}  // namespace hawkeye::baselines

namespace hawkeye::diagnosis {
namespace {

TEST(ContentionCauseTest, ClassifiesEcmpImbalance) {
  // The pipeline bench_contention_causes runs: the switches' epoch, the
  // signature ranking and the victim's merged episode.
  eval::RunConfig cfg;
  cfg.scenario = AnomalyType::kNormalContention;
  cfg.seed = 1;
  cfg.background_load = 0;
  const net::FatTree ft = net::build_fat_tree(4);
  const net::Routing routing(ft.topo);
  sim::Rng rng(cfg.seed);
  eval::Run run(cfg, workload::make_ecmp_imbalance(ft, routing, rng));
  run.simulate();

  const std::optional<collect::Episode> ep = run.victim_episode();
  ASSERT_TRUE(ep.has_value());
  const eval::Run::Diagnosis d = run.diagnose(*ep);
  EXPECT_EQ(d.dx.type, AnomalyType::kNormalContention);
  const eval::Testbed& tb = run.testbed();
  const auto cause =
      analyze_contention_cause(d.graph, tb.ft.topo, tb.routing, d.dx);
  EXPECT_EQ(cause.cause, ContentionCause::kEcmpImbalance);
  EXPECT_GT(cause.ecmp_imbalance_ratio, 1.5);
}

TEST(ContentionCauseTest, ClassifiesIncastFanIn) {
  eval::RunConfig cfg;
  cfg.scenario = AnomalyType::kMicroBurstIncast;
  cfg.seed = 3;
  const auto r = eval::run_one(cfg);
  ASSERT_TRUE(r.tp);
  // The cause analyzer runs end to end in bench_contention_causes and the
  // quickstart; here just sanity-check the fan-in heuristic.
  static_assert(kIncastMinSources >= 2);
}

}  // namespace
}  // namespace hawkeye::diagnosis
