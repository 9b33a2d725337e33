#include <gtest/gtest.h>
#include <sys/resource.h>

#include "baselines/local_contention.hpp"
#include "eval/runner.hpp"

namespace hawkeye::eval {
namespace {

using diagnosis::AnomalyType;

RunConfig base(AnomalyType type, std::uint64_t seed) {
  RunConfig cfg;
  cfg.scenario = type;
  cfg.seed = seed;
  cfg.background_load = 0.1;
  return cfg;
}

// End-to-end: each representative anomaly is detected and its exact type
// plus root causes identified (one trace per type; the Fig 7/8 benches
// sweep many).
class EndToEnd : public ::testing::TestWithParam<int> {};

TEST_P(EndToEnd, HawkeyeDiagnosesCorrectly) {
  const auto type = static_cast<AnomalyType>(GetParam());
  const RunResult r = run_one(base(type, 3));
  EXPECT_TRUE(r.triggered) << "victim degradation must be detected";
  EXPECT_TRUE(r.tp) << "expected " << to_string(type) << ", diagnosed "
                    << to_string(r.dx.type);
  EXPECT_EQ(r.drops, 0u) << "fabric must stay lossless";
  EXPECT_GT(r.causal_coverage, 0.99) << "all causal switches collected";
}

INSTANTIATE_TEST_SUITE_P(AllAnomalies, EndToEnd,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(BaselineBehaviour, VictimOnlyMissesDeadlockLoop) {
  RunConfig cfg = base(AnomalyType::kInLoopDeadlock, 3);
  cfg.method = Method::kVictimOnly;
  const RunResult r = run_one(cfg);
  ASSERT_TRUE(r.triggered);
  // The CBD spans switches off the victim path: collection is incomplete
  // and the deadlock cannot be recognized (paper §4.2).
  EXPECT_LT(r.causal_coverage, 1.0);
  EXPECT_NE(r.dx.type, AnomalyType::kInLoopDeadlock);
}

TEST(BaselineBehaviour, VictimOnlyStillHandlesIncast) {
  RunConfig cfg = base(AnomalyType::kMicroBurstIncast, 3);
  cfg.method = Method::kVictimOnly;
  const RunResult r = run_one(cfg);
  ASSERT_TRUE(r.triggered);
  // The initial congestion point lies on the victim path, so victim-only
  // collection suffices (paper: "the PFC path is exactly the victim path").
  EXPECT_EQ(r.dx.type, AnomalyType::kMicroBurstIncast);
}

TEST(BaselineBehaviour, SpiderMonBlindToPfcAnomalies) {
  RunConfig cfg = base(AnomalyType::kPfcStorm, 3);
  cfg.method = Method::kSpiderMon;
  const RunResult r = run_one(cfg);
  ASSERT_TRUE(r.triggered);
  EXPECT_NE(r.dx.type, AnomalyType::kPfcStorm)
      << "no PFC visibility: cannot name a storm";
  EXPECT_FALSE(r.tp);
}

TEST(BaselineBehaviour, SpiderMonHandlesNormalContention) {
  RunConfig cfg = base(AnomalyType::kNormalContention, 3);
  cfg.method = Method::kSpiderMon;
  const RunResult r = run_one(cfg);
  ASSERT_TRUE(r.triggered);
  EXPECT_EQ(r.dx.type, AnomalyType::kNormalContention);
}

TEST(BaselineBehaviour, FullPollingMatchesHawkeyeAccuracyAtHigherCost) {
  const RunResult hk = run_one(base(AnomalyType::kOutOfLoopDeadlockContention, 2));
  RunConfig cfg = base(AnomalyType::kOutOfLoopDeadlockContention, 2);
  cfg.method = Method::kFullPolling;
  const RunResult fp = run_one(cfg);
  EXPECT_TRUE(hk.tp);
  EXPECT_TRUE(fp.tp);
  EXPECT_EQ(fp.collected_switches, 20u);
  EXPECT_LT(hk.collected_switches, fp.collected_switches);
  EXPECT_LT(hk.telemetry_bytes, fp.telemetry_bytes);
}

TEST(BaselineBehaviour, NetSightOverheadDwarfsHawkeye) {
  const RunResult hk = run_one(base(AnomalyType::kMicroBurstIncast, 3));
  RunConfig cfg = base(AnomalyType::kMicroBurstIncast, 3);
  cfg.method = Method::kNetSight;
  const RunResult ns = run_one(cfg);
  // Per-packet postcards at every hop vs a handful of polled switches.
  EXPECT_GT(ns.telemetry_bytes, 10 * hk.telemetry_bytes);
  EXPECT_GT(ns.monitor_bw_bytes, 100 * hk.monitor_bw_bytes);
}

TEST(TelemetryAblation, PortOnlyFindsPfcPathButNotRootFlows) {
  RunConfig cfg = base(AnomalyType::kMicroBurstIncast, 3);
  cfg.tele_mode = telemetry::TelemetryMode::kPortOnly;
  const RunResult r = run_one(cfg);
  ASSERT_TRUE(r.triggered);
  // Without flow telemetry the burst flows cannot be named.
  EXPECT_TRUE(r.dx.root_cause_flows.empty());
  EXPECT_FALSE(r.tp);
}

TEST(TelemetryAblation, FlowOnlyCannotTracePfc) {
  RunConfig cfg = base(AnomalyType::kInLoopDeadlock, 3);
  cfg.tele_mode = telemetry::TelemetryMode::kFlowOnly;
  const RunResult r = run_one(cfg);
  ASSERT_TRUE(r.triggered);
  EXPECT_NE(r.dx.type, AnomalyType::kInLoopDeadlock)
      << "no port causality: the loop is invisible";
}

TEST(ParameterSensitivity, LongEpochsDegradeStormDiagnosis) {
  // With 2 ms epochs the pre-anomaly contention blip and the injection land
  // in one epoch and can be conflated (§4.2). Only the *shape* is asserted:
  // the small-epoch run must do at least as well as the long-epoch run.
  int ok_small = 0, ok_large = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    RunConfig small = base(AnomalyType::kPfcStorm, seed);
    small.epoch_shift = 17;
    RunConfig large = base(AnomalyType::kPfcStorm, seed);
    large.epoch_shift = 21;
    large.epoch_index_bits = 1;
    ok_small += run_one(small).tp ? 1 : 0;
    ok_large += run_one(large).tp ? 1 : 0;
  }
  EXPECT_GE(ok_small, ok_large);
  EXPECT_GE(ok_small, 2);
}

// Memory follows what a run holds: drained calendar buckets give their
// storage back and the flow tables store only occupied slots. This run
// peaks near 20 MB; an uncapped calendar alone takes it past 300 MB.
// ctest runs each case in its own process, so ru_maxrss is this run's
// high-water mark.
TEST(RunMemoryTest, K8MicroburstPeakRssBounded) {
  RunConfig cfg = base(AnomalyType::kMicroBurstIncast, 1);
  cfg.fat_tree_k = 8;
  cfg.shards = 2;
  const RunResult r = run_one(cfg);
  EXPECT_TRUE(r.tp);
  rusage ru{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &ru), 0);
  EXPECT_LT(ru.ru_maxrss, 100 * 1024) << "peak RSS in KiB";
}

TEST(PrecisionRecallTest, AccumulatorMath) {
  PrecisionRecall pr;
  RunResult tp, fp, fn;
  tp.tp = true;
  fp.fp = true;
  fn.fn = true;
  pr.add(tp);
  pr.add(tp);
  pr.add(fp);
  pr.add(fn);
  EXPECT_DOUBLE_EQ(pr.precision(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(pr.recall(), 2.0 / 3.0);
}

}  // namespace
}  // namespace hawkeye::eval

#include "eval/testbed.hpp"
#include "provenance/builder.hpp"

namespace hawkeye::eval {
namespace {

TEST(ConcurrentAnomalies, TwoNonOverlappingNpasDiagnosedIndependently) {
  // Paper §3.4: "HAWKEYE can easily support multiple NPAs concurrently. If
  // two NPAs do not have the path overlap, their telemetry data can be
  // collected and diagnosed independently." Two controlled incidents in
  // separate pods, sequential in time so their spreading paths never mix
  // (the storm_monitor example runs the same construction).
  Testbed tb;
  // Incident 1: host 2 (pod 0) injects PFC for 600 us; tenant A's flow
  // into it stalls.
  const net::NodeId storm_host = tb.ft.hosts[2];
  net::FiveTuple victim_a;
  {
    device::FlowSpec f{tb.ft.hosts[13], storm_host, 100, 4791, 40'000'000,
                       sim::us(10), true, 40.0};
    victim_a = device::tuple_of(f);
    tb.add_flow(f);
  }
  tb.host(storm_host).inject_pfc(sim::us(400), sim::us(1000), sim::us(50),
                                 65535);

  // Incident 2 (t = 1.6 ms, after the storm drained): 4:1 incast into
  // host 10 (pod 2), on top of a standing tenant flow into the same sink.
  // The burst flows are themselves the complaining victims — each stalls
  // behind the shared backpressure.
  tb.add_flow({tb.ft.hosts[5], tb.ft.hosts[10], 200, 4791, 40'000'000,
               sim::us(10), true, 15.0});
  std::vector<net::FiveTuple> burst_tuples;
  for (int i = 0; i < 4; ++i) {
    device::FlowSpec f{tb.ft.hosts[static_cast<size_t>(12 + i)],
                       tb.ft.hosts[10], static_cast<std::uint16_t>(2000 + i),
                       4791, 600'000, sim::us(1600) + i * sim::us(1), false,
                       0};
    burst_tuples.push_back(device::tuple_of(f));
    tb.add_flow(f);
  }
  tb.run_for(sim::ms(3));

  auto diagnose_episode = [&](const collect::Episode& ep) {
    const auto g = provenance::build_provenance(ep, tb.ft.topo);
    return diagnosis::diagnose(g, tb.ft.topo, tb.routing, ep.victim);
  };

  const collect::Episode* storm_ep = nullptr;
  const collect::Episode* incast_ep = nullptr;
  for (const auto id : tb.collector.episode_order()) {
    const collect::Episode* cand = tb.collector.episode(id);
    if (cand->victim == victim_a && cand->triggered_at >= sim::us(400) &&
        storm_ep == nullptr) {
      storm_ep = cand;
    }
    const bool is_burst =
        std::find(burst_tuples.begin(), burst_tuples.end(), cand->victim) !=
        burst_tuples.end();
    if (is_burst && cand->triggered_at >= sim::us(1600) &&
        incast_ep == nullptr) {
      incast_ep = cand;
    }
  }
  ASSERT_NE(storm_ep, nullptr);
  ASSERT_NE(incast_ep, nullptr);

  const auto dx_storm = diagnose_episode(*storm_ep);
  const auto dx_incast = diagnose_episode(*incast_ep);
  EXPECT_EQ(dx_storm.type, diagnosis::AnomalyType::kPfcStorm);
  EXPECT_EQ(dx_storm.injecting_peer, storm_host);
  EXPECT_EQ(dx_incast.type, diagnosis::AnomalyType::kMicroBurstIncast);
  EXPECT_FALSE(dx_incast.root_cause_flows.empty());
}

}  // namespace
}  // namespace hawkeye::eval

namespace hawkeye::eval {
namespace {

/// Property fuzz: random leaf-spine fabrics under random traffic must stay
/// lossless (PFC), deliver everything (up-down routing admits no CBD, so
/// no deadlock), and never acknowledge more than was sent.
class FabricFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FabricFuzz, LosslessCompleteAndConserving) {
  sim::Rng rng(GetParam());
  const int leaves = static_cast<int>(rng.uniform_int(2, 4));
  const int spines = static_cast<int>(rng.uniform_int(1, 2));
  const int hpl = static_cast<int>(rng.uniform_int(2, 3));
  const net::LeafSpine ls = net::build_leaf_spine(leaves, spines, hpl);
  net::Routing routing(ls.topo);
  sim::Simulator simu;
  device::Network network(simu, ls.topo);
  std::vector<std::unique_ptr<device::Switch>> switches;
  std::vector<std::unique_ptr<device::Host>> hosts;
  for (const net::NodeId sw : ls.topo.switches()) {
    switches.push_back(std::make_unique<device::Switch>(
        network, routing, sw, device::SwitchConfig{}));
  }
  for (const net::NodeId h : ls.topo.hosts()) {
    hosts.push_back(std::make_unique<device::Host>(network, h));
  }
  auto host_at = [&](net::NodeId id) -> device::Host& {
    for (auto& h : hosts) {
      if (h->id() == id) return *h;
    }
    throw std::runtime_error("no host");
  };

  const int n_flows = static_cast<int>(rng.uniform_int(5, 12));
  for (int i = 0; i < n_flows; ++i) {
    const auto src = ls.hosts[static_cast<size_t>(
        rng.uniform_int(0, static_cast<int>(ls.hosts.size()) - 1))];
    net::NodeId dst = src;
    while (dst == src) {
      dst = ls.hosts[static_cast<size_t>(
          rng.uniform_int(0, static_cast<int>(ls.hosts.size()) - 1))];
    }
    host_at(src).add_flow({src, dst, static_cast<std::uint16_t>(100 + i),
                           4791, rng.uniform_int(10'000, 500'000),
                           rng.uniform_int(0, sim::us(300)),
                           rng.chance(0.7), 0});
  }
  simu.run_until(sim::ms(10));

  EXPECT_EQ(network.data_drops(), 0u) << "PFC fabric must be lossless";
  for (auto& h : hosts) {
    EXPECT_EQ(h->retransmissions(), 0u);
    for (const auto& st : h->flow_stats()) {
      EXPECT_TRUE(st.complete()) << st.tuple.to_string();
      EXPECT_LE(st.pkts_acked, st.pkts_sent);
      EXPECT_GE(st.fct(), 0);
      EXPECT_GE(st.min_rtt, 2 * 2 * 2000) << "RTT below physical minimum";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FabricFuzz,
                         ::testing::Values(1ull, 2ull, 3ull, 5ull, 8ull,
                                           13ull, 21ull, 34ull));

}  // namespace
}  // namespace hawkeye::eval
