// eval::scenario_io — the hunt-corpus serialization layer. Pins the two
// properties the corpus depends on: serialize∘parse∘serialize is
// byte-identical (canonical form is a fixed point), and a parsed config
// replays bit-for-bit through run_one (the file really is the run).
#include <gtest/gtest.h>

#include "eval/canonical.hpp"
#include "eval/scenario_io.hpp"

namespace hawkeye::eval {
namespace {

using diagnosis::AnomalyType;

HuntCase full_case() {
  // Every serializable axis populated at once: one spec of each of the
  // nine fault families (same-list windows would overlap), jitter, a full
  // overlay, and the expected block.
  HuntCase c;
  c.cfg.scenario = AnomalyType::kPfcStorm;
  c.cfg.seed = 42;
  c.cfg.method = Method::kVictimOnly;
  c.cfg.epoch_shift = 18;
  c.cfg.epoch_index_bits = 4;
  c.cfg.threshold_factor = 2.5;
  c.cfg.tele_mode = telemetry::TelemetryMode::kPortOnly;
  c.cfg.one_bit_meter = true;
  c.cfg.background_load = 0.15;
  c.cfg.fat_tree_k = 8;
  c.cfg.shards = 4;
  c.cfg.max_repolls = 2;
  c.cfg.fleet_workload = workload::FleetWorkload::kAllToAll;
  c.cfg.fleet_severity = 1.75;
  fault::FaultPlan& fp = c.cfg.faults;
  fp.seed = 99;
  fault::PollFaultSpec poll;
  poll.sw = 3;
  poll.drop_prob = 0.25;
  poll.delay_prob = 0.125;
  poll.delay_ns = sim::us(120);
  poll.start = sim::us(10);
  poll.stop = sim::us(500);
  fp.poll_faults.push_back(poll);
  fault::DmaFaultSpec dma;
  dma.fail_prob = 0.5;
  dma.start = sim::us(100);
  dma.stop = sim::us(200);
  fp.dma_faults.push_back(dma);
  fault::AgentBlackout bo;
  bo.sw = 5;
  bo.start = sim::us(50);
  bo.stop = sim::us(60);
  fp.blackouts.push_back(bo);
  fault::LinkFlapSpec flap;
  flap.start = sim::us(100);
  flap.stop = sim::us(900);
  flap.down_ns = sim::us(30);
  flap.period_ns = sim::us(200);
  flap.jitter = 0.5;
  flap.holddown_ns = sim::us(50);
  fp.link_flaps.push_back(flap);
  fault::PfcFrameFaultSpec pfc;
  pfc.loss_prob = 0.3;
  pfc.affect_resume = false;
  pfc.start = sim::us(20);
  pfc.stop = -1;
  fp.pfc_faults.push_back(pfc);
  fp.rtt_jitter.prob = 0.1;
  fp.rtt_jitter.magnitude = 1.5;
  fault::DegradedLinkSpec deg;
  deg.ber = 1e-6;
  deg.start = 0;
  deg.stop = sim::us(700);
  fp.degraded_links.push_back(deg);
  fault::LinkSpeedMismatchSpec speed;
  speed.node_a = 9;
  speed.node_b = 17;
  speed.gbps = 40.5;
  speed.start = sim::us(30);
  speed.stop = sim::us(800);
  fp.speed_mismatches.push_back(speed);
  fault::HostPcieBottleneckSpec pcie;
  pcie.host = 2;
  pcie.drain_gbps = 12.25;
  pcie.start = sim::us(5);
  fp.pcie_bottlenecks.push_back(pcie);
  fault::OversubscribedDownlinkSpec oversub;
  oversub.sw = 18;
  oversub.factor = 0.25;
  oversub.stop = sim::us(400);
  fp.oversub_downlinks.push_back(oversub);
  workload::ScenarioOverlay& ov = c.cfg.overlay;
  ov.drop_flows = {4, 2, 9};
  ov.size_scale = 0.5;
  ov.rate_scale = 2.0;
  ov.arrival_stride_ns = 1000;
  ov.duration_add_ns = sim::us(200);
  ov.fault_rate_scale = 0.5;
  ov.fault_window_scale = 0.75;
  c.expected_class = "silent-wrong";
  c.expected_verdict = AnomalyType::kMicroBurstIncast;
  c.expected_truth = AnomalyType::kPfcStorm;
  c.note = "fixture with\nan embedded newline";
  return c;
}

// full_case() in v1 text: every key of the format, in canonical order. A
// round trip alone cannot see a field dropped, renamed or moved in both the
// writer and the reader; this pinned text can.
constexpr const char* kFullCaseV1 = R"(hawkeye-hunt-case v1
scenario=pfc-storm
seed=42
method=victim-only
epoch_shift=18
epoch_index_bits=4
threshold_factor=2.5
tele_mode=port-only
one_bit_meter=1
background_load=0.14999999999999999
fat_tree_k=8
shards=4
max_repolls=2
fleet_workload=all-to-all
fleet_severity=1.75
faults.seed=99
faults.poll.0.sw=3
faults.poll.0.drop_prob=0.25
faults.poll.0.duplicate_prob=0
faults.poll.0.delay_prob=0.125
faults.poll.0.delay_ns=120000
faults.poll.0.start=10000
faults.poll.0.stop=500000
faults.dma.0.sw=-1
faults.dma.0.fail_prob=0.5
faults.dma.0.stale_prob=0
faults.dma.0.extra_delay=1000000
faults.dma.0.start=100000
faults.dma.0.stop=200000
faults.blackout.0.sw=5
faults.blackout.0.start=50000
faults.blackout.0.stop=60000
faults.flap.0.node_a=-1
faults.flap.0.node_b=-1
faults.flap.0.start=100000
faults.flap.0.stop=900000
faults.flap.0.down_ns=30000
faults.flap.0.period_ns=200000
faults.flap.0.jitter=0.5
faults.flap.0.holddown_ns=50000
faults.flap.0.restore_holddown_ns=-1
faults.pfc.0.sw=-1
faults.pfc.0.port=-1
faults.pfc.0.loss_prob=0.29999999999999999
faults.pfc.0.delay_prob=0
faults.pfc.0.delay_ns=20000
faults.pfc.0.affect_pause=1
faults.pfc.0.affect_resume=0
faults.pfc.0.start=20000
faults.pfc.0.stop=-1
faults.rtt_jitter.prob=0.10000000000000001
faults.rtt_jitter.magnitude=1.5
faults.degraded.0.node_a=-1
faults.degraded.0.node_b=-1
faults.degraded.0.ber=9.9999999999999995e-07
faults.degraded.0.start=0
faults.degraded.0.stop=700000
faults.speed.0.node_a=9
faults.speed.0.node_b=17
faults.speed.0.gbps=40.5
faults.speed.0.start=30000
faults.speed.0.stop=800000
faults.pcie.0.host=2
faults.pcie.0.drain_gbps=12.25
faults.pcie.0.start=5000
faults.pcie.0.stop=-1
faults.oversub.0.sw=18
faults.oversub.0.factor=0.25
faults.oversub.0.start=0
faults.oversub.0.stop=400000
overlay.drop_flows=4,2,9
overlay.size_scale=0.5
overlay.rate_scale=2
overlay.arrival_stride_ns=1000
overlay.duration_add_ns=200000
overlay.fault_rate_scale=0.5
overlay.fault_window_scale=0.75
expected.class=silent-wrong
expected.verdict=micro-burst-incast
expected.truth=pfc-storm
note=fixture with an embedded newline
)";

TEST(ScenarioIoTest, SerializeParseSerializeIsFixedPoint) {
  const HuntCase c = full_case();
  const std::string s1 = serialize_case(c);
  EXPECT_EQ(s1, kFullCaseV1);
  const HuntCase parsed = parse_case(s1);
  const std::string s2 = serialize_case(parsed);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(parsed.expected_class, "silent-wrong");
  EXPECT_EQ(parsed.expected_verdict, AnomalyType::kMicroBurstIncast);
  EXPECT_EQ(parsed.note, "fixture with an embedded newline")
      << "newlines flatten to spaces on serialize";
  EXPECT_EQ(case_fingerprint(c), case_fingerprint(parsed));
}

TEST(ScenarioIoTest, EveryScenarioTypeRoundTripsAcrossSeeds) {
  // The whole craftable space — classic, fleet, benign — under seeds the
  // golden suite also uses.
  const AnomalyType types[] = {
      AnomalyType::kMicroBurstIncast,
      AnomalyType::kPfcStorm,
      AnomalyType::kInLoopDeadlock,
      AnomalyType::kOutOfLoopDeadlockContention,
      AnomalyType::kOutOfLoopDeadlockInjection,
      AnomalyType::kNormalContention,
      AnomalyType::kDegradedLink,
      AnomalyType::kLinkSpeedMismatch,
      AnomalyType::kHostPcieBottleneck,
      AnomalyType::kOversubscribedDownlink,
      AnomalyType::kNone,
  };
  for (const AnomalyType t : types) {
    for (const std::uint64_t seed : {1ull, 3ull, 7ull}) {
      HuntCase c;
      c.cfg.scenario = t;
      c.cfg.seed = seed;
      const std::string s1 = serialize_case(c);
      const std::string s2 = serialize_case(parse_case(s1));
      EXPECT_EQ(s1, s2) << diagnosis::to_string(t) << " seed " << seed;
    }
  }
}

TEST(ScenarioIoTest, ParsedConfigReplaysBitForBit) {
  // A parsed case must drive run_one to the exact result of the original
  // config — canonical_line equality is bitwise RunResult equality for
  // every scored field. One cell per crafting path: classic, classic with
  // faults + overlay, fleet, benign.
  std::vector<HuntCase> cases;
  {
    HuntCase c;
    c.cfg.scenario = AnomalyType::kMicroBurstIncast;
    c.cfg.seed = 3;
    cases.push_back(c);
  }
  {
    HuntCase c;
    c.cfg.scenario = AnomalyType::kPfcStorm;
    c.cfg.seed = 7;
    c.cfg.faults = fault::FaultPlan::uniform_poll_loss(0.3, 11);
    c.cfg.overlay.drop_flows = {5, 6};
    c.cfg.overlay.size_scale = 2.0;
    c.cfg.overlay.fault_rate_scale = 0.5;
    cases.push_back(c);
  }
  {
    HuntCase c;
    c.cfg.scenario = AnomalyType::kDegradedLink;
    c.cfg.seed = 1;
    c.cfg.fleet_workload = workload::FleetWorkload::kRpcClientServer;
    c.cfg.fleet_severity = 2.0;
    cases.push_back(c);
  }
  {
    HuntCase c;
    c.cfg.scenario = AnomalyType::kNone;
    c.cfg.seed = 1;
    c.cfg.overlay.arrival_stride_ns = 1000;
    cases.push_back(c);
  }
  for (const HuntCase& c : cases) {
    const HuntCase parsed = parse_case(serialize_case(c));
    const RunResult orig = run_one(c.cfg);
    const RunResult replayed = run_one(parsed.cfg);
    EXPECT_EQ(canonical_line(c.cfg.scenario, c.cfg.seed, orig),
              canonical_line(parsed.cfg.scenario, parsed.cfg.seed, replayed))
        << diagnosis::to_string(c.cfg.scenario);
  }
}

TEST(ScenarioIoTest, ParseRejectsDrift) {
  const std::string good = serialize_case(HuntCase{});
  // Bad magic.
  EXPECT_THROW(parse_case("hawkeye-hunt-case v2\nseed=1\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_case(""), std::invalid_argument);
  // Unknown key — format drift must fail loudly, not drop an axis.
  EXPECT_THROW(parse_case(good + "mystery_knob=3\n"), std::invalid_argument);
  EXPECT_THROW(parse_case(good + "faults.poll.0.typo=1\n"),
               std::invalid_argument);
  // Malformed values.
  EXPECT_THROW(parse_case(good + "overlay.size_scale=abc\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_case(good + "one_bit_meter=2\n"), std::invalid_argument);
  EXPECT_THROW(parse_case(good + "scenario=unheard-of\n"),
               std::invalid_argument);
  // Structurally parsable but invalid plans are rejected at parse time.
  EXPECT_THROW(
      parse_case(good +
                 "faults.poll.0.drop_prob=0.5\nfaults.poll.1.drop_prob=0.5\n"),
      std::invalid_argument)
      << "two wildcard whole-run poll specs overlap";
  EXPECT_THROW(parse_case(good + "overlay.size_scale=-1\n"),
               std::invalid_argument);
  // Values that parse as numbers but that the run cannot take: an odd or
  // too-small fat tree, a non-positive fleet severity, an epoch layout past
  // 64 bits, non-finite doubles, integers outside their field's type.
  for (const char* bad : {
           "fat_tree_k=3",
           "fat_tree_k=0",
           "fat_tree_k=-4",
           "fat_tree_k=2",
           "scenario=oversubscribed-downlink\nfleet_severity=0",
           "scenario=oversubscribed-downlink\nfleet_severity=-1",
           "epoch_shift=70",
           "epoch_shift=-1",
           "epoch_index_bits=0",
           "epoch_index_bits=31",
           "epoch_shift=40\nepoch_index_bits=16",  // 40 + 16 + 8 id bits
           "epoch_shift=2147483647",
           "background_load=-0.5",
           "threshold_factor=inf",
           "overlay.size_scale=nan",
           "faults.blackout.0.sw=4294967299",
           "max_repolls=-1",
           "overlay.drop_flows=1,-2",
       }) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(parse_case(good + bad + "\n"), std::invalid_argument);
  }
  try {
    parse_case(good + "fat_tree_k=3\n");
    ADD_FAILURE() << "fat_tree_k=3 parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("\"fat_tree_k=3\""),
              std::string::npos)
        << "the error names the line: " << e.what();
  }
  // The epoch rule's boundary still parses: 52 + 3 + 8 = 63 bits.
  EXPECT_NO_THROW(parse_case(good + "epoch_shift=52\n"));
  // Comments and blank lines are tolerated.
  const HuntCase c = parse_case("# header comment\n\n" + good + "# trailer\n");
  EXPECT_EQ(serialize_case(c), good);
}

TEST(ScenarioIoTest, FingerprintTracksContent) {
  HuntCase a = full_case();
  HuntCase b = full_case();
  EXPECT_EQ(case_fingerprint(a), case_fingerprint(b));
  b.cfg.seed += 1;
  EXPECT_NE(case_fingerprint(a), case_fingerprint(b));
}

}  // namespace
}  // namespace hawkeye::eval
