// Shard-identity suite: a run configured with N shards must be BITWISE
// identical to a run configured with 1 shard.
//
// Every run executes on one event calendar on one thread. `RunConfig::shards`
// survives only because the case-file codec still reads and writes `shards=`
// and tracebench/ still passes `--shards`; nothing in the pipeline may act on
// it. This suite pins that promise end-to-end through the full pipeline
// (workload -> fabric -> telemetry -> collection -> provenance -> diagnosis)
// by comparing the canonical RunResult line (eval/canonical.hpp, %.17g —
// string equality is bit equality) for shard counts {2, 4, 8} against the
// 1-shard run, for every paper scenario x seed cell, under three config
// families:
//
//   fault-free        — the golden-trace regime;
//   collection faults — 10% polling loss + DMA faults + re-poll healing
//                       (episode commits and the stateless counter-hash
//                       fault draws);
//   flap + reconverge — a mid-path link flap train with a 50 us hold-down
//                       (routing withdraw/restore, on_port_withdrawn
//                       flushes and PFC release).
//
// The four runs of a cell share one process, so the suite also fails when a
// run leaks state (a counter, a cache, an RNG stream) into the next one.
// It goes together with the `shards` fields (ROADMAP, "One pipeline").
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "eval/canonical.hpp"
#include "eval/runner.hpp"
#include "fault/fault.hpp"

namespace hawkeye::eval {
namespace {

using diagnosis::AnomalyType;

constexpr AnomalyType kScenarios[] = {
    AnomalyType::kMicroBurstIncast,
    AnomalyType::kPfcStorm,
    AnomalyType::kInLoopDeadlock,
    AnomalyType::kOutOfLoopDeadlockContention,
    AnomalyType::kOutOfLoopDeadlockInjection,
    AnomalyType::kNormalContention,
};
constexpr std::uint64_t kSeeds[] = {1, 3, 7};
constexpr int kShardCounts[] = {2, 4, 8};

enum class Family { kFaultFree, kCollectionFaults, kFlapReconverge };

const char* to_string(Family f) {
  switch (f) {
    case Family::kFaultFree: return "fault_free";
    case Family::kCollectionFaults: return "collection_faults";
    case Family::kFlapReconverge: return "flap_reconverge";
  }
  return "?";
}

RunConfig cell_config(AnomalyType scenario, std::uint64_t seed, Family fam) {
  RunConfig cfg;
  cfg.scenario = scenario;
  cfg.seed = seed;
  switch (fam) {
    case Family::kFaultFree:
      break;
    case Family::kCollectionFaults: {
      // The polling-loss regime of bench_fault_sweeps' robustness sweep,
      // plus flaky DMA: together they exercise coverage checks,
      // capped-backoff re-polls and targeted re-snapshots.
      fault::FaultPlan plan = fault::FaultPlan::uniform_poll_loss(0.10, seed);
      fault::DmaFaultSpec dma;
      dma.sw = net::kInvalidNode;  // every switch
      dma.fail_prob = 0.05;
      dma.stale_prob = 0.05;
      plan.dma_faults.push_back(dma);
      cfg.faults = plan;
      break;
    }
    case Family::kFlapReconverge: {
      // The regime of bench_fault_sweeps' path-churn sweep: a victim-path
      // flap train with a hold-down, so routing withdraws/restores ports
      // mid-run and stalled FIFOs are flushed.
      cfg.faults =
          fault::FaultPlan::victim_path_flaps(sim::us(500), sim::us(50), seed);
      break;
    }
  }
  return cfg;
}

class ShardIdentity
    : public ::testing::TestWithParam<
          std::tuple<AnomalyType, std::uint64_t, Family>> {};

TEST_P(ShardIdentity, NShardBitwiseEqualsOneShard) {
  const auto [scenario, seed, fam] = GetParam();
  RunConfig cfg = cell_config(scenario, seed, fam);

  cfg.shards = 1;
  const std::string baseline =
      canonical_line(scenario, seed, run_one(cfg));

  for (const int shards : kShardCounts) {
    cfg.shards = shards;
    const std::string sharded = canonical_line(scenario, seed, run_one(cfg));
    EXPECT_EQ(sharded, baseline)
        << "shards=" << shards << " family=" << to_string(fam)
        << " diverged from the shards=1 run — either the pipeline reads the "
           "shards field or a run carried state into the next one.";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cells, ShardIdentity,
    ::testing::Combine(::testing::ValuesIn(kScenarios),
                       ::testing::ValuesIn(kSeeds),
                       ::testing::Values(Family::kFaultFree,
                                         Family::kCollectionFaults,
                                         Family::kFlapReconverge)),
    [](const ::testing::TestParamInfo<ShardIdentity::ParamType>& info) {
      std::string name(diagnosis::to_string(std::get<0>(info.param)));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_s" + std::to_string(std::get<1>(info.param)) + "_" +
             to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace hawkeye::eval
