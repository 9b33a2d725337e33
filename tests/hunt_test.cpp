// eval::hunter — verdict classification rules and campaign determinism.
// The hunter's contract: same (seed, budget, tau) ⇒ byte-identical campaign
// log, finds, and corpus files, regardless of thread count.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "eval/hunter.hpp"

namespace hawkeye::eval {
namespace {

namespace fs = std::filesystem;
using diagnosis::AnomalyType;

RunResult base_result(AnomalyType truth) {
  RunResult r;
  r.truth_type = truth;
  r.triggered = true;
  r.confidence = 1.0;
  return r;
}

TEST(HuntClassifyTest, ObjectiveOrdering) {
  EXPECT_LT(severity(HuntVerdictClass::kCorrect),
            severity(HuntVerdictClass::kMissedTrigger));
  EXPECT_LT(severity(HuntVerdictClass::kMissedTrigger),
            severity(HuntVerdictClass::kWrongLowConfidence));
  EXPECT_LT(severity(HuntVerdictClass::kWrongLowConfidence),
            severity(HuntVerdictClass::kSilentWrong));
  EXPECT_EQ(severity(HuntVerdictClass::kExcused), 0);
}

TEST(HuntClassifyTest, CorrectAndMissedAndWrong) {
  RunResult r = base_result(AnomalyType::kPfcStorm);
  r.tp = true;
  EXPECT_EQ(classify_verdict(r), HuntVerdictClass::kCorrect);

  r = base_result(AnomalyType::kPfcStorm);
  r.fn = true;
  EXPECT_EQ(classify_verdict(r), HuntVerdictClass::kMissedTrigger);
  r.degraded = true;  // substrate was hit: miss is attributed
  EXPECT_EQ(classify_verdict(r), HuntVerdictClass::kExcused);

  r = base_result(AnomalyType::kPfcStorm);
  r.fp = true;
  r.confidence = 0.95;
  r.dx.type = AnomalyType::kMicroBurstIncast;
  EXPECT_EQ(classify_verdict(r), HuntVerdictClass::kSilentWrong);
  r.confidence = 0.5;
  EXPECT_EQ(classify_verdict(r), HuntVerdictClass::kWrongLowConfidence);
  EXPECT_EQ(classify_verdict(r, /*tau=*/0.4), HuntVerdictClass::kSilentWrong)
      << "tau moves the silent/low-confidence boundary";
}

TEST(HuntClassifyTest, WrongVerdictExcusedByVictimPathFault) {
  RunResult r = base_result(AnomalyType::kNormalContention);
  r.fp = true;
  r.confidence = 0.95;
  r.dx.type = AnomalyType::kPfcStorm;
  r.dataplane_fault_fired = true;
  EXPECT_EQ(classify_verdict(r), HuntVerdictClass::kSilentWrong)
      << "off-victim-path faults excuse nothing";
  r.fault_on_victim_path = true;
  EXPECT_EQ(classify_verdict(r), HuntVerdictClass::kExcused);
}

TEST(HuntClassifyTest, VerdictNamingInjectedDefectIsNotWrong) {
  // The campaign injected a degraded cable on top of a crafted storm and
  // the diagnosis blamed the cable: attribution ambiguity between two real
  // problems, not a misdiagnosis.
  RunResult r = base_result(AnomalyType::kPfcStorm);
  r.fp = true;
  r.confidence = 0.95;
  r.dx.type = AnomalyType::kDegradedLink;
  r.crc_drops = 12;
  EXPECT_EQ(classify_verdict(r), HuntVerdictClass::kExcused);
  r.crc_drops = 0;  // the cable never fired: now it IS a wrong verdict
  EXPECT_EQ(classify_verdict(r), HuntVerdictClass::kSilentWrong);
}

TEST(HuntClassifyTest, BenignTraceScoring) {
  // run_one scores a quiet benign run fn by convention; only an asserted
  // verdict counts against the diagnosis there.
  RunResult r = base_result(AnomalyType::kNone);
  r.triggered = false;
  r.fn = true;
  EXPECT_EQ(classify_verdict(r), HuntVerdictClass::kCorrect);

  r = base_result(AnomalyType::kNone);
  r.fp = true;
  r.dx.type = AnomalyType::kMicroBurstIncast;
  r.confidence = 0.95;
  EXPECT_EQ(classify_verdict(r), HuntVerdictClass::kSilentWrong);
  r.confidence = 0.2;
  EXPECT_EQ(classify_verdict(r), HuntVerdictClass::kWrongLowConfidence);
}

std::map<std::string, std::string> read_dir(const fs::path& dir) {
  std::map<std::string, std::string> out;
  if (!fs::exists(dir)) return out;
  for (const auto& e : fs::directory_iterator(dir)) {
    std::ifstream in(e.path(), std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    out[e.path().filename().string()] = buf.str();
  }
  return out;
}

TEST(HuntCampaignTest, DeterministicAcrossThreadCounts) {
  // Small but real campaign: enough trials to produce at least one find on
  // this seed, small shrink budget to keep it fast. Identical options up
  // to threads (which by contract change wall-clock only).
  HuntOptions a;
  a.seed = 5;
  a.budget = 6;
  a.threads = 1;
  a.max_shrink_evals = 4;
  a.corpus_dir = (fs::temp_directory_path() / "hawkeye_hunt_det_a").string();
  HuntOptions b = a;
  b.threads = 2;
  b.corpus_dir = (fs::temp_directory_path() / "hawkeye_hunt_det_b").string();
  fs::remove_all(a.corpus_dir);
  fs::remove_all(b.corpus_dir);

  const HuntReport ra = run_hunt_campaign(a);
  const HuntReport rb = run_hunt_campaign(b);
  EXPECT_EQ(ra.log, rb.log);
  EXPECT_EQ(ra.trials, rb.trials);
  EXPECT_EQ(ra.evals, rb.evals);
  ASSERT_EQ(ra.finds.size(), rb.finds.size());
  for (std::size_t i = 0; i < ra.finds.size(); ++i) {
    EXPECT_EQ(serialize_case(ra.finds[i].shrunk),
              serialize_case(rb.finds[i].shrunk));
  }
  EXPECT_EQ(read_dir(a.corpus_dir), read_dir(b.corpus_dir));

  // Shrinking only ever simplifies: never more crafted flows than the
  // original, and the shrunk case still reproduces its recorded class.
  for (const HuntFind& f : ra.finds) {
    EXPECT_LE(f.flows_after, f.flows_before);
    EXPECT_FALSE(f.shrunk.expected_class.empty());
  }
  if (!ra.finds.empty()) {
    const ReplayOutcome out = replay_case(ra.finds[0].shrunk, a.tau);
    EXPECT_TRUE(out.matches_expected) << out.detail;
  }
  fs::remove_all(a.corpus_dir);
  fs::remove_all(b.corpus_dir);
}

}  // namespace
}  // namespace hawkeye::eval
