#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "eval/scenario_io.hpp"
#include "eval/sweep.hpp"

namespace hawkeye::eval {

/// How wrong a diagnosis was, ordered by operator pain (DESIGN.md §15).
/// The hunter maximizes this ordering: a confidently asserted wrong verdict
/// sends an operator to the wrong rack; a low-confidence wrong verdict at
/// least announces its own unreliability; a missed trigger is a gap, not a
/// lie. `kExcused` covers verdicts the robustness benches already
/// attribute to injected substrate damage (degraded collection for misses,
/// an on-victim-path data-plane fault for wrong verdicts) — hunting those
/// would rediscover the injector, not the diagnosis rules.
enum class HuntVerdictClass {
  kCorrect = 0,
  kExcused,
  kMissedTrigger,
  kWrongLowConfidence,
  kSilentWrong,
};

std::string_view to_string(HuntVerdictClass c);

/// Search-objective severity: correct/excused 0, missed 1, wrong-low 2,
/// silent-wrong 3. Anything >= 1 is a find.
int severity(HuntVerdictClass c);

/// Classify one scored run. `tau` is the assertion threshold separating
/// "silently wrong" (confidence >= tau: the operator would act on it) from
/// "wrong with low confidence". Truth kNone runs are scored fn by run_one's
/// convention when nothing triggers — on a benign trace only an asserted
/// wrong verdict (fp) counts against the diagnosis.
HuntVerdictClass classify_verdict(const RunResult& r, double tau = 0.9);

struct HuntOptions {
  std::uint64_t seed = 1;
  /// Trials sampled (shrinking evals are extra; see HuntReport::evals).
  int budget = 200;
  /// SweepOptions::threads. Any thread count yields an identical campaign:
  /// sampling is a pure function of (seed, trial index) and run_sweep
  /// returns results in input order.
  int threads = 0;
  double tau = 0.9;
  bool shrink = true;
  int max_shrink_evals = 96;  ///< Per find.
  /// Fabric scales sampled per trial.
  std::vector<int> ks = {4};
  /// Stop collecting after this many finds (sampling still runs to budget
  /// so the campaign log stays a pure function of seed + budget).
  int max_finds = 32;
  /// When non-empty, each find's shrunk case is written here as
  /// hunt-<class>-<truth>-<fingerprint16>.txt.
  std::string corpus_dir;
};

struct HuntFind {
  HuntCase shrunk;    ///< Minimized case, expected.* recorded at find time.
  HuntCase original;  ///< The raw sampled trial that failed.
  int trial = -1;
  int shrink_evals = 0;
  std::size_t flows_before = 0;  ///< Crafted flow count pre-shrink…
  std::size_t flows_after = 0;   ///< …and after overlay drops.
  std::string signature;         ///< truth/class/verdict dedupe key.
  std::string file;              ///< Corpus filename ("" if not written).
};

struct HuntReport {
  int trials = 0;
  int evals = 0;  ///< run_one executions, sampling + shrinking.
  int count_by_class[5] = {0, 0, 0, 0, 0};  ///< Indexed by HuntVerdictClass.
  std::vector<HuntFind> finds;
  /// Deterministic campaign log: same (options) => byte-identical log,
  /// regardless of the thread count. One line per non-correct trial,
  /// per shrink, per find, plus a summary tail.
  std::string log;
};

/// Run a seeded hunt campaign: sample `budget` configurations from the
/// joint (scenario, seed, workload, topology, fault-plan, overlay) space,
/// evaluate through run_sweep, classify, and delta-debug every find to a
/// minimal counterexample. Fully deterministic in `opts` (see HuntReport).
HuntReport run_hunt_campaign(const HuntOptions& opts);

/// Re-evaluate one case and compare against its recorded expectation.
struct ReplayOutcome {
  RunResult result;
  HuntVerdictClass observed = HuntVerdictClass::kCorrect;
  /// expected.class/verdict/truth all reproduced (class compared by
  /// string so fixtures can pin post-fix values like "correct").
  bool matches_expected = false;
  std::string detail;  ///< One line: observed vs expected.
};
ReplayOutcome replay_case(const HuntCase& c, double tau = 0.9);

}  // namespace hawkeye::eval
