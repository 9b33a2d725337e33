#pragma once

#include <string>

#include "eval/runner.hpp"

namespace hawkeye::eval {

/// Versioned, canonical text serialization of a hunted run configuration —
/// the replayable-counterexample format of tools/hunt_misdiagnosis
/// (DESIGN.md §15). One `key=value` line per field in a fixed order,
/// doubles printed with %.17g (round-trip exact, the golden-suite
/// convention), so `serialize(parse(serialize(x)))` is byte-identical to
/// `serialize(x)` and string equality of two serializations is value
/// equality of the underlying cases.
///
/// The payload is deliberately the *inputs* of a run — RunConfig plus its
/// ScenarioOverlay and FaultPlan — never the crafted ScenarioSpec: a case
/// file replays through the exact same eval::run_one path as every bench,
/// and stays valid as long as the (scenario, seed) factories stay
/// deterministic. The `expected.*` block records the verdict class and
/// diagnosis the hunter observed at find time; tests/hunt_corpus_test.cpp
/// replays every committed file and asserts those fields forever. When a
/// later PR fixes a pinned misdiagnosis, the fixture's expected fields are
/// updated in that PR (turning the file into a permanent regression test
/// for the fix) — corpus files are never silently deleted.
///
/// Format rules (v1):
///  - first line is exactly `hawkeye-hunt-case v1`;
///  - `#`-prefixed and blank lines are ignored on parse, never emitted;
///  - top-level RunConfig scalars are always emitted; the faults./overlay.
///    blocks only when enabled, but then with every field of every spec;
///  - unknown keys are a parse error — format drift fails loudly in CI
///    instead of silently dropping a mutation axis.
struct HuntCase {
  RunConfig cfg;
  /// Verdict class observed at find time (eval::to_string(HuntVerdictClass)
  /// vocabulary — "silent-wrong", "wrong-low-confidence", "missed-trigger",
  /// or "correct"/"excused" once a find has been fixed).
  std::string expected_class;
  /// Diagnosis type the replay must reproduce (kNone for missed triggers).
  diagnosis::AnomalyType expected_verdict = diagnosis::AnomalyType::kNone;
  /// Ground-truth type of the crafted scenario (redundant with
  /// cfg.scenario for every current factory, recorded so a future
  /// factory-behaviour change is caught as drift, not absorbed).
  diagnosis::AnomalyType expected_truth = diagnosis::AnomalyType::kNone;
  /// One-line triage note (newlines are replaced by spaces on serialize).
  std::string note;
};

/// Canonical text form of the case (see format rules above).
std::string serialize_case(const HuntCase& c);

/// Parse a serialized case. Throws std::invalid_argument with the
/// offending line on any structural problem: bad magic/version, malformed
/// or unknown key, unparsable value (an integer outside its field's type, a
/// non-finite double), a RunConfig value the run cannot take (DESIGN.md
/// §15), or an invalid resulting FaultPlan / overlay (validate() is
/// consulted so a corrupted fixture cannot reach the injector).
HuntCase parse_case(const std::string& text);

/// The first RunConfig value a run cannot take, as "key=value" (empty when
/// every value is in range): the range rules parse_case enforces on a case
/// file (DESIGN.md §15), for any caller that builds a config from input.
std::string config_error(const RunConfig& cfg);

/// Stable content fingerprint of a case (FNV-1a over the serialization) —
/// the corpus filename suffix, so identical finds from different campaigns
/// collide into one file instead of accumulating duplicates.
std::uint64_t case_fingerprint(const HuntCase& c);

}  // namespace hawkeye::eval
