#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "collect/episode.hpp"
#include "diagnosis/diagnosis.hpp"
#include "eval/testbed.hpp"
#include "provenance/graph.hpp"
#include "sim/simulator.hpp"
#include "telemetry/engine.hpp"
#include "workload/overlay.hpp"
#include "workload/scenario.hpp"

namespace hawkeye::eval {

/// Which diagnosis system handles the trace — Hawkeye plus the §4.2/§4.3
/// comparison baselines.
enum class Method {
  kHawkeye,      // victim path + PFC causality tracing, provenance diagnosis
  kFullPolling,  // collect every switch, provenance diagnosis
  kVictimOnly,   // victim path only, provenance diagnosis
  kSpiderMon,    // victim path, local flow-interaction diagnosis, no PFC
  kNetSight,     // per-packet postcards everywhere, local diagnosis, no PFC
};

std::string_view to_string(Method m);

struct RunConfig {
  diagnosis::AnomalyType scenario = diagnosis::AnomalyType::kMicroBurstIncast;
  std::uint64_t seed = 1;
  Method method = Method::kHawkeye;

  // Hawkeye parameters (the Fig 7 sweep axes).
  int epoch_shift = 17;          // epoch = 2^shift ns (~131 us)
  int epoch_index_bits = 3;      // ring of 8 epochs
  double threshold_factor = 3.0; // detection threshold, x baseline RTT

  // Telemetry ablations (Fig 10).
  telemetry::TelemetryMode tele_mode = telemetry::TelemetryMode::kFull;
  bool one_bit_meter = false;

  double background_load = 0.1;
  /// Fabric scale (k pods, k^2/4 core switches, k^3/4 hosts).
  int fat_tree_k = 4;
  /// Read only by tracebench/; deleted when tracebench's replay moves onto
  /// eval::Run (ROADMAP). Every run uses one event calendar; the case-file
  /// codec still reads and writes `shards=` so older cases parse.
  int shards = 1;

  /// Collection-pipeline faults (robustness sweep). Disabled by default;
  /// the injector seed is mixed with `seed` so every sweep point draws an
  /// independent fault stream.
  fault::FaultPlan faults;
  /// Self-healing retry budget, applied only to runs with faults: an
  /// enabled `faults` plan or a fleet-ops plan the scenario crafted itself.
  /// Fault-free runs keep the agent's default of 0 so no coverage-check
  /// events are ever scheduled and their traces stay byte-identical.
  std::uint32_t max_repolls = 3;

  /// Traffic pattern for the fleet-ops fault scenarios (ignored for every
  /// other scenario type): the crafted §4.1 shape, an RPC client/server
  /// mesh, or an all-to-all shuffle (axes of bench_fault_sweeps' fleet
  /// sweep).
  workload::FleetWorkload fleet_workload = workload::FleetWorkload::kCrafted;
  /// Severity of the injected fleet defect, 1.0 = the scenario's default
  /// (passed to make_fleet_scenario; see its doc for the per-class
  /// mapping — each is monotone and keeps the defect a genuine anomaly at
  /// any severity in the bench's sweep range). The fleet sweep of
  /// bench_fault_sweeps varies this to show zero silently-wrong verdicts
  /// at every injected rate.
  double fleet_severity = 1.0;

  /// Post-crafting scenario mutations (the misdiagnosis hunter's workload
  /// axes — DESIGN.md §15). Disabled by default: apply_overlay is never
  /// called and the crafted trace is byte-identical to pre-overlay builds.
  workload::ScenarioOverlay overlay;
};

struct RunResult {
  std::string scenario_name;
  diagnosis::AnomalyType truth_type = diagnosis::AnomalyType::kNone;
  bool triggered = false;
  diagnosis::DiagnosisResult dx;
  bool tp = false, fp = false, fn = false;

  // Overheads (Fig 9 / 11 / 14).
  std::int64_t telemetry_bytes = 0;      // processing overhead, zero-filtered
  std::int64_t raw_telemetry_bytes = 0;  // unfiltered register dump
  std::uint64_t report_packets = 0;
  std::uint64_t dataplane_report_packets = 0;
  std::uint64_t polling_packets = 0;
  std::int64_t monitor_bw_bytes = 0;  // method's in-band monitoring traffic
  std::size_t collected_switches = 0;
  std::size_t causal_switches = 0;
  double causal_coverage = 0;
  sim::Time detection_latency = -1;  // trigger time - anomaly start

  std::vector<net::NodeId> collected;  // switches in the episode

  std::uint64_t sim_events = 0;
  /// Pathological drops (data/headroom) — zero on a healthy PFC fabric
  /// even while polling packets are intentionally discarded.
  std::uint64_t drops = 0;
  std::uint64_t polling_drops = 0;

  // Collection health (robustness evaluation).
  double collection_coverage = 1.0;  // expected victim-path hops heard from
  double confidence = 1.0;           // verdict confidence (dx.confidence)
  bool degraded = false;             // telemetry substrate was hit
  std::uint32_t repolls = 0;
  std::uint32_t failed_collections = 0;
  std::uint32_t stale_epochs = 0;

  // Injected data-plane fault truth (bench_fault_sweeps' data-plane and
  // path-churn sweeps score verdicts against this: a wrong/missed verdict
  // inside a fault epoch on the victim's path is attributed, not silently
  // wrong).
  std::uint64_t link_down_drops = 0;    // packets eaten by link flaps
  std::uint64_t pfc_pause_lost = 0;     // PAUSE frames eaten
  std::uint64_t pfc_resume_lost = 0;    // RESUME frames eaten
  std::uint64_t pfc_frames_delayed = 0;
  std::uint64_t pfc_loss_drops = 0;     // overflow drops induced by lost PAUSE
  bool dataplane_fault_fired = false;
  sim::Time first_fault_at = -1;
  sim::Time last_fault_at = -1;
  /// A fired data-plane fault actually intersected the victim's forwarding
  /// path (flapped link on the path, or PFC frame faults — which are
  /// port-global). Attribution of a wrong verdict to an injected fault is
  /// honest only when this holds; an off-path flap excusing a bad verdict
  /// would hide a real misclassification.
  bool fault_on_victim_path = false;

  // Routing reconvergence (PR 4).
  std::uint64_t routing_epochs = 0;  // final net::Routing::epoch()
  bool path_churned = false;         // victim episode spanned a reroute

  // Fleet-ops fault truth + evidence (fleet sweep of bench_fault_sweeps).
  // The counters are injector observables (modeled MAC FCS registers, slow
  // serializations, NIC DMA drain gauges); `fleet_evidence` is the
  // assembled fleet-health view handed to refine_fleet_verdict.
  std::uint64_t crc_drops = 0;
  std::uint64_t retransmissions = 0;      // victim sender's go-back-N count
  std::uint64_t rate_limited_pkts = 0;
  std::uint64_t host_drain_delayed = 0;
  fault::FleetEvidence fleet_evidence;
};

/// One run, stage by stage (DESIGN.md §5): the object run_one drives, for
/// callers that look between the stages — print the crafted scenario or the
/// provenance graph, dump the fabric, or diagnose several victims of one
/// trace. Every stage is configured exactly as run_one configures it.
class Run {
 public:
  /// Crafts cfg's scenario (craft_scenario), derives the fabric options,
  /// builds the testbed, installs the scenario and adds the background
  /// flows from the same RNG stream.
  explicit Run(const RunConfig& cfg);
  /// The same for a scenario the caller crafted. The crafting inputs
  /// (cfg.scenario, cfg.faults, cfg.overlay) are ignored.
  Run(const RunConfig& cfg, workload::ScenarioSpec spec);
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  /// Run the trace plus the collection margin.
  void simulate();

  /// The victim's episodes merged (Collector::merged_episode from the
  /// anomaly onset); nullopt when the victim never triggered.
  std::optional<collect::Episode> victim_episode() const;

  struct Diagnosis {
    provenance::ProvenanceGraph graph;  // empty for the local baselines
    diagnosis::DiagnosisResult dx;
    fault::FleetEvidence fleet_evidence;
  };
  /// Algorithm 1 + Algorithm 2 over `episode` (or the method's local
  /// baseline) with the telemetry's epoch, signature ranking and the
  /// trigger-scope rule, then the collection-health confidence and the
  /// fleet refinement. For victim_episode() this is run_one's verdict.
  Diagnosis diagnose(const collect::Episode& episode);

  /// Records the fabric and collection counters, diagnoses the merged
  /// victim episode and scores it: run_one's result.
  RunResult result();

  const workload::ScenarioSpec& spec() const { return spec_; }
  Testbed& testbed() { return tb_; }

 private:
  void build();

  RunConfig cfg_;
  sim::Rng rng_;
  workload::ScenarioSpec spec_;
  Testbed::Options opts_;
  Testbed tb_;
  /// The victim path at install time (fault attribution needs it next to
  /// the end-of-run path).
  std::vector<net::PortRef> install_path_;
};

/// Simulate one crafted trace end-to-end and score the diagnosis:
/// Run(cfg), simulate(), result().
RunResult run_one(const RunConfig& cfg);

/// The crafting half of run_one, exposed as a mutation/shrinking hook for
/// the misdiagnosis hunter: dispatch the scenario factory for cfg.scenario,
/// merge + victim-path-bind cfg.faults, then apply cfg.overlay. `rng` must
/// be freshly seeded with cfg.seed; run_one continues the same stream into
/// background-flow generation, so crafting through this helper is
/// byte-identical to what run_one simulates.
workload::ScenarioSpec craft_scenario(const RunConfig& cfg, sim::Rng& rng);

/// Did any flapped link that actually bit (dropped or stalled traffic) lie
/// on the victim's forwarding path? `victim_path` is a net::Routing::path_of
/// answer (host NIC hop first); `dst_host` closes the final hop. Exposed for
/// unit testing of the benches' victim-path-aware fault attribution.
bool flap_hit_victim_path(
    const std::vector<std::pair<net::NodeId, net::NodeId>>& links_hit,
    const std::vector<net::PortRef>& victim_path, net::NodeId dst_host);

/// Precision / recall accumulator (paper §4.2 definitions).
struct PrecisionRecall {
  int tp = 0, fp = 0, fn = 0;
  void add(const RunResult& r) {
    tp += r.tp ? 1 : 0;
    fp += r.fp ? 1 : 0;
    fn += r.fn ? 1 : 0;
  }
  double precision() const {
    return tp + fp == 0 ? 0.0 : static_cast<double>(tp) / (tp + fp);
  }
  double recall() const {
    return tp + fn == 0 ? 0.0 : static_cast<double>(tp) / (tp + fn);
  }
};

/// Accuracy-vs-confidence-threshold curve accumulator. Feed every run's
/// (confidence, correct) pair; points() sweeps the assertion threshold τ
/// over equal-width buckets and reports, per τ, how many runs would still
/// assert a verdict (confidence >= τ) and how many of those are correct.
/// `asserted` is non-increasing in τ by construction — the monotonicity
/// the threshold-curve test pins down.
struct ConfidenceCurve {
  struct Point {
    double threshold = 0;
    int asserted = 0;  // runs with confidence >= threshold
    int correct = 0;   // of those, correct (tp) verdicts
    double accuracy() const {
      return asserted == 0 ? 1.0
                           : static_cast<double>(correct) /
                                 static_cast<double>(asserted);
    }
  };
  void add(double confidence, bool correct) {
    samples_.emplace_back(confidence, correct);
  }
  std::size_t size() const { return samples_.size(); }
  std::vector<Point> points(int buckets = 10) const;

 private:
  std::vector<std::pair<double, bool>> samples_;
};

}  // namespace hawkeye::eval
