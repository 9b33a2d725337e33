#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "diagnosis/anomaly_type.hpp"
#include "fault/fault.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "provenance/graph.hpp"
#include "sim/time.hpp"

namespace hawkeye::diagnosis {

/// Positive contributors below this fraction of the strongest contributor
/// are treated as incidental, not root causes (Algorithm 2 and the local
/// flow-interaction baseline alike).
inline constexpr double kContentionShare = 0.15;

/// At least this many distinct sources make a believable incast: the
/// Table-2 fan-in that ranks a server-facing terminal, keeps an incast
/// verdict against fleet evidence and names the incast contention cause.
inline constexpr int kIncastMinSources = 3;

struct DiagnosisConfig {
  /// Fabric-scale terminal ranking: prefer contention terminals matching
  /// the Table-2 incast signature (burst flows converging on a server
  /// -facing port) over generic mid-fabric contention, and only then rank
  /// by contention mass. On a large busy fabric the victim's PFC
  /// provenance reaches several genuinely congested ports at once, and
  /// the busiest core port out-masses the anomaly's initial point almost
  /// by construction — core links aggregate an entire pod's traffic. The
  /// signature tier encodes what raw mass cannot: an incast's defining
  /// evidence is WHERE the bursts converge, not how much total waiting
  /// piled up. false (the default) keeps the paper's pure mass ranking —
  /// small fabrics see one anomaly at a time, so verdicts are identical.
  bool signature_rank = false;
  sim::Time epoch_ns = sim::Time{1} << 20;
};

struct DiagnosisResult {
  AnomalyType type = AnomalyType::kNone;
  /// Flows identified as the anomaly's origin (bursts / contenders).
  std::vector<net::FiveTuple> root_cause_flows;
  /// Device believed to inject PFC (host at the end of the spreading path).
  net::NodeId injecting_peer = net::kInvalidNode;
  /// Initial congestion point (terminal of the PFC spreading path).
  net::PortRef initial_port;
  /// CBD cycle if a deadlock was found.
  std::vector<net::PortRef> loop_ports;
  /// Every port visited while tracing PFC causality.
  std::vector<net::PortRef> spreading_path;
  /// Flows paused at 2+ spreading-path ports (they propagate the PFC,
  /// like F2 in the paper's Figure 12(a)).
  std::vector<net::FiveTuple> spreading_flows;
  std::string narrative;
  /// How much the verdict can be trusted given the health of the telemetry
  /// it was computed from: 1.0 for a complete, fault-free collection,
  /// lower when hops were missing, snapshots failed or stale epochs were
  /// rejected. The diagnosis algorithm itself always emits its best-effort
  /// verdict; the caller scales this from collection health (see
  /// collection_confidence below).
  double confidence = 1.0;

  bool detected() const { return type != AnomalyType::kNone; }
};

/// Algorithm 2: trace the victim flow's PFC causality through the
/// provenance graph, match the Table 2 signatures and locate root causes.
DiagnosisResult diagnose(const provenance::ProvenanceGraph& g,
                         const net::Topology& topo,
                         const net::Routing& routing,
                         const net::FiveTuple& victim,
                         const DiagnosisConfig& cfg = {});

// ---- Fleet-ops fault signatures (Table 2 extension rows) ----
//
// Four anomaly classes rooted in component degradation rather than
// traffic: a degraded (CRC-erroring) link, a speed-mismatched link, a
// host whose PCIe drain is the bottleneck, and an oversubscribed
// down-link tier. Algorithm 2 alone cannot separate them from the
// classic rows — their *in-network* symptoms mimic congestion or look
// like nothing at all — but an operator's fleet-health pipeline exports
// exactly the counters that do: MAC FCS error registers, negotiated
// port speeds (the ethtool view) and NIC DMA backlog gauges.
// refine_fleet_verdict layers those counters (fault::FleetEvidence, built
// by fault::FaultInjector::fleet_evidence) over the provenance verdict and
// rewrites it when a fleet signature matches.

/// Rewrite the provenance verdict when a fleet-ops signature matches
/// (identity otherwise — in particular for empty evidence). The rules,
/// one Table-2 row per class:
///  - degraded link: a victim-path link shows FCS errors AND the sender
///    retransmitted, while the verdict is congestion-shaped (or traced
///    to the erroring link) *without* incast fan-in;
///  - link-speed mismatch: exactly one lone (non-tier) reduced-rate link
///    on the victim path, clean FCS, observed slow serializations;
///  - oversubscribed down-link: several sibling down-links reduced by a
///    tier-wide factor, one of them on the victim path, with multi-flow
///    contention in the verdict;
///  - host PCIe bottleneck: the victim's destination NIC shows DMA
///    drain backlog while NOTHING upstream paused (the no-PFC verdicts)
///    — the pure-victim row. An incast verdict also yields when the
///    measured backlog alone reaches 500 us (kMinDrainBacklogNs).
/// Deadlock verdicts are never rewritten: a CBD is structural evidence
/// no counter can explain away. dx.confidence must already hold the
/// collection confidence; a rewrite multiplies in the signature
/// strength (monotone in the evidence, within [base, max]). The rows'
/// thresholds are calibrated on the fleet sweep of bench_fault_sweeps
/// (every fault class x workload cell must produce its own verdict with
/// zero silently-wrong cells); diagnosis.cpp names them.
DiagnosisResult refine_fleet_verdict(DiagnosisResult dx,
                                     const fault::FleetEvidence& evidence,
                                     const net::Topology& topo,
                                     const net::Routing& routing,
                                     const net::FiveTuple& victim);

/// Per-fault-class multiplicative discounts applied by
/// collection_confidence. The defaults are calibrated against the
/// robustness sweeps (tools/calibrate_confidence: the poll-loss grid plus
/// the PFC-loss/link-flap axes of bench_fault_sweeps): among the triples
/// that maximize the AUC of confidence as a correct-verdict ranker, the
/// one with the lowest Brier score — whose confidence best approximates
/// P(correct) — wins. Method and the calibration run are recorded in
/// DESIGN.md §10. Ordering
/// invariant: a failed collection (evidence permanently missing) costs
/// more than a stale rejection (evidence discarded as untrustworthy),
/// which costs more than a re-poll that eventually delivered (evidence
/// merely late).
struct ConfidenceDiscounts {
  double failed_collection = 0.70;
  double stale_epoch = 0.90;
  double repoll = 0.98;
};

/// Confidence score for a verdict computed from possibly-degraded
/// telemetry. `coverage` is the fraction of expected hops that reported
/// (Episode::coverage()); the failure counters each shave a slice off the
/// remainder. Monotone: more faults never raise confidence. A clean
/// complete collection scores exactly 1.0.
double collection_confidence(double coverage, std::uint32_t failed_collections,
                             std::uint32_t stale_epochs_rejected,
                             std::uint32_t repolls,
                             const ConfidenceDiscounts& discounts = {});

}  // namespace hawkeye::diagnosis
