#pragma once

#include <array>
#include <string_view>

namespace hawkeye::diagnosis {

/// The representative RDMA NPA cases of paper §2.1 / Table 2. This is the
/// shared vocabulary between the scenario crafters (ground truth), the
/// signature matcher and the evaluation harness.
enum class AnomalyType {
  kNone = 0,
  kMicroBurstIncast,            // PFC backpressure by flow contention
  kPfcStorm,                    // cascading PFC from host injection
  kInLoopDeadlock,              // CBD + initiator inside the loop
  kOutOfLoopDeadlockContention, // CBD + contention initiator outside loop
  kOutOfLoopDeadlockInjection,  // CBD + host PFC injection outside loop
  kNormalContention,            // plain queue contention, no PFC

  // Fleet-ops fault classes (silent-failure taxonomy): anomalies whose
  // congestion symptoms mimic the Table 2 rows above but whose root cause
  // is a degraded component, not traffic. Separated from the provenance
  // verdicts by counter-level evidence (FleetEvidence in fault/fault.hpp).
  kDegradedLink,            // BER/CRC loss: congestion provenance, no incast
  kLinkSpeedMismatch,       // one slow-negotiated link in a fast fabric
  kHostPcieBottleneck,      // receiver DMA drain cap: victim, nobody paused
  kOversubscribedDownlink,  // tier-wide down-link capacity reduction
};

/// The six anomalies of Table 2, in the order every per-anomaly listing
/// uses (bench rows, golden fixture rows).
inline constexpr std::array<AnomalyType, 6> kTable2Anomalies = {
    AnomalyType::kMicroBurstIncast,
    AnomalyType::kPfcStorm,
    AnomalyType::kInLoopDeadlock,
    AnomalyType::kOutOfLoopDeadlockContention,
    AnomalyType::kOutOfLoopDeadlockInjection,
    AnomalyType::kNormalContention,
};

constexpr std::string_view to_string(AnomalyType t) {
  switch (t) {
    case AnomalyType::kNone: return "none";
    case AnomalyType::kMicroBurstIncast: return "micro-burst-incast";
    case AnomalyType::kPfcStorm: return "pfc-storm";
    case AnomalyType::kInLoopDeadlock: return "in-loop-deadlock";
    case AnomalyType::kOutOfLoopDeadlockContention:
      return "out-of-loop-deadlock-contention";
    case AnomalyType::kOutOfLoopDeadlockInjection:
      return "out-of-loop-deadlock-injection";
    case AnomalyType::kNormalContention: return "normal-contention";
    case AnomalyType::kDegradedLink: return "degraded-link";
    case AnomalyType::kLinkSpeedMismatch: return "link-speed-mismatch";
    case AnomalyType::kHostPcieBottleneck: return "host-pcie-bottleneck";
    case AnomalyType::kOversubscribedDownlink:
      return "oversubscribed-downlink";
  }
  return "?";
}

/// Finer-grained classification of a flow-contention root cause
/// (paper §3.5.2: "incast bursts can be identified by analyzing the
/// contributing flows' paths and throughput, and load imbalance can be
/// located by calculating ECMP imbalance ratio").
enum class ContentionCause {
  kUnknown = 0,
  kIncast,         // many sources converging on one destination port
  kEcmpImbalance,  // hash skew: one equal-cost uplink hot, siblings idle
  kElephant,       // a single long-lived high-rate flow dominates
};

constexpr std::string_view to_string(ContentionCause c) {
  switch (c) {
    case ContentionCause::kUnknown: return "unknown";
    case ContentionCause::kIncast: return "incast";
    case ContentionCause::kEcmpImbalance: return "ecmp-imbalance";
    case ContentionCause::kElephant: return "elephant-flow";
  }
  return "?";
}

/// Both deadlock signatures describe the same anomaly family; diagnosis is
/// scored per exact type, but several helpers want the family.
constexpr bool is_deadlock(AnomalyType t) {
  return t == AnomalyType::kInLoopDeadlock ||
         t == AnomalyType::kOutOfLoopDeadlockContention ||
         t == AnomalyType::kOutOfLoopDeadlockInjection;
}

/// Fleet-ops fault classes: component degradation diagnosed from counter
/// evidence layered on top of the provenance verdict.
constexpr bool is_fleet_fault(AnomalyType t) {
  return t == AnomalyType::kDegradedLink ||
         t == AnomalyType::kLinkSpeedMismatch ||
         t == AnomalyType::kHostPcieBottleneck ||
         t == AnomalyType::kOversubscribedDownlink;
}

}  // namespace hawkeye::diagnosis
