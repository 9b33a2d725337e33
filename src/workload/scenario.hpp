#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "device/host.hpp"
#include "diagnosis/anomaly_type.hpp"
#include "fault/fault.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sim/random.hpp"

namespace hawkeye::workload {

/// Routing misconfiguration to install before the run (deadlock CBDs).
struct RouteOverride {
  net::NodeId sw = net::kInvalidNode;
  net::NodeId dst = net::kInvalidNode;
  net::PortId port = net::kInvalidPort;
};

/// Host-side PFC injection (malfunctioning NIC / slow receiver).
struct PfcInjectionSpec {
  net::NodeId host = net::kInvalidNode;
  sim::Time start = 0;
  sim::Time stop = 0;
  sim::Time period = 50'000;
  std::uint32_t quanta = 65535;
};

/// What the diagnosis *should* report for the crafted trace.
struct GroundTruth {
  diagnosis::AnomalyType type = diagnosis::AnomalyType::kNone;
  std::vector<net::FiveTuple> root_cause_flows;
  net::NodeId injecting_host = net::kInvalidNode;
  std::vector<net::PortRef> loop_ports;  // expected CBD, empty if none
  /// Ports where the initial flow contention happens (empty for pure
  /// injection anomalies). Background flows that cross one of these during
  /// the anomaly window are genuine co-contributors: the evaluation treats
  /// them as acceptable root causes alongside the crafted culprits.
  std::vector<net::PortRef> congestion_ports;
  /// Expected fine-grained contention cause (kUnknown = not scored).
  diagnosis::ContentionCause expected_cause =
      diagnosis::ContentionCause::kUnknown;
};

/// A fully-specified anomaly trace: crafted flows, misconfigurations,
/// injections and the expected diagnosis. The evaluation Runner installs it
/// on a fresh simulation (paper §4.1: "for each anomaly scenario, we craft
/// 100 traffic traces ... with different link load").
struct ScenarioSpec {
  std::string name;
  diagnosis::AnomalyType type = diagnosis::AnomalyType::kNone;
  std::vector<device::FlowSpec> flows;
  net::FiveTuple victim;
  sim::Time anomaly_start = 0;
  sim::Time duration = 2 * sim::kMillisecond;
  std::vector<RouteOverride> overrides;
  std::vector<PfcInjectionSpec> injections;
  GroundTruth truth;
  /// Scenario-specific PFC threshold (normal contention uses deep headroom
  /// so queues can build without PAUSE — see DESIGN.md).
  std::optional<std::int64_t> xoff_bytes;
  std::optional<std::int64_t> xon_bytes;
  /// Collection-pipeline faults to inject during this trace (robustness
  /// evaluation). Unset/disabled => the fault hooks are never installed and
  /// the run is byte-identical to a fault-free build.
  std::optional<fault::FaultPlan> faults;
};

/// Traffic pattern riding a fleet-fault scenario. Beyond the crafted
/// victim-plus-feeders shape of paper §4.1, the fleet bench exercises the
/// two application patterns net_sanitizer ships: a client/server RPC
/// exchange (small requests, larger responses) and an all-to-all shuffle.
/// The fault signature must survive realistic traffic, not just crafted
/// silence.
enum class FleetWorkload {
  kCrafted = 0,       // §4.1 shape: victim + whatever background_flows adds
  kRpcClientServer,   // request/response mesh around the victim's server
  kAllToAll,          // shuffle among a host group containing the victim
};

std::string_view to_string(FleetWorkload w);

/// Crafts one trace of `type` on a fat-tree. `routing` must be the default
/// (override-free) table; crafting uses it to pick paths. kNone crafts the
/// benign trace: a healthy victim transfer plus a few light, uncorrelated
/// peers — nothing congests, so any asserted verdict on it is a false
/// alarm.
///
/// `w` and `severity` apply to the four fleet-fault classes only. `w`
/// layers its traffic pattern over the crafted trace. `severity` scales
/// the injected defect (1.0 = the class default), monotone per class and
/// chosen so the defect stays a genuine anomaly for any severity in
/// (0, ~4]: the BER scales linearly, the mis-negotiated rate decays
/// geometrically from nominal, the PCIe drain cap falls linearly below the
/// victim's arrival rate, and the oversubscription factor is raised to the
/// severity-th power.
ScenarioSpec make_scenario(diagnosis::AnomalyType type,
                           const net::FatTree& ft,
                           const net::Routing& routing, sim::Rng& rng,
                           FleetWorkload w = FleetWorkload::kCrafted,
                           double severity = 1.0);

/// Extension scenario (§2.1's "slow receiver issues caused by buffer
/// exhaustion on the NIC"): the receiver NIC intermittently PAUSEs its
/// uplink with short quanta instead of flooding it — throughput halves and
/// victims see repeated spikes. Ground truth is still host PFC injection
/// (a PFC storm in Table 2's taxonomy).
ScenarioSpec make_slow_receiver(const net::FatTree& ft, sim::Rng& rng);

/// Extension scenario (§3.5.2's load-imbalance root cause): several flows
/// hash onto the same ECMP uplink while its sibling idles; the victim
/// shares the hot uplink. Type-wise this is plain contention; the
/// fine-grained cause is kEcmpImbalance.
ScenarioSpec make_ecmp_imbalance(const net::FatTree& ft,
                                 const net::Routing& routing, sim::Rng& rng);

/// Background load: Poisson arrivals, long-tailed sizes, random src/dst
/// pairs, scaled so offered load ≈ `load` of aggregate host bandwidth.
std::vector<device::FlowSpec> background_flows(const net::FatTree& ft,
                                               sim::Rng& rng, double load,
                                               sim::Time start,
                                               sim::Time stop);

}  // namespace hawkeye::workload
