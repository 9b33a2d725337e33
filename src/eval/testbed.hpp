#pragma once

#include <memory>
#include <vector>

#include "collect/collector.hpp"
#include "collect/detection_agent.hpp"
#include "collect/switch_agent.hpp"
#include "device/host.hpp"
#include "device/switch.hpp"
#include "fault/fault.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "workload/scenario.hpp"

namespace hawkeye::eval {

/// A fully-wired simulated RDMA fabric with the Hawkeye stack installed:
/// topology + routing + devices + telemetry + collection. Owns every
/// object; non-copyable and non-movable (devices hold references).
/// eval::Run builds one per run; tests build small experiments directly
/// on it.
class Testbed {
 public:
  struct Options {
    int fat_tree_k = 4;
    /// Read only by tracebench/; deleted when tracebench's replay moves
    /// onto eval::Run (ROADMAP). Every run uses one event calendar.
    int shards = 1;
    device::SwitchConfig switch_cfg;
    device::CcAlgorithm cc_algo = device::CcAlgorithm::kDcqcn;
    collect::Collector::Config collector_cfg;
    collect::HawkeyeSwitchAgent::Config switch_agent_cfg;
    collect::DetectionAgent::Config agent_cfg;
    /// Install the Hawkeye polling/collection stack (false => plain fabric).
    bool install_hawkeye = true;
  };

  Testbed() : Testbed(Options{}) {}
  explicit Testbed(const Options& opts);
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  /// Apply a crafted scenario: route overrides, crafted flows, injections,
  /// and the scenario's fault plan (if any).
  void install(const workload::ScenarioSpec& spec);

  /// Wire a fault injector into the network (link flaps, PFC frame
  /// faults), every switch, the collector and the detection agent.
  /// Disabled plans are a no-op; structurally invalid plans throw
  /// std::invalid_argument (FaultPlan::validate). Idempotent per plan;
  /// call before the simulation starts.
  void install_faults(const fault::FaultPlan& plan);

  /// Add one flow on its source host. Returns the flow id.
  std::uint64_t add_flow(const device::FlowSpec& spec);

  void run_for(sim::Time duration) { simu.run_until(duration); }

  device::Host& host(net::NodeId id);
  device::Switch& switch_at(net::NodeId id);

  /// Stats of a flow by tuple (nullptr if unknown).
  const device::FlowStats* stats_of(const net::FiveTuple& tuple) const;

  net::FatTree ft;
  net::Routing routing;
  sim::Simulator simu;
  device::Network net;
  collect::Collector collector;
  std::unique_ptr<collect::HawkeyeSwitchAgent> switch_agent;
  std::unique_ptr<collect::DetectionAgent> agent;
  /// Non-null only when an enabled fault plan was installed.
  std::unique_ptr<fault::FaultInjector> faults;

 private:
  std::vector<std::unique_ptr<device::Switch>> switches_;
  std::vector<std::unique_ptr<device::Host>> hosts_;
};

}  // namespace hawkeye::eval
