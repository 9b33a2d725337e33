// Custom topology: Hawkeye is not tied to the fat-tree — this example
// builds a 2-tier leaf-spine fabric by hand with the raw Topology API,
// wires up switches/hosts/telemetry manually (no Testbed convenience),
// runs an incast, and diagnoses it. This is the lowest-level tour of the
// public API: Topology -> Routing -> Network -> Switch/Host ->
// Collector/agents -> provenance -> diagnosis.
//
//   $ ./custom_topology
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "collect/collector.hpp"
#include "collect/detection_agent.hpp"
#include "collect/switch_agent.hpp"
#include "device/host.hpp"
#include "device/switch.hpp"
#include "diagnosis/diagnosis.hpp"
#include "provenance/builder.hpp"

using namespace hawkeye;

int main() {
  // ---- 1. Topology: 4 leaves x 2 spines, 3 hosts per leaf, 100 Gbps ----
  net::Topology topo;
  std::vector<net::NodeId> hosts, leaves, spines;
  for (int l = 0; l < 4; ++l) {
    for (int h = 0; h < 3; ++h) hosts.push_back(topo.add_node(net::NodeKind::kHost));
  }
  for (int l = 0; l < 4; ++l) {
    leaves.push_back(topo.add_node(net::NodeKind::kSwitch, "Leaf" + std::to_string(l)));
  }
  for (int s = 0; s < 2; ++s) {
    spines.push_back(topo.add_node(net::NodeKind::kSwitch, "Spine" + std::to_string(s)));
  }
  for (int l = 0; l < 4; ++l) {
    for (int h = 0; h < 3; ++h) {
      topo.connect(hosts[static_cast<size_t>(3 * l + h)], leaves[static_cast<size_t>(l)]);
    }
    for (int s = 0; s < 2; ++s) {
      topo.connect(leaves[static_cast<size_t>(l)], spines[static_cast<size_t>(s)]);
    }
  }

  // ---- 2. Routing + simulation fabric ----
  net::Routing routing(topo);
  sim::Simulator simu;
  device::Network network(simu, topo);

  device::SwitchConfig sw_cfg;  // defaults: PFC Xoff 64K/Xon 32K, ECN, DCQCN
  std::vector<std::unique_ptr<device::Switch>> switches;
  std::vector<std::unique_ptr<device::Host>> host_devs;

  // ---- 3. Hawkeye stack ----
  collect::Collector collector(simu);
  collect::HawkeyeSwitchAgent sw_agent(collector);
  for (const net::NodeId sw : topo.switches()) {
    switches.push_back(std::make_unique<device::Switch>(network, routing, sw, sw_cfg));
    switches.back()->set_polling_handler(&sw_agent);
    collector.register_switch(*switches.back());
  }
  collect::DetectionAgent::Config agent_cfg;
  agent_cfg.threshold_factor = 3.0;
  collect::DetectionAgent agent(network, routing, collector, agent_cfg);
  for (const net::NodeId h : topo.hosts()) {
    host_devs.push_back(std::make_unique<device::Host>(network, h));
    agent.attach(*host_devs.back());
  }
  agent.start();

  auto host_at = [&](net::NodeId id) -> device::Host& {
    for (auto& h : host_devs) {
      if (h->id() == id) return *h;
    }
    throw std::runtime_error("no host");
  };

  // ---- 4. Workload: a victim flow + 5:1 incast into leaf 0 ----
  const net::NodeId victim_src = hosts[11], victim_dst = hosts[1];
  const std::uint64_t vid = host_at(victim_src).add_flow(
      {victim_src, victim_dst, 900, 4791, 20'000'000, sim::us(5), true, 0});
  (void)vid;
  // Steer at least part of the incast through the spine the victim uses,
  // so the PFC backpressure provably crosses the victim path (ECMP hashes
  // are deterministic, so we can pick source ports accordingly).
  net::FiveTuple vt;
  vt.src_ip = net::Topology::ip_of(victim_src);
  vt.dst_ip = net::Topology::ip_of(victim_dst);
  vt.src_port = 900;
  vt.dst_port = 4791;
  net::PortRef victim_spine_hop;  // spine egress toward leaf 0
  for (const auto& hop : routing.path_of(vt)) {
    if (std::find(spines.begin(), spines.end(), hop.node) != spines.end()) {
      victim_spine_hop = hop;
    }
  }
  const net::NodeId sink = hosts[0];
  for (int i = 0; i < 5; ++i) {
    const net::NodeId bsrc = hosts[static_cast<size_t>(3 + i)];
    std::uint16_t sp = static_cast<std::uint16_t>(2000 + 40 * i);
    for (std::uint16_t probe = sp; probe < sp + 32; ++probe) {
      net::FiveTuple bt;
      bt.src_ip = net::Topology::ip_of(bsrc);
      bt.dst_ip = net::Topology::ip_of(sink);
      bt.src_port = probe;
      bt.dst_port = 4791;
      const auto path = routing.path_of(bt);
      if (std::find(path.begin(), path.end(), victim_spine_hop) !=
          path.end()) {
        sp = probe;
        break;
      }
    }
    host_at(bsrc).add_flow({bsrc, sink, sp, 4791, 500'000,
                            sim::us(300) + i * sim::us(1), false, 0});
  }

  simu.run_until(sim::ms(2));
  std::printf("leaf-spine fabric: %zu nodes, %zu links, %llu events, %llu data drops\n",
              topo.node_count(), topo.link_count(),
              static_cast<unsigned long long>(simu.executed_events()),
              static_cast<unsigned long long>(network.data_drops()));

  // ---- 5. Diagnose the victim's complaint ----
  const net::FiveTuple victim = vt;
  const collect::Episode* ep = nullptr;
  for (const auto id : collector.episode_order()) {
    const collect::Episode* cand = collector.episode(id);
    if (cand->victim == victim && ep == nullptr) ep = cand;
  }
  if (ep == nullptr) {
    std::printf("victim flow never complained — nothing to diagnose\n");
    return 1;
  }
  // The analyzer replays the telemetry at the switches' own epoch length.
  provenance::BuilderConfig bcfg;
  bcfg.epoch_ns = sw_cfg.telemetry.epoch.epoch_ns();
  diagnosis::DiagnosisConfig dcfg;
  dcfg.epoch_ns = bcfg.epoch_ns;
  const auto graph = provenance::build_provenance(*ep, topo, bcfg);
  const auto dx = diagnosis::diagnose(graph, topo, routing, victim, dcfg);
  std::printf("victim %s: %s\n", victim.to_string().c_str(),
              std::string(to_string(dx.type)).c_str());
  std::printf("  %s\n", dx.narrative.c_str());
  std::printf("  initial congestion at %s (%s side)\n",
              net::to_string(dx.initial_port).c_str(),
              topo.name(dx.initial_port.node).c_str());
  for (const auto& f : dx.root_cause_flows) {
    std::printf("  root-cause flow %s\n", f.to_string().c_str());
  }
  return 0;
}
