#include "eval/testbed.hpp"

#include <stdexcept>

namespace hawkeye::eval {

Testbed::Testbed(const Options& opts)
    : ft(net::build_fat_tree(opts.fat_tree_k, opts.link_gbps,
                             opts.link_delay_ns)),
      routing(ft.topo),
      net(simu, ft.topo),
      collector(opts.collector_cfg) {
  collector.attach_simulator(simu);
  switch_agent =
      std::make_unique<collect::HawkeyeSwitchAgent>(collector,
                                                    opts.switch_agent_cfg);
  for (const net::NodeId sw : ft.topo.switches()) {
    switches_.push_back(
        std::make_unique<device::Switch>(net, routing, sw, opts.switch_cfg));
    if (opts.install_hawkeye) {
      switches_.back()->set_polling_handler(switch_agent.get());
      collector.register_switch(*switches_.back());
    }
  }
  agent = std::make_unique<collect::DetectionAgent>(net, routing, collector,
                                                    opts.agent_cfg);
  for (const net::NodeId h : ft.topo.hosts()) {
    hosts_.push_back(std::make_unique<device::Host>(net, h, opts.dcqcn));
    if (opts.install_hawkeye) agent->attach(*hosts_.back());
  }
  if (opts.install_hawkeye) agent->start();
}

void Testbed::install_faults(const fault::FaultPlan& plan) {
  if (!plan.enabled()) return;
  if (const std::string err = plan.validate(); !err.empty()) {
    throw std::invalid_argument("Testbed::install_faults: " + err);
  }
  faults = std::make_unique<fault::FaultInjector>(plan);
  // Expand topology-level oversubscription specs into per-link rate
  // overrides: the injector has no tier knowledge, the testbed does. The
  // down-links of an aggregation switch feed the pod's edge switches; the
  // down-links of an edge switch feed its hosts. kInvalidNode targets
  // every aggregation switch (the classic oversubscribed tier).
  for (const fault::OversubscribedDownlinkSpec& s : plan.oversub_downlinks) {
    const auto expand = [&](net::NodeId sw,
                            const std::vector<net::NodeId>& below) {
      for (const net::NodeId peer : below) {
        const net::PortId port = ft.topo.port_towards(sw, peer);
        if (port == net::kInvalidPort) continue;
        const std::int64_t lid = ft.topo.link_of(sw, port);
        if (lid < 0) continue;
        const double nominal =
            ft.topo.link(static_cast<std::size_t>(lid)).gbps;
        faults->bind_rate_override(sw, peer, nominal * s.factor, s.start,
                                   s.stop, /*oversub=*/true);
      }
    };
    for (const net::NodeId agg : ft.aggs) {
      if (s.sw == net::kInvalidNode || s.sw == agg) expand(agg, ft.edges);
    }
    for (const net::NodeId edge : ft.edges) {
      if (s.sw == edge) expand(edge, ft.hosts);
    }
  }
  net.set_fault_injector(faults.get());
  if (faults->reconvergence_enabled()) net.schedule_reconvergence(routing);
  for (auto& sw : switches_) sw->set_fault_injector(faults.get());
  for (auto& h : hosts_) h->set_fault_injector(faults.get());
  collector.set_fault_injector(faults.get());
  agent->set_fault_injector(faults.get());
}

device::Host& Testbed::host(net::NodeId id) {
  for (auto& h : hosts_) {
    if (h->id() == id) return *h;
  }
  throw std::out_of_range("Testbed::host: unknown host id");
}

device::Switch& Testbed::switch_at(net::NodeId id) {
  for (auto& s : switches_) {
    if (s->id() == id) return *s;
  }
  throw std::out_of_range("Testbed::switch_at: unknown switch id");
}

std::uint64_t Testbed::add_flow(const device::FlowSpec& spec) {
  return host(spec.src).add_flow(spec);
}

void Testbed::install(const workload::ScenarioSpec& spec) {
  for (const auto& ov : spec.overrides) {
    routing.add_override(ov.sw, ov.dst, ov.port);
  }
  for (const auto& f : spec.flows) add_flow(f);
  for (const auto& inj : spec.injections) {
    host(inj.host).inject_pfc(inj.start, inj.stop, inj.period, inj.quanta);
  }
  if (spec.faults) install_faults(*spec.faults);
}

const device::FlowStats* Testbed::stats_of(const net::FiveTuple& tuple) const {
  for (const auto& h : hosts_) {
    for (const auto& st : h->flow_stats()) {
      if (st.tuple == tuple) return &st;
    }
  }
  return nullptr;
}

}  // namespace hawkeye::eval
