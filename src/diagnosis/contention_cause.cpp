#include "diagnosis/contention_cause.hpp"

#include <algorithm>
#include <set>

namespace hawkeye::diagnosis {

using net::NodeId;
using net::PortId;
using net::PortRef;
using provenance::ProvenanceGraph;

namespace {

/// Imbalance ratio above which the skew itself is the cause.
constexpr double kImbalanceThreshold = 1.8;
/// A contributor carrying at least this share of the contention mass is an
/// elephant.
constexpr double kElephantShare = 0.7;

/// ECMP siblings of (sw, port): every port that shares an equal-cost
/// candidate set with it for some destination. A host-facing port has no
/// siblings (its candidate sets are singletons).
std::set<PortId> ecmp_siblings(const net::Routing& routing,
                               const net::Topology& topo, NodeId sw,
                               PortId port) {
  std::set<PortId> sibs;
  for (const NodeId dst : topo.hosts()) {
    const auto& cands = routing.candidates(sw, dst);
    if (cands.size() < 2) continue;
    if (std::find(cands.begin(), cands.end(), port) == cands.end()) continue;
    sibs.insert(cands.begin(), cands.end());
  }
  return sibs;
}

}  // namespace

ContentionCauseReport analyze_contention_cause(
    const ProvenanceGraph& g, const net::Topology& topo,
    const net::Routing& routing, const DiagnosisResult& dx) {
  ContentionCauseReport rep;
  if (!dx.initial_port.valid()) return rep;
  const int pn = g.port_node(dx.initial_port);
  if (pn < 0) return rep;

  // --- ECMP imbalance ratio across the congested port's siblings ---
  const auto sibs = ecmp_siblings(routing, topo, dx.initial_port.node,
                                  dx.initial_port.port);
  if (sibs.size() >= 2) {
    double total = 0;
    double self = 0;
    int counted = 0;
    for (const PortId p : sibs) {
      const int n = g.port_node({dx.initial_port.node, p});
      const double pkts =
          n >= 0 ? static_cast<double>(g.port_info(n).pkt_cnt) : 0.0;
      total += pkts;
      ++counted;
      if (p == dx.initial_port.port) self = pkts;
    }
    const double mean = counted > 0 ? total / counted : 0.0;
    rep.ecmp_imbalance_ratio = mean > 0 ? self / mean : 1.0;
  }

  // --- Source fan-in and elephant share among the contributors ---
  std::set<std::uint32_t> sources;
  for (const auto& f : dx.root_cause_flows) sources.insert(f.src_ip);
  rep.distinct_sources = static_cast<int>(sources.size());

  double mass = 0;
  double top = 0;
  for (const auto& e : g.port_flows(pn)) {
    if (e.weight > 0) {
      mass += e.weight;
      top = std::max(top, e.weight);
    }
  }
  const double top_share = mass > 0 ? top / mass : 0.0;

  if (rep.ecmp_imbalance_ratio >= kImbalanceThreshold) {
    rep.cause = ContentionCause::kEcmpImbalance;
    rep.narrative =
        "hash skew: the congested uplink carries " +
        std::to_string(rep.ecmp_imbalance_ratio).substr(0, 4) +
        "x its fair share of the ECMP group";
  } else if (rep.distinct_sources >= kIncastMinSources) {
    rep.cause = ContentionCause::kIncast;
    rep.narrative = std::to_string(rep.distinct_sources) +
                    " sources converge on " + net::to_string(dx.initial_port);
  } else if (top_share >= kElephantShare &&
             !dx.root_cause_flows.empty()) {
    rep.cause = ContentionCause::kElephant;
    rep.narrative = "flow " + dx.root_cause_flows.front().to_string() +
                    " dominates the queue";
  } else if (!dx.root_cause_flows.empty()) {
    rep.cause = ContentionCause::kIncast;  // generic multi-flow contention
    rep.narrative = "flow contention at " + net::to_string(dx.initial_port);
  }
  return rep;
}

}  // namespace hawkeye::diagnosis
