#include "diagnosis/diagnosis.hpp"

#include <algorithm>
#include <set>
#include <unordered_set>

#include "net/packet.hpp"

namespace hawkeye::diagnosis {

using fault::HostCounterEvidence;
using fault::LinkCounterEvidence;
using net::FiveTuple;
using net::NodeId;
using net::PortRef;
using provenance::ProvenanceGraph;

namespace {

/// A port "has flow contention" only when the strongest contributor's net
/// wait-for weight reaches this floor — incidental sub-packet waiting (e.g.
/// the pre-injection sliver of a storm epoch) is noise.
constexpr double kMinContention = 1.0;
/// burst-flow(f) predicate (Table 2): per-epoch goodput above this.
constexpr double kBurstRateGbps = 25.0;

// Decision thresholds for the four fleet signature rows, calibrated on the
// fleet sweep of bench_fault_sweeps (every fault class x workload cell must
// produce its own verdict with zero silently-wrong cells).

/// A link is "CRC-degraded" from this many FCS errors (a healthy run has
/// exactly zero; a handful tolerates counter noise on real gear).
constexpr std::uint64_t kMinCrcErrors = 3;
/// A host is "drain-bound" from this many delayed frames.
constexpr std::uint64_t kMinDrainDelayed = 16;
/// actual/nominal below this ratio counts as a reduced-rate link.
constexpr double kReducedRateRatio = 0.9;
/// A DMA drain backlog at/above this overrides even a congestion-shaped
/// incast verdict: the drain FIFO only backs up while arrival exceeds the
/// PCIe cap, and no switch queue delays frames for anywhere near this long
/// (xoff-bounded queues drain in single-digit microseconds).
constexpr sim::Time kMinDrainBacklogNs = 500'000;  // 500 us
/// Confidence calibration: floor when the signature barely clears its
/// thresholds, ceiling as the counter evidence saturates.
constexpr double kBaseConfidence = 0.60;
constexpr double kMaxConfidence = 0.95;
static_assert(kBaseConfidence <= kMaxConfidence,
              "signature strength spans [base, max]");

/// Flow-contention analysis at a port (Algorithm 2, AnalyzeFlowContention):
/// positive port->flow edges are contributors; none means the congestion
/// was not built by local flows => PFC injection from the peer device.
struct ContentionVerdict {
  bool has_contention = false;
  std::vector<net::FiveTuple> contributors;
  bool any_burst = false;
};

ContentionVerdict analyze_contention(const ProvenanceGraph& g, int port_node,
                                     const DiagnosisConfig& cfg,
                                     int victim_node) {
  ContentionVerdict v;
  double max_pos = 0;
  for (const auto& e : g.port_flows(port_node)) {
    if (e.to == victim_node) continue;  // the complainant is never its own cause
    max_pos = std::max(max_pos, e.weight);
  }
  if (max_pos < kMinContention) return v;
  v.has_contention = true;
  std::vector<std::pair<double, int>> pos;
  for (const auto& e : g.port_flows(port_node)) {
    if (e.to == victim_node) continue;
    if (e.weight > 0 && e.weight >= kContentionShare * max_pos) {
      pos.push_back({e.weight, e.to});
    }
  }
  std::sort(pos.rbegin(), pos.rend());
  for (const auto& [w, fn] : pos) {
    v.contributors.push_back(g.flow(fn));
    const auto& fi = g.flow_info(fn);
    const double bits = static_cast<double>(fi.pkt_cnt) * net::kMtuBytes * 8.0;
    const double dur_ns =
        static_cast<double>(std::max(fi.epochs_seen, 1)) *
        static_cast<double>(cfg.epoch_ns);
    if (bits / dur_ns >= kBurstRateGbps) v.any_burst = true;
  }
  return v;
}

/// DFS over port-level (PFC causality) edges with loop detection
/// (Algorithm 2, CheckPortNode). Explores strongest edges first.
struct Tracer {
  const ProvenanceGraph& g;
  std::vector<int> stack;
  std::unordered_set<int> on_stack;
  std::unordered_set<int> visited;
  std::vector<int> terminals;          // out-degree-0 ports reached
  std::vector<std::vector<int>> loops; // cycles of port nodes
  std::vector<int> order;              // visit order (spreading path)

  void dfs(int p) {
    if (on_stack.count(p)) {
      // Extract the cycle from the current stack.
      std::vector<int> loop;
      bool in = false;
      for (const int q : stack) {
        if (q == p) in = true;
        if (in) loop.push_back(q);
      }
      loops.push_back(std::move(loop));
      return;
    }
    if (visited.count(p)) return;
    visited.insert(p);
    order.push_back(p);
    stack.push_back(p);
    on_stack.insert(p);

    auto edges = g.port_out(p);
    std::sort(edges.begin(), edges.end(),
              [](const auto& a, const auto& b) { return a.weight > b.weight; });
    if (edges.empty()) terminals.push_back(p);
    for (const auto& e : edges) dfs(e.to);

    on_stack.erase(p);
    stack.pop_back();
  }
};

}  // namespace

DiagnosisResult diagnose(const ProvenanceGraph& g, const net::Topology& topo,
                         const net::Routing& routing, const FiveTuple& victim,
                         const DiagnosisConfig& cfg) {
  DiagnosisResult res;

  // Victim-path ports where the victim flow was PFC-paused, in path order.
  const int vf = g.flow_node(victim);
  std::unordered_set<int> paused_ports;
  if (vf >= 0) {
    for (const auto& e : g.flow_ports(vf)) {
      if (e.weight > 0) paused_ports.insert(e.to);
    }
  }
  // Port-level paused evidence also counts when flow telemetry is absent
  // (port-only ablation): a victim-path port with paused packets.
  const auto victim_paused_at = [&](int pn) {
    return paused_ports.count(pn) > 0 ||
           // A port frozen by PFC at collection time pauses everything that
           // traverses it, even if the victim got no enqueue in recently.
           g.port_info(pn).paused_at_collection ||
           (vf < 0 && g.port_info(pn).paused_num > 0);
  };
  std::vector<int> start_ports;
  for (const PortRef& hop : routing.path_of(victim)) {
    if (!topo.is_switch(hop.node)) continue;
    const int pn = g.port_node(hop);
    if (pn < 0) continue;
    if (victim_paused_at(pn)) start_ports.push_back(pn);
  }
  if (g.path_churned()) {
    // Routing reconverged mid-episode: the evidence was (partly) gathered
    // on a path that path_of no longer answers with. Union in the paused
    // ports of the collection contract's switches so the causality trace
    // starts from the hops the victim actually traversed.
    std::unordered_set<NodeId> contract(g.contract_switches().begin(),
                                        g.contract_switches().end());
    std::unordered_set<int> seen(start_ports.begin(), start_ports.end());
    for (int pn = 0; pn < static_cast<int>(g.port_count()); ++pn) {
      if (contract.count(g.port(pn).node) == 0) continue;
      if (seen.count(pn) > 0) continue;
      if (victim_paused_at(pn)) start_ports.push_back(pn);
    }
  }

  if (start_ports.empty()) {
    // No PFC on the victim path: traditional contention diagnosis. Find the
    // victim-path port with the strongest contention (§3.5.2 last case).
    int best = -1;
    double best_w = 0;
    for (const PortRef& hop : routing.path_of(victim)) {
      const int pn = g.port_node(hop);
      if (pn < 0) continue;
      for (const auto& e : g.port_flows(pn)) {
        if (e.weight > best_w) {
          best_w = e.weight;
          best = pn;
        }
      }
    }
    if (best < 0) return res;  // nothing observable
    const ContentionVerdict v = analyze_contention(g, best, cfg, vf);
    if (!v.has_contention) return res;
    res.type = AnomalyType::kNormalContention;
    res.initial_port = g.port(best);
    res.root_cause_flows = v.contributors;
    res.narrative = "no PFC spreading; flow contention at " +
                    net::to_string(res.initial_port);
    return res;
  }

  // Trace PFC causality from every paused victim-path port.
  Tracer tracer{g, {}, {}, {}, {}, {}, {}};
  for (const int p : start_ports) tracer.dfs(p);
  for (const int p : tracer.order) res.spreading_path.push_back(g.port(p));

  // Flows paused at 2+ spreading ports propagate the PFC.
  {
    std::unordered_set<int> on_path(tracer.order.begin(), tracer.order.end());
    for (std::size_t fn = 0; fn < g.flow_count(); ++fn) {
      int cnt = 0;
      for (const auto& e : g.flow_ports(static_cast<int>(fn))) {
        if (e.weight > 0 && on_path.count(e.to)) ++cnt;
      }
      if (cnt >= 2) res.spreading_flows.push_back(g.flow(static_cast<int>(fn)));
    }
  }

  if (!tracer.loops.empty()) {
    // ---- Deadlock (Table 2 rows 2-4) ----
    const std::vector<int>& loop = tracer.loops.front();
    const std::unordered_set<int> in_loop(loop.begin(), loop.end());
    for (const int p : loop) res.loop_ports.push_back(g.port(p));

    // An initiator outside the loop reveals itself as a loop port with an
    // out-edge leaving the loop; walk every such branch to its terminals.
    std::vector<int> outside_terminals;
    for (const int p : loop) {
      double strongest = 0;
      for (const auto& e : g.port_out(p)) {
        strongest = std::max(strongest, e.weight);
      }
      for (const auto& e : g.port_out(p)) {
        if (in_loop.count(e.to)) continue;
        if (e.weight < 0.05 * strongest) continue;
        // Walk from e.to to a terminal (strongest-edge-first, loop-free).
        int cur = e.to;
        std::unordered_set<int> seen;
        while (cur >= 0 && !seen.count(cur)) {
          seen.insert(cur);
          if (g.port_out_degree(cur) == 0) break;
          int next = -1;
          double bw = -1;
          for (const auto& e2 : g.port_out(cur)) {
            if (e2.weight > bw && !seen.count(e2.to) && !in_loop.count(e2.to)) {
              bw = e2.weight;
              next = e2.to;
            }
          }
          cur = next;
        }
        if (cur >= 0 && g.port_out_degree(cur) == 0) {
          outside_terminals.push_back(cur);
        }
      }
    }

    // Evidence priority, mirroring the linear-path classification:
    //  1. a PAUSED outside terminal received PAUSE from its peer device —
    //     initiator-out-of-loop by injection (decisive);
    //  2. otherwise compare contention mass: if an outside terminal's
    //     contention dominates every loop port's, the initiator sits
    //     outside the loop; else the strongest-contended loop port is the
    //     in-loop initiator.
    // For locating the initiator the victim's own contention counts too —
    // the queue composition is evidence regardless of who complained (the
    // victim is only excluded from the *reported* root causes).
    auto contention_mass = [&](int pn) {
      double mass = 0;
      for (const auto& e : g.port_flows(pn)) {
        if (e.weight > 0) mass += e.weight;
      }
      return mass;
    };
    int injected_terminal = -1;
    bool injected_peer_is_host = false;
    int best_outside = -1;
    double best_outside_mass = 0;
    for (const int t : outside_terminals) {
      const auto& info = g.port_info(t);
      if (info.paused_num > 0 || info.paused_at_collection) {
        // A paused terminal facing a host pinpoints the injector; one
        // facing a switch only marks where the trace ended — keep it as a
        // fallback but never let it shadow a host-facing terminal.
        const PortRef p = topo.peer(g.port(t));
        const bool is_host = p.valid() && topo.is_host(p.node);
        if (injected_terminal < 0 || (is_host && !injected_peer_is_host)) {
          injected_terminal = t;
          injected_peer_is_host = is_host;
        }
      }
      const double m = contention_mass(t);
      if (m > best_outside_mass) {
        best_outside_mass = m;
        best_outside = t;
      }
    }
    int best_in_loop = -1;
    double best_in_loop_mass = 0;
    for (const int p : loop) {
      const double m = contention_mass(p);
      if (m > best_in_loop_mass) {
        best_in_loop_mass = m;
        best_in_loop = p;
      }
    }

    if (injected_terminal >= 0) {
      res.type = AnomalyType::kOutOfLoopDeadlockInjection;
      res.initial_port = g.port(injected_terminal);
      const PortRef peer = topo.peer(res.initial_port);
      res.injecting_peer = peer.valid() ? peer.node : net::kInvalidNode;
    } else if (best_outside >= 0 &&
               best_outside_mass >=
                   std::max(kMinContention, 0.5 * best_in_loop_mass)) {
      // Table 2's out-of-loop signature is structural (a loop port with
      // out-degree > 1 and a path to a contended terminal); the mass check
      // only guards against faint side branches. Loop links also carry
      // innocent transit traffic that piles up during the lock, so the
      // outside initiator need not strictly dominate the loop's own mass.
      const ContentionVerdict v = analyze_contention(g, best_outside, cfg, vf);
      res.type = AnomalyType::kOutOfLoopDeadlockContention;
      res.initial_port = g.port(best_outside);
      res.root_cause_flows = v.contributors;
    } else if (best_in_loop >= 0) {
      const ContentionVerdict v = analyze_contention(g, best_in_loop, cfg, vf);
      res.type = AnomalyType::kInLoopDeadlock;
      res.initial_port = g.port(best_in_loop);
      res.root_cause_flows = v.contributors;
    } else {
      res.type = AnomalyType::kInLoopDeadlock;  // loop with no contention data
    }
    res.narrative = "CBD loop of " + std::to_string(loop.size()) +
                    " ports; " + std::string(to_string(res.type));
    return res;
  }

  // ---- No loop: linear spreading path (Table 2 rows 1 & 5) ----
  // Inspect terminals: contention => micro-burst incast backpressure;
  // no contention with a host peer => host PFC injection (storm). A
  // no-contention terminal whose peer is another switch means the trace is
  // incomplete (e.g. victim-only collection) and is used only as a last
  // resort.
  // Classify terminals in evidence order:
  //  1. a terminal that is itself PFC-paused received PAUSE frames from
  //     its peer device — decisive injection evidence (PFC storm), no
  //     matter what incidental contention shares other queues;
  //  2. otherwise, the strongest terminal with material flow contention
  //     is the initial congestion point (micro-burst incast);
  //  3. otherwise the trace ended prematurely (e.g. victim-only
  //     collection) — reported as injection behind the last traced port,
  //     which is exactly the baseline's documented failure mode.
  int paused_terminal = -1;
  double paused_score = -1;
  int contention_terminal = -1;
  ContentionVerdict contention_v;
  double contention_score = -1;
  int contention_tier = -1;
  int fallback_terminal = -1;
  double fallback_score = -1;
  for (const int t : tracer.terminals) {
    const auto& info = g.port_info(t);
    const bool paused = info.paused_num > 0 || info.paused_at_collection;
    const double score = info.qdepth_avg + info.paused_num;
    if (paused) {
      // Decisive injection evidence requires the PAUSE source to be an
      // edge: only a host NIC can inject PFC that no upstream telemetry
      // explains. A paused terminal whose peer is another SWITCH means the
      // trace stopped mid-fabric (off-contract hop, or a pause cascade
      // seeded by a flap-stalled port) — that is incomplete-trace
      // evidence and must not outrank a real injector.
      const PortRef peer = topo.peer(g.port(t));
      if (peer.valid() && topo.is_host(peer.node)) {
        if (score > paused_score) {
          paused_score = score;
          paused_terminal = t;
        }
      } else if (score > fallback_score) {
        fallback_score = score;
        fallback_terminal = t;
      }
      continue;
    }
    const ContentionVerdict v = analyze_contention(g, t, cfg, vf);
    if (v.has_contention) {
      // Rank initial-congestion candidates by how much waiting their
      // contenders caused, not by raw queue depth — a deep but
      // single-flow queue is not the contention point.
      double mass = 0;
      for (const auto& e : g.port_flows(t)) {
        if (e.to != vf && e.weight > 0) mass += e.weight;
      }
      // Signature tier (signature_rank only): 2 = the Table-2 incast shape
      // — a server-facing egress whose congested queue was built by burst
      // -rate senders or by many-to-one fan-in (at the bottleneck the
      // per-flow goodput is the bottleneck's share, so a genuine incast
      // can fail the rate test while the fan-in is unmistakable); 1 =
      // server-facing contention without either; 0 = mid-fabric
      // contention. With the flag off every terminal scores tier 0 and
      // the comparison reduces to the original pure-mass argmax.
      int tier = 0;
      if (cfg.signature_rank) {
        const PortRef peer = topo.peer(g.port(t));
        if (peer.valid() && topo.is_host(peer.node)) {
          int fan_in = 0;
          for (const auto& e : g.port_flows(t)) {
            if (e.to != vf) ++fan_in;
          }
          tier = (v.any_burst || fan_in >= kIncastMinSources) ? 2 : 1;
        }
      }
      if (tier > contention_tier ||
          (tier == contention_tier && mass > contention_score)) {
        contention_score = mass;
        contention_terminal = t;
        contention_tier = tier;
        contention_v = v;
      }
    } else if (score > fallback_score) {
      fallback_score = score;
      fallback_terminal = t;
    }
  }

  if (paused_terminal >= 0) {
    res.type = AnomalyType::kPfcStorm;
    res.initial_port = g.port(paused_terminal);
    const PortRef peer = topo.peer(res.initial_port);
    res.injecting_peer = peer.valid() ? peer.node : net::kInvalidNode;
    res.narrative = "PFC storm injected behind " +
                    net::to_string(res.initial_port);
  } else if (contention_terminal >= 0) {
    res.type = AnomalyType::kMicroBurstIncast;
    res.initial_port = g.port(contention_terminal);
    res.root_cause_flows = contention_v.contributors;
    res.narrative = "PFC backpressure from flow contention at " +
                    net::to_string(res.initial_port);
  } else if (fallback_terminal >= 0) {
    res.type = AnomalyType::kPfcStorm;
    res.initial_port = g.port(fallback_terminal);
    const PortRef peer = topo.peer(res.initial_port);
    res.injecting_peer = peer.valid() ? peer.node : net::kInvalidNode;
    res.narrative = "PFC spreading traced to " +
                    net::to_string(res.initial_port) +
                    " (no contention observed beyond this point)";
  }
  return res;
}

namespace {

/// Where link `l` crosses the victim's forwarding path: the switch-side
/// egress PortRef of its earlier (closer-to-source) endpoint — the
/// serialization point an operator would be sent to. Invalid when the link
/// is off the path.
PortRef on_path_port(const LinkCounterEvidence& l,
                     const std::vector<PortRef>& path, NodeId dst_host,
                     const net::Topology& topo) {
  const auto hop =
      net::Routing::hop_of_link(path, dst_host, l.node_a, l.node_b);
  if (!hop) return {};
  // The first hop leaves the source host NIC; report the switch end.
  const PortRef& p = path[*hop];
  return topo.is_switch(p.node) ? p : topo.peer(p);
}

int distinct_sources(const std::vector<FiveTuple>& flows) {
  std::set<std::uint32_t> srcs;
  for (const FiveTuple& f : flows) srcs.insert(f.src_ip);
  return static_cast<int>(srcs.size());
}

/// Saturating signature strength in [base, max]: 0 evidence scores the
/// base, evidence >> scale approaches the max. Monotone by construction.
double signature_strength(double evidence, double scale) {
  const double sat = evidence / (evidence + scale);
  return kBaseConfidence + (kMaxConfidence - kBaseConfidence) * sat;
}

/// Trimmed rate rendering for narratives ("25 Gbps", not "25.000000").
std::string fmt_gbps(double gbps) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", gbps);
  return buf;
}

}  // namespace

DiagnosisResult refine_fleet_verdict(DiagnosisResult dx,
                                     const fault::FleetEvidence& evidence,
                                     const net::Topology& topo,
                                     const net::Routing& routing,
                                     const net::FiveTuple& victim) {
  if (evidence.empty()) return dx;
  // A CBD loop is structural evidence no health counter can explain away.
  if (is_deadlock(dx.type)) return dx;

  const std::vector<PortRef> path = routing.path_of(victim);
  const NodeId dst_host = net::Topology::node_of_ip(victim.dst_ip);
  const auto traced_to = [&](const LinkCounterEvidence& l) {
    return dx.initial_port.valid() && (dx.initial_port.node == l.node_a ||
                                       dx.initial_port.node == l.node_b);
  };
  const bool congestion_shaped = dx.type == AnomalyType::kMicroBurstIncast ||
                                 dx.type == AnomalyType::kNormalContention;
  const int fan_in = distinct_sources(dx.root_cause_flows);

  // ---- Row: degraded link (FCS errors + retransmits, no fan-in) ----
  // Go-back-N repair traffic builds congestion provenance on the path; the
  // giveaway is the erroring MAC register plus sender retransmissions where
  // no believable incast exists. An incast verdict with real fan-in that is
  // NOT traced to the erroring link stays an incast.
  {
    const LinkCounterEvidence* best = nullptr;
    PortRef best_port;
    for (const LinkCounterEvidence& l : evidence.links) {
      if (l.crc_errors < kMinCrcErrors) continue;
      const PortRef port = on_path_port(l, path, dst_host, topo);
      if (!port.valid()) continue;
      if (best == nullptr || l.crc_errors > best->crc_errors) {
        best = &l;
        best_port = port;
      }
    }
    if (best != nullptr && evidence.sender_retransmissions > 0) {
      const bool believable_incast =
          dx.type == AnomalyType::kMicroBurstIncast &&
          fan_in >= kIncastMinSources && !traced_to(*best);
      if (!believable_incast) {
        const double ev = static_cast<double>(best->crc_errors) +
                          static_cast<double>(evidence.sender_retransmissions);
        dx.type = AnomalyType::kDegradedLink;
        dx.initial_port = best_port;
        dx.injecting_peer = net::kInvalidNode;
        dx.root_cause_flows.clear();
        dx.narrative =
            "degraded link at " + net::to_string(dx.initial_port) + ": " +
            std::to_string(best->crc_errors) + " FCS errors, " +
            std::to_string(evidence.sender_retransmissions) +
            " sender retransmits, no matching incast fan-in";
        dx.confidence *= signature_strength(ev, 16.0);
        return dx;
      }
    }
  }

  // ---- Reduced-rate link census (rows: oversubscription, mismatch) ----
  std::size_t tier_reduced = 0;
  std::size_t lone_reduced = 0;
  const LinkCounterEvidence* tier_on_path = nullptr;
  PortRef tier_port;
  const LinkCounterEvidence* lone_on_path = nullptr;
  PortRef lone_port;
  double tier_slow = 0;
  for (const LinkCounterEvidence& l : evidence.links) {
    if (!l.reduced(kReducedRateRatio)) continue;
    const PortRef port = on_path_port(l, path, dst_host, topo);
    if (l.oversub_tier) {
      ++tier_reduced;
      tier_slow += static_cast<double>(l.slow_serializations);
      if (port.valid() && tier_on_path == nullptr) {
        tier_on_path = &l;
        tier_port = port;
      }
    } else {
      ++lone_reduced;
      if (port.valid() && lone_on_path == nullptr) {
        lone_on_path = &l;
        lone_port = port;
      }
    }
  }

  // ---- Row: oversubscribed down-link tier ----
  // Several sibling down-links share the reduction; the victim crossed one,
  // and the verdict shows the sustained multi-flow contention a capacity
  // shortfall produces (or traced straight to a reduced link).
  if (tier_on_path != nullptr && tier_reduced >= 2 &&
      (congestion_shaped || traced_to(*tier_on_path))) {
    dx.type = AnomalyType::kOversubscribedDownlink;
    dx.initial_port = tier_port;
    dx.injecting_peer = net::kInvalidNode;
    dx.narrative =
        "oversubscribed down-links: " + std::to_string(tier_reduced) +
        " sibling links at " +
        fmt_gbps(tier_on_path->actual_gbps) + "/" +
        fmt_gbps(tier_on_path->nominal_gbps) +
        " Gbps; victim crosses " + net::to_string(dx.initial_port);
    dx.confidence *= signature_strength(tier_slow, 64.0);
    return dx;
  }

  // ---- Row: link-speed mismatch ----
  // Exactly one lone reduced link fabric-wide, on the victim path, clean
  // FCS, and frames actually observed serializing slow — the stable
  // single-port bottleneck.
  if (lone_on_path != nullptr && lone_reduced == 1 &&
      lone_on_path->crc_errors < kMinCrcErrors &&
      lone_on_path->slow_serializations > 0) {
    const double deficit =
        1.0 - lone_on_path->actual_gbps /
                  std::max(lone_on_path->nominal_gbps, 1e-9);
    const double ev =
        static_cast<double>(lone_on_path->slow_serializations) * deficit;
    dx.type = AnomalyType::kLinkSpeedMismatch;
    dx.initial_port = lone_port;
    dx.injecting_peer = net::kInvalidNode;
    dx.root_cause_flows.clear();
    dx.narrative =
        "link-speed mismatch at " + net::to_string(dx.initial_port) +
        ": negotiated " + fmt_gbps(lone_on_path->actual_gbps) +
        " Gbps in a " + fmt_gbps(lone_on_path->nominal_gbps) +
        " Gbps fabric (" +
        std::to_string(lone_on_path->slow_serializations) +
        " slow serializations, clean FCS)";
    dx.confidence *= signature_strength(ev, 32.0);
    return dx;
  }

  // ---- Row: host PCIe bottleneck (pure victim, no paused upstream) ----
  // Detection fired, yet no victim-path port ever paused (the no-PFC
  // verdicts) while the destination NIC's DMA drain gauge shows backlog:
  // the receiver host itself is the bottleneck. A congestion-shaped
  // incast verdict also yields — but only to an overwhelming backlog
  // (>= kMinDrainBacklogNs, orders of magnitude beyond any switch
  // queue's delay): the drain FIFO can only back up while arrival
  // exceeds the DMA cap, i.e. while the PCIe ceiling — not the fabric —
  // is the binding constraint. A genuine incast toward a healthy host
  // throttles arrival below the cap and never grows such a backlog.
  for (const HostCounterEvidence& h : evidence.hosts) {
    if (h.host != dst_host) continue;
    if (h.drain_delayed_pkts < kMinDrainDelayed) continue;
    const bool quiet_fabric = dx.type == AnomalyType::kNone ||
                              dx.type == AnomalyType::kNormalContention;
    // A fallback storm verdict (PFC spreading observed, but provenance
    // found neither a contention terminal nor an injecting HOST — a storm
    // blamed on a switch peer just means tracing ran out of collected
    // evidence) carries no root cause of its own; a dominating backlog
    // explains it. A storm with an identified host injector is never
    // rewritten.
    const bool rootless =
        dx.type == AnomalyType::kMicroBurstIncast ||
        (dx.type == AnomalyType::kPfcStorm &&
         (dx.injecting_peer == net::kInvalidNode ||
          !topo.is_host(dx.injecting_peer)));
    const bool backlog_dominates =
        rootless && h.max_drain_backlog_ns >= kMinDrainBacklogNs;
    if (!quiet_fabric && !backlog_dominates) continue;
    dx.type = AnomalyType::kHostPcieBottleneck;
    dx.injecting_peer = dst_host;
    if (!path.empty()) dx.initial_port = path.back();
    dx.root_cause_flows.clear();
    dx.narrative =
        "host PCIe bottleneck at node " + std::to_string(dst_host) + ": " +
        std::to_string(h.drain_delayed_pkts) +
        " frames waited on the DMA drain (max backlog " +
        std::to_string(h.max_drain_backlog_ns) +
        (quiet_fabric ? " ns), no upstream port paused"
                      : " ns), dwarfing the observed fabric contention");
    dx.confidence *= signature_strength(
        static_cast<double>(h.drain_delayed_pkts), 64.0);
    return dx;
  }

  return dx;
}

double collection_confidence(double coverage, std::uint32_t failed_collections,
                             std::uint32_t stale_epochs_rejected,
                             std::uint32_t repolls,
                             const ConfidenceDiscounts& discounts) {
  double c = std::min(std::max(coverage, 0.0), 1.0);
  // Each failure class discounts multiplicatively: evidence that the
  // substrate misbehaved makes every part of the verdict less trustworthy,
  // but no single class can zero it out on its own (the verdict is still
  // best-effort, not absent). Re-polls that eventually succeeded cost the
  // least — the data arrived, just late. Loops (not pow()) keep the result
  // bit-reproducible across libm implementations.
  for (std::uint32_t i = 0; i < failed_collections; ++i) {
    c *= discounts.failed_collection;
  }
  for (std::uint32_t i = 0; i < stale_epochs_rejected; ++i) {
    c *= discounts.stale_epoch;
  }
  for (std::uint32_t i = 0; i < repolls; ++i) c *= discounts.repoll;
  return c;
}

}  // namespace hawkeye::diagnosis
