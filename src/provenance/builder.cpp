#include "provenance/builder.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <unordered_map>

namespace hawkeye::provenance {

namespace {

using collect::Episode;
using net::FiveTuple;
using net::NodeId;
using net::PortId;
using net::PortRef;
using telemetry::EpochRecord;
using telemetry::FlowRecord;
using telemetry::SwitchTelemetryReport;

/// Port-level edges below this fraction of the strongest sibling edge are
/// pruned (uncongested downstream ports carry no causality).
constexpr double kMinRelEdgeWeight = 0.05;
/// Downstream ports need at least this average queue depth (packets) to be
/// considered congested.
constexpr double kMinQdepthPkts = 0.5;

/// Epochs with any PFC pause activity anywhere in the episode, identified
/// by their wall-clock start (unique, unlike the 8-bit epoch ID).
std::set<sim::Time> anomaly_epoch_starts(const Episode& ep) {
  std::set<sim::Time> starts;
  for (const auto& [sw, rep] : ep.reports) {
    for (const EpochRecord& er : rep.epochs) {
      for (const auto& pr : er.ports) {
        if (pr.paused_cnt > 0) {
          starts.insert(er.start);
          break;
        }
      }
    }
  }
  return starts;
}

struct PortAgg {
  double paused = 0;
  double qdepth_sum = 0;
  std::uint64_t pkt_cnt = 0;
  bool frozen = false;  // PFC status register showed "paused" at collection
  std::int64_t standing_pkts = 0;  // instantaneous occupancy at collection
  double qdepth_avg() const {
    return pkt_cnt == 0 ? 0.0 : qdepth_sum / static_cast<double>(pkt_cnt);
  }
  /// Pause evidence for causality edges. A fully frozen port (deadlock)
  /// sees no enqueues and thus no paused counts; the status register is
  /// the paper's answer (Figure 3 "Port Status") and is weighted like a
  /// standing backlog.
  double paused_evidence() const { return paused + (frozen ? 100.0 : 0.0); }
};

/// One flow's presence at one egress port within one epoch (replay input).
struct ReplayFlow {
  int flow_node = -1;
  std::uint32_t contention_pkts = 0;  // pkt_cnt - paused_cnt
  double qdepth_sum = 0;              // Σ queue depth over those enqueues
};

/// Queue replay + contribution (Algorithm 1, ReplayQueue/Contribution).
///
/// Packets of each flow are spaced evenly over the epoch; each replayed
/// packet waits on the packets ahead of it in the reconstructed queue.
/// The collected telemetry stores, per flow, the packet count and the sum
/// of queue depths seen at enqueue, so the queue's composition during the
/// congested part of the epoch is estimated by each flow's *congestion
/// mass* m_j = Σ qdepth(pkt) — packets enqueued into a deep queue carry
/// weight, idle-period packets carry none. With even spreading the wait
/// matrix collapses to the closed form
///
///   w(f_i -> f_j) = D * qshare_j          qshare_j = m_j / Σ m
///   Contrb[f_j]   = Σ_i w(f_i -> f_j) − Σ_k w(f_j -> f_k)
///                 = D * (F * qshare_j − 1)
///
/// i.e. flows with an above-average share of the congested queue are
/// contention contributors (positive), the rest are victims (negative) —
/// the §3.5.1 semantics. Temporal smearing within an epoch is inherent
/// (and is the long-epoch precision loss the paper reports in §4.2).
std::unordered_map<int, double> replay_contribution(
    const std::vector<ReplayFlow>& flows) {
  std::unordered_map<int, double> contrib;
  double total_pkts = 0;
  double total_mass = 0;
  double participants = 0;
  for (const ReplayFlow& f : flows) {
    total_pkts += f.contention_pkts;
    total_mass += f.qdepth_sum;
    if (f.qdepth_sum > 0) participants += 1;
  }
  if (total_pkts <= 0 || total_mass <= 0 || participants < 2) return contrib;
  const double d = total_mass / total_pkts;  // avg depth over the epoch
  for (const ReplayFlow& f : flows) {
    const double qshare = f.qdepth_sum / total_mass;
    contrib[f.flow_node] += d * (participants * qshare - 1.0);
  }
  return contrib;
}

}  // namespace

ProvenanceGraph build_provenance(const Episode& ep, const net::Topology& topo,
                                 const BuilderConfig& cfg) {
  ProvenanceGraph g;
  // Carry the episode's coverage contract into the graph: under routing
  // churn the diagnosis must scan these hops (the path the evidence was
  // actually collected on), not only whatever path_of answers later.
  g.set_collection_contract(ep.expected_switches, ep.path_churned);

  std::set<sim::Time> active = anomaly_epoch_starts(ep);
  if (!active.empty() && cfg.trigger_scope_ns > 0) {
    // Fabric-scale scoping (see BuilderConfig): keep only anomaly epochs
    // that can explain the trigger — epochs ending within the scope before
    // it, up to and including the epoch the trigger itself landed in.
    // Later epochs are dropped too: the merged rings of re-triggered
    // episodes reach far past the first detection, and on a busy fabric
    // they hold whatever unrelated hot spot flared up AFTER the detected
    // anomaly ended (the victim re-triggers on it, the operator is still
    // asking about the original complaint).
    const sim::Time horizon = ep.triggered_at - cfg.trigger_scope_ns;
    std::set<sim::Time> recent;
    for (const sim::Time start : active) {
      if (start <= ep.triggered_at && start + cfg.epoch_ns >= horizon) {
        recent.insert(start);
      }
    }
    if (!recent.empty()) active.swap(recent);
  }
  if (active.empty()) {
    // No PFC anywhere (plain contention): use the epochs immediately
    // preceding the detection trigger — the contention that raised the
    // victim's RTT is there, stale epochs would pollute the analysis.
    const sim::Time horizon = ep.triggered_at - 4 * cfg.epoch_ns;
    for (const auto& [sw, rep] : ep.reports) {
      for (const EpochRecord& er : rep.epochs) {
        if (er.start + cfg.epoch_ns >= horizon) active.insert(er.start);
      }
    }
  }
  const bool use_all = active.empty();  // no epoch near the trigger either
  auto epoch_selected = [&](const EpochRecord& er) {
    return use_all || active.count(er.start) > 0;
  };

  // ---- Aggregate port stats and meters over the selected epochs ----
  std::map<PortRef, PortAgg> port_agg;
  // meter keyed by (downstream switch, in_port, out_port)
  std::map<std::tuple<NodeId, PortId, PortId>, std::uint64_t> meter;
  std::map<std::pair<NodeId, PortId>, std::uint64_t> meter_in_sum;

  for (const auto& [sw, rep] : ep.reports) {
    for (const EpochRecord& er : rep.epochs) {
      if (!epoch_selected(er)) continue;
      for (const auto& pr : er.ports) {
        PortAgg& a = port_agg[{sw, pr.port}];
        a.paused += pr.paused_cnt;
        a.qdepth_sum += static_cast<double>(pr.qdepth_pkts_sum);
        a.pkt_cnt += pr.pkt_cnt;
      }
      for (const auto& m : er.meters) {
        meter[{sw, m.in_port, m.out_port}] += m.bytes;
        meter_in_sum[{sw, m.in_port}] += m.bytes;
      }
    }
    for (const auto& ps : rep.port_status) {
      PortAgg& a = port_agg[{sw, ps.port}];
      if (ps.paused_now) a.frozen = true;
      a.standing_pkts = std::max(a.standing_pkts, ps.queue_pkts);
    }
  }

  // ---- Port nodes (Algorithm 1 lines 2–5) ----
  for (const auto& [pref, agg] : port_agg) {
    g.add_port(pref,
               {agg.paused_evidence(), agg.qdepth_avg(), agg.pkt_cnt, agg.frozen});
  }

  // ---- Port-level provenance (lines 6–9) ----
  for (const auto& [pref, agg] : port_agg) {
    if (agg.paused_evidence() <= 0) continue;  // only paused ports wait
    const PortRef peer = topo.peer(pref);
    if (!peer.valid() || !topo.is_switch(peer.node)) continue;
    if (!ep.has_report(peer.node)) continue;

    const auto sum_it = meter_in_sum.find({peer.node, peer.port});
    if (sum_it == meter_in_sum.end() || sum_it->second == 0) continue;
    const double sum_meter = static_cast<double>(sum_it->second);

    struct Cand {
      PortRef to;
      double w;
      bool paused;
    };
    std::vector<Cand> cands;
    double max_w = 0;
    for (PortId out = 0; out < topo.port_count(peer.node); ++out) {
      const auto m_it = meter.find({peer.node, peer.port, out});
      if (m_it == meter.end() || m_it->second == 0) continue;
      const PortRef pj{peer.node, out};
      const auto pa = port_agg.find(pj);
      // Congestion magnitude of the downstream port: enqueue-time average
      // depth, or the standing occupancy at collection — a frozen deadlock
      // queue sees no enqueues, so only the snapshot reveals its backlog.
      double qd = 0;
      double paused_j = 0;
      if (pa != port_agg.end()) {
        qd = std::max(pa->second.qdepth_avg(),
                      static_cast<double>(pa->second.standing_pkts));
        paused_j = pa->second.paused_evidence();
      }
      // A downstream port contributes causality only if congested: queue
      // buildup or pause activity of its own.
      if (qd < kMinQdepthPkts && paused_j <= 0) continue;
      const double w = agg.paused_evidence() *
                       (static_cast<double>(m_it->second) / sum_meter) *
                       std::max(qd, 0.5);
      cands.push_back({pj, w, paused_j > 0});
      max_w = std::max(max_w, w);
    }
    const int from = g.port_node(pref);
    for (const Cand& c : cands) {
      // Edges into paused ports are never pruned: PFC causality continues
      // through them no matter how little traffic the meter saw.
      if (!c.paused && c.w < kMinRelEdgeWeight * max_w) continue;
      const int to = g.add_port(c.to);
      g.add_port_edge(from, to, c.w);
    }
  }

  // ---- Flow nodes, flow->port edges, port->flow contention edges ----
  // Replay populations are aggregated over every selected epoch before the
  // contribution is computed once per port: a burst whose tail spills into
  // an extra epoch must not collect a per-epoch "low participant" penalty.
  // An epoch's flow records include the entries its hash collisions
  // evicted, so every flow the switch counted joins the replay.
  for (const auto& [sw, rep] : ep.reports) {
    std::map<PortId, std::map<int, ReplayFlow>> by_port;
    for (const EpochRecord& er : rep.epochs) {
      if (!epoch_selected(er)) continue;
      for (const FlowRecord& fr : er.flows) {
        const int fn = g.add_flow(fr.flow);
        g.flow_info(fn).pkt_cnt += fr.pkt_cnt;
        g.flow_info(fn).epochs_seen += 1;
        if (fr.egress_port == net::kInvalidPort) continue;
        if (fr.paused_cnt > 0) {
          const int pn = g.add_port({sw, fr.egress_port});
          g.add_flow_port_edge(fn, pn, fr.paused_cnt);
        }
        const std::uint32_t contention =
            fr.pkt_cnt > fr.paused_cnt ? fr.pkt_cnt - fr.paused_cnt : 0;
        if (contention > 0) {
          ReplayFlow& rf = by_port[fr.egress_port][fn];
          rf.flow_node = fn;
          rf.contention_pkts += contention;
          rf.qdepth_sum += static_cast<double>(fr.qdepth_pkts_sum);
        }
      }
    }
    for (auto& [port, flows] : by_port) {
      std::vector<ReplayFlow> population;
      population.reserve(flows.size());
      for (auto& [fn, rf] : flows) population.push_back(rf);
      auto contrib = replay_contribution(population);
      const int pn = g.add_port({sw, port});
      for (const auto& [fn, c] : contrib) {
        if (c != 0.0) g.add_port_flow_edge(pn, fn, c);
      }
    }
  }

  return g;
}

}  // namespace hawkeye::provenance
