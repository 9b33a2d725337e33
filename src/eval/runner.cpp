#include "eval/runner.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <string_view>

#include "baselines/local_contention.hpp"
#include "eval/testbed.hpp"
#include "provenance/builder.hpp"
#include "sim/logger.hpp"

namespace hawkeye::eval {

using diagnosis::AnomalyType;
using net::FiveTuple;
using net::NodeId;

std::string_view to_string(Method m) {
  switch (m) {
    case Method::kHawkeye: return "hawkeye";
    case Method::kFullPolling: return "full-polling";
    case Method::kVictimOnly: return "victim-only";
    case Method::kSpiderMon: return "spidermon";
    case Method::kNetSight: return "netsight";
  }
  return "?";
}

namespace {

/// Root-cause attribution check. `acceptable` contains the crafted
/// culprits plus the background flows that genuinely joined the contention
/// (crossed a ground-truth congestion port with enough traffic in the
/// anomaly window). Correct attribution must blame at least one real
/// culprit, and at least half of the blamed flows must be real.
bool roots_match(const std::vector<FiveTuple>& reported,
                 const std::vector<FiveTuple>& acceptable) {
  if (acceptable.empty()) return true;
  if (reported.empty()) return false;
  std::size_t hit = 0;
  for (const auto& r : reported) {
    if (std::find(acceptable.begin(), acceptable.end(), r) !=
        acceptable.end()) {
      ++hit;
    }
  }
  return hit >= 1 && 2 * hit >= reported.size();
}

bool diagnosis_correct(const diagnosis::DiagnosisResult& dx,
                       const workload::GroundTruth& truth,
                       const std::vector<FiveTuple>& acceptable) {
  if (dx.type != truth.type) return false;
  switch (truth.type) {
    case AnomalyType::kPfcStorm:
    case AnomalyType::kOutOfLoopDeadlockInjection:
      return dx.injecting_peer == truth.injecting_host;
    case AnomalyType::kHostPcieBottleneck:
      // The pure-victim row: correctness is naming the drain-bound NIC.
      return dx.injecting_peer == truth.injecting_host;
    case AnomalyType::kDegradedLink:
    case AnomalyType::kLinkSpeedMismatch:
    case AnomalyType::kOversubscribedDownlink:
      // Link-rooted fleet rows: correctness is localizing the sick link
      // (either endpoint's egress port qualifies).
      if (truth.congestion_ports.empty()) return true;
      return std::find(truth.congestion_ports.begin(),
                       truth.congestion_ports.end(),
                       dx.initial_port) != truth.congestion_ports.end();
    default:
      return roots_match(dx.root_cause_flows, acceptable);
  }
}

/// Crafted culprits + background flows that contended at a ground-truth
/// congestion port during the anomaly (their packets are physically part
/// of the congestion the diagnosis attributes).
std::vector<FiveTuple> acceptable_roots(Testbed& tb,
                                        const workload::ScenarioSpec& spec) {
  std::vector<FiveTuple> out = spec.truth.root_cause_flows;
  if (spec.truth.congestion_ports.empty()) return out;
  // A background flow that, during the anomaly window, pushed real traffic
  // through a ground-truth congestion port — or contended anywhere on the
  // victim's own path — genuinely contributed to the victim's degradation
  // and is an acceptable (co-)root cause.
  std::vector<net::PortRef> hot_ports = spec.truth.congestion_ports;
  for (const net::PortRef& hop : tb.routing.path_of(spec.victim)) {
    if (tb.ft.topo.is_switch(hop.node)) hot_ports.push_back(hop);
  }
  const sim::Time w0 = spec.anomaly_start - sim::us(100);
  const sim::Time w1 = spec.anomaly_start + sim::us(500);
  for (const NodeId h : tb.ft.hosts) {
    for (const auto& st : tb.host(h).flow_stats()) {
      if (std::find(out.begin(), out.end(), st.tuple) != out.end()) continue;
      if (st.pkts_sent < 32) continue;  // too small to shape a queue
      const sim::Time end = st.complete() ? st.finish : w1;
      if (st.start > w1 || end < w0) continue;
      const auto path = tb.routing.path_of(st.tuple);
      for (const net::PortRef& cp : hot_ports) {
        if (std::find(path.begin(), path.end(), cp) != path.end()) {
          out.push_back(st.tuple);
          break;
        }
      }
    }
  }
  return out;
}

/// Ground-truth causally-relevant switches: the victim flow path plus the
/// CBD loop switches (the paper's observation: for non-deadlock anomalies
/// the PFC spreading path coincides with the victim path).
std::set<NodeId> causal_switches(const Testbed& tb,
                                 const workload::ScenarioSpec& spec) {
  std::set<NodeId> causal;
  for (const NodeId sw : tb.routing.switches_on_path(spec.victim)) {
    causal.insert(sw);
  }
  for (const net::PortRef& p : spec.truth.loop_ports) causal.insert(p.node);
  return causal;
}

}  // namespace

bool flap_hit_victim_path(
    const std::vector<std::pair<NodeId, NodeId>>& links_hit,
    const std::vector<net::PortRef>& victim_path, NodeId dst_host) {
  if (links_hit.empty() || victim_path.empty()) return false;
  // path_of lists the egress hops src-host-first; consecutive entries are
  // link endpoints, and dst_host closes the final hop.
  const auto on_path = [&](NodeId a, NodeId b) {
    for (std::size_t i = 0; i < victim_path.size(); ++i) {
      const NodeId u = victim_path[i].node;
      const NodeId v =
          i + 1 < victim_path.size() ? victim_path[i + 1].node : dst_host;
      if ((u == a && v == b) || (u == b && v == a)) return true;
    }
    return false;
  };
  for (const auto& [a, b] : links_hit) {
    if (on_path(a, b)) return true;
  }
  return false;
}

std::vector<ConfidenceCurve::Point> ConfidenceCurve::points(
    int buckets) const {
  std::vector<Point> out;
  if (buckets < 1) return out;
  for (int i = 0; i <= buckets; ++i) {
    Point p;
    p.threshold = static_cast<double>(i) / static_cast<double>(buckets);
    for (const auto& [conf, correct] : samples_) {
      if (conf >= p.threshold) {
        ++p.asserted;
        if (correct) ++p.correct;
      }
    }
    out.push_back(p);
  }
  return out;
}

workload::ScenarioSpec craft_scenario(const RunConfig& cfg, sim::Rng& rng) {
  // Scenario crafting needs default routing; build a probe topology first.
  const Testbed::Options defaults;
  const net::FatTree probe = net::build_fat_tree(
      cfg.fat_tree_k, defaults.link_gbps, defaults.link_delay_ns);
  net::Routing probe_routing(probe.topo);
  workload::ScenarioSpec spec =
      diagnosis::is_fleet_fault(cfg.scenario)
          ? workload::make_fleet_scenario(cfg.scenario, cfg.fleet_workload,
                                          probe, probe_routing, rng,
                                          cfg.fleet_severity)
          : workload::make_scenario(cfg.scenario, probe, probe_routing, rng);
  if (cfg.faults.enabled()) {
    // Mix the run seed into the injector seed so each sweep point sees an
    // independent (but reproducible) fault stream.
    fault::FaultPlan plan = cfg.faults;
    plan.seed = cfg.faults.seed ^ (cfg.seed * 0x9e3779b97f4a7c15ull);
    // Bind "hit a victim-path link" placeholders now that the crafted
    // victim (and so its routed path, overrides included) is known. The
    // middle victim-path link is the canonical target: far enough from
    // both ends that the fault's symptoms (black hole, CRC loss, slow
    // serialization) and any PFC backpressure are visible in the
    // collected telemetry.
    const auto bind_middle = [&](NodeId& a, NodeId& b) {
      if (a != net::kInvalidNode) return;
      for (const auto& ov : spec.overrides) {
        probe_routing.add_override(ov.sw, ov.dst, ov.port);
      }
      const std::vector<NodeId> sws =
          probe_routing.switches_on_path(spec.victim);
      if (sws.size() >= 2) {
        a = sws[sws.size() / 2 - 1];
        b = sws[sws.size() / 2];
      } else if (!sws.empty()) {
        a = net::Topology::node_of_ip(spec.victim.src_ip);
        b = sws.front();
      }
    };
    fault::FaultPlan::families(
        plan, [&](std::string_view, std::string_view, auto& specs) {
          if constexpr (fault::LinkSpec<decltype(specs.front())>) {
            for (auto& s : specs) bind_middle(s.node_a, s.node_b);
          }
        });
    spec.faults = plan;
  }
  // Mutation hook (the hunter's workload axes): applied last so overlay
  // fault scaling sees the fully merged plan. Disabled overlays are a
  // strict no-op — fault-free traces stay byte-identical.
  if (cfg.overlay.enabled()) workload::apply_overlay(spec, cfg.overlay);
  return spec;
}

RunResult run_one(const RunConfig& cfg) {
  RunResult out;

  // ---- Craft the scenario on a default-routed fabric ----
  Testbed::Options opts;
  opts.fat_tree_k = cfg.fat_tree_k;
  opts.switch_cfg.telemetry.epoch.epoch_shift = cfg.epoch_shift;
  opts.switch_cfg.telemetry.epoch.index_bits = cfg.epoch_index_bits;
  opts.switch_cfg.telemetry.mode = cfg.tele_mode;
  opts.switch_cfg.telemetry.one_bit_meter = cfg.one_bit_meter;
  opts.agent_cfg.threshold_factor = cfg.threshold_factor;
  // Fabric-scale trigger calibration, detection half (bench_scalability's
  // k=16 cells): on large fabrics the paper's factor x baseline test sits
  // too close to the noise floor — the baseline is pure propagation +
  // serialization, and long paths cross many busy core links, so benign
  // transient queueing alone approaches the threshold while a genuine
  // anomaly still clears it. Credit a per-hop benign-queueing allowance
  // above k=8; paper-scale fabrics (k <= 8, where factor x baseline is
  // calibrated already) keep headroom 0 so their traces — and the
  // committed goldens — stay byte-identical. The evidence half of the
  // calibration (trigger-scoped provenance epochs) is below, at the
  // episode merge and the builder config.
  if (cfg.fat_tree_k > 8) {
    opts.agent_cfg.hop_noise_headroom = sim::us(1);
  }
  opts.agent_cfg.full_polling =
      cfg.method == Method::kFullPolling || cfg.method == Method::kNetSight;
  opts.switch_agent_cfg.trace_pfc_causality = cfg.method == Method::kHawkeye;
  // Full-polling-style methods snapshot every switch from the trigger event
  // itself — inherently global, so they keep the single-calendar path.
  opts.shards = opts.agent_cfg.full_polling ? 1 : cfg.shards;
  const bool faulty = cfg.faults.enabled();
  if (faulty) opts.agent_cfg.max_repolls = cfg.max_repolls;

  sim::Rng rng(cfg.seed);
  workload::ScenarioSpec spec = craft_scenario(cfg, rng);
  if (spec.xoff_bytes) opts.switch_cfg.pfc_xoff_bytes = *spec.xoff_bytes;
  if (spec.xon_bytes) opts.switch_cfg.pfc_xon_bytes = *spec.xon_bytes;

  // Fleet-ops faults crafted by the scenario itself (make_fleet_scenario)
  // arrive via spec.faults rather than cfg.faults; they deserve the same
  // self-healing collection budget — a CRC-degraded link eats polling
  // packets too.
  const bool scenario_fleet =
      spec.faults.has_value() && spec.faults->fleet_enabled();
  if (scenario_fleet) {
    opts.agent_cfg.max_repolls = cfg.max_repolls;
    // Fleet-ops detection reads the RNIC retransmit counter: NACK-driven
    // go-back-N repairs a corrupting link within ~1 RTT, so a degraded
    // cable often produces neither an RTT spike nor an ACK stall — only
    // the retransmit counter moves. Left off everywhere else so fault-free
    // traces (and the committed goldens) stay byte-identical.
    opts.agent_cfg.retx_trigger_pkts = 64;
  }

  Testbed tb(opts);
  tb.install(spec);
  // Install-time victim path, captured before any reconvergence can mutate
  // the tables: fault attribution must see every path the victim used, and
  // a run that ends inside a withdraw window reports the REROUTED path from
  // a post-run path_of.
  std::vector<net::PortRef> victim_path_install;
  if (faulty || scenario_fleet) {
    victim_path_install = tb.routing.path_of(spec.victim);
  }
  for (const auto& f : workload::background_flows(
           tb.ft, rng, cfg.background_load, sim::us(5),
           spec.duration - sim::us(100))) {
    tb.add_flow(f);
  }

  // ---- Simulate ----
  // Small margin so asynchronous CPU snapshots scheduled near the end of
  // the trace still complete. Fault-enabled runs get extra room: the
  // re-poll backoff chain and stale (delayed) DMA completions can land
  // several milliseconds after the trace proper.
  sim::Time margin = 2 * opts.collector_cfg.snapshot_delay;
  if (faulty || scenario_fleet) margin += sim::ms(4);
  tb.run_for(spec.duration + margin);
  out.scenario_name = spec.name;
  out.truth_type = spec.truth.type;
  out.sim_events = tb.simu.executed_events();
  out.shard_stats = tb.simu.shard_stats();
  out.drops = tb.net.data_drops();
  out.polling_drops = tb.net.polling_drops();
  out.pfc_loss_drops = tb.net.pfc_loss_drops();
  out.routing_epochs = tb.routing.epoch();
  if (tb.faults != nullptr) {
    // Injected data-plane truth — recorded before any early return so even
    // a never-triggered run carries its fault epoch for the benches.
    out.link_down_drops = tb.faults->link_drops();
    out.pfc_pause_lost = tb.faults->pfc_pause_lost();
    out.pfc_resume_lost = tb.faults->pfc_resume_lost();
    out.pfc_frames_delayed = tb.faults->pfc_frames_delayed();
    out.dataplane_fault_fired = tb.faults->dataplane_fault_fired();
    out.first_fault_at = tb.faults->first_dataplane_fault();
    out.last_fault_at = tb.faults->last_dataplane_fault();
    out.crc_drops = tb.faults->crc_drops();
    out.rate_limited_pkts = tb.faults->rate_limited_pkts();
    out.host_drain_delayed = tb.faults->host_drain_delayed();
    out.retransmissions =
        tb.host(net::Topology::node_of_ip(spec.victim.src_ip))
            .retransmissions();
    // Victim-path-aware attribution: a fired fault only excuses a wrong
    // verdict if it could have touched the victim. PFC frame faults are
    // spec'd per-port (usually port-global), so any firing counts; a link
    // flap counts only when a link that actually bit lies on the victim's
    // path — the install-time path OR the end-of-run path (they differ when
    // the horizon lands inside a reconvergence withdraw window, and the
    // victim genuinely used both).
    const bool pfc_fired = out.pfc_pause_lost > 0 || out.pfc_resume_lost > 0 ||
                           out.pfc_frames_delayed > 0;
    const NodeId victim_dst = net::Topology::node_of_ip(spec.victim.dst_ip);
    out.fault_on_victim_path =
        pfc_fired ||
        flap_hit_victim_path(tb.faults->links_hit(), victim_path_install,
                             victim_dst) ||
        flap_hit_victim_path(tb.faults->links_hit(),
                             tb.routing.path_of(spec.victim), victim_dst);
  }

  // ---- Locate and merge the victim's episodes ----
  // A persistent anomaly re-triggers once per dedup interval; the operator
  // aggregates every collection for the complaint. Merge the victim's
  // post-onset episodes: the earliest snapshot of each switch wins (it is
  // the densest view of the anomaly — ring epochs age out under background
  // churn), later episodes only widen coverage. Pre-onset triggers (noise
  // during buildup) are a last resort — their delayed snapshot usually
  // still covers the onset.
  collect::Episode merged;
  bool any = false;
  sim::Time first_trigger = -1;
  std::int64_t raw_per_switch = 0;
  for (const bool post_onset : {true, false}) {
    for (const std::uint64_t id : tb.collector.episode_order()) {
      const collect::Episode* cand = tb.collector.episode(id);
      if (cand == nullptr || !(cand->victim == spec.victim)) continue;
      if ((cand->triggered_at >= spec.anomaly_start) != post_onset) continue;
      if (!cand->reports.empty() && raw_per_switch == 0) {
        raw_per_switch = cand->raw_telemetry_bytes /
                         static_cast<std::int64_t>(cand->reports.size());
      }
      if (post_onset || !any) {
        if (!any) {
          merged.probe_id = cand->probe_id;
          merged.victim = cand->victim;
          merged.triggered_at = cand->triggered_at;
        }
        any = true;
        if (post_onset && first_trigger < 0) {
          first_trigger = cand->triggered_at;
        }
        merged.polling_packets += cand->polling_packets;
        merged.polling_bytes += cand->polling_bytes;
        merged.collection_latency =
            std::max(merged.collection_latency, cand->collection_latency);
        merged.repolls += cand->repolls;
        merged.failed_collections += cand->failed_collections;
        merged.stale_epochs_rejected += cand->stale_epochs_rejected;
        merged.degraded = merged.degraded || cand->degraded;
        merged.path_churned = merged.path_churned || cand->path_churned;
        merged.routing_epoch =
            std::max(merged.routing_epoch, cand->routing_epoch);
        // Stable union of the coverage contracts: episodes collected on
        // different sides of a reconvergence expect different hop sets, and
        // the merged diagnosis needs them all. Without churn every episode
        // carries the same set, so the union equals the old first-wins
        // value and golden traces are unaffected.
        for (const NodeId sw : cand->expected_switches) {
          if (std::find(merged.expected_switches.begin(),
                        merged.expected_switches.end(),
                        sw) == merged.expected_switches.end()) {
            merged.expected_switches.push_back(sw);
          }
        }
        for (const auto& [sw, rep] : cand->reports) {
          if (!merged.put_report(sw, rep)) {
            telemetry::merge_report(merged.report_ref(sw), rep);
          }
        }
      }
    }
    if (any && !merged.reports.empty()) break;  // post-onset data suffices
  }
  out.triggered = any;
  if (!any) {
    out.fn = true;
    if (tb.faults != nullptr) {
      // Detection itself never fired under injected faults: no telemetry
      // at all, so the (absent) verdict carries no confidence.
      out.degraded = true;
      out.collection_coverage = 0.0;
      out.confidence = 0.0;
    }
    return out;
  }
  // Recompute collection accounting over the merged report set.
  const collect::Collector::Config ccfg = opts.collector_cfg;
  for (const auto& [sw, rep] : merged.reports) {
    const std::int64_t bytes = telemetry::serialized_bytes(rep);
    merged.telemetry_bytes += bytes;
    merged.raw_telemetry_bytes += raw_per_switch;
    merged.report_packets += static_cast<std::uint64_t>(
        (bytes + ccfg.report_mtu_bytes - 1) / ccfg.report_mtu_bytes);
    merged.dataplane_report_packets += static_cast<std::uint64_t>(
        (raw_per_switch + ccfg.dataplane_phv_bytes - 1) /
        ccfg.dataplane_phv_bytes);
  }
  const collect::Episode* ep = &merged;
  out.detection_latency = (first_trigger >= 0 ? first_trigger
                                              : ep->triggered_at) -
                          spec.anomaly_start;

  // ---- Collection health ----
  out.collection_coverage = merged.coverage();
  out.path_churned = merged.path_churned;
  out.repolls = merged.repolls;
  out.failed_collections = merged.failed_collections;
  out.stale_epochs = merged.stale_epochs_rejected;
  out.degraded = merged.degraded || !merged.coverage_complete() ||
                 merged.failed_collections > 0 ||
                 merged.stale_epochs_rejected > 0;
  // Even with complete victim-path coverage the substrate may have eaten
  // off-path causality clones (deadlock tracing): ask the injector what it
  // did to this victim's polling packets.
  if (tb.faults != nullptr && tb.faults->faults_for(spec.victim) > 0) {
    out.degraded = true;
  }
  out.confidence = diagnosis::collection_confidence(
      out.collection_coverage, out.failed_collections, out.stale_epochs,
      out.repolls);

  // ---- Overhead accounting ----
  out.telemetry_bytes = ep->telemetry_bytes;
  out.raw_telemetry_bytes = ep->raw_telemetry_bytes;
  out.report_packets = ep->report_packets;
  out.dataplane_report_packets = ep->dataplane_report_packets;
  out.polling_packets = ep->polling_packets;
  switch (cfg.method) {
    case Method::kHawkeye:
    case Method::kVictimOnly:
      out.monitor_bw_bytes = ep->polling_bytes;
      break;
    case Method::kFullPolling:
      out.monitor_bw_bytes = 0;
      break;
    case Method::kSpiderMon: {
      std::uint64_t pkts = 0;
      for (const NodeId h : tb.ft.hosts) {
        for (const auto& st : tb.host(h).flow_stats()) pkts += st.pkts_sent;
      }
      out.monitor_bw_bytes =
          static_cast<std::int64_t>(pkts) * baselines::kSpiderMonHeaderBytes;
      out.telemetry_bytes = baselines::spidermon_telemetry_bytes(*ep);
      break;
    }
    case Method::kNetSight:
      out.monitor_bw_bytes =
          baselines::netsight_telemetry_bytes(tb.net.data_hops());
      out.telemetry_bytes =
          baselines::netsight_telemetry_bytes(tb.net.data_hops());
      break;
  }

  const std::set<NodeId> causal = causal_switches(tb, spec);
  out.causal_switches = causal.size();
  std::size_t covered = 0;
  for (const NodeId sw : ep->collected_switches()) {
    if (causal.count(sw)) ++covered;
  }
  out.collected_switches = ep->reports.size();
  out.collected = ep->collected_switches();
  out.causal_coverage =
      causal.empty() ? 1.0
                     : static_cast<double>(covered) /
                           static_cast<double>(causal.size());

  // ---- Diagnose ----
  diagnosis::DiagnosisConfig dcfg;
  dcfg.epoch_ns = opts.switch_cfg.telemetry.epoch.epoch_ns();
  // Ranking half of the fabric-scale calibration (§14), now on at every
  // size: with concurrent background congestion the busiest core port
  // out-masses the anomaly's initial point, so the terminal ranking
  // prefers Table-2 signature matches (DiagnosisConfig::signature_rank).
  // The misdiagnosis hunter reproduced the same core-port capture at k=4
  // under background_load >= 0.2 (tests/hunt_corpus); fault-free crafted
  // cells already rank their server-facing terminal first, so goldens are
  // unchanged.
  dcfg.signature_rank = true;
  if (cfg.method == Method::kSpiderMon || cfg.method == Method::kNetSight) {
    out.dx = baselines::diagnose_local_contention(*ep, tb.ft.topo, tb.routing,
                                                  spec.victim, dcfg);
  } else {
    provenance::BuilderConfig bcfg;
    bcfg.epoch_ns = opts.switch_cfg.telemetry.epoch.epoch_ns();
    // Evidence half of the fabric-scale calibration (§14): when the
    // pause-activity epoch filter saturates (some port is pausing
    // somewhere nearly always) the graph would aggregate every transient
    // hot spot the rings remember, and a long-dead core event can
    // out-mass the live anomaly at the terminal ranking. Scope the
    // anomaly epochs tightly around the first detection: the trigger's
    // own epoch plus one epoch of lookback covers the RTT excursion that
    // fired it, and nothing else. On above k=8 (saturation from scale
    // alone) and — since the misdiagnosis hunter reproduced the same
    // background-capture at k=4 — above the calibrated default background
    // load of 0.1 (saturation from load). At the default load the
    // deadlock cells rely on the wider evidence window (the loop's
    // contention mass accumulates across epochs), so the paper-scale
    // cells and every golden keep the unscoped selection.
    if (cfg.fat_tree_k > 8 || cfg.background_load > 0.1) {
      bcfg.trigger_scope_ns = bcfg.epoch_ns;
    }
    const provenance::ProvenanceGraph g =
        provenance::build_provenance(*ep, tb.ft.topo, bcfg);
    out.dx = diagnosis::diagnose(g, tb.ft.topo, tb.routing, spec.victim, dcfg);
    if (cfg.verbose) {
      sim::Logger::info("%s", g.to_string().c_str());
      sim::Logger::info("diagnosis: %s", out.dx.narrative.c_str());
    }
  }

  out.dx.confidence = out.confidence;

  // ---- Fleet-health refinement ----
  // Assemble the operator-visible fleet counters (MAC FCS registers,
  // negotiated port speeds, NIC DMA drain gauges) and let the fleet
  // signature rows rewrite the provenance verdict where one matches.
  // Baseline methods have no fleet-health pipeline — part of the
  // capability gap the comparison benches measure.
  if (tb.faults != nullptr && tb.faults->plan().fleet_enabled() &&
      cfg.method != Method::kSpiderMon && cfg.method != Method::kNetSight) {
    diagnosis::FleetEvidence& fev = out.fleet_evidence;
    const auto nominal_of = [&](NodeId a, NodeId b) {
      const net::PortId p = tb.ft.topo.port_towards(a, b);
      if (p == net::kInvalidPort) return 0.0;
      const std::int64_t lid = tb.ft.topo.link_of(a, p);
      return lid < 0 ? 0.0
                     : tb.ft.topo.link(static_cast<std::size_t>(lid)).gbps;
    };
    for (const fault::FaultInjector::RateOverride& ro :
         tb.faults->rate_overrides()) {
      diagnosis::LinkCounterEvidence l;
      l.node_a = ro.a;
      l.node_b = ro.b;
      l.nominal_gbps = nominal_of(ro.a, ro.b);
      l.actual_gbps =
          tb.faults->link_gbps(ro.a, ro.b, l.nominal_gbps, ep->triggered_at);
      l.slow_serializations = tb.faults->rate_limited_pkts(ro.a, ro.b);
      l.oversub_tier = ro.oversub;
      l.crc_errors = tb.faults->crc_errors(ro.a, ro.b);
      fev.links.push_back(l);
    }
    for (const auto& [link, errors] : tb.faults->crc_links()) {
      bool seen = false;
      for (const diagnosis::LinkCounterEvidence& l : fev.links) {
        if (std::minmax(l.node_a, l.node_b) ==
            std::minmax(link.first, link.second)) {
          seen = true;
          break;
        }
      }
      if (seen) continue;
      diagnosis::LinkCounterEvidence l;
      l.node_a = link.first;
      l.node_b = link.second;
      l.crc_errors = errors;
      l.nominal_gbps = l.actual_gbps = nominal_of(link.first, link.second);
      fev.links.push_back(l);
    }
    const NodeId fleet_dst = net::Topology::node_of_ip(spec.victim.dst_ip);
    std::vector<NodeId> drain_hosts{fleet_dst};
    for (const fault::HostPcieBottleneckSpec& s :
         tb.faults->plan().pcie_bottlenecks) {
      if (s.host != net::kInvalidNode &&
          std::find(drain_hosts.begin(), drain_hosts.end(), s.host) ==
              drain_hosts.end()) {
        drain_hosts.push_back(s.host);
      }
    }
    for (const NodeId h : drain_hosts) {
      const std::uint64_t delayed = tb.faults->host_drain_delayed(h);
      if (delayed == 0) continue;
      fev.hosts.push_back({h, delayed, tb.faults->host_drain_max_backlog(h)});
    }
    fev.sender_retransmissions = out.retransmissions;
    if (!fev.empty()) {
      out.dx = diagnosis::refine_fleet_verdict(out.dx, fev, tb.ft.topo,
                                               tb.routing, spec.victim);
      out.confidence = out.dx.confidence;
    }
  }

  // ---- Score ----
  if (!out.dx.detected()) {
    out.fn = true;
  } else if (diagnosis_correct(out.dx, spec.truth,
                               acceptable_roots(tb, spec))) {
    out.tp = true;
  } else {
    out.fp = true;
  }
  return out;
}

}  // namespace hawkeye::eval
