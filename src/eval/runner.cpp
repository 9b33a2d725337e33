#include "eval/runner.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <string_view>

#include "baselines/local_contention.hpp"
#include "provenance/builder.hpp"

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
  return std::any_of(links_hit.begin(), links_hit.end(), [&](const auto& l) {
    return net::Routing::hop_of_link(victim_path, dst_host, l.first, l.second)
        .has_value();
  });
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
    // victim (and so its routed path, overrides included) is known.
    for (const auto& ov : spec.overrides) {
      probe_routing.add_override(ov.sw, ov.dst, ov.port);
    }
    const auto [mid_a, mid_b] = probe_routing.middle_link(spec.victim);
    fault::FaultPlan::families(
        plan, [&](std::string_view, std::string_view, auto& specs) {
          if constexpr (fault::LinkSpec<decltype(specs.front())>) {
            for (auto& s : specs) {
              if (s.node_a != net::kInvalidNode) continue;
              s.node_a = mid_a;
              s.node_b = mid_b;
            }
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

namespace {

/// Baselines that diagnose from local flow interactions: no provenance
/// graph and no fleet-health pipeline.
bool diagnoses_locally(Method m) {
  return m == Method::kSpiderMon || m == Method::kNetSight;
}

/// The fabric and Hawkeye stack for one run of `cfg` over its crafted
/// scenario.
Testbed::Options testbed_options(const RunConfig& cfg,
                                 const workload::ScenarioSpec& spec) {
  Testbed::Options opts;
  opts.fat_tree_k = cfg.fat_tree_k;
  opts.switch_cfg.telemetry.epoch.epoch_shift = cfg.epoch_shift;
  opts.switch_cfg.telemetry.epoch.index_bits = cfg.epoch_index_bits;
  opts.switch_cfg.telemetry.mode = cfg.tele_mode;
  opts.switch_cfg.telemetry.one_bit_meter = cfg.one_bit_meter;
  if (spec.xoff_bytes) opts.switch_cfg.pfc_xoff_bytes = *spec.xoff_bytes;
  if (spec.xon_bytes) opts.switch_cfg.pfc_xon_bytes = *spec.xon_bytes;
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
  // calibration (trigger-scoped provenance epochs) is in Run::diagnose.
  if (cfg.fat_tree_k > 8) opts.agent_cfg.hop_noise_headroom = sim::us(1);
  opts.agent_cfg.full_polling =
      cfg.method == Method::kFullPolling || cfg.method == Method::kNetSight;
  opts.switch_agent_cfg.trace_pfc_causality = cfg.method == Method::kHawkeye;
  if (spec.faults) {
    // Self-healing collection budget, for configured faults and for
    // fleet-ops faults the scenario crafted itself alike — a CRC-degraded
    // link eats polling packets too.
    opts.agent_cfg.max_repolls = cfg.max_repolls;
    // Fleet-ops detection reads the RNIC retransmit counter: NACK-driven
    // go-back-N repairs a corrupting link within ~1 RTT, so a degraded
    // cable often produces neither an RTT spike nor an ACK stall — only
    // the retransmit counter moves. Left off everywhere else so fault-free
    // traces (and the committed goldens) stay byte-identical.
    if (spec.faults->fleet_enabled()) opts.agent_cfg.retx_trigger_pkts = 64;
  }
  return opts;
}

/// The simulated fabric's counters and the injected data-plane truth,
/// recorded before any early return so even a never-triggered run carries
/// its fault epoch for the benches. `install_path` is the victim path at
/// install time: a run that ends inside a reconvergence withdraw window
/// reports the REROUTED path from a post-run path_of, and fault
/// attribution must see both.
void record_fabric(Testbed& tb, const workload::ScenarioSpec& spec,
                   const std::vector<net::PortRef>& install_path,
                   RunResult& out) {
  out.sim_events = tb.simu.executed_events();
  out.drops = tb.net.data_drops();
  out.polling_drops = tb.net.polling_drops();
  out.pfc_loss_drops = tb.net.pfc_loss_drops();
  out.routing_epochs = tb.routing.epoch();
  if (tb.faults == nullptr) return;
  const fault::FaultInjector& fi = *tb.faults;
  out.link_down_drops = fi.link_drops();
  out.pfc_pause_lost = fi.pfc_pause_lost();
  out.pfc_resume_lost = fi.pfc_resume_lost();
  out.pfc_frames_delayed = fi.pfc_frames_delayed();
  out.dataplane_fault_fired = fi.dataplane_fault_fired();
  out.first_fault_at = fi.first_dataplane_fault();
  out.last_fault_at = fi.last_dataplane_fault();
  out.crc_drops = fi.crc_drops();
  out.rate_limited_pkts = fi.rate_limited_pkts();
  out.host_drain_delayed = fi.host_drain_delayed();
  out.retransmissions =
      tb.host(net::Topology::node_of_ip(spec.victim.src_ip)).retransmissions();
  // Victim-path-aware attribution: a fired fault only excuses a wrong
  // verdict if it could have touched the victim. PFC frame faults are
  // spec'd per-port (usually port-global), so any firing counts; a link
  // fault counts only when a link that actually bit lies on the install-
  // time or the end-of-run victim path.
  const bool pfc_fired = out.pfc_pause_lost > 0 || out.pfc_resume_lost > 0 ||
                         out.pfc_frames_delayed > 0;
  const auto hit = fi.links_hit();
  const NodeId dst = net::Topology::node_of_ip(spec.victim.dst_ip);
  out.fault_on_victim_path =
      pfc_fired || flap_hit_victim_path(hit, install_path, dst) ||
      flap_hit_victim_path(hit, tb.routing.path_of(spec.victim), dst);
}

/// Collection health, overhead accounting and causal coverage of the
/// merged episode.
void record_collection(const RunConfig& cfg, Testbed& tb,
                       const workload::ScenarioSpec& spec,
                       const collect::Episode& ep, RunResult& out) {
  out.detection_latency = ep.triggered_at - spec.anomaly_start;
  out.collection_coverage = ep.coverage();
  out.path_churned = ep.path_churned;
  out.repolls = ep.repolls;
  out.failed_collections = ep.failed_collections;
  out.stale_epochs = ep.stale_epochs_rejected;
  // Even with complete victim-path coverage the substrate may have eaten
  // off-path causality clones (deadlock tracing): ask the injector what it
  // did to this victim's polling packets.
  const bool polls_hit =
      tb.faults != nullptr && tb.faults->faults_for(spec.victim) > 0;
  out.degraded = ep.degraded || !ep.coverage_complete() ||
                 ep.failed_collections > 0 || ep.stale_epochs_rejected > 0 ||
                 polls_hit;

  out.telemetry_bytes = ep.telemetry_bytes;
  out.raw_telemetry_bytes = ep.raw_telemetry_bytes;
  out.report_packets = ep.report_packets;
  out.dataplane_report_packets = ep.dataplane_report_packets;
  out.polling_packets = ep.polling_packets;
  switch (cfg.method) {
    case Method::kHawkeye:
    case Method::kVictimOnly:
      out.monitor_bw_bytes = ep.polling_bytes;
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
      out.telemetry_bytes = baselines::spidermon_telemetry_bytes(ep);
      break;
    }
    case Method::kNetSight:
      out.monitor_bw_bytes = out.telemetry_bytes =
          baselines::netsight_telemetry_bytes(tb.net.data_hops());
      break;
  }

  const std::set<NodeId> causal = causal_switches(tb, spec);
  out.causal_switches = causal.size();
  out.collected = ep.collected_switches();
  out.collected_switches = out.collected.size();
  const auto covered = std::count_if(
      out.collected.begin(), out.collected.end(),
      [&causal](NodeId sw) { return causal.count(sw) > 0; });
  out.causal_coverage =
      causal.empty() ? 1.0
                     : static_cast<double>(covered) /
                           static_cast<double>(causal.size());
}

}  // namespace

Run::Run(const RunConfig& cfg)
    : cfg_(cfg),
      rng_(cfg.seed),
      spec_(craft_scenario(cfg_, rng_)),
      opts_(testbed_options(cfg_, spec_)),
      tb_(opts_) {
  build();
}

Run::Run(const RunConfig& cfg, workload::ScenarioSpec spec)
    : cfg_(cfg),
      rng_(cfg.seed),
      spec_(std::move(spec)),
      opts_(testbed_options(cfg_, spec_)),
      tb_(opts_) {
  build();
}

void Run::build() {
  tb_.install(spec_);
  install_path_ = tb_.routing.path_of(spec_.victim);
  for (const auto& f : workload::background_flows(
           tb_.ft, rng_, cfg_.background_load, sim::us(5),
           spec_.duration - sim::us(100))) {
    tb_.add_flow(f);
  }
}

void Run::simulate() {
  // Small margin so asynchronous CPU snapshots scheduled near the end of
  // the trace still complete. Faulty runs get extra room: the re-poll
  // backoff chain and stale (delayed) DMA completions can land several
  // milliseconds after the trace proper.
  sim::Time margin = 2 * opts_.collector_cfg.snapshot_delay;
  if (spec_.faults) margin += sim::ms(4);
  tb_.run_for(spec_.duration + margin);
}

std::optional<collect::Episode> Run::victim_episode() const {
  return tb_.collector.merged_episode(spec_.victim, spec_.anomaly_start);
}

Run::Diagnosis Run::diagnose(const collect::Episode& ep) {
  Diagnosis out;
  diagnosis::DiagnosisConfig dcfg;
  dcfg.epoch_ns = opts_.switch_cfg.telemetry.epoch.epoch_ns();
  // Ranking half of the fabric-scale calibration (§14), now on at every
  // size: with concurrent background congestion the busiest core port
  // out-masses the anomaly's initial point, so the terminal ranking
  // prefers Table-2 signature matches (DiagnosisConfig::signature_rank).
  // The misdiagnosis hunter reproduced the same core-port capture at k=4
  // under background_load >= 0.2 (tests/hunt_corpus); fault-free crafted
  // cells already rank their server-facing terminal first, so goldens are
  // unchanged.
  dcfg.signature_rank = true;
  const bool local = diagnoses_locally(cfg_.method);
  if (local) {
    out.dx = baselines::diagnose_local_contention(ep, tb_.ft.topo, tb_.routing,
                                                  ep.victim, dcfg);
  } else {
    provenance::BuilderConfig bcfg;
    bcfg.epoch_ns = dcfg.epoch_ns;
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
    if (cfg_.fat_tree_k > 8 || cfg_.background_load > 0.1) {
      bcfg.trigger_scope_ns = bcfg.epoch_ns;
    }
    out.graph = provenance::build_provenance(ep, tb_.ft.topo, bcfg);
    out.dx = diagnosis::diagnose(out.graph, tb_.ft.topo, tb_.routing,
                                 ep.victim, dcfg);
  }
  out.dx.confidence = diagnosis::collection_confidence(
      ep.coverage(), ep.failed_collections, ep.stale_epochs_rejected,
      ep.repolls);

  // ---- Refine with fleet evidence ----
  // The operator-visible fleet counters (MAC FCS registers, negotiated
  // port speeds, NIC DMA drain gauges) rewrite the provenance verdict
  // where a fleet signature row matches. Baseline methods have no
  // fleet-health pipeline — part of the capability gap the comparison
  // benches measure.
  if (tb_.faults != nullptr && tb_.faults->plan().fleet_enabled() && !local) {
    out.fleet_evidence = tb_.faults->fleet_evidence(
        tb_.ft.topo, net::Topology::node_of_ip(ep.victim.dst_ip),
        ep.triggered_at);
    out.fleet_evidence.sender_retransmissions =
        tb_.host(net::Topology::node_of_ip(ep.victim.src_ip))
            .retransmissions();
    if (!out.fleet_evidence.empty()) {
      out.dx = diagnosis::refine_fleet_verdict(
          out.dx, out.fleet_evidence, tb_.ft.topo, tb_.routing, ep.victim);
    }
  }
  return out;
}

RunResult Run::result() {
  RunResult out;
  out.scenario_name = spec_.name;
  out.truth_type = spec_.truth.type;
  record_fabric(tb_, spec_, install_path_, out);

  const std::optional<collect::Episode> merged = victim_episode();
  out.triggered = merged.has_value();
  if (!merged) {
    out.fn = true;
    if (tb_.faults != nullptr) {
      // Detection itself never fired under injected faults: no telemetry
      // at all, so the (absent) verdict carries no confidence.
      out.degraded = true;
      out.collection_coverage = 0.0;
      out.confidence = 0.0;
    }
    return out;
  }
  record_collection(cfg_, tb_, spec_, *merged, out);
  Diagnosis d = diagnose(*merged);
  out.dx = std::move(d.dx);
  out.fleet_evidence = std::move(d.fleet_evidence);
  out.confidence = out.dx.confidence;

  if (!out.dx.detected()) {
    out.fn = true;
  } else if (diagnosis_correct(out.dx, spec_.truth,
                               acceptable_roots(tb_, spec_))) {
    out.tp = true;
  } else {
    out.fp = true;
  }
  return out;
}

RunResult run_one(const RunConfig& cfg) {
  Run run(cfg);
  run.simulate();
  return run.result();
}

}  // namespace hawkeye::eval
