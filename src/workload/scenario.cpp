#include "workload/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "workload/flow_size.hpp"

namespace hawkeye::workload {

using device::FlowSpec;
using device::tuple_of;
using diagnosis::AnomalyType;
using net::FatTree;
using net::NodeId;
using net::PortId;
using net::PortRef;
using net::Routing;
using sim::Rng;
using sim::Time;

namespace {

int half_of(const FatTree& ft) { return ft.k / 2; }

int pod_of_host(const FatTree& ft, NodeId host) {
  const int half = half_of(ft);
  return static_cast<int>(host) / (half * half);
}

/// Hosts attached to edge switch index `e` (index into ft.edges).
std::vector<NodeId> hosts_of_edge(const FatTree& ft, int e) {
  const int half = half_of(ft);
  std::vector<NodeId> out;
  for (int h = 0; h < half; ++h) {
    out.push_back(ft.hosts[static_cast<size_t>(e * half + h)]);
  }
  return out;
}

NodeId tor_of(const FatTree& ft, NodeId host) {
  return ft.topo.peer(host, 0).node;
}

/// The first other host under `host`'s ToR.
NodeId tor_sibling(const FatTree& ft, NodeId host) {
  const NodeId tor = tor_of(ft, host);
  for (PortId p = 0; p < ft.topo.port_count(tor); ++p) {
    const NodeId peer = ft.topo.peer(tor, p).node;
    if (ft.topo.is_host(peer) && peer != host) return peer;
  }
  throw std::runtime_error("tor_sibling: host has no ToR sibling");
}

NodeId random_host(const FatTree& ft, Rng& rng,
                   const std::vector<NodeId>& exclude,
                   int exclude_pod = -1) {
  for (int tries = 0; tries < 1000; ++tries) {
    const NodeId h = ft.hosts[static_cast<size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(ft.hosts.size()) - 1))];
    if (exclude_pod >= 0 && pod_of_host(ft, h) == exclude_pod) continue;
    if (std::find(exclude.begin(), exclude.end(), h) != exclude.end()) continue;
    return h;
  }
  throw std::runtime_error("random_host: exhausted candidates");
}

/// The first source port in [base, base + 512) whose ECMP path src -> dst
/// crosses `via`, an egress port (kInvalidPort matches any port of
/// via.node): deterministic hashing lets crafting pin a flow's route.
/// nullopt when no port in the range does.
std::optional<std::uint16_t> steer(const Routing& routing, NodeId src,
                                   NodeId dst, PortRef via,
                                   std::uint16_t base) {
  for (int sp = base; sp < base + 512; ++sp) {
    const auto port = static_cast<std::uint16_t>(sp);
    for (const PortRef& hop : routing.path_of(tuple_of({src, dst, port}))) {
      if (hop.node == via.node &&
          (via.port == net::kInvalidPort || hop.port == via.port)) {
        return port;
      }
    }
  }
  return std::nullopt;
}

/// The hop on `flow`'s path into switch `to`: the switch before it and
/// that switch's egress port towards it.
PortRef hop_into(const FatTree& ft, const Routing& routing,
                 const net::FiveTuple& flow, NodeId to) {
  for (const PortRef& hop : routing.path_of(flow)) {
    if (ft.topo.is_switch(hop.node) &&
        ft.topo.peer(hop.node, hop.port).node == to) {
      return hop;
    }
  }
  throw std::runtime_error("hop_into: the path never enters the switch");
}

PortId port_to(const FatTree& ft, NodeId from, NodeId to) {
  const PortId p = ft.topo.port_towards(from, to);
  if (p == net::kInvalidPort) {
    throw std::runtime_error("port_to: nodes not adjacent");
  }
  return p;
}

/// Adds the victim flow src -> dst on a drawn source port and records its
/// tuple.
void add_victim(ScenarioSpec& spec, Rng& rng, NodeId src, NodeId dst,
                std::int64_t bytes, Time start, double cap_gbps) {
  const FlowSpec victim{src, dst,
                        static_cast<std::uint16_t>(rng.uniform_int(100, 999)),
                        4791, bytes, start, true, cap_gbps};
  spec.victim = tuple_of(victim);
  spec.flows.push_back(victim);
}

/// The four intra-pod switches and loop egress ports of the crafted CBD:
/// E1 -> A1 -> E2 -> A2 -> E1 (all links exist in a fat-tree pod).
struct LoopPlan {
  NodeId e1, e2, a1, a2;
  std::vector<PortRef> loop_ports;  // paused egress ports forming the cycle
  std::vector<NodeId> he1, he2;     // hosts under e1 / e2
};

LoopPlan plan_loop(const FatTree& ft, int pod) {
  const int half = half_of(ft);
  LoopPlan lp;
  lp.e1 = ft.edges[static_cast<size_t>(pod * half + 0)];
  lp.e2 = ft.edges[static_cast<size_t>(pod * half + 1)];
  lp.a1 = ft.aggs[static_cast<size_t>(pod * half + 0)];
  lp.a2 = ft.aggs[static_cast<size_t>(pod * half + 1)];
  lp.he1 = hosts_of_edge(ft, pod * half + 0);
  lp.he2 = hosts_of_edge(ft, pod * half + 1);
  lp.loop_ports = {
      {lp.e1, port_to(ft, lp.e1, lp.a1)},  // L0
      {lp.a1, port_to(ft, lp.a1, lp.e2)},  // L1
      {lp.e2, port_to(ft, lp.e2, lp.a2)},  // L2
      {lp.a2, port_to(ft, lp.a2, lp.e1)},  // L3
  };
  return lp;
}

/// The four flows that establish the cyclic buffer dependency; each spans
/// two consecutive loop links, kept well below link capacity so the CBD is
/// latent until an initiator congests it (paper §2.1, Figure 1(c)/(d)).
void add_loop_flows(ScenarioSpec& spec, const FatTree& ft, const LoopPlan& lp,
                    NodeId x, NodeId y, Time start) {
  // Three loop flows share the busiest loop links (L0, L2): 28 G each keeps
  // them under capacity while accumulating Xoff (64 KB) within ~10 us once
  // the next link pauses — fast enough for the CBD to lock before the
  // initiator's pause cycle releases.
  const double kLoopGbps = 26.0;
  const std::int64_t kLoopBytes = 100'000'000;

  // F1: he1[0] -> he2[0] over L0,L1.
  spec.flows.push_back({lp.he1[0], lp.he2[0], 101, 4791, kLoopBytes, start,
                        false, kLoopGbps});
  spec.overrides.push_back({lp.e1, lp.he2[0], port_to(ft, lp.e1, lp.a1)});

  // F2: he2[1] -> he1[1] over L2,L3.
  spec.flows.push_back({lp.he2[1], lp.he1[1], 102, 4791, kLoopBytes, start,
                        false, kLoopGbps});
  spec.overrides.push_back({lp.e2, lp.he1[1], port_to(ft, lp.e2, lp.a2)});

  // F3: he1[1] -> X over L0?,L1,L2 (valley-routed down A1 -> E2 -> up A2).
  spec.flows.push_back({lp.he1[1], x, 103, 4791, kLoopBytes, start, false,
                        kLoopGbps});
  spec.overrides.push_back({lp.e1, x, port_to(ft, lp.e1, lp.a1)});
  spec.overrides.push_back({lp.a1, x, port_to(ft, lp.a1, lp.e2)});
  spec.overrides.push_back({lp.e2, x, port_to(ft, lp.e2, lp.a2)});

  // F4: he2[0] -> Y over L2?,L3,L0 (valley-routed down A2 -> E1 -> up A1).
  spec.flows.push_back({lp.he2[0], y, 104, 4791, kLoopBytes, start, false,
                        kLoopGbps});
  spec.overrides.push_back({lp.e2, y, port_to(ft, lp.e2, lp.a2)});
  spec.overrides.push_back({lp.a2, y, port_to(ft, lp.a2, lp.e1)});
  spec.overrides.push_back({lp.e1, y, port_to(ft, lp.e1, lp.a1)});
}

ScenarioSpec make_incast_burst(const FatTree& ft, const Routing& routing,
                               Rng& rng) {
  ScenarioSpec spec;
  spec.name = "incast-burst";
  spec.type = AnomalyType::kMicroBurstIncast;
  spec.anomaly_start = sim::us(300) + rng.uniform_int(0, sim::us(200));

  // Burst sink B, victim destination W = B's ToR sibling.
  const NodeId b = random_host(ft, rng, {});
  const NodeId e_b = tor_of(ft, b);
  const NodeId w = tor_sibling(ft, b);
  const NodeId v = random_host(ft, rng, {b, w}, pod_of_host(ft, b));
  add_victim(spec, rng, v, w, 40'000'000, sim::us(10), 0);

  // The agg port through which the victim enters B's ToR.
  const PortRef via = hop_into(ft, routing, spec.victim, e_b);

  // Four synchronized line-rate micro-bursts into B, two of them steered
  // through the victim's agg so the backpressure provably crosses the
  // victim path (paper Figure 1(a)). More than two would bottleneck the
  // incast at the agg downlink instead of the sink port.
  std::vector<NodeId> used{b, w, v};
  for (int i = 0; i < 4; ++i) {
    const NodeId src = random_host(ft, rng, used, pod_of_host(ft, b));
    used.push_back(src);
    const auto base = static_cast<std::uint16_t>(2000 + 100 * i);
    FlowSpec burst{src, b,
                   i < 2 ? steer(routing, src, b, via, base).value_or(base)
                         : base,
                   4791, 500'000 + rng.uniform_int(0, 300'000),
                   spec.anomaly_start + rng.uniform_int(0, sim::us(3)), false,
                   0};
    spec.flows.push_back(burst);
    spec.truth.root_cause_flows.push_back(tuple_of(burst));
  }

  spec.truth.type = spec.type;
  spec.truth.congestion_ports = {{e_b, port_to(ft, e_b, b)}};
  return spec;
}

ScenarioSpec make_pfc_storm(const FatTree& ft, Rng& rng) {
  ScenarioSpec spec;
  spec.name = "pfc-storm";
  spec.type = AnomalyType::kPfcStorm;
  // The injection start is randomized across a full 1 ms epoch grid so the
  // separation between the pre-anomaly contention blip and the injection
  // depends on epoch size the way §4.2 describes (small epochs always
  // separate the events; 1-2 ms epochs increasingly conflate them).
  spec.anomaly_start = sim::us(800) + rng.uniform_int(0, sim::us(1000));
  spec.duration = sim::ms(3);

  const NodeId h = random_host(ft, rng, {});
  const NodeId v = random_host(ft, rng, {h}, pod_of_host(ft, h));

  // Victim and feeder are rate-capped so the pre-injection fabric is
  // uncongested (40 + 30 < 100 G): every pause observed afterwards is the
  // storm's, not startup incast.
  add_victim(spec, rng, v, h, 40'000'000, sim::us(10), 40.0);

  // A second feeder widens the storm's blast radius.
  const NodeId f = random_host(ft, rng, {h, v});
  spec.flows.push_back({f, h, 2100, 4791, 20'000'000, sim::us(20), true, 30.0});

  // A small contention blip that ends well before the injection: short
  // epochs separate the two events, a 2 ms epoch conflates them and can
  // mis-attribute the storm to flow contention (the failure mode §4.2
  // describes for long epochs). 25 G keeps it below the port's spare
  // capacity, so it queues briefly without tripping PFC itself.
  const NodeId m1 = random_host(ft, rng, {h, v, f});
  spec.flows.push_back({m1, h, 2200, 4791, 200'000,
                        spec.anomaly_start - sim::us(600), false, 45.0});

  spec.injections.push_back({h, spec.anomaly_start,
                             spec.anomaly_start + sim::us(800), sim::us(50),
                             65535});
  spec.truth.type = spec.type;
  spec.truth.injecting_host = h;
  return spec;
}

ScenarioSpec make_inloop_deadlock(const FatTree& ft, const Routing& routing,
                                  Rng& rng) {
  ScenarioSpec spec;
  spec.name = "in-loop-deadlock";
  spec.type = AnomalyType::kInLoopDeadlock;
  spec.anomaly_start = sim::us(400) + rng.uniform_int(0, sim::us(200));

  // Shallow PFC headroom (32 K / 8 K): the pause chain around the CBD
  // completes well inside the initiator's lifetime and the stuck bytes at
  // each hop stay above Xon, so the lock is permanent — the paper's
  // "short-duration flow contention (<1 ms) leads to persistent deadlock".
  spec.xoff_bytes = 32 * 1024;
  spec.xon_bytes = 8 * 1024;
  const int pod = static_cast<int>(rng.uniform_int(0, ft.k - 1));
  const LoopPlan lp = plan_loop(ft, pod);
  const NodeId x = random_host(ft, rng, {}, pod);
  const NodeId y = random_host(ft, rng, {x}, pod);
  add_loop_flows(spec, ft, lp, x, y, sim::us(30));
  spec.victim = tuple_of(spec.flows[0]);  // F1 stalls once the CBD locks

  // Initiator inside the loop: a remote burst is valley-routed into the
  // pod by a routing misconfiguration — core -> A1 -> E2 -> A2 -> core —
  // so it rides the loop links L1 and L2 and the contention point is the
  // loop port E2->A2 (L2) itself (Figure 1(c)'s "SW2.P2 encounters
  // micro-bursts"). Because the burst shares E2's ingress-from-A1 with
  // loop flow F3, that ingress reaches Xoff and PFC chases the CBD around;
  // the lock persists long after the burst drains.
  //
  // The burst must enter the pod through a core attached to A1 (the a=0
  // agg group, i.e. cores[0..k/2)).
  const NodeId entry_core = ft.cores[0];
  NodeId bsrc = net::kInvalidNode;
  NodeId x2 = net::kInvalidNode;
  std::optional<std::uint16_t> bsp;
  for (int tries = 0; tries < 64 && !bsp; ++tries) {
    bsrc = random_host(ft, rng, {x, y}, pod);
    x2 = random_host(ft, rng, {x, y, bsrc}, pod);
    if (pod_of_host(ft, x2) == pod_of_host(ft, bsrc)) continue;
    bsp = steer(routing, bsrc, x2, {entry_core, net::kInvalidPort}, 3001);
  }
  FlowSpec burst{bsrc, x2, bsp.value_or(3001), 4791,
                 2'000'000 + rng.uniform_int(0, 500'000), spec.anomaly_start,
                 false, 40.0};
  spec.overrides.push_back({entry_core, x2, port_to(ft, entry_core, lp.a1)});
  spec.overrides.push_back({lp.a1, x2, port_to(ft, lp.a1, lp.e2)});
  spec.overrides.push_back({lp.e2, x2, port_to(ft, lp.e2, lp.a2)});
  spec.flows.push_back(burst);
  spec.truth.root_cause_flows.push_back(tuple_of(burst));

  spec.truth.type = spec.type;
  spec.truth.loop_ports = lp.loop_ports;
  spec.truth.congestion_ports = lp.loop_ports;
  return spec;
}

ScenarioSpec make_outofloop_deadlock(const FatTree& ft, const Routing& routing,
                                     Rng& rng, bool by_injection) {
  ScenarioSpec spec;
  spec.name = by_injection ? "out-of-loop-deadlock-injection"
                           : "out-of-loop-deadlock-contention";
  spec.type = by_injection ? AnomalyType::kOutOfLoopDeadlockInjection
                           : AnomalyType::kOutOfLoopDeadlockContention;
  spec.anomaly_start = sim::us(400) + rng.uniform_int(0, sim::us(200));

  // Same shallow PFC headroom as the in-loop scenario (see comment there).
  spec.xoff_bytes = 32 * 1024;
  spec.xon_bytes = 8 * 1024;
  const int pod = static_cast<int>(rng.uniform_int(0, ft.k - 1));
  const LoopPlan lp = plan_loop(ft, pod);
  const NodeId x = random_host(ft, rng, {}, pod);
  const NodeId y = random_host(ft, rng, {x}, pod);
  add_loop_flows(spec, ft, lp, x, y, sim::us(30));

  // Feeder into the loop: remote host -> he2[1] steered through L1 (A1->E2)
  // so the out-of-loop congestion back-pressures the CBD.
  const PortRef l1 = lp.loop_ports[1];
  const NodeId sink = lp.he2[1];
  const NodeId r = random_host(ft, rng, {x, y}, pod);
  // 30 G keeps L1 (feeder + burst-via-A1 + two 26 G loop flows) under
  // 100 G pre-anomaly: the loop links must carry no standing contention of
  // their own, or the initiator would look in-loop.
  FlowSpec feeder{r, sink, steer(routing, r, sink, l1, 4000).value_or(4000),
                  4791, 100'000'000, sim::us(40), false, 30.0};
  spec.flows.push_back(feeder);
  spec.victim = tuple_of(feeder);

  if (by_injection) {
    // Malfunctioning NIC at the sink keeps PAUSEing its ToR (Figure 1(d)).
    spec.injections.push_back({sink, spec.anomaly_start,
                               spec.anomaly_start + sim::us(800), sim::us(50),
                               65535});
    spec.truth.injecting_host = sink;
  } else {
    // Incast bursts into the sink from two extra directions besides the
    // feeder; rate caps keep every loop link under capacity so the only
    // contention point is the sink port E2 -> he2[1], outside the CBD.
    const NodeId b1 = random_host(ft, rng, {x, y, r}, pod);
    // Not a ground-truth root cause: once L1 pauses, this 20 G burst is
    // throttled by the loop and contributes little to the sink congestion;
    // it exists to keep causal traffic flowing on L1 during the buildup.
    FlowSpec via_a1{b1, sink, steer(routing, b1, sink, l1, 4200).value_or(4200),
                    4791, 900'000 + rng.uniform_int(0, 300'000),
                    spec.anomaly_start + sim::us(1), false, 15.0};
    spec.flows.push_back(via_a1);

    const NodeId b2 = random_host(ft, rng, {x, y, r, b1}, pod);
    const PortRef a2_down{lp.a2, port_to(ft, lp.a2, lp.e2)};
    FlowSpec via_a2{b2, sink,
                    steer(routing, b2, sink, a2_down, 4300).value_or(4300),
                    4791, 2'000'000 + rng.uniform_int(0, 500'000),
                    spec.anomaly_start + sim::us(2), false, 90.0};
    spec.flows.push_back(via_a2);
    spec.truth.root_cause_flows.push_back(tuple_of(via_a2));

    const NodeId b3 = random_host(ft, rng, {x, y, r, b1, b2}, pod);
    FlowSpec via_a2b{b3, sink,
                     steer(routing, b3, sink, a2_down, 4400).value_or(4400),
                     4791, 1'800'000 + rng.uniform_int(0, 500'000),
                     spec.anomaly_start + sim::us(3), false, 80.0};
    spec.flows.push_back(via_a2b);
    spec.truth.root_cause_flows.push_back(tuple_of(via_a2b));
    spec.truth.congestion_ports = {{lp.e2, port_to(ft, lp.e2, sink)}};
  }

  spec.truth.type = spec.type;
  spec.truth.loop_ports = lp.loop_ports;
  return spec;
}

ScenarioSpec make_normal_contention(const FatTree& ft, Rng& rng) {
  ScenarioSpec spec;
  spec.name = "normal-contention";
  spec.type = AnomalyType::kNormalContention;
  spec.anomaly_start = sim::us(300) + rng.uniform_int(0, sim::us(200));
  // Deep PFC headroom: queues build without PAUSE, the regime where RDMA
  // congestion degenerates to traditional contention (§3.5.2).
  spec.xoff_bytes = 8 * 1024 * 1024;
  spec.xon_bytes = 4 * 1024 * 1024;

  const NodeId w = random_host(ft, rng, {});
  const NodeId v = random_host(ft, rng, {w}, pod_of_host(ft, w));
  // Application-limited victim: persists through the contention window
  // without dominating the queue's packet share.
  add_victim(spec, rng, v, w, 2'000'000, sim::us(10), 25.0);

  std::vector<NodeId> used{w, v};
  for (int i = 0; i < 3; ++i) {
    const NodeId src = random_host(ft, rng, used);
    used.push_back(src);
    FlowSpec big{src, w, static_cast<std::uint16_t>(5000 + 10 * i), 4791,
                 4'000'000 + rng.uniform_int(0, 500'000),
                 spec.anomaly_start + rng.uniform_int(0, sim::us(5)), false,
                 40.0};
    spec.flows.push_back(big);
    spec.truth.root_cause_flows.push_back(tuple_of(big));
  }
  spec.truth.type = spec.type;
  spec.truth.congestion_ports = {{tor_of(ft, w), port_to(ft, tor_of(ft, w), w)}};
  return spec;
}

}  // namespace

ScenarioSpec make_slow_receiver(const FatTree& ft, Rng& rng) {
  // Same shape as the storm but with a duty-cycled injection: short pause
  // quanta (~20 us each) re-armed every 40 us, i.e. the NIC drains between
  // pauses like a back-pressured slow receiver rather than a dead one.
  ScenarioSpec spec = make_pfc_storm(ft, rng);
  spec.name = "slow-receiver";
  spec.injections.clear();
  const NodeId h = spec.truth.injecting_host;
  // 4096 quanta at 100 Gbps ~ 21 us of pause per 40 us period.
  spec.injections.push_back({h, spec.anomaly_start,
                             spec.anomaly_start + sim::us(1000), sim::us(40),
                             4096});
  return spec;
}

ScenarioSpec make_ecmp_imbalance(const FatTree& ft, const Routing& routing,
                                 Rng& rng) {
  ScenarioSpec spec;
  spec.name = "ecmp-imbalance";
  spec.type = AnomalyType::kNormalContention;
  spec.anomaly_start = sim::us(300) + rng.uniform_int(0, sim::us(200));
  // Deep PFC headroom, as in the normal-contention scenario: the skewed
  // uplink queues without pausing anyone.
  spec.xoff_bytes = 8 * 1024 * 1024;
  spec.xon_bytes = 4 * 1024 * 1024;

  // Pick a source edge and its "hot" uplink; every crafted flow is
  // steered onto it by source-port selection while the sibling idles.
  const NodeId vsrc = random_host(ft, rng, {});
  const NodeId e_src = tor_of(ft, vsrc);
  const int pod = pod_of_host(ft, vsrc);
  const NodeId a_hot = ft.aggs[static_cast<size_t>(pod * half_of(ft))];
  const PortRef hot{e_src, port_to(ft, e_src, a_hot)};

  const NodeId vdst = random_host(ft, rng, {vsrc}, pod);
  FlowSpec victim{vsrc, vdst,
                  steer(routing, vsrc, vdst, hot, 500).value_or(500), 4791,
                  3'000'000, sim::us(10), true, 25.0};
  spec.victim = tuple_of(victim);
  spec.flows.push_back(victim);

  // Three skewed flows (two from the victim's ToR sibling, one sharing the
  // victim's NIC) all hash onto the hot uplink: 49+49+60 G against its
  // 100 G while the other agg uplink idles.
  const NodeId h1 = tor_sibling(ft, vsrc);
  std::vector<NodeId> used{vsrc, vdst, h1};
  for (int i = 0; i < 3; ++i) {
    const NodeId src = i < 2 ? h1 : vsrc;
    const double cap = i < 2 ? 49.0 : 60.0;
    const NodeId dst = random_host(ft, rng, used, pod);
    used.push_back(dst);
    const auto base = static_cast<std::uint16_t>(6000 + 100 * i);
    FlowSpec skewed{src, dst,
                    steer(routing, src, dst, hot, base).value_or(base), 4791,
                    5'000'000 + rng.uniform_int(0, 500'000),
                    spec.anomaly_start + rng.uniform_int(0, sim::us(5)), false,
                    cap};
    spec.flows.push_back(skewed);
    spec.truth.root_cause_flows.push_back(tuple_of(skewed));
  }

  spec.truth.type = spec.type;
  spec.truth.congestion_ports = {hot};
  spec.truth.expected_cause = diagnosis::ContentionCause::kEcmpImbalance;
  return spec;
}

// ---- Fleet-ops fault scenarios ----

namespace {

std::uint64_t draw_plan_seed(Rng& rng) {
  return static_cast<std::uint64_t>(
      rng.uniform_int(1, std::numeric_limits<std::int64_t>::max() - 1));
}

/// Client/server RPC pattern: `clients` hosts issue Poisson-spaced requests
/// (2-16 KB) to `server`, each answered by a larger (32-256 KB) response
/// after a short service time. Rates are modest so the pattern itself never
/// congests a healthy fabric.
std::vector<FlowSpec> rpc_client_server_flows(const FatTree& ft, Rng& rng,
                                              NodeId server, int clients,
                                              Time start, Time stop) {
  std::vector<FlowSpec> out;
  std::vector<NodeId> used{server};
  std::uint16_t sport = 26000;
  for (int c = 0; c < clients; ++c) {
    const NodeId cl = random_host(ft, rng, used);
    used.push_back(cl);
    double t = static_cast<double>(start + rng.uniform_int(0, sim::us(40)));
    while (t < static_cast<double>(stop)) {
      const std::int64_t req = 2'000 + rng.uniform_int(0, 14'000);
      const std::int64_t resp = 32'000 + rng.uniform_int(0, 224'000);
      out.push_back({cl, server, sport++, 4791, req, static_cast<Time>(t),
                     true, 0});
      // The response leaves after a short service time; 30 G keeps the
      // server's response fan-out from congesting its own uplink.
      out.push_back({server, cl, sport++, 4791, resp,
                     static_cast<Time>(t) + sim::us(20), true, 30.0});
      t += rng.exponential(static_cast<double>(sim::us(150)));
    }
  }
  return out;
}

/// All-to-all shuffle: every ordered pair in `group` exchanges one shard
/// (150-250 KB), starts jittered, per-flow rate capped to a fair NIC share
/// so the shuffle is feasible on a healthy fabric.
std::vector<FlowSpec> all_to_all_flows(const FatTree& ft, Rng& rng,
                                       const std::vector<NodeId>& group,
                                       Time start) {
  std::vector<FlowSpec> out;
  if (group.size() < 2) return out;
  const double line_gbps = ft.topo.link(0).gbps;
  // A fair NIC share per peer (with 20% slack) keeps the healthy shuffle
  // congestion-free: the fault, not the pattern, must be the anomaly.
  const double cap =
      line_gbps / static_cast<double>(group.size() - 1) * 0.8;
  std::uint16_t sport = 27000;
  for (std::size_t i = 0; i < group.size(); ++i) {
    for (std::size_t j = 0; j < group.size(); ++j) {
      if (i == j) continue;
      out.push_back({group[i], group[j], sport++, 4791,
                     150'000 + rng.uniform_int(0, 100'000),
                     start + rng.uniform_int(0, sim::us(30)), true, cap});
    }
  }
  return out;
}

/// Layer the selected net_sanitizer traffic pattern over a fleet-fault
/// scenario. kCrafted leaves the spec alone (the runner's background_flows
/// provide ambient load); the RPC mesh centers on the victim's destination
/// (it plays the server), the shuffle group contains both victim endpoints
/// so pattern traffic genuinely shares the faulted element.
void add_fleet_workload(ScenarioSpec& spec, const FatTree& ft, Rng& rng,
                        FleetWorkload w, NodeId vsrc, NodeId vdst) {
  switch (w) {
    case FleetWorkload::kCrafted:
      return;
    case FleetWorkload::kRpcClientServer: {
      for (const FlowSpec& f : rpc_client_server_flows(
               ft, rng, vdst, 3, sim::us(20), spec.duration - sim::us(200))) {
        spec.flows.push_back(f);
      }
      spec.name += "-rpc";
      return;
    }
    case FleetWorkload::kAllToAll: {
      std::vector<NodeId> group{vsrc, vdst};
      while (group.size() < 5) group.push_back(random_host(ft, rng, group));
      for (const FlowSpec& f : all_to_all_flows(ft, rng, group, sim::us(50))) {
        spec.flows.push_back(f);
      }
      spec.name += "-a2a";
      return;
    }
  }
}

/// Fleet fault class 1 — degraded link: a BER-injected cable on the middle
/// link of the victim's path corrupts frames (CRC drops + go-back-N
/// retransmits). Congestion provenance without incast fan-in; diagnosis
/// must report kDegradedLink at the erroring link.
ScenarioSpec make_degraded_link(const FatTree& ft, const Routing& routing,
                                Rng& rng, FleetWorkload w, double severity) {
  ScenarioSpec spec;
  spec.name = "degraded-link";
  spec.type = AnomalyType::kDegradedLink;
  spec.anomaly_start = sim::us(300) + rng.uniform_int(0, sim::us(200));

  const NodeId v = random_host(ft, rng, {});
  const NodeId dst = random_host(ft, rng, {v}, pod_of_host(ft, v));
  add_victim(spec, rng, v, dst, 40'000'000, sim::us(10), 0);

  const auto [la, lb] = routing.middle_link(spec.victim);
  fault::FaultPlan plan;
  plan.seed = draw_plan_seed(rng);
  fault::DegradedLinkSpec dl;
  dl.node_a = la;
  dl.node_b = lb;
  // ~16% per-MTU-frame corruption: enough consecutive go-back-N failures
  // and tail-loss RTOs inside the trace that the stall scan fires within a
  // few hundred microseconds of onset. (A bad cable does not heal: the
  // window runs to the end of the trace.)
  dl.ber = 2e-5 * severity;
  dl.start = spec.anomaly_start;
  dl.stop = -1;
  plan.degraded_links.push_back(dl);
  spec.faults = plan;

  spec.truth.type = spec.type;
  spec.truth.congestion_ports = {{la, port_to(ft, la, lb)},
                                 {lb, port_to(ft, lb, la)}};
  add_fleet_workload(spec, ft, rng, w, v, dst);
  return spec;
}

/// Fleet fault class 2 — link-speed mismatch: the middle victim-path link
/// negotiated 25 G in a 100 G fabric, a persistent single-port
/// serialization bottleneck (clean FCS, no fan-in).
ScenarioSpec make_speed_mismatch(const FatTree& ft, const Routing& routing,
                                 Rng& rng, FleetWorkload w, double severity) {
  ScenarioSpec spec;
  spec.name = "link-speed-mismatch";
  spec.type = AnomalyType::kLinkSpeedMismatch;
  spec.anomaly_start = sim::us(300) + rng.uniform_int(0, sim::us(200));
  // Deep PFC headroom (the normal-contention convention): the standing
  // queue at the quarter-speed hop builds in the switch buffer and shows
  // up as end-to-end RTT. With default shallow thresholds the mismatch
  // backpressures hop-by-hop to the sender NIC, where today's RTT probe
  // (measured from wire departure) cannot see it.
  spec.xoff_bytes = 8 * 1024 * 1024;
  spec.xon_bytes = 4 * 1024 * 1024;

  const NodeId v = random_host(ft, rng, {});
  const NodeId dst = random_host(ft, rng, {v}, pod_of_host(ft, v));
  // The victim starts with the anomaly window: a line-rate flow hitting a
  // quarter-speed hop queues immediately, which IS the symptom onset (the
  // link itself has been mis-negotiated since boot).
  add_victim(spec, rng, v, dst, 40'000'000, spec.anomaly_start, 0);

  const auto [la, lb] = routing.middle_link(spec.victim);
  fault::FaultPlan plan;
  plan.seed = draw_plan_seed(rng);
  fault::LinkSpeedMismatchSpec sm;
  sm.node_a = la;
  sm.node_b = lb;
  // Geometric decay from nominal: x0.5 severity negotiates half rate,
  // the default a quarter, x2 a sixteenth — always reduced, never zero.
  sm.gbps = ft.topo.link(0).gbps * std::pow(0.25, severity);
  sm.start = 0;  // negotiated slow since boot
  sm.stop = -1;
  plan.speed_mismatches.push_back(sm);
  spec.faults = plan;

  spec.truth.type = spec.type;
  spec.truth.congestion_ports = {{la, port_to(ft, la, lb)},
                                 {lb, port_to(ft, lb, la)}};
  add_fleet_workload(spec, ft, rng, w, v, dst);
  return spec;
}

/// Fleet fault class 3 — host PCIe bottleneck: the victim's destination
/// NIC drains toward host memory far below line rate; RTT inflates with
/// the DMA backlog while no switch pauses (pure victim).
ScenarioSpec make_pcie_bottleneck(const FatTree& ft, Rng& rng,
                                  FleetWorkload w, double severity) {
  ScenarioSpec spec;
  spec.name = "host-pcie-bottleneck";
  spec.type = AnomalyType::kHostPcieBottleneck;
  spec.anomaly_start = sim::us(300) + rng.uniform_int(0, sim::us(200));

  const NodeId v = random_host(ft, rng, {});
  const NodeId dst = random_host(ft, rng, {v}, pod_of_host(ft, v));
  // Application-paced at 30 G: comfortably above the capped drain so the
  // DMA backlog grows without bound, but far below fabric capacity — the
  // sender's go-back-N rewinds (spurious, from drain-delayed ACKs) never
  // congest a switch, keeping the "nobody paused, still slow" signature
  // clean. A line-rate victim would turn its own RTO storm into genuine
  // fabric congestion and present as incast instead.
  add_victim(spec, rng, v, dst, 40'000'000, sim::us(10), 30.0);

  fault::FaultPlan plan;
  plan.seed = draw_plan_seed(rng);
  fault::HostPcieBottleneckSpec hb;
  hb.host = dst;
  // The drain cap falls linearly below the victim's 30 G arrival rate
  // (10 G deficit per unit severity, floored at 2 G): the DMA backlog (and
  // with it every ACK's delay) grows steadily for ANY severity > 0 — RTT
  // blows through the detection threshold shortly after onset, with zero
  // fabric queueing.
  hb.drain_gbps = std::max(2.0, 30.0 - 10.0 * severity);
  hb.start = spec.anomaly_start;
  hb.stop = -1;
  plan.pcie_bottlenecks.push_back(hb);
  spec.faults = plan;

  spec.truth.type = spec.type;
  spec.truth.injecting_host = dst;
  add_fleet_workload(spec, ft, rng, w, v, dst);
  return spec;
}

/// Fleet fault class 4 — oversubscribed down-links: every down-link of the
/// aggregation switch the victim enters its destination pod through runs
/// at half capacity; fan-in traffic shows sustained multi-flow contention
/// on the reduced tier.
ScenarioSpec make_oversubscribed_downlink(const FatTree& ft,
                                          const Routing& routing, Rng& rng,
                                          FleetWorkload w, double severity) {
  ScenarioSpec spec;
  spec.name = "oversubscribed-downlink";
  spec.type = AnomalyType::kOversubscribedDownlink;
  spec.anomaly_start = sim::us(300) + rng.uniform_int(0, sim::us(200));
  // Deep PFC headroom (the normal-contention convention): a capacity
  // shortfall is classic congestion — the standing queue on the reduced
  // down-link must show up as end-to-end RTT at ANY severity, not only
  // when the reduction is harsh enough to drive a shallow buffer to Xoff.
  spec.xoff_bytes = 8 * 1024 * 1024;
  spec.xon_bytes = 4 * 1024 * 1024;

  const NodeId dst = random_host(ft, rng, {});
  const NodeId e_dst = tor_of(ft, dst);
  const int pod = pod_of_host(ft, dst);
  const NodeId v = random_host(ft, rng, {dst}, pod);
  // Application-limited victim: 25 G fits the halved (50 G) down-link on
  // its own, so the pre-contention fabric is healthy even though the tier
  // has been oversubscribed since boot.
  add_victim(spec, rng, v, dst, 6'000'000, sim::us(10), 25.0);

  // The aggregation switch the victim enters the destination pod through;
  // every one of its down-links is reduced by the spec.
  const PortRef via = hop_into(ft, routing, spec.victim, e_dst);

  fault::FaultPlan plan;
  plan.seed = draw_plan_seed(rng);
  fault::OversubscribedDownlinkSpec os;
  os.sw = via.node;
  // 0.5^severity of nominal capacity: stays in (0, 1) for any positive
  // severity, halved at the default.
  os.factor = std::pow(0.5, severity);
  os.start = 0;  // tier-wide misprovisioning, present since boot
  os.stop = -1;
  plan.oversub_downlinks.push_back(os);
  spec.faults = plan;

  // Two remote senders into the ToR sibling of the victim's destination,
  // steered through the same reduced down-link: 25 + 30 + 30 G against its
  // halved 50 G is sustained multi-flow contention, while a healthy 100 G
  // link would carry all three without queueing.
  const NodeId sibling = tor_sibling(ft, dst);
  std::vector<NodeId> used{dst, v, sibling};
  for (int i = 0; i < 2; ++i) {
    const NodeId src = random_host(ft, rng, used, pod);
    used.push_back(src);
    const auto base = static_cast<std::uint16_t>(7000 + 100 * i);
    FlowSpec feeder{src, sibling,
                    steer(routing, src, sibling, via, base).value_or(base),
                    4791, 8'000'000 + rng.uniform_int(0, 500'000),
                    spec.anomaly_start + rng.uniform_int(0, sim::us(5)), false,
                    30.0};
    spec.flows.push_back(feeder);
    spec.truth.root_cause_flows.push_back(tuple_of(feeder));
  }

  spec.truth.type = spec.type;
  spec.truth.congestion_ports = {via};
  add_fleet_workload(spec, ft, rng, w, v, dst);
  return spec;
}

/// Benign trace (AnomalyType::kNone): a healthy victim transfer plus a few
/// light, uncorrelated peers — nothing congests, nothing should trigger.
/// The false-alarm probe of the misdiagnosis hunter: any asserted verdict
/// on this trace is a silent-wrong find by construction.
ScenarioSpec make_benign(const FatTree& ft, Rng& rng) {
  ScenarioSpec spec;
  spec.name = "benign";
  spec.type = AnomalyType::kNone;
  // No anomaly ever starts; the onset marker only anchors scoring math.
  spec.anomaly_start = sim::us(500);

  const NodeId src = random_host(ft, rng, {});
  const NodeId dst = random_host(ft, rng, {src}, pod_of_host(ft, src));
  add_victim(spec, rng, src, dst, 10'000'000, sim::us(10), 0);

  // A handful of light cross-fabric peers: enough concurrent traffic that a
  // trigger-happy detector has something to mis-blame, far too little to
  // congest any port (each is rate-capped well under line rate and the
  // pairs are disjoint).
  std::vector<NodeId> used{src, dst};
  for (int i = 0; i < 3; ++i) {
    const NodeId a = random_host(ft, rng, used);
    used.push_back(a);
    const NodeId b = random_host(ft, rng, used);
    used.push_back(b);
    FlowSpec peer{a, b, static_cast<std::uint16_t>(3000 + 100 * i), 4791,
                  1'000'000 + rng.uniform_int(0, 1'000'000),
                  sim::us(rng.uniform_int(20, 400)), true, 20.0};
    spec.flows.push_back(peer);
  }

  spec.truth.type = AnomalyType::kNone;
  return spec;
}

// Long 100 MB+ flows cannot complete inside millisecond traces; background
// flows clamp to 2 MB so the Poisson arrival rate stays meaningful while
// keeping the mice-heavy shape (DESIGN.md, substitutions).
constexpr std::int64_t kBackgroundCapBytes = 2'000'000;

}  // namespace

std::string_view to_string(FleetWorkload w) {
  switch (w) {
    case FleetWorkload::kCrafted: return "crafted";
    case FleetWorkload::kRpcClientServer: return "rpc";
    case FleetWorkload::kAllToAll: return "all-to-all";
  }
  return "?";
}

ScenarioSpec make_scenario(AnomalyType type, const FatTree& ft,
                           const Routing& routing, Rng& rng, FleetWorkload w,
                           double severity) {
  switch (type) {
    case AnomalyType::kNone:
      return make_benign(ft, rng);
    case AnomalyType::kMicroBurstIncast:
      return make_incast_burst(ft, routing, rng);
    case AnomalyType::kPfcStorm:
      return make_pfc_storm(ft, rng);
    case AnomalyType::kInLoopDeadlock:
      return make_inloop_deadlock(ft, routing, rng);
    case AnomalyType::kOutOfLoopDeadlockContention:
      return make_outofloop_deadlock(ft, routing, rng, false);
    case AnomalyType::kOutOfLoopDeadlockInjection:
      return make_outofloop_deadlock(ft, routing, rng, true);
    case AnomalyType::kNormalContention:
      return make_normal_contention(ft, rng);
    case AnomalyType::kDegradedLink:
      return make_degraded_link(ft, routing, rng, w, severity);
    case AnomalyType::kLinkSpeedMismatch:
      return make_speed_mismatch(ft, routing, rng, w, severity);
    case AnomalyType::kHostPcieBottleneck:
      return make_pcie_bottleneck(ft, rng, w, severity);
    case AnomalyType::kOversubscribedDownlink:
      return make_oversubscribed_downlink(ft, routing, rng, w, severity);
  }
  throw std::invalid_argument("make_scenario: unsupported type");
}

std::vector<device::FlowSpec> background_flows(const FatTree& ft, Rng& rng,
                                               double load, Time start,
                                               Time stop) {
  std::vector<FlowSpec> out;
  if (load <= 0) return out;
  // The truncated mean flow size, estimated once from a fixed probe stream.
  static const double mean_bytes = [] {
    sim::Rng probe(12345);
    double sum = 0;
    for (int i = 0; i < 2000; ++i) {
      sum += static_cast<double>(
          std::min(sample_flow_size(probe), kBackgroundCapBytes));
    }
    return sum / 2000;
  }();
  const double line_gbps = ft.topo.link(0).gbps;
  const double agg_bits_per_ns =
      load * static_cast<double>(ft.hosts.size()) * line_gbps;
  const double mean_gap_ns = mean_bytes * 8.0 / agg_bits_per_ns;

  double t = static_cast<double>(start);
  std::uint16_t sport = 20000;
  while (true) {
    t += rng.exponential(mean_gap_ns);
    if (t >= static_cast<double>(stop)) break;
    const NodeId src = random_host(ft, rng, {});
    const NodeId dst = random_host(ft, rng, {src});
    out.push_back({src, dst, sport++, 4791,
                   std::min(sample_flow_size(rng), kBackgroundCapBytes),
                   static_cast<Time>(t), true, 0});
  }
  return out;
}

}  // namespace hawkeye::workload