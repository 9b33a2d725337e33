#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <mutex>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "net/topology.hpp"
#include "net/types.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace hawkeye::fault {

/// Deterministic fault-injection substrate for the collection pipeline.
///
/// Hawkeye's own telemetry path is best-effort by design: polling packets
/// ride a droppable class, switch CPUs can be too overloaded to finish a
/// DMA snapshot, and per-switch agents crash and restart. Collie (NSDI'22)
/// showed the diagnostic stack itself is a major anomaly source; this
/// module lets the evaluation inject exactly those failures while keeping
/// runs reproducible — every probabilistic decision is a stateless
/// counter-hash of (plan seed, fault site, the event's stable attributes,
/// simulated time). No draw depends on how many draws happened before it,
/// so a fixed FaultPlan yields the same fault trace regardless of event
/// *execution* order, and sweeps stay deterministic under eval::run_sweep's
/// thread pool. Accounting is mutex-guarded and commutative (sums, min/max,
/// sorted sets), so the recorded totals do not depend on the order the
/// hooks fire in.
///
/// All hooks are reached through a nullable FaultInjector pointer on the
/// device/collect objects: with no injector installed the fault paths cost
/// one branch and draw no randomness, so fault-free runs are byte-identical
/// to a build without this module.
///
/// Each spec struct below is followed by its `fields(spec, f)` list: one
/// `f(key, member)` call per member, in case-file order (the `<key>` of
/// eval/scenario_io's `faults.<family>.<i>.<key>` lines). It takes the spec
/// const or mutable, so writers and readers share one list.

/// `S` is `T` or `const T`.
template <typename S, typename T>
concept MaybeConst = std::same_as<std::remove_const_t<S>, T>;

/// Faults on polling packets (and their PFC-causality clones) arriving at
/// a switch. Probabilities are per polling-packet arrival; at most one
/// action fires per arrival (drop wins over duplicate over delay).
struct PollFaultSpec {
  /// Target switch; net::kInvalidNode means every switch.
  net::NodeId sw = net::kInvalidNode;
  double drop_prob = 0;
  double duplicate_prob = 0;
  double delay_prob = 0;
  /// Extra latency applied when the delay fault fires.
  sim::Time delay_ns = sim::us(100);
  /// Active window [start, stop); stop < 0 means until the end of the run.
  sim::Time start = 0;
  sim::Time stop = -1;
};

template <MaybeConst<PollFaultSpec> S, typename F>
void fields(S& s, F&& f) {
  f("sw", s.sw);
  f("drop_prob", s.drop_prob);
  f("duplicate_prob", s.duplicate_prob);
  f("delay_prob", s.delay_prob);
  f("delay_ns", s.delay_ns);
  f("start", s.start);
  f("stop", s.stop);
}

/// Faults on the controller-assisted register snapshot (switch-CPU DMA,
/// paper §3.4). `fail` models an overloaded CPU never completing the read;
/// `stale` models the read completing late — by then the epoch ring has
/// been partially recycled, which the Collector detects via epoch IDs and
/// rejects (ring-overwrite guard).
struct DmaFaultSpec {
  net::NodeId sw = net::kInvalidNode;  // kInvalidNode => every switch
  double fail_prob = 0;
  double stale_prob = 0;
  /// Extra snapshot latency when the stale fault fires.
  sim::Time extra_delay = sim::ms(1);
  sim::Time start = 0;
  sim::Time stop = -1;
};

template <MaybeConst<DmaFaultSpec> S, typename F>
void fields(S& s, F&& f) {
  f("sw", s.sw);
  f("fail_prob", s.fail_prob);
  f("stale_prob", s.stale_prob);
  f("extra_delay", s.extra_delay);
  f("start", s.start);
  f("stop", s.stop);
}

/// A HawkeyeSwitchAgent outage (agent crash/restart): during [start, stop)
/// the switch behaves like a non-Hawkeye switch and drops polling packets.
/// kInvalidNode blacks out every agent; stop < 0 means until the end of the
/// run — the same window sentinel as every other spec (a default-constructed
/// blackout is therefore permanently active, not silently inert).
struct AgentBlackout {
  net::NodeId sw = net::kInvalidNode;
  sim::Time start = 0;
  sim::Time stop = -1;
};

template <MaybeConst<AgentBlackout> S, typename F>
void fields(S& s, F&& f) {
  f("sw", s.sw);
  f("start", s.start);
  f("stop", s.stop);
}

/// A physical link flapping: the link is dead during one or more down
/// windows inside [start, stop). In-flight packets on the link are dropped,
/// the transmitters on both ends stall, and routing keeps forwarding into
/// the dead port — no reconvergence, because the resulting black hole /
/// backpressure IS the anomaly Hawkeye should diagnose (Collie NSDI'22).
///
/// `period_ns == 0` gives a single outage of `down_ns` at `start`. With a
/// period, the link goes down once per period for `down_ns`; `jitter > 0`
/// shifts each outage by a seeded-uniform offset within its period (a
/// random flap train). The whole schedule is precomputed at injector
/// construction from the plan seed, so runtime queries are pure and the
/// event-ordered fault stream is untouched.
///
/// Leaving both endpoints at kInvalidNode marks the spec as a placeholder:
/// the evaluation runner binds it to a link on the crafted victim's path
/// once the scenario (and hence the victim route) is known.
struct LinkFlapSpec {
  net::NodeId node_a = net::kInvalidNode;
  net::NodeId node_b = net::kInvalidNode;
  sim::Time start = 0;
  sim::Time stop = -1;     // < 0 => flap train runs to the end of the run
  sim::Time down_ns = sim::us(100);
  sim::Time period_ns = 0; // 0 => single outage at `start`
  double jitter = 0;       // fraction of the idle gap randomized, [0, 1]

  /// Routing reconvergence hold-down (PR 4). 0 keeps routing frozen — the
  /// pre-reconvergence behaviour, byte-identical to PR 3 runs. A positive
  /// value means: `holddown_ns` after the link goes down, the two endpoint
  /// switches withdraw the dead port from their ECMP candidate sets
  /// (net::Routing::disable_port); outages shorter than the hold-down never
  /// reconverge, exactly like a real hold-down/dampening timer.
  sim::Time holddown_ns = 0;
  /// Hold-down before the port is restored after link-up; < 0 (default)
  /// means "same as holddown_ns". Ignored while holddown_ns == 0.
  sim::Time restore_holddown_ns = -1;

  bool reconverges() const { return holddown_ns > 0; }
  sim::Time restore_holddown() const {
    return restore_holddown_ns < 0 ? holddown_ns : restore_holddown_ns;
  }
};

template <MaybeConst<LinkFlapSpec> S, typename F>
void fields(S& s, F&& f) {
  f("node_a", s.node_a);
  f("node_b", s.node_b);
  f("start", s.start);
  f("stop", s.stop);
  f("down_ns", s.down_ns);
  f("period_ns", s.period_ns);
  f("jitter", s.jitter);
  f("holddown_ns", s.holddown_ns);
  f("restore_holddown_ns", s.restore_holddown_ns);
}

/// Per-port probabilistic loss/delay of PFC pause/resume frames on the
/// wire (Mittal et al., SIGCOMM'18: corrupted pause signaling). A lost
/// RESUME leaves the paused peer frozen until its pause quanta age out; a
/// lost PAUSE lets the upstream keep transmitting into a full ingress,
/// whose overflow drops are accounted under DropReason::kPfcLoss so
/// losslessness assertions can tell injected signal loss from model bugs.
struct PfcFrameFaultSpec {
  /// Device that SENT the frame; kInvalidNode matches every sender.
  net::NodeId sw = net::kInvalidNode;
  /// Port the frame left from; kInvalidPort matches every port.
  net::PortId port = net::kInvalidPort;
  double loss_prob = 0;
  double delay_prob = 0;
  sim::Time delay_ns = sim::us(20);
  bool affect_pause = true;   // quanta > 0 frames
  bool affect_resume = true;  // quanta == 0 frames
  sim::Time start = 0;
  sim::Time stop = -1;
};

template <MaybeConst<PfcFrameFaultSpec> S, typename F>
void fields(S& s, F&& f) {
  f("sw", s.sw);
  f("port", s.port);
  f("loss_prob", s.loss_prob);
  f("delay_prob", s.delay_prob);
  f("delay_ns", s.delay_ns);
  f("affect_pause", s.affect_pause);
  f("affect_resume", s.affect_resume);
  f("start", s.start);
  f("stop", s.stop);
}

/// Noise on the RTT samples feeding the DetectionAgent (flaky host timer /
/// congested PCIe — the detector's own sensor misbehaving). Each sample is
/// inflated with probability `prob` by a factor in [1, 1 + magnitude].
struct RttJitterSpec {
  double prob = 0;
  double magnitude = 0;
};

template <MaybeConst<RttJitterSpec> S, typename F>
void fields(S& s, F&& f) {
  f("prob", s.prob);
  f("magnitude", s.magnitude);
}

/// Fleet-ops fault class 1 — a degraded cable (net_sanitizer's "bad cable"):
/// a raw bit-error rate on one link. Every frame crossing the link draws a
/// seeded per-packet corruption verdict with probability
/// min(1, ber * frame_bits); a corrupted frame fails its FCS check at the
/// receiving MAC and is dropped (DropReason::kCrc), which the sender's
/// go-back-N recovery then repairs with retransmits — so congestion
/// provenance appears on the path *without* a matching incast fan-in, the
/// Table-2 signature row for this class. The per-link CRC counters the
/// injector keeps are the modeled MAC FCS error registers an operator's
/// fleet-health pipeline would export.
///
/// Leaving both endpoints at kInvalidNode marks a placeholder the runner
/// binds to a link on the crafted victim's path (same contract as
/// LinkFlapSpec).
struct DegradedLinkSpec {
  net::NodeId node_a = net::kInvalidNode;
  net::NodeId node_b = net::kInvalidNode;
  /// Raw bit-error rate; a 1000 B MTU frame is corrupted with probability
  /// min(1, ber * 8000). RDMA fabrics alarm around 1e-12; injectable rates
  /// here are orders of magnitude higher so a ms-scale run shows the
  /// signature.
  double ber = 0;
  sim::Time start = 0;
  sim::Time stop = -1;
};

template <MaybeConst<DegradedLinkSpec> S, typename F>
void fields(S& s, F&& f) {
  f("node_a", s.node_a);
  f("node_b", s.node_b);
  f("ber", s.ber);
  f("start", s.start);
  f("stop", s.stop);
}

/// Fleet-ops fault class 2 — link-speed mismatch: one link negotiated at a
/// lower rate than the fabric's nominal speed (a 25G optic in a 100G
/// fabric). Serialization on the link runs at `gbps` while routing, the
/// detector's RTT baselines and every capacity assumption still use the
/// nominal topology speed — exactly the misconfiguration semantics: the
/// fabric *thinks* the link is fast. The resulting persistent single-port
/// serialization bottleneck (stable across episodes, no CRC errors, no
/// incast fan-in) is this class's Table-2 signature.
///
/// Both endpoints kInvalidNode = placeholder bound by the runner.
struct LinkSpeedMismatchSpec {
  net::NodeId node_a = net::kInvalidNode;
  net::NodeId node_b = net::kInvalidNode;
  double gbps = 25.0;  // negotiated (actual) speed, below nominal
  sim::Time start = 0;
  sim::Time stop = -1;
};

template <MaybeConst<LinkSpeedMismatchSpec> S, typename F>
void fields(S& s, F&& f) {
  f("node_a", s.node_a);
  f("node_b", s.node_b);
  f("gbps", s.gbps);
  f("start", s.start);
  f("stop", s.stop);
}

/// Fleet-ops fault class 3 — host-side PCIe bottleneck: the receiving NIC
/// can only DMA toward host memory at `drain_gbps`. Arriving data queues in
/// a drain FIFO and the ACK leaves only when the DMA completes, so senders
/// see RTT inflate with the backlog while *no* switch pauses and no queue
/// builds in the fabric — the host looks like a pure victim with no paused
/// upstream, this class's Table-2 signature. Entirely deterministic (a rate
/// cap, no randomness).
struct HostPcieBottleneckSpec {
  net::NodeId host = net::kInvalidNode;  // kInvalidNode => every host
  double drain_gbps = 8.0;               // well under a 100G line rate
  sim::Time start = 0;
  sim::Time stop = -1;
};

template <MaybeConst<HostPcieBottleneckSpec> S, typename F>
void fields(S& s, F&& f) {
  f("host", s.host);
  f("drain_gbps", s.drain_gbps);
  f("start", s.start);
  f("stop", s.stop);
}

/// Fleet-ops fault class 4 — oversubscribed down-links: the down-links of
/// `sw` (an aggregation or edge switch; kInvalidNode = every aggregation
/// switch) run at `factor` of their nominal capacity. Unlike a single
/// speed-mismatched port, a whole tier of sibling down-links is reduced, so
/// fan-in traffic shows *sustained multi-flow contention on down-links* —
/// the Table-2 signature separating oversubscription from a lone bad optic.
/// The testbed expands this topology-level spec into per-link rate
/// overrides once it knows the fabric's tier structure.
struct OversubscribedDownlinkSpec {
  net::NodeId sw = net::kInvalidNode;
  double factor = 0.5;  // fraction of nominal capacity, in (0, 1)
  sim::Time start = 0;
  sim::Time stop = -1;
};

template <MaybeConst<OversubscribedDownlinkSpec> S, typename F>
void fields(S& s, F&& f) {
  f("sw", s.sw);
  f("factor", s.factor);
  f("start", s.start);
  f("stop", s.stop);
}

/// Families whose specs name one link by its two endpoints. Leaving both at
/// kInvalidNode marks a placeholder the runner binds to a link on the
/// crafted victim's path; exactly one bound endpoint is invalid.
template <typename S>
concept LinkSpec = requires(S& s) {
  s.node_a;
  s.node_b;
};

struct FaultPlan {
  std::uint64_t seed = 1;
  std::vector<PollFaultSpec> poll_faults;
  std::vector<DmaFaultSpec> dma_faults;
  std::vector<AgentBlackout> blackouts;
  std::vector<LinkFlapSpec> link_flaps;
  std::vector<PfcFrameFaultSpec> pfc_faults;
  RttJitterSpec rtt_jitter;
  // Fleet-ops fault classes (net_sanitizer's field pathologies).
  std::vector<DegradedLinkSpec> degraded_links;
  std::vector<LinkSpeedMismatchSpec> speed_mismatches;
  std::vector<HostPcieBottleneckSpec> pcie_bottlenecks;
  std::vector<OversubscribedDownlinkSpec> oversub_downlinks;

  /// The nine fault families in case-file order: `f(key, label, specs)`
  /// per family, with its case-file key (`faults.<key>.<i>.<field>`), the
  /// label validate() reports it under, and its spec vector (const when
  /// `plan` is). enabled(), validate(), the case-file codec, overlay
  /// window scaling and victim-path binding iterate this table, so a new
  /// family needs only its struct, its `fields` list, one line here, its
  /// validate() parameter check and its injector hooks.
  template <MaybeConst<FaultPlan> Plan, typename F>
  static void families(Plan& plan, F&& f) {
    f("poll", "poll fault", plan.poll_faults);
    f("dma", "dma fault", plan.dma_faults);
    f("blackout", "blackout", plan.blackouts);
    f("flap", "link flap", plan.link_flaps);
    f("pfc", "pfc frame fault", plan.pfc_faults);
    f("degraded", "degraded link", plan.degraded_links);
    f("speed", "speed mismatch", plan.speed_mismatches);
    f("pcie", "pcie bottleneck", plan.pcie_bottlenecks);
    f("oversub", "oversubscribed downlink", plan.oversub_downlinks);
  }

  bool enabled() const {
    bool any = rtt_jitter.prob > 0;
    families(*this, [&any](auto, auto, const auto& v) { any |= !v.empty(); });
    return any;
  }

  /// True if the plan reaches below the telemetry layer into the fabric
  /// (link flaps / PFC frame faults / fleet-ops classes) — the data-plane
  /// robustness axes.
  bool dataplane_enabled() const {
    return !link_flaps.empty() || !pfc_faults.empty() || fleet_enabled();
  }

  /// True if any fleet-ops fault class (degraded link, speed mismatch,
  /// PCIe bottleneck, oversubscription) is configured.
  bool fleet_enabled() const {
    return !degraded_links.empty() || !speed_mismatches.empty() ||
           !pcie_bottlenecks.empty() || !oversub_downlinks.empty();
  }

  /// Structural sanity check: empty string when the plan is installable,
  /// otherwise a description of the first problem (inverted/empty window,
  /// out-of-range probability, half-bound flap endpoints...). Testbed
  /// installation rejects invalid plans so a window typo fails loudly
  /// instead of silently never firing.
  std::string validate() const;

  /// Convenience: uniform polling-packet loss at every switch (the
  /// robustness sweep's primary axis).
  static FaultPlan uniform_poll_loss(double drop_prob, std::uint64_t seed);

  /// Convenience: uniform PFC pause/resume loss on every port (the
  /// data-plane robustness sweep's primary axis).
  static FaultPlan uniform_pfc_loss(double loss_prob, std::uint64_t seed);

  /// Convenience: one unbound link-flap train the runner pins to the
  /// crafted victim's path — 100 us outages from t = 100 us, once per
  /// `period_ns` with jitter 0.5; `holddown_ns > 0` lets routing reconverge
  /// (the data-plane flap and path-churn sweeps' axis).
  static FaultPlan victim_path_flaps(sim::Time period_ns,
                                     sim::Time holddown_ns,
                                     std::uint64_t seed);
};

/// One link's fleet-health counters — what an operator's fleet pipeline
/// exports (MAC FCS error registers, negotiated port speeds).
struct LinkCounterEvidence {
  net::NodeId node_a = net::kInvalidNode;
  net::NodeId node_b = net::kInvalidNode;
  /// MAC FCS error register delta over the run.
  std::uint64_t crc_errors = 0;
  /// Configured (expected) port speed vs the negotiated/actual one.
  double nominal_gbps = 0;
  double actual_gbps = 0;
  /// Frames observed serializing below the nominal rate.
  std::uint64_t slow_serializations = 0;
  /// The speed reduction came from a tier-wide (oversubscription) spec,
  /// not a lone port: set when several sibling down-links share it.
  bool oversub_tier = false;

  bool reduced(double ratio) const {
    return nominal_gbps > 0 && actual_gbps < ratio * nominal_gbps;
  }
};

/// One host NIC's fleet-health counters (DMA drain gauges).
struct HostCounterEvidence {
  net::NodeId host = net::kInvalidNode;
  /// Frames whose ACK waited behind the capped DMA drain FIFO.
  std::uint64_t drain_delayed_pkts = 0;
  /// DMA backlog high-water mark (ns of queued drain work).
  sim::Time max_drain_backlog_ns = 0;
};

/// Everything the fleet-health pipeline knows about the fabric for one
/// episode (FaultInjector::fleet_evidence). Empty evidence =>
/// diagnosis::refine_fleet_verdict is the identity.
struct FleetEvidence {
  std::vector<LinkCounterEvidence> links;
  std::vector<HostCounterEvidence> hosts;
  /// Go-back-N retransmissions issued by the victim's sender NIC.
  std::uint64_t sender_retransmissions = 0;

  bool empty() const { return links.empty() && hosts.empty(); }
};

enum class PollAction : std::uint8_t { kDeliver, kDrop, kDuplicate, kDelay };

struct PollVerdict {
  PollAction action = PollAction::kDeliver;
  sim::Time delay_ns = 0;
};

struct DmaVerdict {
  bool failed = false;
  sim::Time extra_delay = 0;
};

struct PfcVerdict {
  bool dropped = false;
  sim::Time extra_delay = 0;
};

class FaultInjector {
 public:
  struct DownWindow {
    sim::Time t0 = 0;
    sim::Time t1 = 0;
  };
  /// The precomputed outage windows of one bound LinkFlapSpec, plus the
  /// spec's reconvergence hold-downs — everything the reconvergence driver
  /// (device::Network::schedule_reconvergence) needs to arm its routing
  /// withdraw/restore events up front.
  struct FlapSchedule {
    net::NodeId a = net::kInvalidNode;
    net::NodeId b = net::kInvalidNode;
    std::vector<DownWindow> windows;  // sorted, non-overlapping
    sim::Time holddown_ns = 0;        // 0 => routing stays frozen
    sim::Time restore_holddown_ns = 0;
  };

  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
    build_flap_schedule();
    build_rate_overrides();
  }

  const FaultPlan& plan() const { return plan_; }

  /// A polling packet for `victim` arrived at switch `sw`. Draws at most
  /// one uniform variate when a spec covers (sw, now).
  PollVerdict on_polling(net::NodeId sw, const net::FiveTuple& victim,
                         sim::Time now);

  /// Is the switch's Hawkeye agent blacked out at `now`? (No randomness.)
  bool agent_down(net::NodeId sw, sim::Time now) const;

  /// Record a polling packet lost to a blackout (per-victim accounting).
  void note_blackout_drop(const net::FiveTuple& victim);

  /// The switch CPU was asked for a register snapshot at `now`.
  DmaVerdict on_dma(net::NodeId sw, sim::Time now);

  /// Pass an RTT sample through the jitter model (identity when disabled).
  /// The flow and the sample time key the draw, so jitter on one sample is
  /// independent of every other sample yet reproducible run-to-run.
  sim::Time jitter_rtt(sim::Time rtt, const net::FiveTuple& flow,
                       sim::Time now);

  /// Any link-flap windows scheduled? Lets the switch transmit path skip
  /// the peer lookup entirely when only collection faults are configured.
  bool has_link_faults() const { return !flaps_.empty(); }

  /// Is the (a, b) link dead at `now`? Endpoint order is irrelevant; pure
  /// (no randomness — the schedule was fixed at construction).
  bool link_down(net::NodeId a, net::NodeId b, sim::Time now) const;

  /// End of the down window covering `now` on link (a, b); `now` if the
  /// link is up. Switches use it to arm their transmitter wake-up.
  sim::Time link_down_until(net::NodeId a, net::NodeId b,
                            sim::Time now) const;

  /// A packet died on the dead (a, b) link (send- or arrival-edge).
  /// Polling packets count toward the victim's collection-fault tally like
  /// any other substrate hit; every loss stamps the data-plane fault epoch
  /// and marks the link as having actually bitten (links_hit).
  void note_link_drop(net::NodeId a, net::NodeId b, const net::Packet& pkt,
                      sim::Time now);

  /// A transmitter found its egress link (a, b) dead and stalled (once per
  /// port per outage) — impact truth even when nothing was in flight to
  /// drop.
  void note_link_stall(net::NodeId a, net::NodeId b, sim::Time now) {
    note_link_hit(a, b);
    note_dataplane_fault(now);
  }

  /// Links whose injected faults actually bit (drop or stall), as
  /// endpoint-normalized (min, max) pairs in sorted order — deterministic
  /// regardless of which execution thread recorded each hit first. A
  /// schedule that never intersected live traffic is absent: the basis for
  /// victim-path-aware fault attribution in the benches. Take a copy for
  /// thread safety; by the time benches read this the run has quiesced.
  std::vector<std::pair<net::NodeId, net::NodeId>> links_hit() const {
    std::lock_guard<std::mutex> lk(mu_);
    return links_hit_;
  }

  /// Precomputed flap schedules (bound specs only), with their hold-downs.
  const std::vector<FlapSchedule>& flap_schedules() const { return flaps_; }

  /// True when any bound flap spec asks for routing reconvergence.
  bool reconvergence_enabled() const {
    for (const FlapSchedule& f : flaps_) {
      if (f.holddown_ns > 0) return true;
    }
    return false;
  }

  /// A PFC frame with `quanta` left (`from`, `port`). Draws at most one
  /// uniform variate when a spec covers it; loss wins over delay.
  PfcVerdict on_pfc_frame(net::NodeId from, net::PortId port,
                          std::uint32_t quanta, sim::Time now);

  /// PAUSE frames sent by `sw` that the injector ate. Non-zero means an
  /// ingress overflow at `sw` is the expected consequence of injected
  /// signal loss, not a headroom bug — the switch uses this to pick the
  /// drop reason.
  std::uint64_t pause_frames_lost(net::NodeId sw) const;

  // --- Fleet-ops fault class 1: degraded link (BER -> CRC drops) ---

  /// Any degraded-link specs bound? Lets the wire path skip the spec scan
  /// entirely in plans without this class.
  bool has_degraded_links() const {
    for (const DegradedLinkSpec& s : plan_.degraded_links) {
      if (s.node_a != net::kInvalidNode && s.node_b != net::kInvalidNode) {
        return true;
      }
    }
    return false;
  }

  /// A frame is crossing the (a, b) wire at `now`. Draws one uniform
  /// variate when a degraded-link spec covers the link; true means the
  /// frame was corrupted and fails its FCS check (caller drops it as
  /// DropReason::kCrc). Accounting (total + per-link MAC CRC counters,
  /// victim tally for polling frames, data-plane fault epoch) happens here.
  bool on_wire_crc(net::NodeId a, net::NodeId b, const net::Packet& pkt,
                   sim::Time now);

  std::uint64_t crc_drops() const { return read(crc_drops_); }

  // --- Fleet-ops classes 2 + 4: per-link rate overrides ---

  /// Register a rate override (setup-time only, before the run starts):
  /// the (a, b) wire actually runs at `gbps` during [start, stop).
  /// Testbed::install_faults calls this per down-link of an expanded
  /// OversubscribedDownlinkSpec (`oversub`); bound LinkSpeedMismatchSpecs
  /// register themselves at construction.
  void bind_rate_override(net::NodeId a, net::NodeId b, double gbps,
                          sim::Time start, sim::Time stop, bool oversub);

  bool has_rate_overrides() const { return !rate_overrides_.empty(); }

  /// Actual serialization rate of the (a, b) wire at `now`; `nominal` when
  /// no override covers it. Pure (no randomness, no lock).
  double link_gbps(net::NodeId a, net::NodeId b, double nominal,
                   sim::Time now) const;

  /// A frame was serialized on (a, b) below the nominal rate — impact
  /// truth plus the "observed slow serializations" evidence counter.
  void note_rate_limited(net::NodeId a, net::NodeId b, sim::Time now);

  std::uint64_t rate_limited_pkts() const { return read(rate_limited_pkts_); }

  // --- Fleet-ops fault class 3: host PCIe drain cap ---

  bool has_host_faults() const { return !plan_.pcie_bottlenecks.empty(); }

  /// Ingress drain cap of `host` at `now`; 0 when uncapped. Pure.
  double host_drain_gbps(net::NodeId host, sim::Time now) const;

  /// An arriving frame at `host` waited `backlog_ns` behind the capped
  /// drain FIFO before its ACK could leave.
  void note_host_drain_delay(net::NodeId host, sim::Time backlog_ns,
                             sim::Time now);

  std::uint64_t host_drain_delayed() const {
    return read(host_drain_delayed_);
  }

  /// The fleet-health view of the fabric at `at`, read under one lock.
  /// Links: every rate override in bind order, then every other link with
  /// CRC errors, sorted by endpoints. Hosts: `victim_dst`, then each PCIe
  /// spec's host, once each, skipping hosts no frame waited at. Leaves
  /// sender_retransmissions 0 (a host counter, not an injector one).
  FleetEvidence fleet_evidence(const net::Topology& topo,
                               net::NodeId victim_dst, sim::Time at) const;

  /// Injected data-plane ground truth: did any fabric-level fault actually
  /// bite (drop, stall, eaten/delayed PFC frame), and when. Benches score
  /// wrong verdicts against this window instead of calling them silent
  /// misses. -1 until the first fault fires.
  bool dataplane_fault_fired() const {
    return first_dataplane_fault() >= 0;
  }
  sim::Time first_dataplane_fault() const {
    std::lock_guard<std::mutex> lk(mu_);
    return first_dataplane_fault_;
  }
  sim::Time last_dataplane_fault() const {
    std::lock_guard<std::mutex> lk(mu_);
    return last_dataplane_fault_;
  }

  /// Collection faults (drops, blackout losses) observed for this victim's
  /// polling packets — the per-episode "was my telemetry substrate hit"
  /// signal behind degraded-mode verdicts.
  std::uint32_t faults_for(const net::FiveTuple& victim) const;

  std::uint64_t polls_dropped() const { return read(polls_dropped_); }
  std::uint64_t blackout_drops() const { return read(blackout_drops_); }
  std::uint64_t dma_failed() const { return read(dma_failed_); }
  std::uint64_t dma_stale() const { return read(dma_stale_); }
  std::uint64_t rtt_jittered() const { return read(rtt_jittered_); }
  std::uint64_t link_drops() const { return read(link_drops_); }
  std::uint64_t pfc_pause_lost() const { return read(pfc_pause_lost_); }
  std::uint64_t pfc_resume_lost() const { return read(pfc_resume_lost_); }
  std::uint64_t pfc_frames_delayed() const {
    return read(pfc_frames_delayed_);
  }

 private:
  /// A resolved "this wire actually runs at `gbps`" entry: a bound
  /// LinkSpeedMismatchSpec or one bind_rate_override call. Setup-time
  /// only — the vector is immutable once the simulation starts, so
  /// link_gbps() takes no lock.
  struct RateOverride {
    net::NodeId a = net::kInvalidNode;
    net::NodeId b = net::kInvalidNode;
    double gbps = 0;
    sim::Time start = 0;
    sim::Time stop = -1;
    bool oversub = false;  // came from an OversubscribedDownlinkSpec
  };

  const PollFaultSpec* poll_spec(net::NodeId sw, sim::Time now) const;
  const DmaFaultSpec* dma_spec(net::NodeId sw, sim::Time now) const;
  void build_flap_schedule();
  void build_rate_overrides();
  const DownWindow* down_window(net::NodeId a, net::NodeId b,
                                sim::Time now) const;
  void note_dataplane_fault_locked(sim::Time now);
  void note_dataplane_fault(sim::Time now);
  void note_link_hit(net::NodeId a, net::NodeId b);
  bool links_hit_sorted_contains(net::NodeId a, net::NodeId b) const;
  void links_hit_insert_sorted(net::NodeId a, net::NodeId b);
  std::uint64_t read(const std::uint64_t& counter) const {
    std::lock_guard<std::mutex> lk(mu_);
    return counter;
  }

  const DegradedLinkSpec* degraded_spec(net::NodeId a, net::NodeId b,
                                        sim::Time now) const;
  /// Endpoint-normalized 64-bit key for per-link maps.
  static std::uint64_t link_key(net::NodeId a, net::NodeId b) {
    const auto mm = std::minmax(a, b);
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(mm.first))
            << 32) |
           static_cast<std::uint32_t>(mm.second);
  }

  FaultPlan plan_;
  std::vector<FlapSchedule> flaps_;
  std::vector<RateOverride> rate_overrides_;  // immutable once running
  /// Guards every mutable accounting field below. All updates are
  /// commutative (sums, min/max, sorted-set insert), so the totals do not
  /// depend on the order the hooks fire in. The verdict draws themselves
  /// are stateless hashes and take no lock.
  mutable std::mutex mu_;
  std::vector<std::pair<net::NodeId, net::NodeId>> links_hit_;
  std::unordered_map<net::FiveTuple, std::uint32_t> victim_faults_;
  std::unordered_map<net::NodeId, std::uint64_t> pause_lost_by_;
  std::uint64_t polls_dropped_ = 0;
  std::uint64_t blackout_drops_ = 0;
  std::uint64_t dma_failed_ = 0;
  std::uint64_t dma_stale_ = 0;
  std::uint64_t rtt_jittered_ = 0;
  std::uint64_t link_drops_ = 0;
  std::uint64_t pfc_pause_lost_ = 0;
  std::uint64_t pfc_resume_lost_ = 0;
  std::uint64_t pfc_frames_delayed_ = 0;
  std::uint64_t crc_drops_ = 0;
  std::uint64_t rate_limited_pkts_ = 0;
  std::uint64_t host_drain_delayed_ = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> crc_by_link_;
  std::unordered_map<std::uint64_t, std::uint64_t> rate_limited_by_link_;
  std::unordered_map<net::NodeId, std::uint64_t> drain_delayed_by_host_;
  std::unordered_map<net::NodeId, sim::Time> drain_backlog_by_host_;
  sim::Time first_dataplane_fault_ = -1;
  sim::Time last_dataplane_fault_ = -1;
};

}  // namespace hawkeye::fault
