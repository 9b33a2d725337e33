#include "fault/fault.hpp"

#include <algorithm>
#include <initializer_list>
#include <limits>
#include <string_view>

namespace hawkeye::fault {

namespace {
bool window_ok(sim::Time start, sim::Time stop) {
  return start >= 0 && (stop < 0 || stop > start);
}

bool prob_ok(double p) { return p >= 0.0 && p <= 1.0; }

/// Probabilities of mutually exclusive outcomes: each in [0, 1], sum <= 1.
bool probs_ok(std::initializer_list<double> ps) {
  double sum = 0;
  for (const double p : ps) {
    if (!prob_ok(p)) return false;
    sum += p;
  }
  return sum <= 1.0;
}

bool half_bound(const auto&) { return false; }
bool half_bound(const LinkSpec auto& s) {
  return (s.node_a == net::kInvalidNode) != (s.node_b == net::kInvalidNode);
}

/// Both endpoints set; anything else is a placeholder the injector ignores.
bool bound(const LinkSpec auto& s) {
  return s.node_a != net::kInvalidNode && s.node_b != net::kInvalidNode;
}

/// Per-family parameter checks: nullptr when the spec's parameters are in
/// range, else what is wrong. validate() checks windows, link endpoints and
/// overlaps for every family alike.
const char* param_error(const PollFaultSpec& s) {
  return probs_ok({s.drop_prob, s.duplicate_prob, s.delay_prob})
             ? nullptr
             : "probabilities out of range";
}

const char* param_error(const DmaFaultSpec& s) {
  return probs_ok({s.fail_prob, s.stale_prob}) ? nullptr
                                               : "probabilities out of range";
}

const char* param_error(const AgentBlackout&) { return nullptr; }

const char* param_error(const LinkFlapSpec& s) {
  if (s.down_ns <= 0) return "non-positive down_ns";
  if (s.period_ns != 0 && s.period_ns < s.down_ns) {
    return "period shorter than down time";
  }
  if (s.jitter < 0 || s.jitter > 1) return "jitter out of [0,1]";
  if (s.holddown_ns < 0) return "negative reconvergence hold-down";
  if (s.holddown_ns == 0 && s.restore_holddown_ns >= 0) {
    return "restore hold-down set while reconvergence disabled";
  }
  return nullptr;
}

const char* param_error(const PfcFrameFaultSpec& s) {
  return probs_ok({s.loss_prob, s.delay_prob}) ? nullptr
                                               : "probabilities out of range";
}

const char* param_error(const DegradedLinkSpec& s) {
  return s.ber < 0 || s.ber > 1 ? "ber out of [0,1]" : nullptr;
}

const char* param_error(const LinkSpeedMismatchSpec& s) {
  return s.gbps <= 0 ? "non-positive gbps" : nullptr;
}

const char* param_error(const HostPcieBottleneckSpec& s) {
  return s.drain_gbps <= 0 ? "non-positive drain_gbps" : nullptr;
}

const char* param_error(const OversubscribedDownlinkSpec& s) {
  return s.factor <= 0 || s.factor >= 1 ? "factor out of (0,1)" : nullptr;
}

/// The site two specs of one family both match — "switch", "port", "host"
/// or "link" — or "" when they can never match the same one. Wildcards
/// (kInvalidNode switch/host, kInvalidPort port, both-placeholder link
/// endpoints) match every site their family could. A PFC spec's site also
/// holds the frame kinds it affects, as in `names` below.
template <typename S>
std::string_view shared_site(const S& a, const S& b) {
  const auto nodes = [](net::NodeId x, net::NodeId y) {
    return x == net::kInvalidNode || y == net::kInvalidNode || x == y;
  };
  if constexpr (LinkSpec<S>) {
    return std::minmax(a.node_a, a.node_b) == std::minmax(b.node_a, b.node_b)
               ? "link"
               : "";
  } else if constexpr (requires { a.port; }) {
    const bool ports = a.port == net::kInvalidPort ||
                       b.port == net::kInvalidPort || a.port == b.port;
    const bool kinds = (a.affect_pause && b.affect_pause) ||
                       (a.affect_resume && b.affect_resume);
    return nodes(a.sw, b.sw) && ports && kinds ? "port" : "";
  } else if constexpr (requires { a.host; }) {
    return nodes(a.host, b.host) ? "host" : "";
  } else {
    return nodes(a.sw, b.sw) ? "switch" : "";
  }
}

/// Open-ended flap trains (stop < 0) are materialized out to this horizon;
/// evaluation traces run a few milliseconds, so one simulated second covers
/// every run while keeping the precomputed schedule small.
constexpr sim::Time kFlapHorizon = 1'000 * sim::kMillisecond;
/// Backstop on pathological period/horizon combinations.
constexpr std::size_t kMaxWindowsPerSpec = 1 << 16;

/// Salts for the counter-hash draws — one per fault family so the same
/// (attrs, now) never aliases across families.
enum : std::uint64_t {
  kSitePoll = 1,
  kSiteDma = 2,
  kSitePfc = 3,
  kSiteJitterChance = 4,
  kSiteJitterMag = 5,
  kSiteCrc = 6,
};

/// Stable identity of a frame on the wire for the CRC draw: every scheduled
/// attribute that distinguishes concurrent frames on one link, none that
/// depend on execution order — so the corruption verdict is fixed the
/// moment the frame is sent.
std::uint64_t frame_identity(const net::Packet& pkt) {
  std::uint64_t h = pkt.flow_id;
  h ^= pkt.probe_id * 0x9e3779b97f4a7c15ull;
  h ^= static_cast<std::uint64_t>(pkt.seq) << 32;
  h ^= static_cast<std::uint64_t>(pkt.kind) << 8;
  h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(pkt.size_bytes));
  return h;
}

std::uint64_t mix64(std::uint64_t x) {
  // splitmix64 finalizer — full avalanche, so consecutive times and
  // adjacent node ids decorrelate completely.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Stateless uniform in [0, 1): hash of (seed, site, a, b, t). Replaces the
/// old sequential-Rng stream so a draw's value never depends on how many
/// draws other events made before it, so a fault verdict does not shift
/// when an unrelated event is added or reordered.
double u01(std::uint64_t seed, std::uint64_t site, std::uint64_t a,
           std::uint64_t b, std::uint64_t t) {
  std::uint64_t h = mix64(seed ^ mix64(site));
  h = mix64(h ^ a);
  h = mix64(h ^ b);
  h = mix64(h ^ t);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// --- The match rule of every injector lookup ---

/// Where a hook fires: a switch or host `node`, the `port` a PFC frame left
/// from and whether it is a PAUSE, or a link by its link_key.
struct Site {
  net::NodeId node = net::kInvalidNode;
  net::PortId port = net::kInvalidPort;
  bool pause = false;
  std::uint64_t link = 0;
};

/// A window [start, stop) holds `now`; stop < 0 leaves it open.
bool in_window(sim::Time start, sim::Time stop, sim::Time now) {
  return start <= now && (stop < 0 || now < stop);
}

/// Does `s` name `site`? A resolved link entry names its `link`; a PFC spec
/// its sender `sw`, its `port` and the frame kinds it affects; a PCIe spec
/// its `host`; every other spec its `sw`. An invalid switch, host or port
/// is a wildcard.
template <typename S>
bool names(const S& s, const Site& site) {
  const auto node = [&site](net::NodeId n) {
    return n == net::kInvalidNode || n == site.node;
  };
  if constexpr (requires { s.link; }) {
    return s.link == site.link;
  } else if constexpr (requires { s.port; }) {
    return node(s.sw) &&
           (s.port == net::kInvalidPort || s.port == site.port) &&
           (site.pause ? s.affect_pause : s.affect_resume);
  } else if constexpr (requires { s.host; }) {
    return node(s.host);
  } else {
    return node(s.sw);
  }
}

/// The down window of `f` holding `now`, or nullptr. The windows are sorted
/// and disjoint, so only the first one ending after `now` can hold it.
const FaultInjector::DownWindow* window_at(
    const FaultInjector::FlapSchedule& f, sim::Time now) {
  const auto it = std::upper_bound(
      f.windows.begin(), f.windows.end(), now,
      [](sim::Time t, const FaultInjector::DownWindow& w) { return t < w.t1; });
  return it != f.windows.end() && in_window(it->t0, it->t1, now) ? &*it
                                                                 : nullptr;
}

bool active(const FaultInjector::FlapSchedule& f, sim::Time now) {
  return window_at(f, now) != nullptr;
}
bool active(const auto& s, sim::Time now) {
  return in_window(s.start, s.stop, now);
}

/// The first entry of `specs`, in declaration order, that names `site` and
/// is active at `now`; nullptr when none is.
template <typename S>
const S* first_match(const std::vector<S>& specs, const Site& site,
                     sim::Time now) {
  for (const S& s : specs) {
    if (names(s, site) && active(s, now)) return &s;
  }
  return nullptr;
}
}  // namespace

FaultPlan FaultPlan::uniform_poll_loss(double drop_prob, std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  PollFaultSpec spec;
  spec.drop_prob = drop_prob;
  plan.poll_faults.push_back(spec);
  return plan;
}

FaultPlan FaultPlan::uniform_pfc_loss(double loss_prob, std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  PfcFrameFaultSpec spec;
  spec.loss_prob = loss_prob;
  plan.pfc_faults.push_back(spec);
  return plan;
}

FaultPlan FaultPlan::victim_path_flaps(sim::Time period_ns,
                                       sim::Time holddown_ns,
                                       std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  LinkFlapSpec spec;  // unbound: the runner pins it to the victim path
  spec.start = sim::us(100);
  spec.down_ns = sim::us(100);
  spec.period_ns = period_ns;
  spec.jitter = 0.5;
  spec.holddown_ns = holddown_ns;
  plan.link_flaps.push_back(spec);
  return plan;
}

std::string FaultPlan::validate() const {
  if (!prob_ok(rtt_jitter.prob) || rtt_jitter.magnitude < 0) {
    return "rtt jitter: parameters out of range";
  }
  std::string err;
  const auto report = [&err](std::string_view label, std::string_view why) {
    if (err.empty()) err.append(label).append(": ").append(why);
  };
  families(*this, [&](std::string_view, std::string_view label,
                      const auto& specs) {
    for (const auto& s : specs) {
      // Both endpoints invalid is a placeholder the runner binds later;
      // exactly one bound endpoint can only be a mistake.
      const char* why = !window_ok(s.start, s.stop) ? "empty/inverted window"
                        : half_bound(s)             ? "half-bound endpoints"
                                                    : param_error(s);
      if (why != nullptr) report(label, why);
    }
  });
  if (!err.empty()) return err;

  // --- Same-site overlapping windows ---
  // Spec lookup is first-match-wins (poll_spec / dma_spec / the degraded
  // and rate-override scans): a later spec covering the same site during an
  // overlapping window silently never fires there, so its parameters are
  // dead weight that *looks* installed. Reject the ambiguity; adjacent
  // half-open windows ([a,b) then [b,c)) remain fine. Windows with
  // stop < 0 extend to the end of the run.
  const auto overlap = [](const auto& a, const auto& b) {
    const sim::Time inf = std::numeric_limits<sim::Time>::max();
    return std::max(a.start, b.start) <
           std::min(a.stop < 0 ? inf : a.stop, b.stop < 0 ? inf : b.stop);
  };
  families(*this, [&](std::string_view, std::string_view label,
                      const auto& specs) {
    for (std::size_t i = 0; i < specs.size() && err.empty(); ++i) {
      for (std::size_t j = i + 1; j < specs.size() && err.empty(); ++j) {
        const std::string_view site = shared_site(specs[i], specs[j]);
        if (!site.empty() && overlap(specs[i], specs[j])) {
          report(label, "overlapping windows for the same " +
                            std::string(site));
        }
      }
    }
  });
  return err;
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  build_flap_schedule();
  for (const LinkSpeedMismatchSpec& s : plan_.speed_mismatches) {
    if (bound(s)) {
      bind_rate_override(s.node_a, s.node_b, s.gbps, s.start, s.stop, false);
    }
  }
  for (const DegradedLinkSpec& s : plan_.degraded_links) {
    if (bound(s)) {
      crc_links_.push_back({link_key(s.node_a, s.node_b), s.ber, s.start,
                            s.stop});
    }
  }
}

PollVerdict FaultInjector::on_polling(net::NodeId sw,
                                      const net::FiveTuple& victim,
                                      sim::Time now) {
  const PollFaultSpec* s = first_match(plan_.poll_faults, {.node = sw}, now);
  if (s == nullptr) return {};
  // One variate decides the (mutually exclusive) outcome. The draw is a
  // pure function of (seed, switch, victim, arrival time), so the verdict
  // is fixed the moment the arrival is scheduled — independent of what any
  // other event draws.
  const double u = u01(plan_.seed, kSitePoll,
                       static_cast<std::uint64_t>(sw), victim.hash(),
                       static_cast<std::uint64_t>(now));
  if (u < s->drop_prob) {
    ++polls_dropped_;
    ++victim_faults_[victim];
    return {PollAction::kDrop, 0};
  }
  if (u < s->drop_prob + s->duplicate_prob) {
    return {PollAction::kDuplicate, s->delay_ns};
  }
  if (u < s->drop_prob + s->duplicate_prob + s->delay_prob) {
    ++victim_faults_[victim];
    return {PollAction::kDelay, s->delay_ns};
  }
  return {};
}

bool FaultInjector::agent_down(net::NodeId sw, sim::Time now) const {
  return first_match(plan_.blackouts, {.node = sw}, now) != nullptr;
}

DmaVerdict FaultInjector::on_dma(net::NodeId sw, sim::Time now) {
  const DmaFaultSpec* s = first_match(plan_.dma_faults, {.node = sw}, now);
  if (s == nullptr) return {};
  const double u = u01(plan_.seed, kSiteDma, static_cast<std::uint64_t>(sw),
                       0, static_cast<std::uint64_t>(now));
  if (u < s->fail_prob) {
    ++dma_failed_;
    return {true, 0};
  }
  if (u < s->fail_prob + s->stale_prob) {
    ++dma_stale_;
    return {false, s->extra_delay};
  }
  return {};
}

sim::Time FaultInjector::jitter_rtt(sim::Time rtt, const net::FiveTuple& flow,
                                    sim::Time now) {
  if (plan_.rtt_jitter.prob <= 0) return rtt;
  const std::uint64_t t = static_cast<std::uint64_t>(now);
  if (u01(plan_.seed, kSiteJitterChance, flow.hash(),
          static_cast<std::uint64_t>(rtt), t) >= plan_.rtt_jitter.prob) {
    return rtt;
  }
  ++rtt_jittered_;
  const double factor =
      1.0 + plan_.rtt_jitter.magnitude *
                u01(plan_.seed, kSiteJitterMag, flow.hash(),
                    static_cast<std::uint64_t>(rtt), t);
  return static_cast<sim::Time>(static_cast<double>(rtt) * factor);
}

std::uint32_t FaultInjector::faults_for(const net::FiveTuple& victim) const {
  const auto it = victim_faults_.find(victim);
  return it == victim_faults_.end() ? 0 : it->second;
}

void FaultInjector::build_flap_schedule() {
  if (plan_.link_flaps.empty()) return;
  // A dedicated generator fixes the whole flap schedule up front: runtime
  // link_down() queries are then pure lookups, and adding a flap to a plan
  // does not perturb any poll/DMA/PFC verdict.
  sim::Rng gen(plan_.seed ^ 0xf1a9'f1a9'f1a9'f1a9ull);
  for (const LinkFlapSpec& s : plan_.link_flaps) {
    if (!bound(s)) continue;
    FlapSchedule sched;
    sched.a = s.node_a;
    sched.b = s.node_b;
    sched.link = link_key(s.node_a, s.node_b);
    sched.holddown_ns = s.holddown_ns;
    sched.restore_holddown_ns = s.restore_holddown();
    if (s.period_ns <= 0) {
      sim::Time t1 = s.start + s.down_ns;
      if (s.stop >= 0) t1 = std::min(t1, s.stop);
      if (t1 > s.start) sched.windows.push_back({s.start, t1});
    } else {
      const sim::Time horizon = s.stop < 0 ? kFlapHorizon : s.stop;
      const sim::Time slack = s.period_ns - s.down_ns;
      for (sim::Time t = s.start;
           t < horizon && sched.windows.size() < kMaxWindowsPerSpec;
           t += s.period_ns) {
        sim::Time off = 0;
        if (s.jitter > 0 && slack > 0) {
          off = static_cast<sim::Time>(gen.uniform_real(
              0.0, s.jitter * static_cast<double>(slack)));
        }
        const sim::Time t0 = t + off;
        const sim::Time t1 = std::min(t0 + s.down_ns, horizon);
        if (t1 > t0) sched.windows.push_back({t0, t1});
      }
    }
    if (!sched.windows.empty()) flaps_.push_back(std::move(sched));
  }
}

const FaultInjector::DownWindow* FaultInjector::down_window(
    net::NodeId a, net::NodeId b, sim::Time now) const {
  const FlapSchedule* f = first_match(flaps_, {.link = link_key(a, b)}, now);
  return f == nullptr ? nullptr : window_at(*f, now);
}

void FaultInjector::note_link_drop(net::NodeId a, net::NodeId b,
                                   const net::Packet& pkt, sim::Time now) {
  ++link_drops_;
  if (pkt.kind == net::PacketKind::kPolling) ++victim_faults_[pkt.victim];
  note_link_fault(link_key(a, b), now);
}

std::vector<std::pair<net::NodeId, net::NodeId>> FaultInjector::links_hit()
    const {
  std::vector<std::pair<net::NodeId, net::NodeId>> out;
  for (const std::uint64_t link : links_hit_) out.push_back(link_ends(link));
  return out;
}

PfcVerdict FaultInjector::on_pfc_frame(net::NodeId from, net::PortId port,
                                       std::uint32_t quanta, sim::Time now) {
  const PfcFrameFaultSpec* spec = first_match(
      plan_.pfc_faults, {.node = from, .port = port, .pause = quanta > 0},
      now);
  if (spec == nullptr) return {};
  // Same one-variate discipline as on_polling: one draw per covered frame,
  // mutually exclusive outcomes, loss wins over delay.
  const double u = u01(
      plan_.seed, kSitePfc,
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 16) ^
          static_cast<std::uint64_t>(static_cast<std::uint16_t>(port)),
      quanta, static_cast<std::uint64_t>(now));
  if (u < spec->loss_prob) {
    if (quanta > 0) {
      ++pfc_pause_lost_;
      ++pause_lost_by_[from];
    } else {
      ++pfc_resume_lost_;
    }
    note_dataplane_fault(now);
    return {true, 0};
  }
  if (u < spec->loss_prob + spec->delay_prob) {
    ++pfc_frames_delayed_;
    note_dataplane_fault(now);
    return {false, spec->delay_ns};
  }
  return {};
}

std::uint64_t FaultInjector::pause_frames_lost(net::NodeId sw) const {
  const auto it = pause_lost_by_.find(sw);
  return it == pause_lost_by_.end() ? 0 : it->second;
}

bool FaultInjector::on_wire_crc(net::NodeId a, net::NodeId b,
                                const net::Packet& pkt, sim::Time now) {
  const std::uint64_t link = link_key(a, b);
  const CrcLink* s = first_match(crc_links_, {.link = link}, now);
  if (s == nullptr) return false;
  const double bits = static_cast<double>(pkt.size_bytes) * 8.0;
  const double p = std::min(1.0, s->ber * bits);
  if (p <= 0) return false;
  // One draw per frame, keyed by (link, frame identity, send time): the
  // verdict is a pure function of scheduled attributes, so a frame's fate
  // is fixed when it is sent.
  const double u = u01(plan_.seed, kSiteCrc, link, frame_identity(pkt),
                       static_cast<std::uint64_t>(now));
  if (u >= p) return false;
  ++crc_drops_;
  ++crc_by_link_[link];
  if (pkt.kind == net::PacketKind::kPolling) ++victim_faults_[pkt.victim];
  note_link_fault(link, now);
  return true;
}

double FaultInjector::link_gbps(net::NodeId a, net::NodeId b, double nominal,
                                sim::Time now) const {
  const RateOverride* o =
      first_match(rate_overrides_, {.link = link_key(a, b)}, now);
  return o == nullptr ? nominal : o->gbps;
}

void FaultInjector::note_rate_limited(net::NodeId a, net::NodeId b,
                                      sim::Time now) {
  const std::uint64_t link = link_key(a, b);
  ++rate_limited_pkts_;
  ++rate_limited_by_link_[link];
  note_link_fault(link, now);
}

double FaultInjector::host_drain_gbps(net::NodeId host, sim::Time now) const {
  const HostPcieBottleneckSpec* s =
      first_match(plan_.pcie_bottlenecks, {.node = host}, now);
  return s == nullptr ? 0 : s->drain_gbps;
}

void FaultInjector::note_host_drain_delay(net::NodeId host,
                                          sim::Time backlog_ns,
                                          sim::Time now) {
  ++host_drain_delayed_;
  ++drain_delayed_by_host_[host];
  sim::Time& hw = drain_backlog_by_host_[host];
  hw = std::max(hw, backlog_ns);
  note_dataplane_fault(now);
}

FleetEvidence FaultInjector::fleet_evidence(const net::Topology& topo,
                                            net::NodeId victim_dst,
                                            sim::Time at) const {
  const auto nominal_of = [&topo](net::NodeId a, net::NodeId b) {
    const net::PortId p = topo.port_towards(a, b);
    if (p == net::kInvalidPort) return 0.0;
    const std::int64_t lid = topo.link_of(a, p);
    return lid < 0 ? 0.0 : topo.link(static_cast<std::size_t>(lid)).gbps;
  };
  const auto count_of = [](const auto& counters, auto key) {
    const auto it = counters.find(key);
    return it == counters.end() ? decltype(it->second){} : it->second;
  };
  FleetEvidence ev;
  for (const RateOverride& ro : rate_overrides_) {
    LinkCounterEvidence l;
    l.node_a = ro.a;
    l.node_b = ro.b;
    l.nominal_gbps = nominal_of(ro.a, ro.b);
    l.actual_gbps = link_gbps(ro.a, ro.b, l.nominal_gbps, at);
    l.slow_serializations = count_of(rate_limited_by_link_, ro.link);
    l.oversub_tier = ro.oversub;
    l.crc_errors = count_of(crc_by_link_, ro.link);
    ev.links.push_back(l);
  }
  // CRC-erroring links without an override, in endpoint order (link_key
  // order is (min, max) node order).
  for (const auto& [link, errors] : crc_by_link_) {
    const bool seen =
        std::any_of(rate_overrides_.begin(), rate_overrides_.end(),
                    [link](const RateOverride& o) { return o.link == link; });
    if (seen) continue;
    LinkCounterEvidence l;
    const auto [a, b] = link_ends(link);
    l.node_a = a;
    l.node_b = b;
    l.crc_errors = errors;
    l.nominal_gbps = l.actual_gbps = nominal_of(l.node_a, l.node_b);
    ev.links.push_back(l);
  }
  std::vector<net::NodeId> drain_hosts{victim_dst};
  for (const HostPcieBottleneckSpec& s : plan_.pcie_bottlenecks) {
    if (s.host != net::kInvalidNode &&
        std::find(drain_hosts.begin(), drain_hosts.end(), s.host) ==
            drain_hosts.end()) {
      drain_hosts.push_back(s.host);
    }
  }
  for (const net::NodeId h : drain_hosts) {
    const std::uint64_t delayed = count_of(drain_delayed_by_host_, h);
    if (delayed == 0) continue;
    ev.hosts.push_back({h, delayed, count_of(drain_backlog_by_host_, h)});
  }
  return ev;
}

void FaultInjector::note_dataplane_fault(sim::Time now) {
  if (first_dataplane_fault_ < 0 || now < first_dataplane_fault_) {
    first_dataplane_fault_ = now;
  }
  last_dataplane_fault_ = std::max(last_dataplane_fault_, now);
}

}  // namespace hawkeye::fault
