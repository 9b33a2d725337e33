#include "fault/fault.hpp"

#include <algorithm>
#include <initializer_list>
#include <limits>
#include <string_view>

namespace hawkeye::fault {

namespace {
bool covers(net::NodeId spec_sw, net::NodeId sw, sim::Time start,
            sim::Time stop, sim::Time now) {
  if (spec_sw != net::kInvalidNode && spec_sw != sw) return false;
  if (now < start) return false;
  return stop < 0 || now < stop;
}

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
/// endpoints) match every site their family could.
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
    return nodes(a.sw, b.sw) && ports ? "port" : "";
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

/// Site salts for the counter-hash draws — one per fault family so the
/// same (attrs, now) never aliases across families.
enum Site : std::uint64_t {
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
/// moment the frame is sent, identical under 1-shard and N-shard runs.
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
/// draws other events made before it — the property that keeps fault
/// verdicts identical between 1-shard and N-shard executions.
double u01(std::uint64_t seed, std::uint64_t site, std::uint64_t a,
           std::uint64_t b, std::uint64_t t) {
  std::uint64_t h = mix64(seed ^ mix64(site));
  h = mix64(h ^ a);
  h = mix64(h ^ b);
  h = mix64(h ^ t);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
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

const PollFaultSpec* FaultInjector::poll_spec(net::NodeId sw,
                                              sim::Time now) const {
  for (const PollFaultSpec& s : plan_.poll_faults) {
    if (covers(s.sw, sw, s.start, s.stop, now)) return &s;
  }
  return nullptr;
}

const DmaFaultSpec* FaultInjector::dma_spec(net::NodeId sw,
                                            sim::Time now) const {
  for (const DmaFaultSpec& s : plan_.dma_faults) {
    if (covers(s.sw, sw, s.start, s.stop, now)) return &s;
  }
  return nullptr;
}

PollVerdict FaultInjector::on_polling(net::NodeId sw,
                                      const net::FiveTuple& victim,
                                      sim::Time now) {
  const PollFaultSpec* s = poll_spec(sw, now);
  if (s == nullptr) return {};
  // One variate decides the (mutually exclusive) outcome. The draw is a
  // pure function of (seed, switch, victim, arrival time), so the verdict
  // is fixed the moment the arrival is scheduled — independent of what any
  // other event draws.
  const double u = u01(plan_.seed, kSitePoll,
                       static_cast<std::uint64_t>(sw), victim.hash(),
                       static_cast<std::uint64_t>(now));
  if (u < s->drop_prob) {
    std::lock_guard<std::mutex> lk(mu_);
    ++polls_dropped_;
    ++victim_faults_[victim];
    return {PollAction::kDrop, 0};
  }
  if (u < s->drop_prob + s->duplicate_prob) {
    return {PollAction::kDuplicate, s->delay_ns};
  }
  if (u < s->drop_prob + s->duplicate_prob + s->delay_prob) {
    std::lock_guard<std::mutex> lk(mu_);
    ++victim_faults_[victim];
    return {PollAction::kDelay, s->delay_ns};
  }
  return {};
}

bool FaultInjector::agent_down(net::NodeId sw, sim::Time now) const {
  for (const AgentBlackout& b : plan_.blackouts) {
    if (covers(b.sw, sw, b.start, b.stop, now)) return true;
  }
  return false;
}

void FaultInjector::note_blackout_drop(const net::FiveTuple& victim) {
  std::lock_guard<std::mutex> lk(mu_);
  ++blackout_drops_;
  ++victim_faults_[victim];
}

DmaVerdict FaultInjector::on_dma(net::NodeId sw, sim::Time now) {
  const DmaFaultSpec* s = dma_spec(sw, now);
  if (s == nullptr) return {};
  const double u = u01(plan_.seed, kSiteDma, static_cast<std::uint64_t>(sw),
                       0, static_cast<std::uint64_t>(now));
  if (u < s->fail_prob) {
    std::lock_guard<std::mutex> lk(mu_);
    ++dma_failed_;
    return {true, 0};
  }
  if (u < s->fail_prob + s->stale_prob) {
    std::lock_guard<std::mutex> lk(mu_);
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
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++rtt_jittered_;
  }
  const double factor =
      1.0 + plan_.rtt_jitter.magnitude *
                u01(plan_.seed, kSiteJitterMag, flow.hash(),
                    static_cast<std::uint64_t>(rtt), t);
  return static_cast<sim::Time>(static_cast<double>(rtt) * factor);
}

std::uint32_t FaultInjector::faults_for(const net::FiveTuple& victim) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = victim_faults_.find(victim);
  return it == victim_faults_.end() ? 0 : it->second;
}

void FaultInjector::build_flap_schedule() {
  if (plan_.link_flaps.empty()) return;
  // A dedicated generator fixes the whole flap schedule up front: runtime
  // link_down() queries are then pure lookups, and the event-ordered stream
  // behind rng_ never sees a link fault — so adding a flap to a plan does
  // not perturb the draw sequence of its poll/DMA/PFC faults.
  sim::Rng gen(plan_.seed ^ 0xf1a9'f1a9'f1a9'f1a9ull);
  for (const LinkFlapSpec& s : plan_.link_flaps) {
    if (s.node_a == net::kInvalidNode || s.node_b == net::kInvalidNode) {
      continue;  // unbound placeholder — inert
    }
    FlapSchedule sched;
    sched.a = s.node_a;
    sched.b = s.node_b;
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
  for (const FlapSchedule& f : flaps_) {
    const bool match =
        (f.a == a && f.b == b) || (f.a == b && f.b == a);
    if (!match) continue;
    // First window ending after `now`; covers `now` iff it already started.
    const auto it = std::upper_bound(
        f.windows.begin(), f.windows.end(), now,
        [](sim::Time t, const DownWindow& w) { return t < w.t1; });
    if (it != f.windows.end() && it->t0 <= now) return &*it;
  }
  return nullptr;
}

bool FaultInjector::link_down(net::NodeId a, net::NodeId b,
                              sim::Time now) const {
  return down_window(a, b, now) != nullptr;
}

sim::Time FaultInjector::link_down_until(net::NodeId a, net::NodeId b,
                                         sim::Time now) const {
  const DownWindow* w = down_window(a, b, now);
  return w == nullptr ? now : w->t1;
}

void FaultInjector::note_link_drop(net::NodeId a, net::NodeId b,
                                   const net::Packet& pkt, sim::Time now) {
  std::lock_guard<std::mutex> lk(mu_);
  ++link_drops_;
  if (pkt.kind == net::PacketKind::kPolling) ++victim_faults_[pkt.victim];
  if (!links_hit_sorted_contains(a, b)) {
    links_hit_insert_sorted(a, b);
  }
  note_dataplane_fault_locked(now);
}

void FaultInjector::note_link_hit(net::NodeId a, net::NodeId b) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!links_hit_sorted_contains(a, b)) links_hit_insert_sorted(a, b);
}

bool FaultInjector::links_hit_sorted_contains(net::NodeId a,
                                              net::NodeId b) const {
  const auto key = std::minmax(a, b);
  const std::pair<net::NodeId, net::NodeId> p{key.first, key.second};
  return std::binary_search(links_hit_.begin(), links_hit_.end(), p);
}

void FaultInjector::links_hit_insert_sorted(net::NodeId a, net::NodeId b) {
  // Endpoint-normalized and kept sorted, so the recorded set (and its
  // iteration order downstream) is independent of which shard noticed a
  // link's first hit first.
  const auto key = std::minmax(a, b);
  const std::pair<net::NodeId, net::NodeId> p{key.first, key.second};
  links_hit_.insert(
      std::lower_bound(links_hit_.begin(), links_hit_.end(), p), p);
}

PfcVerdict FaultInjector::on_pfc_frame(net::NodeId from, net::PortId port,
                                       std::uint32_t quanta, sim::Time now) {
  const PfcFrameFaultSpec* spec = nullptr;
  for (const PfcFrameFaultSpec& s : plan_.pfc_faults) {
    if (s.sw != net::kInvalidNode && s.sw != from) continue;
    if (s.port != net::kInvalidPort && s.port != port) continue;
    if (now < s.start || (s.stop >= 0 && now >= s.stop)) continue;
    if (quanta > 0 ? !s.affect_pause : !s.affect_resume) continue;
    spec = &s;
    break;
  }
  if (spec == nullptr) return {};
  // Same one-variate discipline as on_polling: one draw per covered frame,
  // mutually exclusive outcomes, loss wins over delay.
  const double u = u01(
      plan_.seed, kSitePfc,
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 16) ^
          static_cast<std::uint64_t>(static_cast<std::uint16_t>(port)),
      quanta, static_cast<std::uint64_t>(now));
  if (u < spec->loss_prob) {
    std::lock_guard<std::mutex> lk(mu_);
    if (quanta > 0) {
      ++pfc_pause_lost_;
      ++pause_lost_by_[from];
    } else {
      ++pfc_resume_lost_;
    }
    note_dataplane_fault_locked(now);
    return {true, 0};
  }
  if (u < spec->loss_prob + spec->delay_prob) {
    std::lock_guard<std::mutex> lk(mu_);
    ++pfc_frames_delayed_;
    note_dataplane_fault_locked(now);
    return {false, spec->delay_ns};
  }
  return {};
}

std::uint64_t FaultInjector::pause_frames_lost(net::NodeId sw) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = pause_lost_by_.find(sw);
  return it == pause_lost_by_.end() ? 0 : it->second;
}

const DegradedLinkSpec* FaultInjector::degraded_spec(net::NodeId a,
                                                     net::NodeId b,
                                                     sim::Time now) const {
  for (const DegradedLinkSpec& s : plan_.degraded_links) {
    if (s.node_a == net::kInvalidNode || s.node_b == net::kInvalidNode) {
      continue;  // unbound placeholder — inert
    }
    const bool match = (s.node_a == a && s.node_b == b) ||
                       (s.node_a == b && s.node_b == a);
    if (!match) continue;
    if (now < s.start || (s.stop >= 0 && now >= s.stop)) continue;
    return &s;
  }
  return nullptr;
}

bool FaultInjector::on_wire_crc(net::NodeId a, net::NodeId b,
                                const net::Packet& pkt, sim::Time now) {
  const DegradedLinkSpec* s = degraded_spec(a, b, now);
  if (s == nullptr) return false;
  const double bits = static_cast<double>(pkt.size_bytes) * 8.0;
  const double p = std::min(1.0, s->ber * bits);
  if (p <= 0) return false;
  // One draw per frame, keyed by (link, frame identity, send time): the
  // verdict is a pure function of scheduled attributes, so a frame's fate
  // is fixed when it is sent — identical across shard counts.
  const double u = u01(plan_.seed, kSiteCrc, link_key(a, b),
                       frame_identity(pkt), static_cast<std::uint64_t>(now));
  if (u >= p) return false;
  std::lock_guard<std::mutex> lk(mu_);
  ++crc_drops_;
  ++crc_by_link_[link_key(a, b)];
  if (pkt.kind == net::PacketKind::kPolling) ++victim_faults_[pkt.victim];
  if (!links_hit_sorted_contains(a, b)) links_hit_insert_sorted(a, b);
  note_dataplane_fault_locked(now);
  return true;
}

void FaultInjector::build_rate_overrides() {
  for (const LinkSpeedMismatchSpec& s : plan_.speed_mismatches) {
    if (s.node_a == net::kInvalidNode || s.node_b == net::kInvalidNode) {
      continue;  // unbound placeholder — inert until the runner binds it
    }
    rate_overrides_.push_back(
        {s.node_a, s.node_b, s.gbps, s.start, s.stop, false});
  }
}

void FaultInjector::bind_rate_override(net::NodeId a, net::NodeId b,
                                       double gbps, sim::Time start,
                                       sim::Time stop, bool oversub) {
  rate_overrides_.push_back({a, b, gbps, start, stop, oversub});
}

double FaultInjector::link_gbps(net::NodeId a, net::NodeId b, double nominal,
                                sim::Time now) const {
  for (const RateOverride& o : rate_overrides_) {
    const bool match = (o.a == a && o.b == b) || (o.a == b && o.b == a);
    if (!match) continue;
    if (now < o.start || (o.stop >= 0 && now >= o.stop)) continue;
    return o.gbps;
  }
  return nominal;
}

void FaultInjector::note_rate_limited(net::NodeId a, net::NodeId b,
                                      sim::Time now) {
  std::lock_guard<std::mutex> lk(mu_);
  ++rate_limited_pkts_;
  ++rate_limited_by_link_[link_key(a, b)];
  if (!links_hit_sorted_contains(a, b)) links_hit_insert_sorted(a, b);
  note_dataplane_fault_locked(now);
}

double FaultInjector::host_drain_gbps(net::NodeId host, sim::Time now) const {
  for (const HostPcieBottleneckSpec& s : plan_.pcie_bottlenecks) {
    if (covers(s.host, host, s.start, s.stop, now)) return s.drain_gbps;
  }
  return 0;
}

void FaultInjector::note_host_drain_delay(net::NodeId host,
                                          sim::Time backlog_ns,
                                          sim::Time now) {
  std::lock_guard<std::mutex> lk(mu_);
  ++host_drain_delayed_;
  ++drain_delayed_by_host_[host];
  sim::Time& hw = drain_backlog_by_host_[host];
  hw = std::max(hw, backlog_ns);
  note_dataplane_fault_locked(now);
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
  std::lock_guard<std::mutex> lk(mu_);
  for (const RateOverride& ro : rate_overrides_) {
    LinkCounterEvidence l;
    l.node_a = ro.a;
    l.node_b = ro.b;
    l.nominal_gbps = nominal_of(ro.a, ro.b);
    l.actual_gbps = link_gbps(ro.a, ro.b, l.nominal_gbps, at);
    l.slow_serializations =
        count_of(rate_limited_by_link_, link_key(ro.a, ro.b));
    l.oversub_tier = ro.oversub;
    l.crc_errors = count_of(crc_by_link_, link_key(ro.a, ro.b));
    ev.links.push_back(l);
  }
  // CRC-erroring links without an override, in endpoint order (the keys
  // are endpoint-normalized, so sorting them sorts by (min, max) node).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> crc(
      crc_by_link_.begin(), crc_by_link_.end());
  std::sort(crc.begin(), crc.end());
  for (const auto& [key, errors] : crc) {
    const bool seen = std::any_of(
        ev.links.begin(), ev.links.end(), [key](const LinkCounterEvidence& l) {
          return link_key(l.node_a, l.node_b) == key;
        });
    if (seen) continue;
    LinkCounterEvidence l;
    l.node_a = static_cast<net::NodeId>(key >> 32);
    l.node_b = static_cast<net::NodeId>(key & 0xffffffffu);
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

void FaultInjector::note_dataplane_fault_locked(sim::Time now) {
  if (first_dataplane_fault_ < 0 || now < first_dataplane_fault_) {
    first_dataplane_fault_ = now;
  }
  last_dataplane_fault_ = std::max(last_dataplane_fault_, now);
}

void FaultInjector::note_dataplane_fault(sim::Time now) {
  std::lock_guard<std::mutex> lk(mu_);
  note_dataplane_fault_locked(now);
}

}  // namespace hawkeye::fault
