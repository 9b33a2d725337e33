#include "eval/hunter.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "eval/canonical.hpp"

namespace hawkeye::eval {

namespace {

using diagnosis::AnomalyType;

/// Every craftable scenario, benign traces included: a confident verdict on
/// a kNone trace is the purest silent-wrong find there is.
constexpr AnomalyType kScenarioPool[] = {
    AnomalyType::kMicroBurstIncast,
    AnomalyType::kPfcStorm,
    AnomalyType::kInLoopDeadlock,
    AnomalyType::kOutOfLoopDeadlockContention,
    AnomalyType::kOutOfLoopDeadlockInjection,
    AnomalyType::kNormalContention,
    AnomalyType::kDegradedLink,
    AnomalyType::kLinkSpeedMismatch,
    AnomalyType::kHostPcieBottleneck,
    AnomalyType::kOversubscribedDownlink,
    AnomalyType::kNone,
};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

template <typename T>
T pick(sim::Rng& rng, std::initializer_list<T> xs) {
  const auto i = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(xs.size()) - 1));
  return *(xs.begin() + i);
}

template <typename T>
const T& pick_vec(sim::Rng& rng, const std::vector<T>& xs) {
  return xs[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(xs.size()) - 1))];
}

/// Sample a bounded-or-unbounded active window over the trace's hot region
/// (crafted anomalies start within a few hundred us of t=0).
void sample_window(sim::Rng& rng, sim::Time& start, sim::Time& stop) {
  start = sim::us(rng.uniform_int(50, 250));
  if (rng.chance(0.15)) {
    stop = -1;
  } else {
    stop = start + sim::us(rng.uniform_int(50, 300));
  }
}

/// Add one sampled fault spec of category `cat` to the plan. Categories are
/// sampled without replacement by the caller so no list ever holds two
/// specs (FaultPlan::validate rejects overlapping same-site windows).
void sample_fault(sim::Rng& rng, int cat, fault::FaultPlan& plan) {
  switch (cat) {
    case 0: {  // polling-packet faults, one action kind per spec
      fault::PollFaultSpec s;
      const int kind = static_cast<int>(rng.uniform_int(0, 2));
      if (kind == 0) s.drop_prob = rng.uniform_real(0.1, 0.9);
      else if (kind == 1) s.duplicate_prob = rng.uniform_real(0.1, 0.5);
      else {
        s.delay_prob = rng.uniform_real(0.2, 0.8);
        s.delay_ns = sim::us(rng.uniform_int(50, 500));
      }
      sample_window(rng, s.start, s.stop);
      plan.poll_faults.push_back(s);
      break;
    }
    case 1: {  // switch-CPU DMA faults
      fault::DmaFaultSpec s;
      s.fail_prob = rng.uniform_real(0.1, 0.7);
      s.stale_prob = rng.uniform_real(0.0, 1.0 - s.fail_prob);
      s.extra_delay = sim::ms(rng.uniform_int(1, 3));
      sample_window(rng, s.start, s.stop);
      plan.dma_faults.push_back(s);
      break;
    }
    case 2: {  // agent blackout
      fault::AgentBlackout s;
      sample_window(rng, s.start, s.stop);
      plan.blackouts.push_back(s);
      break;
    }
    case 3: {  // victim-path link flap (placeholder endpoints)
      fault::LinkFlapSpec s;
      sample_window(rng, s.start, s.stop);
      s.down_ns = sim::us(rng.uniform_int(5, 80));
      s.period_ns = rng.chance(0.5) ? 0 : sim::us(rng.uniform_int(100, 300));
      if (s.period_ns != 0 && s.period_ns < s.down_ns) {
        s.period_ns = 2 * s.down_ns;
      }
      s.jitter = rng.chance(0.5) ? 0.0 : rng.uniform_real(0.0, 0.5);
      s.holddown_ns = pick<sim::Time>(rng, {0, sim::us(50), sim::us(200)});
      plan.link_flaps.push_back(s);
      break;
    }
    case 4: {  // PFC frame loss/delay, port-global
      fault::PfcFrameFaultSpec s;
      s.loss_prob = rng.uniform_real(0.05, 0.6);
      if (rng.chance(0.3)) {
        s.delay_prob = rng.uniform_real(0.0, 1.0 - s.loss_prob);
        s.delay_ns = sim::us(rng.uniform_int(10, 100));
      }
      const int which = static_cast<int>(rng.uniform_int(0, 2));
      s.affect_pause = which != 1;
      s.affect_resume = which != 0;
      sample_window(rng, s.start, s.stop);
      plan.pfc_faults.push_back(s);
      break;
    }
    case 5: {  // detector sensor noise
      plan.rtt_jitter.prob = rng.uniform_real(0.05, 0.5);
      plan.rtt_jitter.magnitude = rng.uniform_real(0.5, 3.0);
      break;
    }
    default: {  // concurrent degraded cable on the victim path
      fault::DegradedLinkSpec s;
      s.ber = pick(rng, {1e-7, 1e-6, 5e-6});
      sample_window(rng, s.start, s.stop);
      plan.degraded_links.push_back(s);
      break;
    }
  }
}

/// Pure function of (campaign seed, trial index) — the determinism anchor:
/// any thread count of the campaign samples identical configs.
RunConfig sample_trial(const HuntOptions& o, int trial) {
  sim::Rng rng(splitmix64(o.seed ^ (0x517cc1b727220a95ull +
                                    static_cast<std::uint64_t>(trial))));
  RunConfig cfg;
  cfg.scenario = kScenarioPool[static_cast<std::size_t>(
      rng.uniform_int(0, std::size(kScenarioPool) - 1))];
  cfg.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1000000));
  cfg.fat_tree_k = o.ks.empty() ? 4 : pick_vec(rng, o.ks);
  cfg.background_load = pick(rng, {0.0, 0.05, 0.1, 0.2, 0.3});
  cfg.threshold_factor = pick(rng, {2.0, 3.0, 4.0});
  if (diagnosis::is_fleet_fault(cfg.scenario)) {
    cfg.fleet_workload = pick(rng, {workload::FleetWorkload::kCrafted,
                                    workload::FleetWorkload::kRpcClientServer,
                                    workload::FleetWorkload::kAllToAll});
    cfg.fleet_severity = rng.uniform_real(0.6, 3.0);
    // No cfg-level faults here: craft_scenario would replace the
    // fleet-crafted plan, severing the scenario from its ground truth.
  } else if (rng.chance(0.55)) {
    const int first = static_cast<int>(rng.uniform_int(0, 6));
    sample_fault(rng, first, cfg.faults);
    if (rng.chance(0.3)) {
      const int second = static_cast<int>(rng.uniform_int(0, 5));
      sample_fault(rng, second >= first ? second + 1 : second, cfg.faults);
    }
    cfg.faults.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 20));
  }
  if (rng.chance(0.5)) {
    workload::ScenarioOverlay& ov = cfg.overlay;
    if (rng.chance(0.4)) {
      const int n = static_cast<int>(rng.uniform_int(1, 4));
      for (int i = 0; i < n; ++i) {
        ov.drop_flows.push_back(
            static_cast<std::uint32_t>(rng.uniform_int(0, 63)));
      }
    }
    ov.size_scale = pick(rng, {1.0, 1.0, 0.5, 2.0, 4.0});
    ov.rate_scale = pick(rng, {1.0, 1.0, 0.5, 2.0});
    ov.arrival_stride_ns = pick<sim::Time>(rng, {0, 0, 1000, 10000, 50000});
    ov.duration_add_ns = pick<sim::Time>(rng, {0, 0, sim::us(200)});
    if (cfg.faults.enabled() || diagnosis::is_fleet_fault(cfg.scenario)) {
      ov.fault_rate_scale = pick(rng, {1.0, 1.0, 0.5, 2.0});
      ov.fault_window_scale = pick(rng, {1.0, 1.0, 0.7});
    }
  }
  return cfg;
}

std::size_t crafted_flow_count(const RunConfig& cfg) {
  sim::Rng rng(cfg.seed);
  return craft_scenario(cfg, rng).flows.size();
}

std::string hex16(std::uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = kDigits[v & 0xf];
    v >>= 4;
  }
  return s;
}

/// Shrinking engine for one find: greedy delta-debugging over the config,
/// keeping a candidate iff the *same* misdiagnosis (verdict class and
/// diagnosed type) persists. Evals are sequential run_one calls — shrinking
/// is a tiny fraction of campaign cost and stays trivially deterministic.
class Shrinker {
 public:
  Shrinker(RunConfig cfg, HuntVerdictClass cls, AnomalyType dx_type,
           double tau, int max_evals)
      : cfg_(std::move(cfg)),
        cls_(cls),
        dx_type_(dx_type),
        tau_(tau),
        budget_(max_evals) {}

  int evals() const { return evals_; }
  const RunConfig& cfg() const { return cfg_; }

  void run() {
    // Structural passes first (cheap, large reductions), then flow
    // dropping, then numeric severity — classic ddmin ordering.
    try_set([](RunConfig& c) { c.background_load = 0.0; });
    try_set([](RunConfig& c) { c.threshold_factor = 3.0; });
    shrink_fault_lists();
    shrink_overlay_scalars();
    shrink_flows();
    shrink_severity();
  }

 private:
  bool persists(const RunConfig& c) {
    if (evals_ >= budget_) return false;
    ++evals_;
    const RunResult r = run_one(c);
    return classify_verdict(r, tau_) == cls_ && r.dx.type == dx_type_;
  }

  /// The case-file text of `c`: configs that serialize alike are one case.
  static std::string case_text(const RunConfig& c) {
    HuntCase hc;
    hc.cfg = c;
    return serialize_case(hc);
  }

  template <typename F>
  bool try_set(F mutate) {
    RunConfig cand = cfg_;
    mutate(cand);
    if (case_text(cand) == case_text(cfg_)) return false;
    if (!persists(cand)) return false;
    cfg_ = std::move(cand);
    return true;
  }

  void shrink_fault_lists() {
    const auto clear_each = [&](auto member) {
      try_set([&](RunConfig& c) { (c.faults.*member).clear(); });
    };
    clear_each(&fault::FaultPlan::poll_faults);
    clear_each(&fault::FaultPlan::dma_faults);
    clear_each(&fault::FaultPlan::blackouts);
    clear_each(&fault::FaultPlan::link_flaps);
    clear_each(&fault::FaultPlan::pfc_faults);
    try_set([](RunConfig& c) { c.faults.rtt_jitter = {}; });
    clear_each(&fault::FaultPlan::degraded_links);
  }

  void shrink_overlay_scalars() {
    try_set([](RunConfig& c) { c.overlay.size_scale = 1.0; });
    try_set([](RunConfig& c) { c.overlay.rate_scale = 1.0; });
    try_set([](RunConfig& c) { c.overlay.arrival_stride_ns = 0; });
    try_set([](RunConfig& c) { c.overlay.duration_add_ns = 0; });
    try_set([](RunConfig& c) { c.overlay.fault_rate_scale = 1.0; });
    try_set([](RunConfig& c) { c.overlay.fault_window_scale = 1.0; });
    try_set([](RunConfig& c) { c.overlay.drop_flows.clear(); });
  }

  void shrink_flows() {
    const std::size_t n = crafted_flow_count_pre_drop();
    if (n <= 2) return;
    std::vector<std::uint32_t> alive;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (std::find(cfg_.overlay.drop_flows.begin(),
                    cfg_.overlay.drop_flows.end(),
                    i) == cfg_.overlay.drop_flows.end()) {
        alive.push_back(i);
      }
    }
    // Chunked greedy drop: halving chunk sizes, accept any chunk whose
    // removal keeps the misdiagnosis (protected flows are skipped inside
    // apply_overlay, so aggressive chunks are safe).
    for (std::size_t chunk = std::max<std::size_t>(1, alive.size() / 2);
         chunk >= 1 && evals_ < budget_; chunk /= 2) {
      for (std::size_t at = 0; at < alive.size() && evals_ < budget_;) {
        const std::size_t len = std::min(chunk, alive.size() - at);
        const bool kept = try_set([&](RunConfig& c) {
          c.overlay.drop_flows.insert(c.overlay.drop_flows.end(),
                                      alive.begin() +
                                          static_cast<std::ptrdiff_t>(at),
                                      alive.begin() +
                                          static_cast<std::ptrdiff_t>(at +
                                                                      len));
        });
        if (kept) {
          alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(at),
                      alive.begin() + static_cast<std::ptrdiff_t>(at + len));
        } else {
          at += len;
        }
      }
      if (chunk == 1) break;
    }
  }

  void shrink_severity() {
    // Pull fault windows in and rates down while the find survives — the
    // committed counterexample should sit just past the misdiagnosis
    // boundary, not deep inside it.
    for (int round = 0; round < 2; ++round) {
      try_set([](RunConfig& c) {
        c.overlay.fault_window_scale *= 0.5;
      });
      try_set([](RunConfig& c) { c.overlay.fault_rate_scale *= 0.5; });
      try_set([](RunConfig& c) {
        c.fleet_severity = 1.0 + (c.fleet_severity - 1.0) * 0.5;
      });
    }
    try_set([](RunConfig& c) { c.fleet_severity = 1.0; });
  }

  std::size_t crafted_flow_count_pre_drop() {
    RunConfig c = cfg_;
    c.overlay.drop_flows.clear();
    return crafted_flow_count(c);
  }

  RunConfig cfg_;
  HuntVerdictClass cls_;
  AnomalyType dx_type_;
  double tau_;
  int budget_;
  int evals_ = 0;
};

}  // namespace

std::string_view to_string(HuntVerdictClass c) {
  switch (c) {
    case HuntVerdictClass::kCorrect: return "correct";
    case HuntVerdictClass::kExcused: return "excused";
    case HuntVerdictClass::kMissedTrigger: return "missed-trigger";
    case HuntVerdictClass::kWrongLowConfidence: return "wrong-low-confidence";
    case HuntVerdictClass::kSilentWrong: return "silent-wrong";
  }
  return "?";
}

int severity(HuntVerdictClass c) {
  switch (c) {
    case HuntVerdictClass::kCorrect:
    case HuntVerdictClass::kExcused: return 0;
    case HuntVerdictClass::kMissedTrigger: return 1;
    case HuntVerdictClass::kWrongLowConfidence: return 2;
    case HuntVerdictClass::kSilentWrong: return 3;
  }
  return 0;
}

namespace {

/// The asserted verdict names a defect class the campaign itself injected
/// at cfg level, and that defect demonstrably fired. Two real problems
/// coexist in such a run (the crafted anomaly and the injected fault);
/// blaming the injected one is attribution ambiguity, not a wrong
/// diagnosis — hunting it would rediscover the injector.
bool named_injected_defect(const RunResult& r) {
  switch (r.dx.type) {
    case AnomalyType::kDegradedLink: return r.crc_drops > 0;
    case AnomalyType::kLinkSpeedMismatch:
    case AnomalyType::kOversubscribedDownlink:
      return r.rate_limited_pkts > 0;
    case AnomalyType::kHostPcieBottleneck: return r.host_drain_delayed > 0;
    default: return false;
  }
}

}  // namespace

HuntVerdictClass classify_verdict(const RunResult& r, double tau) {
  if (r.truth_type == AnomalyType::kNone) {
    // Benign trace: run_one scores a quiet run fn by convention (nothing
    // triggered); only an asserted verdict is a diagnosis failure here —
    // unless it names an injected defect that really fired.
    if (!r.fp || named_injected_defect(r)) return HuntVerdictClass::kCorrect;
    return r.confidence >= tau ? HuntVerdictClass::kSilentWrong
                               : HuntVerdictClass::kWrongLowConfidence;
  }
  if (r.tp) return HuntVerdictClass::kCorrect;
  if (r.fn) {
    // The robustness benches attribute a miss to injected substrate damage
    // when collection was degraded or a data-plane fault fired.
    return (r.degraded || r.dataplane_fault_fired)
               ? HuntVerdictClass::kExcused
               : HuntVerdictClass::kMissedTrigger;
  }
  // fp: wrong verdict asserted. Excused when an injected data-plane fault
  // actually intersected the victim's path (victim-path-aware attribution,
  // same rule as bench_fault_sweeps' data-plane sweep), or when the
  // verdict names an injected defect class that fired.
  if ((r.dataplane_fault_fired && r.fault_on_victim_path) ||
      named_injected_defect(r)) {
    return HuntVerdictClass::kExcused;
  }
  return r.confidence >= tau ? HuntVerdictClass::kSilentWrong
                             : HuntVerdictClass::kWrongLowConfidence;
}

HuntReport run_hunt_campaign(const HuntOptions& opts) {
  HuntReport rep;
  std::ostringstream log;
  std::string ks_str;
  for (const int k : opts.ks) {
    ks_str += (ks_str.empty() ? "" : ",") + std::to_string(k);
  }
  log << "hunt seed=" << opts.seed << " budget=" << opts.budget
      << " tau=" << canonical_double(opts.tau) << " ks=" << ks_str << '\n';

  std::vector<RunConfig> cfgs;
  cfgs.reserve(static_cast<std::size_t>(std::max(opts.budget, 0)));
  for (int trial = 0; trial < opts.budget; ++trial) {
    cfgs.push_back(sample_trial(opts, trial));
  }
  SweepOptions sw;
  sw.threads = opts.threads;
  const std::vector<RunResult> results = run_sweep(cfgs, sw);
  rep.trials = static_cast<int>(cfgs.size());
  rep.evals = rep.trials;

  // Only the first find per (truth, class, verdict) signature is kept:
  // distinct signatures are distinct model defects, and duplicates shrink
  // to near-identical corpus entries.
  std::vector<std::string> seen_signatures;
  std::vector<std::uint64_t> written_fps;
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const int trial = static_cast<int>(i);
    const RunResult& r = results[i];
    const HuntVerdictClass cls = classify_verdict(r, opts.tau);
    ++rep.count_by_class[static_cast<int>(cls)];
    if (cls == HuntVerdictClass::kCorrect) continue;
    log << "trial=" << trial
        << " scenario=" << diagnosis::to_string(cfgs[i].scenario)
        << " seed=" << cfgs[i].seed << " k=" << cfgs[i].fat_tree_k
        << " class=" << to_string(cls)
        << " verdict=" << diagnosis::to_string(r.dx.type)
        << " truth=" << diagnosis::to_string(r.truth_type)
        << " conf=" << canonical_double(r.confidence) << '\n';
    if (severity(cls) < 1) continue;
    if (static_cast<int>(rep.finds.size()) >= opts.max_finds) continue;
    const std::string sig = std::string(diagnosis::to_string(r.truth_type)) +
                            "/" + std::string(to_string(cls)) + "/" +
                            std::string(diagnosis::to_string(r.dx.type));
    if (std::find(seen_signatures.begin(), seen_signatures.end(), sig) !=
        seen_signatures.end()) {
      continue;
    }
    seen_signatures.push_back(sig);

    HuntFind find;
    find.trial = trial;
    find.signature = sig;
    find.original.cfg = cfgs[i];
    find.flows_before = crafted_flow_count(find.original.cfg);

    RunConfig shrunk_cfg = find.original.cfg;
    if (opts.shrink) {
      Shrinker sh(shrunk_cfg, cls, r.dx.type, opts.tau,
                  opts.max_shrink_evals);
      sh.run();
      shrunk_cfg = sh.cfg();
      rep.evals += sh.evals();
      find.shrink_evals = sh.evals();
    }
    find.flows_after = crafted_flow_count(shrunk_cfg);
    log << "shrunk trial=" << trial << " evals=" << find.shrink_evals
        << " flows=" << find.flows_before << "->" << find.flows_after
        << '\n';

    HuntCase hc;
    hc.cfg = shrunk_cfg;
    hc.expected_class = std::string(to_string(cls));
    hc.expected_verdict = r.dx.type;
    hc.expected_truth = r.truth_type;
    hc.note = "hunt seed=" + std::to_string(opts.seed) +
              " trial=" + std::to_string(trial) + " conf=" +
              canonical_double(r.confidence);
    find.shrunk = hc;
    find.original.expected_class = hc.expected_class;
    find.original.expected_verdict = hc.expected_verdict;
    find.original.expected_truth = hc.expected_truth;

    const std::uint64_t fp = case_fingerprint(hc);
    if (!opts.corpus_dir.empty() &&
        std::find(written_fps.begin(), written_fps.end(), fp) ==
            written_fps.end()) {
      written_fps.push_back(fp);
      std::filesystem::create_directories(opts.corpus_dir);
      find.file = "hunt-" + std::string(to_string(cls)) + "-" +
                  std::string(diagnosis::to_string(r.truth_type)) + "-" +
                  hex16(fp) + ".txt";
      std::ofstream out(std::filesystem::path(opts.corpus_dir) / find.file,
                        std::ios::binary);
      out << serialize_case(hc);
    }
    log << "find trial=" << trial << " sig=" << sig
        << (find.file.empty() ? "" : " file=" + find.file) << '\n';
    rep.finds.push_back(std::move(find));
  }
  log << "summary trials=" << rep.trials << " evals=" << rep.evals
      << " correct=" << rep.count_by_class[0]
      << " excused=" << rep.count_by_class[1]
      << " missed=" << rep.count_by_class[2]
      << " wrong-low=" << rep.count_by_class[3]
      << " silent=" << rep.count_by_class[4]
      << " finds=" << rep.finds.size() << '\n';
  rep.log = log.str();
  return rep;
}

ReplayOutcome replay_case(const HuntCase& c, double tau) {
  ReplayOutcome out;
  out.result = run_one(c.cfg);
  out.observed = classify_verdict(out.result, tau);
  out.matches_expected =
      to_string(out.observed) == c.expected_class &&
      out.result.dx.type == c.expected_verdict &&
      out.result.truth_type == c.expected_truth;
  std::ostringstream d;
  d << "observed class=" << to_string(out.observed)
    << " verdict=" << diagnosis::to_string(out.result.dx.type)
    << " truth=" << diagnosis::to_string(out.result.truth_type)
    << " conf=" << canonical_double(out.result.confidence)
    << " | expected class=" << c.expected_class
    << " verdict=" << diagnosis::to_string(c.expected_verdict)
    << " truth=" << diagnosis::to_string(c.expected_truth);
  out.detail = d.str();
  return out;
}

}  // namespace hawkeye::eval
