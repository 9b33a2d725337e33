// tracebench — the repository benchmark's binary (started by
// tracebench/run.py, which builds it, times set-up and formats the result).
//
// One process runs one workload as a closed loop with a single caller: one
// eval::run_one at a time, the next starting when the previous returns,
// over whole passes of the workload's config list. Modes:
//   setup    load the golden fixture, build the config list, warm up
//            (craft + fabric build of every config), print "ready", exit;
//   measure  set up, print "ready", then at least two passes of run_one
//            and more until --seconds have elapsed; end-to-end aggregates;
//   trace    set up, print "ready", then passes of run_one followed by a
//            replay of its stages through their public entry points, until
//            --seconds have elapsed; per-layer aggregates.
// Every run_one result goes through the output checks (golden cell, repeat
// identity, lossless fabric, no exception); trace mode also checks that the
// replay reproduces run_one's event count and verdict. The last stdout line
// is one JSON object.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "diagnosis/diagnosis.hpp"
#include "eval/canonical.hpp"
#include "eval/hunter.hpp"
#include "eval/runner.hpp"
#include "eval/testbed.hpp"
#include "provenance/builder.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace hawkeye;
using diagnosis::AnomalyType;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

struct Args {
  std::string mode = "measure";
  std::string workload;
  std::vector<std::uint64_t> seeds;
  double seconds = 10;
  int shards = 1;
  /// Seed of faults-k4's polling-loss plan.
  std::uint64_t fault_seed = 1;
  std::string golden;
  /// Output-check demonstration: "golden", "repeat" or "lossless" perturbs
  /// that check's expected value so the check must fail.
  std::string perturb;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "tracebench: %s\n"
               "usage: tracebench --mode setup|measure|trace --workload "
               "paper-k4|faults-k4|scale-k8 --seeds N[,N...] --golden FILE "
               "[--seconds S] [--shards N] [--fault-seed N] "
               "[--perturb golden|repeat|lossless]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--mode") {
        a.mode = val;
      } else if (key == "--workload") {
        a.workload = val;
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
      } else if (key == "--shards") {
        a.shards = std::stoi(val);
      } else if (key == "--fault-seed") {
        a.fault_seed = std::stoull(val);
      } else if (key == "--golden") {
        a.golden = val;
      } else if (key == "--perturb") {
        a.perturb = val;
      } else if (key == "--seeds") {
        std::stringstream ss(val);
        std::string tok;
        while (std::getline(ss, tok, ',')) a.seeds.push_back(std::stoull(tok));
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::exception&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (a.mode != "setup" && a.mode != "measure" && a.mode != "trace") {
    usage("unknown mode " + a.mode);
  }
  if (a.seeds.empty()) usage("--seeds is required");
  if (a.golden.empty()) usage("--golden is required");
  if (a.shards < 1) usage("--shards must be >= 1");
  if (!a.perturb.empty() && a.perturb != "golden" && a.perturb != "repeat" &&
      a.perturb != "lossless") {
    usage("unknown --perturb " + a.perturb);
  }
  return a;
}

constexpr AnomalyType kTable2[] = {
    AnomalyType::kMicroBurstIncast,
    AnomalyType::kPfcStorm,
    AnomalyType::kInLoopDeadlock,
    AnomalyType::kOutOfLoopDeadlockContention,
    AnomalyType::kOutOfLoopDeadlockInjection,
    AnomalyType::kNormalContention,
};
constexpr AnomalyType kFleetClasses[] = {
    AnomalyType::kDegradedLink,
    AnomalyType::kLinkSpeedMismatch,
    AnomalyType::kHostPcieBottleneck,
    AnomalyType::kOversubscribedDownlink,
};
constexpr workload::FleetWorkload kFleetWorkloads[] = {
    workload::FleetWorkload::kCrafted,
    workload::FleetWorkload::kRpcClientServer,
    workload::FleetWorkload::kAllToAll,
};

/// The workload's config list, seed-major so that every block of one seed
/// covers every scenario of the mix. All configs use the Hawkeye method at
/// background load 0.1 (RunConfig's defaults).
std::vector<eval::RunConfig> workload_configs(const Args& a) {
  std::vector<eval::RunConfig> out;
  for (const std::uint64_t seed : a.seeds) {
    eval::RunConfig cfg;
    cfg.seed = seed;
    if (a.workload == "paper-k4") {
      for (const AnomalyType t : kTable2) {
        cfg.scenario = t;
        out.push_back(cfg);
      }
    } else if (a.workload == "faults-k4") {
      cfg.faults = fault::FaultPlan::uniform_poll_loss(0.1, a.fault_seed);
      for (const AnomalyType t : kTable2) {
        cfg.scenario = t;
        out.push_back(cfg);
      }
      cfg.faults = fault::FaultPlan{};
      for (const AnomalyType t : kFleetClasses) {
        for (const workload::FleetWorkload w : kFleetWorkloads) {
          cfg.scenario = t;
          cfg.fleet_workload = w;
          cfg.fleet_severity = 1.0;
          out.push_back(cfg);
        }
      }
    } else if (a.workload == "scale-k8") {
      cfg.scenario = AnomalyType::kMicroBurstIncast;
      cfg.fat_tree_k = 8;
      cfg.shards = a.shards;
      out.push_back(cfg);
    } else {
      usage("unknown workload " + a.workload);
    }
  }
  return out;
}

bool fault_free(const eval::RunConfig& cfg) {
  return !cfg.faults.enabled() && !diagnosis::is_fleet_fault(cfg.scenario);
}

/// Cells of the golden fixtures (tests/golden/run_results.txt at k=4,
/// run_results_k8.txt at k=8): fault-free Hawkeye runs at the default
/// background load. Sharding does not change a run's result, so the k=8
/// cells (recorded under 8 shards) hold at any shard count.
bool golden_cell(const eval::RunConfig& cfg) {
  return fault_free(cfg) && cfg.method == eval::Method::kHawkeye &&
         cfg.background_load == 0.1 && !cfg.overlay.enabled();
}

std::map<std::string, std::string> load_golden(const std::string& path) {
  std::ifstream in(path);
  if (!in) usage("cannot read golden fixture " + path);
  std::map<std::string, std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    lines[line.substr(0, line.find(' '))] = line;
  }
  return lines;
}

/// The output checks every run_one result must pass.
class OutputChecks {
 public:
  OutputChecks(std::map<std::string, std::string> golden, std::string perturb)
      : golden_(std::move(golden)), perturb_(std::move(perturb)) {}

  /// Failures of run `idx` of the config list (empty when it passes).
  std::vector<std::string> check(std::size_t idx, const eval::RunConfig& cfg,
                                 const eval::RunResult& r) {
    std::vector<std::string> fails;
    const std::string key = eval::canonical_cell_key(cfg.scenario, cfg.seed);
    const std::string line = eval::canonical_line(cfg.scenario, cfg.seed, r);
    const std::string mark = "~perturbed";
    if (golden_cell(cfg)) {
      if (const auto it = golden_.find(key); it != golden_.end()) {
        ++golden_checked_;
        const std::string want = it->second + (perturb_ == "golden" ? mark : "");
        if (line != want) fails.push_back("golden: " + line + " != " + want);
      }
    }
    const auto [it, first] = first_line_.emplace(idx, line);
    if (!first) {
      ++repeats_checked_;
      const std::string want = it->second + (perturb_ == "repeat" ? mark : "");
      if (line != want) fails.push_back("repeat: " + line + " != " + want);
    }
    if (fault_free(cfg)) {
      const std::uint64_t want = perturb_ == "lossless" ? 1 : 0;
      if (r.drops != want) {
        fails.push_back("lossless: " + key + " drops=" +
                        std::to_string(r.drops) + " != " +
                        std::to_string(want));
      }
    }
    return fails;
  }

  int golden_checked() const { return golden_checked_; }
  int repeats_checked() const { return repeats_checked_; }

 private:
  std::map<std::string, std::string> golden_;
  std::string perturb_;
  std::map<std::size_t, std::string> first_line_;
  int golden_checked_ = 0;
  int repeats_checked_ = 0;
};

// ---- Stage replay: run_one's stages through their public entry points ----
//
// These helpers restate the settings eval::run_one derives from a config.
// The replay-fidelity check (same event count and verdict as run_one) fails
// the traced run when they drift apart.

bool fleet_scenario(const workload::ScenarioSpec& spec) {
  return spec.faults.has_value() && spec.faults->fleet_enabled();
}

eval::Testbed::Options testbed_options(const eval::RunConfig& cfg,
                                       const workload::ScenarioSpec& spec) {
  eval::Testbed::Options opts;
  opts.fat_tree_k = cfg.fat_tree_k;
  opts.switch_cfg.telemetry.epoch.epoch_shift = cfg.epoch_shift;
  opts.switch_cfg.telemetry.epoch.index_bits = cfg.epoch_index_bits;
  opts.switch_cfg.telemetry.mode = cfg.tele_mode;
  opts.switch_cfg.telemetry.one_bit_meter = cfg.one_bit_meter;
  opts.agent_cfg.threshold_factor = cfg.threshold_factor;
  if (cfg.fat_tree_k > 8) opts.agent_cfg.hop_noise_headroom = sim::us(1);
  opts.agent_cfg.full_polling = false;
  opts.switch_agent_cfg.trace_pfc_causality = true;
  opts.shards = cfg.shards;
  if (cfg.faults.enabled()) opts.agent_cfg.max_repolls = cfg.max_repolls;
  if (spec.xoff_bytes) opts.switch_cfg.pfc_xoff_bytes = *spec.xoff_bytes;
  if (spec.xon_bytes) opts.switch_cfg.pfc_xon_bytes = *spec.xon_bytes;
  if (fleet_scenario(spec)) {
    opts.agent_cfg.max_repolls = cfg.max_repolls;
    opts.agent_cfg.retx_trigger_pkts = 64;
  }
  return opts;
}

/// Craft + fabric build: the stages before the simulator runs.
struct Fabric {
  workload::ScenarioSpec spec;
  eval::Testbed::Options opts;
  std::unique_ptr<eval::Testbed> tb;
  double craft_s = 0;
  double build_s = 0;
};

Fabric build_fabric(const eval::RunConfig& cfg) {
  Fabric f;
  Clock::time_point t0 = Clock::now();
  sim::Rng rng(cfg.seed);
  f.spec = eval::craft_scenario(cfg, rng);
  f.craft_s = seconds_since(t0);
  t0 = Clock::now();
  f.opts = testbed_options(cfg, f.spec);
  f.tb = std::make_unique<eval::Testbed>(f.opts);
  f.tb->install(f.spec);
  for (const auto& flow : workload::background_flows(
           f.tb->ft, rng, cfg.background_load, sim::us(5),
           f.spec.duration - sim::us(100))) {
    f.tb->add_flow(flow);
  }
  f.build_s = seconds_since(t0);
  return f;
}

/// run_one's merge of the victim's episodes: every post-onset episode
/// (earliest snapshot per switch wins); a pre-onset one only when no
/// post-onset episode exists.
std::optional<collect::Episode> merge_victim_episodes(
    collect::Collector& collector, const workload::ScenarioSpec& spec) {
  collect::Episode merged;
  bool any = false;
  for (const bool post_onset : {true, false}) {
    for (const std::uint64_t id : collector.episode_order()) {
      const collect::Episode* cand = collector.episode(id);
      if (cand == nullptr || !(cand->victim == spec.victim)) continue;
      if ((cand->triggered_at >= spec.anomaly_start) != post_onset) continue;
      if (!post_onset && any) continue;
      if (!any) {
        merged.probe_id = cand->probe_id;
        merged.victim = cand->victim;
        merged.triggered_at = cand->triggered_at;
      }
      any = true;
      merged.repolls += cand->repolls;
      merged.failed_collections += cand->failed_collections;
      merged.stale_epochs_rejected += cand->stale_epochs_rejected;
      merged.path_churned = merged.path_churned || cand->path_churned;
      for (const net::NodeId sw : cand->expected_switches) {
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
    if (any && !merged.reports.empty()) break;
  }
  if (!any) return std::nullopt;
  return merged;
}

/// Per-layer sums over the traced runs, in first-seen order.
class LayerTotals {
 public:
  void add(const std::string& name, const std::string& unit, double v) {
    auto it = index_.find(name);
    if (it == index_.end()) {
      it = index_.emplace(name, entries_.size()).first;
      entries_.push_back({name, unit, 0.0});
    }
    entries_[it->second].sum += v;
  }
  double sum(const std::string& name) const {
    const auto it = index_.find(name);
    return it == index_.end() ? 0.0 : entries_[it->second].sum;
  }
  struct Entry {
    std::string name, unit;
    double sum;
  };
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
  std::map<std::string, std::size_t> index_;
};

struct ReplayOutcome {
  double wall_s = 0;  // the whole replay, as one traced run
  std::uint64_t victim_episodes = 0;  // post-onset episodes of the victim
  /// Max over mean of the device shards' busy time; sharded runs only (the
  /// control shard never drains in parallel).
  std::optional<double> busy_imbalance;
  std::vector<std::string> mismatches;
};

/// Replay one config's stages, add its per-layer numbers to `t`, and check
/// the replay against run_one's result `ref` for the same config.
ReplayOutcome replay(const eval::RunConfig& cfg, const eval::RunResult& ref,
                     LayerTotals& t) {
  ReplayOutcome out;
  const Clock::time_point start = Clock::now();
  Fabric f = build_fabric(cfg);
  eval::Testbed& tb = *f.tb;
  const workload::ScenarioSpec& spec = f.spec;

  sim::Time margin = 2 * f.opts.collector_cfg.snapshot_delay;
  if (cfg.faults.enabled() || fleet_scenario(spec)) margin += sim::ms(4);
  Clock::time_point t0 = Clock::now();
  tb.run_for(spec.duration + margin);
  const double sim_s = seconds_since(t0);

  // Counters, read from public accessors after the simulation.
  const std::uint64_t events = tb.simu.executed_events();
  const sim::Simulator::ShardStats& ss = tb.simu.shard_stats();
  t.add("sim.run_s", "s", sim_s);
  t.add("sim.events", "count", static_cast<double>(events));
  t.add("sim.shard.drain_s", "s", ss.drain_seconds);
  t.add("sim.shard.merge_s", "s", ss.merge_seconds);
  t.add("sim.shard.flush_s", "s", ss.flush_seconds);
  t.add("sim.shard.sequential_s", "s", ss.sequential_seconds);
  t.add("sim.shard.parallel_rounds", "count",
        static_cast<double>(ss.parallel_rounds));
  t.add("sim.shard.merged_records", "count",
        static_cast<double>(ss.merged_records));
  t.add("sim.shard.deferred_schedules", "count",
        static_cast<double>(ss.deferred_schedules));
  if (tb.simu.sharded()) {
    std::vector<double> busy = tb.simu.per_shard_busy();
    busy.resize(static_cast<std::size_t>(tb.simu.device_count()));
    double total = 0, most = 0;
    for (const double b : busy) {
      total += b;
      most = std::max(most, b);
    }
    const double mean = total / static_cast<double>(busy.size());
    out.busy_imbalance = mean > 0 ? most / mean : 1.0;
  }
  t.add("device.data_hops", "count", static_cast<double>(tb.net.data_hops()));
  t.add("device.pfc_frames", "count",
        static_cast<double>(tb.net.pfc_trace().size()));
  t.add("device.drops_data", "count", static_cast<double>(tb.net.data_drops()));
  t.add("device.drops_polling", "count",
        static_cast<double>(tb.net.polling_drops()));
  t.add("telemetry.report_bytes", "bytes",
        static_cast<double>(ref.telemetry_bytes));
  t.add("telemetry.raw_bytes", "bytes",
        static_cast<double>(ref.raw_telemetry_bytes));

  std::uint64_t episodes = 0, polling = 0, repolls = 0, failed = 0;
  for (const std::uint64_t id : tb.collector.episode_order()) {
    const collect::Episode* ep = tb.collector.episode(id);
    if (ep == nullptr) continue;
    ++episodes;
    if (ep->victim == spec.victim && ep->triggered_at >= spec.anomaly_start) {
      ++out.victim_episodes;
    }
    polling += ep->polling_packets;
    repolls += ep->repolls;
    failed += ep->failed_collections;
  }
  t.add("collect.episodes", "count", static_cast<double>(episodes));
  t.add("collect.snapshot_requests", "count",
        static_cast<double>(tb.collector.snapshot_requests()));
  t.add("collect.polling_packets", "count", static_cast<double>(polling));
  t.add("collect.repolls", "count", static_cast<double>(repolls));
  t.add("collect.failed_collections", "count", static_cast<double>(failed));

  const fault::FaultInjector* fi = tb.faults.get();
  t.add("fault.crc_drops", "count", fi ? static_cast<double>(fi->crc_drops()) : 0);
  t.add("fault.retransmissions", "count",
        static_cast<double>(
            tb.host(net::Topology::node_of_ip(spec.victim.src_ip))
                .retransmissions()));
  t.add("fault.link_down_drops", "count",
        fi ? static_cast<double>(fi->link_drops()) : 0);
  t.add("fault.rate_limited_pkts", "count",
        fi ? static_cast<double>(fi->rate_limited_pkts()) : 0);

  // After simulation: merge, provenance graph, Algorithm 2, fleet
  // refinement.
  diagnosis::DiagnosisResult dx;
  double prov_s = 0, diag_s = 0, refine_s = 0;
  const Clock::time_point post_sim = Clock::now();
  const std::optional<collect::Episode> merged =
      merge_victim_episodes(tb.collector, spec);
  if (merged) {
    provenance::BuilderConfig bcfg;
    bcfg.epoch_ns = f.opts.switch_cfg.telemetry.epoch.epoch_ns();
    if (cfg.fat_tree_k > 8 || cfg.background_load > 0.1) {
      bcfg.trigger_scope_ns = bcfg.epoch_ns;
    }
    diagnosis::DiagnosisConfig dcfg;
    dcfg.epoch_ns = bcfg.epoch_ns;
    dcfg.signature_rank = true;
    t0 = Clock::now();
    const provenance::ProvenanceGraph g =
        provenance::build_provenance(*merged, tb.ft.topo, bcfg);
    prov_s = seconds_since(t0);
    t0 = Clock::now();
    dx = diagnosis::diagnose(g, tb.ft.topo, tb.routing, spec.victim, dcfg);
    diag_s = seconds_since(t0);
    dx.confidence = diagnosis::collection_confidence(
        merged->coverage(), merged->failed_collections,
        merged->stale_epochs_rejected, merged->repolls);
    if (fi != nullptr && fi->plan().fleet_enabled() &&
        !ref.fleet_evidence.empty()) {
      // The fleet counters are a pure function of the deterministic run,
      // so run_one's assembled evidence is this replay's evidence too.
      t0 = Clock::now();
      dx = diagnosis::refine_fleet_verdict(dx, ref.fleet_evidence, tb.ft.topo,
                                           tb.routing, spec.victim);
      refine_s = seconds_since(t0);
    }
  }
  const double post_sim_s = seconds_since(post_sim);
  t.add("collect.coverage", "frac", merged ? merged->coverage() : 0.0);
  t.add("provenance.build_us", "us", 1e6 * prov_s);
  t.add("diagnosis.diagnose_us", "us", 1e6 * diag_s);
  t.add("diagnosis.refine_us", "us", 1e6 * refine_s);

  t0 = Clock::now();
  f.tb.reset();
  const double teardown_s = seconds_since(t0);
  out.wall_s = seconds_since(start);

  t.add("workload.craft_s", "s", f.craft_s);
  t.add("eval.fabric_build_s", "s", f.build_s);
  t.add("eval.post_sim_s", "s", post_sim_s);
  t.add("eval.teardown_s", "s", teardown_s);

  const std::string key = eval::canonical_cell_key(cfg.scenario, cfg.seed);
  if (events != ref.sim_events) {
    out.mismatches.push_back("replay: " + key + " sim_events " +
                             std::to_string(events) + " != run_one " +
                             std::to_string(ref.sim_events));
  }
  const bool same_verdict =
      dx.type == ref.dx.type && dx.injecting_peer == ref.dx.injecting_peer &&
      dx.initial_port == ref.dx.initial_port &&
      dx.root_cause_flows == ref.dx.root_cause_flows &&
      dx.confidence == ref.dx.confidence;
  if (!same_verdict) {
    out.mismatches.push_back(
        "replay: " + key + " verdict " +
        std::string(diagnosis::to_string(dx.type)) + " conf=" +
        eval::canonical_double(dx.confidence) + " != run_one " +
        std::string(diagnosis::to_string(ref.dx.type)) + " conf=" +
        eval::canonical_double(ref.dx.confidence));
  }
  return out;
}

int run(const Args& args) {
  const std::vector<eval::RunConfig> configs = workload_configs(args);
  OutputChecks checks(load_golden(args.golden), args.perturb);

  // Warm-up: the stages before simulation, for every config once.
  for (const eval::RunConfig& cfg : configs) build_fabric(cfg);
  std::printf("ready\n");
  std::fflush(stdout);
  if (args.mode == "setup") return 0;

  const bool trace = args.mode == "trace";
  int attempted = 0, failed = 0, passes = 0, tp = 0, silent_wrong = 0;
  std::vector<std::string> failures;
  double ok = 0, events = 0, run_wall_total = 0, replay_wall_total = 0;
  LayerTotals layers;
  double replayed = 0, victim_episodes = 0, imbalance_sum = 0,
         sharded_runs = 0;

  const double cpu0 = cpu_seconds();
  const Clock::time_point start = Clock::now();
  const int min_passes = trace ? 1 : 2;
  while (passes < min_passes || seconds_since(start) < args.seconds) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const eval::RunConfig& cfg = configs[i];
      ++attempted;
      std::vector<std::string> fails;
      eval::RunResult r;
      double wall = 0;
      try {
        const Clock::time_point t0 = Clock::now();
        r = eval::run_one(cfg);
        wall = seconds_since(t0);
        fails = checks.check(i, cfg, r);
        if (trace) {
          const ReplayOutcome rep = replay(cfg, r, layers);
          ++replayed;
          replay_wall_total += rep.wall_s;
          victim_episodes += static_cast<double>(rep.victim_episodes);
          if (rep.busy_imbalance) {
            imbalance_sum += *rep.busy_imbalance;
            ++sharded_runs;
          }
          fails.insert(fails.end(), rep.mismatches.begin(),
                       rep.mismatches.end());
        }
      } catch (const std::exception& e) {
        fails.push_back("exception: " +
                        eval::canonical_cell_key(cfg.scenario, cfg.seed) +
                        ": " + e.what());
      }
      if (!fails.empty()) {
        ++failed;
        failures.insert(failures.end(), fails.begin(), fails.end());
        continue;
      }
      ++ok;
      run_wall_total += wall;
      events += static_cast<double>(r.sim_events);
      tp += r.tp ? 1 : 0;
      silent_wrong +=
          eval::classify_verdict(r, 0.9) == eval::HuntVerdictClass::kSilentWrong
              ? 1
              : 0;
    }
    ++passes;
  }
  const double elapsed = seconds_since(start);
  const double cpu = cpu_seconds() - cpu0;

  std::ostringstream js;
  js << "{\"mode\":" << json_string(args.mode)
     << ",\"workload\":" << json_string(args.workload)
     << ",\"build_type\":" << json_string(TRACEBENCH_BUILD_TYPE)
     << ",\"compiler\":" << json_string(TRACEBENCH_COMPILER)
     << ",\"configs\":" << configs.size() << ",\"passes\":" << passes
     << ",\"attempted\":" << attempted << ",\"failed\":" << failed
     << ",\"tp\":" << tp << ",\"golden_checked\":" << checks.golden_checked()
     << ",\"repeats_checked\":" << checks.repeats_checked()
     << ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size() && i < 20; ++i) {
    js << (i ? "," : "") << json_string(failures[i]);
  }
  js << "],\"metrics\":{";
  std::vector<std::pair<std::string, std::pair<double, std::string>>> m;
  const auto put = [&m](const std::string& name, double v,
                        const std::string& unit) {
    m.push_back({name, {v, unit}});
  };
  if (!trace) {
    put("runs_per_s", ok / elapsed, "1/s");
    put("sim_events_per_s", run_wall_total > 0 ? events / run_wall_total : 0,
        "1/s");
    put("cpu_s_per_run", cpu / static_cast<double>(attempted), "s");
    put("peak_rss_mb", peak_rss_mb(), "MB");
    put("accuracy", ok > 0 ? tp / ok : 0, "frac");
  } else {
    // Per traced run: sums become means, plus ratios of totals.
    for (const LayerTotals::Entry& e : layers.entries()) {
      put(e.name, replayed > 0 ? e.sum / replayed : 0, e.unit);
    }
    const double sim_s = layers.sum("sim.run_s");
    const double sim_events = layers.sum("sim.events");
    const double hops = layers.sum("device.data_hops");
    const double eps = layers.sum("collect.episodes");
    put("sim.ns_per_event", sim_events > 0 ? 1e9 * sim_s / sim_events : 0,
        "ns");
    put("sim.shard.busy_imbalance",
        sharded_runs > 0 ? imbalance_sum / sharded_runs : 0, "ratio");
    put("device.ns_per_hop", hops > 0 ? 1e9 * sim_s / hops : 0, "ns");
    put("collect.victim_episode_frac",
        eps > 0 ? victim_episodes / eps : 0, "frac");
    put("eval.silent_wrong_frac", ok > 0 ? silent_wrong / ok : 0, "frac");
    put("trace.runs_per_s_untraced",
        run_wall_total > 0 ? ok / run_wall_total : 0, "1/s");
    put("trace.runs_per_s_traced",
        replay_wall_total > 0 ? ok / replay_wall_total : 0, "1/s");
  }
  for (std::size_t i = 0; i < m.size(); ++i) {
    js << (i ? "," : "") << json_string(m[i].first) << ":{\"value\":"
       << eval::canonical_double(m[i].second.first)
       << ",\"unit\":" << json_string(m[i].second.second) << "}";
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tracebench: %s\n", e.what());
    return 2;
  }
}
