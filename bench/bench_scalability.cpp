// Extension experiment: fabric-scale behaviour + intra-run shard scaling.
//
// Fabric axis: the paper's NS-3 setup is a k=4 fat-tree (20 switches); this
// sweep grows the fabric to k=6/8 (45/80 switches) and checks that
// Hawkeye's collection stays *local* — the collected-switch count tracks
// the anomaly's causal footprint, not the fabric size — while diagnosis
// quality holds.
//
// Shard axis (PR 6): each (k, anomaly) point reruns under the sharded
// simulator (`--shards 1,2,4,8`), reporting wall-clock AND events/sec per
// cell plus the simulator's phase decomposition (parallel drain vs serial
// merge vs sequential windows), so shard-scaling efficiency is visible in
// the JSON trajectory. Results append under a "scalability" key in
// BENCH_hotpath.json (HAWKEYE_BENCH_JSON overrides the path).
//
// `--k16` (or HAWKEYE_BENCH_K16=1) adds the headline k=16 cells: the
// microburst-incast scenario at shards 1 vs 8 (576 switches, tens of
// millions of events). Off by default — a k=16 run takes minutes.
//
// Each cell runs in a fresh child process, so its `peak_rss_mb` is that
// cell's own high-water mark (ru_maxrss never falls within a process).
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <thread>
#include <type_traits>

#include "bench_common.hpp"

using namespace hawkeye;
using namespace hawkeye::bench;

namespace {

struct Cell {
  int k = 4;
  int shards = 1;
  diagnosis::AnomalyType anomaly;
  int seeds = 1;
  double wall_s = 0;
  double events = 0;
  double precision = 0;
  double recall = 0;
  double collected = 0;
  double peak_rss_mb = 0;
  sim::Simulator::ShardStats st;  // summed over the cell's runs

  double events_per_sec() const { return wall_s > 0 ? events / wall_s : 0; }
};

Cell run_cell(int k, int shards, diagnosis::AnomalyType anomaly, int seeds) {
  Cell c;
  c.k = k;
  c.shards = shards;
  c.anomaly = anomaly;
  c.seeds = seeds;
  eval::RunConfig cfg;
  cfg.scenario = anomaly;
  cfg.fat_tree_k = k;
  cfg.background_load = k >= 16 ? 0.1 : 0.05;
  cfg.shards = shards;
  const auto t0 = std::chrono::steady_clock::now();
  PointStats st;
  for (int i = 0; i < seeds; ++i) {
    // Serial seed loop (not run_point's sweep pool): each cell's wall-clock
    // must measure exactly one run at a time or the per-shard timing is
    // meaningless.
    cfg.seed = 1 + static_cast<std::uint64_t>(i) * 2;
    const eval::RunResult r = eval::run_one(cfg);
    st.add(r);
    c.st.parallel_rounds += r.shard_stats.parallel_rounds;
    c.st.sequential_windows += r.shard_stats.sequential_windows;
    c.st.sequential_events += r.shard_stats.sequential_events;
    c.st.merged_records += r.shard_stats.merged_records;
    c.st.deferred_schedules += r.shard_stats.deferred_schedules;
    c.st.drain_seconds += r.shard_stats.drain_seconds;
    c.st.round_max_seconds += r.shard_stats.round_max_seconds;
    c.st.barrier_seconds += r.shard_stats.barrier_seconds;
    c.st.merge_seconds += r.shard_stats.merge_seconds;
    c.st.flush_seconds += r.shard_stats.flush_seconds;
    c.st.sequential_seconds += r.shard_stats.sequential_seconds;
  }
  c.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  c.events = st.sim_events;
  c.precision = st.pr.precision();
  c.recall = st.pr.recall();
  c.collected = st.avg(st.collected_switches);
  return c;
}

/// run_cell in a forked child: the child writes its Cell into a pipe and
/// wait4 returns its rusage, whose ru_maxrss (KiB) is the cell's peak RSS.
Cell run_cell_in_child(int k, int shards, diagnosis::AnomalyType anomaly,
                       int seeds) {
  static_assert(std::is_trivially_copyable_v<Cell>);
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("pipe");
    std::exit(1);
  }
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(1);
  }
  if (pid == 0) {
    close(fds[0]);
    const Cell c = run_cell(k, shards, anomaly, seeds);
    const char* p = reinterpret_cast<const char*>(&c);
    for (std::size_t left = sizeof(c); left > 0;) {
      const ssize_t n = write(fds[1], p, left);
      if (n <= 0) _exit(1);
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  Cell c;
  char* p = reinterpret_cast<char*>(&c);
  std::size_t got = 0;
  while (got < sizeof(c)) {
    const ssize_t n = read(fds[0], p + got, sizeof(c) - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  rusage ru{};
  if (wait4(pid, &status, 0, &ru) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0 || got != sizeof(c)) {
    std::fprintf(stderr, "cell k=%d shards=%d failed in its child\n", k,
                 shards);
    std::exit(1);
  }
  c.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return c;
}

std::string json_cell(const Cell& c, double wall_1shard) {
  char buf[1024];
  std::string s;
  std::snprintf(buf, sizeof(buf),
                "{\"k\": %d, \"shards\": %d, \"anomaly\": \"%s\", "
                "\"seeds\": %d, \"wall_s\": %.3f, \"events\": %.0f, "
                "\"events_per_sec\": %.0f, \"precision\": %.3f, "
                "\"recall\": %.3f, \"peak_rss_mb\": %.1f",
                c.k, c.shards, std::string(to_string(c.anomaly)).c_str(),
                c.seeds, c.wall_s, c.events, c.events_per_sec(), c.precision,
                c.recall, c.peak_rss_mb);
  s += buf;
  if (c.shards > 1) {
    std::snprintf(
        buf, sizeof(buf),
        ", \"drain_s\": %.3f, \"round_max_s\": %.3f, \"merge_s\": %.3f, "
        "\"flush_s\": %.3f, \"seq_s\": %.3f, \"parallel_rounds\": %llu, "
        "\"sequential_events\": %llu, \"merged_records\": %llu, "
        "\"deferred_schedules\": %llu",
        c.st.drain_seconds, c.st.round_max_seconds, c.st.merge_seconds,
        c.st.flush_seconds, c.st.sequential_seconds,
        static_cast<unsigned long long>(c.st.parallel_rounds),
        static_cast<unsigned long long>(c.st.sequential_events),
        static_cast<unsigned long long>(c.st.merged_records),
        static_cast<unsigned long long>(c.st.deferred_schedules));
    s += buf;
    if (wall_1shard > 0) {
      std::snprintf(buf, sizeof(buf), ", \"measured_speedup_vs_1shard\": %.3f",
                    wall_1shard / c.wall_s);
      s += buf;
    }
  }
  s += "}";
  return s;
}

/// Comma-separated integers, each >= lo (and even when `even`); false on
/// anything else (non-numeric, trailing junk, empty items).
bool parse_list(const char* arg, long lo, bool even, std::vector<int>& out) {
  out.clear();
  for (const char* p = arg;;) {
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(p, &end, 10);
    if (end == p || errno != 0 || v < lo || v > INT_MAX ||
        (even && v % 2 != 0)) {
      return false;
    }
    out.push_back(static_cast<int>(v));
    if (*end == '\0') return true;
    if (*end != ',') return false;
    p = end + 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> ks = {4, 6, 8};
  std::vector<int> shard_counts = {1};
  bool k16 = std::getenv("HAWKEYE_BENCH_K16") != nullptr;
  for (int i = 1; i < argc; ++i) {
    bool ok = true;
    if (std::strcmp(argv[i], "--k") == 0 && i + 1 < argc) {
      ok = parse_list(argv[++i], 4, /*even=*/true, ks);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      ok = parse_list(argv[++i], 1, /*even=*/false, shard_counts);
    } else if (std::strcmp(argv[i], "--k16") == 0) {
      k16 = true;
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr,
                   "usage: %s [--k 4,6,8 (even, >= 4)] "
                   "[--shards 1,2,4,8 (>= 1)] [--k16]\n",
                   argv[0]);
      return 2;
    }
  }

  print_header("Extension", "fabric scale sweep (fat-tree k x shards)");
  const int n = seeds_per_point(2);
  const unsigned host_cpus = std::thread::hardware_concurrency();
  std::printf("host_cpus=%u (wall-clock speedup from sharding needs >1)\n\n",
              host_cpus);
  std::printf("%-4s %-7s %-34s %-10s %-8s %-11s %-9s %-8s %-8s %-8s\n",
              "k", "shards", "anomaly", "precision", "recall", "collected",
              "Mevents", "wall-s", "Mev/s", "rss-MB");

  std::vector<Cell> cells;
  // wall_s of the shards=1 cell for each (k, anomaly), for speedup ratios.
  auto base_wall = [&cells](int k, diagnosis::AnomalyType a) {
    for (const Cell& c : cells) {
      if (c.k == k && c.shards == 1 && c.anomaly == a) return c.wall_s;
    }
    return 0.0;
  };

  for (const int k : ks) {
    for (const auto type : {diagnosis::AnomalyType::kMicroBurstIncast,
                            diagnosis::AnomalyType::kInLoopDeadlock}) {
      for (const int s : shard_counts) {
        const Cell c = run_cell_in_child(k, s, type, n);
        std::printf("%-4d %-7d %-34s %-10.2f %-8.2f %-11.1f %-9.2f %-8.2f "
                    "%-8.2f %-8.1f\n",
                    c.k, c.shards, std::string(to_string(type)).c_str(),
                    c.precision, c.recall, c.collected, c.events / 1e6,
                    c.wall_s, c.events_per_sec() / 1e6, c.peak_rss_mb);
        cells.push_back(c);
      }
    }
  }

  if (k16) {
    std::printf("\nk=16 headline (576 switches, microburst incast):\n");
    for (const int s : {1, 8}) {
      const Cell c = run_cell_in_child(
          16, s, diagnosis::AnomalyType::kMicroBurstIncast, /*seeds=*/1);
      std::printf(
          "%-4d %-7d %-34s %-10.2f %-8.2f %-11.1f %-9.2f %-8.2f %-8.2f "
          "%-8.1f\n",
          c.k, c.shards,
          std::string(to_string(diagnosis::AnomalyType::kMicroBurstIncast))
              .c_str(),
          c.precision, c.recall, c.collected, c.events / 1e6, c.wall_s,
          c.events_per_sec() / 1e6, c.peak_rss_mb);
      if (c.shards > 1) {
        const double w1 = base_wall(16, c.anomaly);
        std::printf("     drain=%.2fs merge=%.2fs flush=%.2fs seq=%.2fs "
                    "rounds=%llu; measured %.2fx vs 1 shard\n",
                    c.st.drain_seconds, c.st.merge_seconds, c.st.flush_seconds,
                    c.st.sequential_seconds,
                    static_cast<unsigned long long>(c.st.parallel_rounds),
                    w1 > 0 ? w1 / c.wall_s : 0.0);
      }
      cells.push_back(c);
    }
  }

  // Append the whole table under a "scalability" key next to the
  // google-benchmark rows bench_micro_hotpath writes.
  const char* env_path = std::getenv("HAWKEYE_BENCH_JSON");
  const std::string path =
      env_path != nullptr ? env_path : "BENCH_hotpath.json";
  std::string payload = "{\n    \"host_cpus\": " +
                        std::to_string(host_cpus) + ",\n    \"cells\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    payload += (i == 0 ? "\n      " : ",\n      ");
    payload += json_cell(cells[i], base_wall(cells[i].k, cells[i].anomaly));
  }
  payload += "\n    ]\n  }";
  if (merge_json_key(path, "scalability", payload)) {
    std::printf("\nwrote \"scalability\" into %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "\nfailed to update %s\n", path.c_str());
  }

  std::printf("\nExpected: collected-switch counts stay near the causal set\n"
              "size (victim path + loop) at every scale; accuracy holds;\n"
              "sharded cells match 1-shard output bitwise (identity suite).\n");
  return 0;
}
