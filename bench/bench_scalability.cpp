// Extension experiment: fabric-scale behaviour.
//
// The paper's NS-3 setup is a k=4 fat-tree (20 switches); this sweep grows
// the fabric to k=6/8 (45/80 switches) and checks that Hawkeye's
// collection stays *local* — the collected-switch count tracks the
// anomaly's causal footprint, not the fabric size — while diagnosis
// quality holds. Each cell reports wall-clock, events/sec and peak RSS.
// The table, with the host's CPU count, is written to
// BENCH_scalability.json in the working directory.
//
// `--k16` adds the k=16 microburst-incast cell (576 switches, tens of
// millions of events). Off by default — a k=16 run takes about half a
// minute.
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
  diagnosis::AnomalyType anomaly;
  int seeds = 1;
  double wall_s = 0;
  double events = 0;
  double precision = 0;
  double recall = 0;
  double collected = 0;
  double peak_rss_mb = 0;

  double events_per_sec() const { return wall_s > 0 ? events / wall_s : 0; }
};

Cell run_cell(int k, diagnosis::AnomalyType anomaly, int seeds) {
  Cell c;
  c.k = k;
  c.anomaly = anomaly;
  c.seeds = seeds;
  eval::RunConfig cfg;
  cfg.scenario = anomaly;
  cfg.fat_tree_k = k;
  cfg.background_load = k >= 16 ? 0.1 : 0.05;
  const auto t0 = std::chrono::steady_clock::now();
  PointStats st;
  for (int i = 0; i < seeds; ++i) {
    // Serial seed loop (not run_point's sweep pool): each cell's wall-clock
    // must measure exactly one run at a time.
    cfg.seed = 1 + static_cast<std::uint64_t>(i) * 2;
    st.add(eval::run_one(cfg));
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
Cell run_cell_in_child(int k, diagnosis::AnomalyType anomaly, int seeds) {
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
    const Cell c = run_cell(k, anomaly, seeds);
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
    std::fprintf(stderr, "cell k=%d failed in its child\n", k);
    std::exit(1);
  }
  c.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return c;
}

std::string json_cell(const Cell& c) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"k\": %d, \"anomaly\": \"%s\", \"seeds\": %d, "
                "\"wall_s\": %.3f, \"events\": %.0f, "
                "\"events_per_sec\": %.0f, \"precision\": %.3f, "
                "\"recall\": %.3f, \"peak_rss_mb\": %.1f}",
                c.k, std::string(to_string(c.anomaly)).c_str(), c.seeds,
                c.wall_s, c.events, c.events_per_sec(), c.precision,
                c.recall, c.peak_rss_mb);
  return buf;
}

void print_cell(const Cell& c) {
  std::printf("%-4d %-34s %-10.2f %-8.2f %-11.1f %-9.2f %-8.2f %-8.2f "
              "%-8.1f\n",
              c.k, std::string(to_string(c.anomaly)).c_str(), c.precision,
              c.recall, c.collected, c.events / 1e6, c.wall_s,
              c.events_per_sec() / 1e6, c.peak_rss_mb);
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
  bool k16 = false;
  for (int i = 1; i < argc; ++i) {
    bool ok = true;
    if (std::strcmp(argv[i], "--k") == 0 && i + 1 < argc) {
      ok = parse_list(argv[++i], 4, /*even=*/true, ks);
    } else if (std::strcmp(argv[i], "--k16") == 0) {
      k16 = true;
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "usage: %s [--k 4,6,8 (even, >= 4)] [--k16]\n",
                   argv[0]);
      return 2;
    }
  }

  print_header("Extension", "fabric scale sweep (fat-tree k)");
  const int n = seeds_per_point(2);
  std::printf("%-4s %-34s %-10s %-8s %-11s %-9s %-8s %-8s %-8s\n", "k",
              "anomaly", "precision", "recall", "collected", "Mevents",
              "wall-s", "Mev/s", "rss-MB");

  std::vector<Cell> cells;
  for (const int k : ks) {
    for (const auto type : {diagnosis::AnomalyType::kMicroBurstIncast,
                            diagnosis::AnomalyType::kInLoopDeadlock}) {
      cells.push_back(run_cell_in_child(k, type, n));
      print_cell(cells.back());
    }
  }
  if (k16) {
    std::printf("\nk=16 (576 switches, microburst incast):\n");
    cells.push_back(run_cell_in_child(
        16, diagnosis::AnomalyType::kMicroBurstIncast, /*seeds=*/1));
    print_cell(cells.back());
  }

  std::string json = "{\n  \"host_cpus\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ",\n  \"cells\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    json += (i == 0 ? "\n    " : ",\n    ") + json_cell(cells[i]);
  }
  json += "\n  ]\n}\n";
  if (!write_results("BENCH_scalability.json", json)) return 1;

  std::printf("\nExpected: collected-switch counts stay near the causal set\n"
              "size (victim path + loop) at every scale; accuracy holds.\n");
  return 0;
}
