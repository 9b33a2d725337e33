// Adversarial misdiagnosis hunter (DESIGN.md §15): seeded search over the
// joint scenario/workload/topology/fault configuration space with diagnosis
// correctness as the objective, delta-debugging every failure to a minimal
// replayable counterexample.
//
//   Hunt:   ./hunt_misdiagnosis --seed 1 --budget 200 --corpus out/
//   Replay: ./hunt_misdiagnosis --replay tests/hunt_corpus
//
// Campaigns are fully deterministic in (--seed, --budget): sampling is a
// pure function of (seed, trial index) and evaluation goes through
// eval::run_sweep, so --threads changes wall-clock only. Replay mode is
// the CI gate: it parses every committed corpus file (a parse failure IS a
// failure — format drift must break the build), re-runs it, and exits
// non-zero unless each case reproduces its recorded verdict class.
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "eval/hunter.hpp"
#include "parse_int.hpp"

using namespace hawkeye;

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seed N] [--budget N>=1] [--threads N>=0]\n"
      "          [--tau X in [0,1]] [--k K (even, >= 4) ...] [--no-shrink]\n"
      "          [--max-finds N>=1] [--corpus DIR] [--log FILE]\n"
      "       %s --replay FILE-OR-DIR [--tau X] [--explain]\n",
      argv0, argv0);
  return 2;
}

int replay(const std::string& target, double tau, bool explain) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  if (fs::is_directory(target)) {
    for (const auto& e : fs::directory_iterator(target)) {
      if (e.is_regular_file() && e.path().extension() == ".txt") {
        files.push_back(e.path());
      }
    }
    std::sort(files.begin(), files.end());
  } else {
    files.emplace_back(target);
  }
  if (files.empty()) {
    std::fprintf(stderr, "replay: no corpus files in %s\n", target.c_str());
    return 1;
  }
  int failures = 0;
  for (const fs::path& f : files) {
    std::ifstream in(f, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "FAIL %s: unreadable\n", f.string().c_str());
      ++failures;
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    eval::HuntCase hc;
    try {
      hc = eval::parse_case(buf.str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "FAIL %s: parse error: %s\n",
                   f.string().c_str(), e.what());
      ++failures;
      continue;
    }
    // Round-trip gate: a committed file must already be in canonical form,
    // or two camps of "the same" corpus would diff forever.
    if (eval::serialize_case(hc) != buf.str()) {
      std::fprintf(stderr, "FAIL %s: not in canonical form (re-serialize)\n",
                   f.string().c_str());
      ++failures;
      continue;
    }
    const eval::ReplayOutcome out = eval::replay_case(hc, tau);
    if (out.matches_expected) {
      std::printf("ok   %s (%s)\n", f.filename().string().c_str(),
                  hc.expected_class.c_str());
    } else {
      std::fprintf(stderr, "FAIL %s: %s\n", f.filename().string().c_str(),
                   out.detail.c_str());
      ++failures;
    }
    if (explain) {
      const eval::RunResult& r = out.result;
      std::printf("     %s\n     init=%s peer=%d conf=%.3f collected=%zu "
                  "cov=%.2f degraded=%d\n",
                  out.detail.c_str(), net::to_string(r.dx.initial_port).c_str(),
                  r.dx.injecting_peer, r.confidence, r.collected.size(),
                  r.causal_coverage, r.degraded);
      for (const auto& fl : r.dx.root_cause_flows) {
        std::printf("     root %s\n", fl.to_string().c_str());
      }
      if (!r.dx.narrative.empty()) {
        std::printf("     narrative: %s\n", r.dx.narrative.c_str());
      }
    }
  }
  std::printf("replayed %zu case(s), %d failure(s)\n", files.size(),
              failures);
  return failures == 0 ? 0 : 1;
}

// Appends a fat-tree k a run can take (the case-file range rule: even,
// >= 4).
bool add_k(const char* arg, std::vector<int>& ks) {
  eval::RunConfig cfg;
  if (!parse_number(arg, cfg.fat_tree_k) || !eval::config_error(cfg).empty()) {
    return false;
  }
  ks.push_back(cfg.fat_tree_k);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  eval::HuntOptions opts;
  opts.ks.clear();
  std::string log_file;
  std::string replay_target;
  bool explain = false;
  double tau = opts.tau;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--no-shrink") {
      opts.shrink = false;
      continue;
    }
    if (a == "--explain") {
      explain = true;
      continue;
    }
    if (i + 1 >= argc) return usage(argv[0]);
    const char* v = argv[++i];
    bool ok = true;
    if (a == "--seed") ok = parse_number(v, opts.seed);
    else if (a == "--budget") ok = parse_int(v, 1, INT_MAX, opts.budget);
    else if (a == "--threads") ok = parse_int(v, 0, INT_MAX, opts.threads);
    else if (a == "--tau") ok = parse_number(v, tau) && tau >= 0 && tau <= 1;
    else if (a == "--k") ok = add_k(v, opts.ks);
    else if (a == "--max-finds") ok = parse_int(v, 1, INT_MAX, opts.max_finds);
    else if (a == "--corpus") opts.corpus_dir = v;
    else if (a == "--log") log_file = v;
    else if (a == "--replay") replay_target = v;
    else ok = false;
    if (!ok) return usage(argv[0]);
  }
  if (!replay_target.empty()) return replay(replay_target, tau, explain);

  opts.tau = tau;
  if (opts.ks.empty()) opts.ks = {4};

  const eval::HuntReport rep = eval::run_hunt_campaign(opts);
  std::fputs(rep.log.c_str(), stdout);
  if (!log_file.empty()) {
    std::ofstream out(log_file, std::ios::binary);
    out << rep.log;
  }
  for (const eval::HuntFind& f : rep.finds) {
    std::printf("--- find trial=%d sig=%s shrink_evals=%d flows=%zu->%zu\n",
                f.trial, f.signature.c_str(), f.shrink_evals,
                f.flows_before, f.flows_after);
    std::fputs(eval::serialize_case(f.shrunk).c_str(), stdout);
  }
  return 0;
}
