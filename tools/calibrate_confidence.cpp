// Calibrates diagnosis::ConfidenceDiscounts against the robustness sweeps.
//
// Method (recorded in DESIGN.md §10): run every crafted scenario under the
// collection-fault axis (uniform polling loss, bench_fault_sweeps'
// robustness grid) plus the data-plane axes (PFC frame loss, victim-path
// link flaps), label each run correct (tp) or incorrect, and grid-search
// the three per-class discounts for the triple that best separates correct
// from incorrect runs by reported confidence:
//   primary:   AUC (Mann-Whitney) of confidence as a correctness ranker
//   tie-break: Brier score (mean squared error of confidence against the
//              correct/incorrect outcome) — AUC is invariant under the
//              monotone rescaling a steeper discount applies, so the
//              ranking ties and Brier picks the best-CALIBRATED triple,
//              the one whose confidence best approximates P(correct)
// subject to the ordering invariant failed < stale < repoll (a snapshot
// that never arrived is worse evidence than one that arrived late, which
// is worse than one that merely needed a retry).
//
//   $ ./calibrate_confidence [seeds-per-point]
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "diagnosis/diagnosis.hpp"
#include "eval/runner.hpp"
#include "eval/sweep.hpp"
#include "parse_int.hpp"

using namespace hawkeye;

namespace {

struct Sample {
  bool correct = false;
  double coverage = 1.0;
  std::uint32_t failed = 0, stale = 0, repolls = 0;
};

double auc(const std::vector<Sample>& samples,
           const diagnosis::ConfidenceDiscounts& d) {
  // Mann-Whitney U: P(conf(correct) > conf(incorrect)), ties count 0.5.
  double wins = 0;
  std::uint64_t pairs = 0;
  for (const Sample& pos : samples) {
    if (!pos.correct) continue;
    const double cp = diagnosis::collection_confidence(
        pos.coverage, pos.failed, pos.stale, pos.repolls, d);
    for (const Sample& neg : samples) {
      if (neg.correct) continue;
      const double cn = diagnosis::collection_confidence(
          neg.coverage, neg.failed, neg.stale, neg.repolls, d);
      ++pairs;
      if (cp > cn) wins += 1;
      else if (cp == cn) wins += 0.5;
    }
  }
  return pairs == 0 ? 0.5 : wins / static_cast<double>(pairs);
}

double brier(const std::vector<Sample>& samples,
             const diagnosis::ConfidenceDiscounts& d) {
  double sum = 0;
  for (const Sample& s : samples) {
    const double c = diagnosis::collection_confidence(s.coverage, s.failed,
                                                      s.stale, s.repolls, d);
    const double y = s.correct ? 1.0 : 0.0;
    sum += (c - y) * (c - y);
  }
  return samples.empty() ? 1.0 : sum / static_cast<double>(samples.size());
}

}  // namespace

int main(int argc, char** argv) {
  int seeds = 5;
  if (argc > 2 || (argc == 2 && !parse_int(argv[1], 1, INT_MAX, seeds))) {
    std::fprintf(stderr,
                 "usage: calibrate_confidence [seeds-per-point >= 1]\n");
    return 2;
  }
  const diagnosis::AnomalyType types[] = {
      diagnosis::AnomalyType::kMicroBurstIncast,
      diagnosis::AnomalyType::kPfcStorm,
      diagnosis::AnomalyType::kInLoopDeadlock,
      diagnosis::AnomalyType::kOutOfLoopDeadlockContention,
      diagnosis::AnomalyType::kOutOfLoopDeadlockInjection,
      diagnosis::AnomalyType::kNormalContention,
  };

  std::vector<fault::FaultPlan> plans;
  for (const double rate : {0.05, 0.10, 0.20, 0.30, 0.40}) {
    plans.push_back(fault::FaultPlan::uniform_poll_loss(rate, 1));
  }
  for (const double rate : {0.25, 0.50}) {
    plans.push_back(fault::FaultPlan::uniform_pfc_loss(rate, 1));
  }
  for (const sim::Time period : {sim::us(500), sim::us(250)}) {
    plans.push_back(fault::FaultPlan::victim_path_flaps(period, 0, 1));
  }

  std::vector<Sample> samples;
  for (const fault::FaultPlan& plan : plans) {
    for (const auto type : types) {
      eval::RunConfig cfg;
      cfg.scenario = type;
      cfg.faults = plan;
      for (const eval::RunResult& r :
           eval::run_sweep(eval::seed_sweep(cfg, seeds))) {
        Sample s;
        s.correct = r.tp;
        s.coverage = r.collection_coverage;
        s.failed = r.failed_collections;
        s.stale = r.stale_epochs;
        s.repolls = r.repolls;
        samples.push_back(s);
      }
    }
  }
  int npos = 0;
  for (const Sample& s : samples) npos += s.correct ? 1 : 0;
  std::printf("%zu runs (%d correct, %zu incorrect)\n", samples.size(), npos,
              samples.size() - static_cast<std::size_t>(npos));

  const double fgrid[] = {0.70, 0.75, 0.80, 0.85, 0.90};
  const double sgrid[] = {0.90, 0.93, 0.95, 0.97};
  const double rgrid[] = {0.95, 0.96, 0.97, 0.98, 0.99};
  diagnosis::ConfidenceDiscounts best;
  double best_auc = -1, best_brier = 2;
  for (const double f : fgrid) {
    for (const double s : sgrid) {
      if (s <= f) continue;  // ordering invariant: failed < stale < repoll
      for (const double r : rgrid) {
        if (r <= s) continue;
        const diagnosis::ConfidenceDiscounts d{f, s, r};
        const double a = auc(samples, d);
        const double b = brier(samples, d);
        if (a > best_auc + 1e-12 ||
            (a > best_auc - 1e-12 && b < best_brier)) {
          best_auc = a;
          best_brier = b;
          best = d;
        }
      }
    }
  }

  const diagnosis::ConfidenceDiscounts current{};
  std::printf("current defaults  f=%.2f s=%.2f r=%.2f  AUC=%.4f brier=%.4f\n",
              current.failed_collection, current.stale_epoch, current.repoll,
              auc(samples, current), brier(samples, current));
  std::printf("best on grid      f=%.2f s=%.2f r=%.2f  AUC=%.4f brier=%.4f\n",
              best.failed_collection, best.stale_epoch, best.repoll, best_auc,
              best_brier);
  return 0;
}
