#include "workload/overlay.hpp"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "net/packet.hpp"

namespace hawkeye::workload {

namespace {

using sim::Time;

Time scale_time(Time t, double s, Time floor_ns) {
  const double v = static_cast<double>(t) * s;
  return std::max(floor_ns, static_cast<Time>(std::llround(v)));
}

double clamp01(double p) { return std::min(1.0, std::max(0.0, p)); }

/// Scale a group of mutually-exclusive probabilities and renormalize so
/// their sum stays <= 1 (the injector draws one variate per site).
void scale_probs(double s, std::initializer_list<double*> ps) {
  double sum = 0;
  for (double* p : ps) {
    *p = clamp01(*p * s);
    sum += *p;
  }
  if (sum > 1.0) {
    for (double* p : ps) *p /= sum;
  }
}

void scale_fault_plan(fault::FaultPlan& plan, double rate_s, double win_s) {
  fault::FaultPlan::families(
      plan, [win_s](std::string_view, std::string_view, auto& specs) {
        for (auto& f : specs) {
          if (f.stop < 0 || win_s == 1.0) continue;  // stays unbounded
          f.stop = f.start + scale_time(f.stop - f.start, win_s, 1);
        }
      });
  for (fault::PollFaultSpec& f : plan.poll_faults) {
    scale_probs(rate_s, {&f.drop_prob, &f.duplicate_prob, &f.delay_prob});
  }
  for (fault::DmaFaultSpec& f : plan.dma_faults) {
    scale_probs(rate_s, {&f.fail_prob, &f.stale_prob});
  }
  for (fault::LinkFlapSpec& f : plan.link_flaps) {
    f.down_ns = scale_time(f.down_ns, win_s, 1);
    if (f.period_ns != 0 && f.period_ns < f.down_ns) f.down_ns = f.period_ns;
  }
  for (fault::PfcFrameFaultSpec& f : plan.pfc_faults) {
    scale_probs(rate_s, {&f.loss_prob, &f.delay_prob});
  }
  plan.rtt_jitter.prob = clamp01(plan.rtt_jitter.prob * rate_s);
  for (fault::DegradedLinkSpec& f : plan.degraded_links) {
    f.ber = clamp01(f.ber * rate_s);
  }
}

}  // namespace

std::string ScenarioOverlay::validate() const {
  if (size_scale <= 0) return "overlay: non-positive size_scale";
  if (rate_scale <= 0) return "overlay: non-positive rate_scale";
  if (arrival_stride_ns < 0) return "overlay: negative arrival_stride_ns";
  if (fault_rate_scale < 0) return "overlay: negative fault_rate_scale";
  if (fault_window_scale <= 0) {
    return "overlay: non-positive fault_window_scale";
  }
  return {};
}

void apply_overlay(ScenarioSpec& spec, const ScenarioOverlay& o) {
  if (!o.enabled()) return;

  const auto protected_tuple = [&](const net::FiveTuple& t) {
    if (t == spec.victim) return true;
    return std::find(spec.truth.root_cause_flows.begin(),
                     spec.truth.root_cause_flows.end(),
                     t) != spec.truth.root_cause_flows.end();
  };

  // Per-flow mutations keyed by the crafted (pre-drop) index so a case
  // file's indices stay meaningful regardless of which drops apply.
  for (std::size_t i = 0; i < spec.flows.size(); ++i) {
    device::FlowSpec& f = spec.flows[i];
    if (device::tuple_of(f) == spec.victim) continue;
    if (o.size_scale != 1.0) {
      f.bytes = std::max<std::int64_t>(
          net::kMtuBytes, static_cast<std::int64_t>(
                         std::llround(static_cast<double>(f.bytes) *
                                      o.size_scale)));
    }
    if (o.rate_scale != 1.0 && f.rate_cap_gbps > 0) {
      f.rate_cap_gbps *= o.rate_scale;
    }
    f.start += static_cast<sim::Time>(i) * o.arrival_stride_ns;
  }

  if (!o.drop_flows.empty()) {
    std::vector<std::uint32_t> idx = o.drop_flows;
    std::sort(idx.begin(), idx.end());
    idx.erase(std::unique(idx.begin(), idx.end()), idx.end());
    for (auto it = idx.rbegin(); it != idx.rend(); ++it) {
      if (*it >= spec.flows.size()) continue;
      if (protected_tuple(device::tuple_of(spec.flows[*it]))) continue;
      spec.flows.erase(spec.flows.begin() +
                       static_cast<std::ptrdiff_t>(*it));
    }
  }

  if (o.duration_add_ns != 0) {
    // Keep the run long enough to cover the onset plus one detection
    // interval — a trace cut before its own anomaly is not a scenario.
    const sim::Time floor_ns =
        std::max<sim::Time>(spec.anomaly_start + sim::us(200), sim::us(300));
    spec.duration = std::max(floor_ns, spec.duration + o.duration_add_ns);
  }

  if (spec.faults &&
      (o.fault_rate_scale != 1.0 || o.fault_window_scale != 1.0)) {
    scale_fault_plan(*spec.faults, o.fault_rate_scale, o.fault_window_scale);
  }
}

}  // namespace hawkeye::workload
