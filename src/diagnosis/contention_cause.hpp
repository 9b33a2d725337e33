#pragma once

#include <string_view>
#include <vector>

#include "diagnosis/diagnosis.hpp"
#include "net/routing.hpp"
#include "provenance/graph.hpp"

namespace hawkeye::diagnosis {

struct ContentionCauseReport {
  ContentionCause cause = ContentionCause::kUnknown;
  /// max/mean traffic ratio across the ECMP-equivalent sibling ports of
  /// the congested egress (1.0 = perfectly balanced).
  double ecmp_imbalance_ratio = 1.0;
  /// Distinct sources among the contributing flows.
  int distinct_sources = 0;
  std::string narrative;
};

/// Classify why the initial congestion port of `dx` was contended, using
/// the provenance graph's meters (for the imbalance ratio) and the
/// root-cause flows' tuples/volumes.
ContentionCauseReport analyze_contention_cause(
    const provenance::ProvenanceGraph& g, const net::Topology& topo,
    const net::Routing& routing, const DiagnosisResult& dx);

}  // namespace hawkeye::diagnosis
