/// \file report.h
/// What a workload run produces — named metrics with units plus a
/// correctness tally — and the helpers that derive per-layer numbers from
/// the instrumentation the program's calls already return.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/optimizer.h"
#include "route/result.h"

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Result of one workload run.
struct Outcome {
  std::vector<std::pair<std::string, Metric>> metrics;  ///< in print order
  long attempted = 0;  ///< flows or jobs started in the timed phase
  long ok = 0;         ///< of those, finished ok with the expected digest
  std::vector<std::string> mismatches;  ///< correctness failures, readable
  std::vector<std::string> info;  ///< extra lines for the human-readable log

  /// Sets (or overwrites) metric `name`.
  void set(std::string_view name, double value, std::string_view unit);
  void mismatch(std::string what) { mismatches.push_back(std::move(what)); }
  [[nodiscard]] bool correct() const {
    return mismatches.empty() && ok == attempted && attempted > 0;
  }
  /// ok / attempted; the `ok_frac` metric.
  [[nodiscard]] double okFrac() const;
};

/// Every per-layer metric the traced run prints, with its unit. Layers a
/// workload does not exercise print 0.
struct LayerMetricSpec {
  std::string_view name;
  std::string_view unit;
};
[[nodiscard]] const std::vector<LayerMetricSpec>& layerMetricSpecs();

/// Linear-interpolated quantile (q in [0,1]) of `v`; 0 for an empty input.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
/// Arithmetic mean; 0 for an empty input.
[[nodiscard]] double mean(const std::vector<double>& v);
/// "<what>: n samples, min / quartiles / max" for the log.
[[nodiscard]] std::string describeSamples(std::string_view what,
                                          const std::vector<double>& v);

/// Peak resident set of this process so far (getrusage), in MiB.
[[nodiscard]] double peakRssMb();

[[nodiscard]] std::string hex16(std::uint64_t v);

/// Sixteen hex digits of `route::resultDigest`, optionally flipped for the
/// negative control.
[[nodiscard]] std::string expectedDigest(std::uint64_t digest, bool flip);

/// Accumulates per-layer numbers over one or more flows. Additive values
/// (times, counts) are summed; `emit` can report the flow values as a mean
/// per flow (batch workloads) or as totals (one pass over a job list).
class LayerSample {
 public:
  /// Folds one pin access + routing result in: stage busy times from the
  /// spans each call returned, work counts from its counters. The `*S`
  /// arguments are the benchmark's own wall times around the calls.
  void addFlow(const cpr::core::PinAccessPlan& plan,
               const cpr::route::RoutingResult& routing, double optimizeS,
               double negotiatedS, double summarizeS);
  /// Adds to a value measured outside the flows (synthesis, DEF I/O, panel
  /// extraction); `emit` never divides these.
  void add(std::string_view key, double value);

  /// Sets every per-layer metric on `out`. Flow values are divided by the
  /// flow count when `meanPerFlow`; ratios and percentiles come from the
  /// pooled data.
  void emit(Outcome& out, bool meanPerFlow) const;

 private:
  void addToFlows(std::string_view key, double value);

  int flows_ = 0;
  std::map<std::string, double, std::less<>> flowSum_;
  std::map<std::string, double, std::less<>> other_;
  std::vector<double> panelSolve_;  ///< per-panel `pao.solve` seconds
  double scratchPeak_ = 0.0;
};

}  // namespace perfbench
