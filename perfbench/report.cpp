#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "obs/names.h"

namespace perfbench {

namespace names = cpr::obs::names;

void Outcome::set(std::string_view name, double value, std::string_view unit) {
  for (auto& [n, m] : metrics) {
    if (n == name) {
      m = Metric{value, std::string(unit)};
      return;
    }
  }
  metrics.emplace_back(std::string(name), Metric{value, std::string(unit)});
}

double Outcome::okFrac() const {
  return attempted > 0 ? static_cast<double>(ok) / static_cast<double>(attempted)
                       : 0.0;
}

const std::vector<LayerMetricSpec>& layerMetricSpecs() {
  static const std::vector<LayerMetricSpec> kSpecs{
      {"gen.generate_s", "s"},          {"gen.nets", "count"},
      {"lefdef.write_s", "s"},          {"lefdef.read_s", "s"},
      {"lefdef.bytes", "bytes"},        {"db.extract_panels_s", "s"},
      {"db.panels", "count"},           {"core.optimize_s", "s"},
      {"core.gen_s", "s"},              {"core.conflict_s", "s"},
      {"core.compile_s", "s"},          {"core.solve_sum_s", "s"},
      {"core.panel_solve_p50_s", "s"},  {"core.panel_solve_max_s", "s"},
      {"core.intervals", "count"},      {"core.conflicts", "count"},
      {"core.solver_iterations", "count"},
      {"core.kernel_bytes", "bytes"},   {"core.scratch_peak_bytes", "bytes"},
      {"core.panels_degraded", "count"},
      {"core.unassigned_pins", "count"},
      {"ilp.nodes", "count"},           {"ilp.lp_pivots", "count"},
      {"ilp.lp_warm_solves", "count"},  {"ilp.lp_cold_solves", "count"},
      {"ilp.warm_share", "ratio"},      {"route.negotiated_s", "s"},
      {"route.independent_s", "s"},     {"route.rrr_s", "s"},
      {"route.drc_repair_s", "s"},      {"route.signoff_s", "s"},
      {"route.unspanned_s", "s"},       {"route.batches", "count"},
      {"route.nets_per_batch", "count"},
      {"route.batch_conflicts", "count"},
      {"route.astar_searches", "count"},
      {"route.astar_pops", "count"},    {"route.rrr_iterations", "count"},
      {"route.ripups", "count"},        {"route.congested_pre_rrr", "count"},
      {"eval.summarize_s", "s"},        {"eval.drc_violations", "count"},
      {"serve.admit_p50_s", "s"},       {"serve.queue_wait_p50_s", "s"},
      {"serve.queue_wait_p90_s", "s"},  {"serve.run_p50_s", "s"},
      {"serve.run_p90_s", "s"},         {"serve.pipeline_p50_s", "s"},
      {"serve.overhead_p50_s", "s"},    {"serve.rejected", "count"},
      {"serve.retried", "count"},       {"serve.failed", "count"},
      {"serve.queue_peak_depth", "count"},
  };
  return kSpecs;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string describeSamples(std::string_view what,
                            const std::vector<double>& v) {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "%.*s: %zu samples, min %.5f, quartiles %.5f %.5f %.5f, max %.5f",
                static_cast<int>(what.size()), what.data(), v.size(),
                quantile(v, 0.0), quantile(v, 0.25), quantile(v, 0.5),
                quantile(v, 0.75), quantile(v, 1.0));
  return buf;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string expectedDigest(std::uint64_t digest, bool flip) {
  return hex16(flip ? digest ^ 1U : digest);
}

namespace {

double spanSeconds(const cpr::obs::Collector& c, std::string_view name,
                   std::vector<double>* each = nullptr) {
  double total = 0.0;
  for (const cpr::obs::Span& s : c.spans()) {
    if (s.name != name) continue;
    const double sec = std::chrono::duration<double>(s.dur).count();
    total += sec;
    if (each) each->push_back(sec);
  }
  return total;
}

void accumulate(std::map<std::string, double, std::less<>>& into,
                std::string_view key, double value) {
  auto it = into.find(key);
  if (it == into.end()) it = into.emplace(std::string(key), 0.0).first;
  it->second += value;
}

double valueOf(const std::map<std::string, double, std::less<>>& from,
               std::string_view key) {
  const auto it = from.find(key);
  return it == from.end() ? 0.0 : it->second;
}

}  // namespace

void LayerSample::add(std::string_view key, double value) {
  accumulate(other_, key, value);
}

void LayerSample::addToFlows(std::string_view key, double value) {
  accumulate(flowSum_, key, value);
}

void LayerSample::addFlow(const cpr::core::PinAccessPlan& plan,
                          const cpr::route::RoutingResult& routing,
                          double optimizeS, double negotiatedS,
                          double summarizeS) {
  ++flows_;
  const cpr::obs::Collector& p = plan.stats;
  const cpr::obs::Collector& r = routing.stats;
  const auto count = [](const cpr::obs::Collector& c, std::string_view n) {
    return static_cast<double>(c.counter(n));
  };
  addToFlows("core.optimize_s", optimizeS);
  addToFlows("core.gen_s", spanSeconds(p, names::kPaoGenSpan));
  addToFlows("core.conflict_s", spanSeconds(p, names::kPaoConflictSpan));
  addToFlows("core.compile_s", spanSeconds(p, names::kPaoCompileSpan));
  addToFlows("core.solve_sum_s", spanSeconds(p, names::kPaoSolveSpan, &panelSolve_));
  addToFlows("core.intervals", count(p, names::kPaoIntervals));
  addToFlows("core.conflicts", count(p, names::kPaoConflicts));
  addToFlows("core.solver_iterations", static_cast<double>(plan.solverIterations()));
  addToFlows("core.kernel_bytes", count(p, names::kPaoKernelBytes));
  scratchPeak_ = std::max(scratchPeak_,
                          p.gaugeOr(names::kPaoScratchPeakBytes, 0.0));
  addToFlows("core.panels_degraded", count(p, names::kPaoPanelFailed) +
                                  count(p, names::kPaoPanelDegraded) +
                                  count(p, names::kPaoFallbacks));
  addToFlows("core.unassigned_pins", count(p, names::kPaoUnassigned));
  addToFlows("ilp.nodes", count(p, names::kIlpNodes));
  addToFlows("ilp.lp_pivots", count(p, names::kIlpPivots));
  addToFlows("ilp.lp_warm_solves", count(p, names::kIlpWarmSolves));
  addToFlows("ilp.lp_cold_solves", count(p, names::kIlpColdSolves));

  const double independent = spanSeconds(r, names::kRouteIndependentSpan);
  const double rrr = spanSeconds(r, names::kRouteRrrSpan);
  const double repair = spanSeconds(r, names::kRouteDrcRepairSpan);
  const double signoff = spanSeconds(r, names::kRouteSignoffSpan);
  addToFlows("route.negotiated_s", negotiatedS);
  addToFlows("route.independent_s", independent);
  addToFlows("route.rrr_s", rrr);
  addToFlows("route.drc_repair_s", repair);
  addToFlows("route.signoff_s", signoff);
  addToFlows("route.unspanned_s",
      negotiatedS - independent - rrr - repair - signoff);
  addToFlows("route.batches", count(r, names::kRouteBatches));
  addToFlows("route.parallel_nets", count(r, names::kRouteParallelNets));
  addToFlows("route.batch_conflicts", count(r, names::kRouteBatchConflicts));
  addToFlows("route.astar_searches", count(r, names::kRouteSearches));
  addToFlows("route.astar_pops", count(r, names::kRoutePops));
  addToFlows("route.rrr_iterations", count(r, names::kRouteRrrIterations));
  addToFlows("route.ripups", count(r, names::kRouteRipups));
  addToFlows("route.congested_pre_rrr", count(r, names::kRouteCongestedPreRrr));
  addToFlows("eval.summarize_s", summarizeS);
  addToFlows("eval.drc_violations", count(r, names::kDrcViolations));
}

void LayerSample::emit(Outcome& out, bool meanPerFlow) const {
  const double divisor = meanPerFlow && flows_ > 0 ? flows_ : 1.0;
  const auto total = [&](std::string_view key) {
    return valueOf(flowSum_, key) + valueOf(other_, key);
  };
  for (const LayerMetricSpec& spec : layerMetricSpecs()) {
    out.set(spec.name,
            valueOf(flowSum_, spec.name) / divisor + valueOf(other_, spec.name),
            spec.unit);
  }
  // Derived values are ratios or order statistics of the pooled data, so
  // they are not divided.
  out.set("core.panel_solve_p50_s", quantile(panelSolve_, 0.5), "s");
  out.set("core.panel_solve_max_s", quantile(panelSolve_, 1.0), "s");
  out.set("core.scratch_peak_bytes", scratchPeak_, "bytes");
  const double warm = total("ilp.lp_warm_solves");
  const double cold = total("ilp.lp_cold_solves");
  out.set("ilp.warm_share", warm + cold > 0.0 ? warm / (warm + cold) : 0.0,
          "ratio");
  const double batches = total("route.batches");
  out.set("route.nets_per_batch",
          batches > 0.0 ? total("route.parallel_nets") / batches : 0.0,
          "count");
}

}  // namespace perfbench
