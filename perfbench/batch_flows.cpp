// The two batch workloads: a list of generated designs through the whole
// CPR flow, one flow at a time, in whole passes over the list until the
// run's time is used up. Every flow is checked against its design's
// expected route digest after the timed phase, and the first designs are
// also routed at 1 thread, untimed, to check that the thread count does not
// change the result.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "db/panel.h"
#include "eval/metrics.h"
#include "gen/generator.h"
#include "obs/names.h"
#include "route/cpr.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace names = cpr::obs::names;

struct BatchSpec {
  /// Synthesizes design `i` of the run's list from the workload seed.
  cpr::db::Design (*make)(std::uint64_t seed, int i);
  /// Distinct designs per run; a pass is one 4-thread flow of each.
  int designs;
  /// Designs 0 .. oneThreadChecks-1 also get one untimed 1-thread flow,
  /// which must reproduce their 4-thread result.
  int oneThreadChecks;
  /// Syntheses of the list per run, about 3 s in all so that a short
  /// stall of the host does not move their median, `setup_s`; half run
  /// before and half after the timed phase.
  int setupReps;
  cpr::core::Method method;  ///< pin access solver
  /// Expected route digests and plan objectives of the first designs at
  /// the default seed.
  std::vector<std::uint64_t> pinnedDigests;
  std::vector<double> pinnedObjectives;
};

constexpr int kThreads = 4;

struct Flow {
  double seconds = 0.0;  ///< wall time
  std::uint64_t digest = 0;
  double objective = 0.0;
  bool statusOk = false;
  cpr::eval::Metrics metrics;
};

cpr::route::CprOptions flowOptions(cpr::core::Method method, int threads) {
  cpr::route::CprOptions o;
  o.pinAccess.solve.method = method;
  o.pinAccess.threads = threads;
  o.routing.threads = threads;
  return o;
}

/// One full flow: pin access, negotiation routing, signoff metrics — the
/// calls `route::routeCpr` makes, made one by one so each gets a span.
Flow runFlow(const cpr::db::Design& design, cpr::core::Method method,
             int threads, Tracer& tracer, const std::string& flowId,
             LayerSample* layers) {
  const cpr::route::CprOptions o = flowOptions(method, threads);
  Flow f;
  cpr::core::PinAccessPlan plan;
  cpr::route::RoutingResult routing;
  double optimizeS = 0.0;
  double negotiatedS = 0.0;
  double summarizeS = 0.0;
  int optimizeSpan = -1;
  int routeSpan = -1;
  {
    Span root(tracer, "flow", flowId);
    const Clock::time_point t0 = Clock::now();
    {
      Span s(tracer, "core.optimizePinAccess", flowId, root.id());
      optimizeSpan = s.id();
      plan = cpr::core::optimizePinAccess(design, o.pinAccess);
    }
    const Clock::time_point t1 = Clock::now();
    {
      Span s(tracer, "route.routeNegotiated", flowId, root.id());
      routeSpan = s.id();
      routing = cpr::route::routeNegotiated(design, &plan, o.routing);
    }
    const Clock::time_point t2 = Clock::now();
    {
      Span s(tracer, "eval.summarize", flowId, root.id());
      f.metrics = cpr::eval::summarize(design, routing,
                                       secondsBetween(t0, t1));
    }
    const Clock::time_point t3 = Clock::now();
    f.seconds = secondsBetween(t0, t3);
    optimizeS = secondsBetween(t0, t1);
    negotiatedS = secondsBetween(t1, t2);
    summarizeS = secondsBetween(t2, t3);
  }
  tracer.adopt(plan.stats, flowId, optimizeSpan);
  tracer.adopt(routing.stats, flowId, routeSpan);
  f.digest = cpr::route::resultDigest(routing);
  f.objective = plan.objective;
  const long degraded = plan.stats.counter(names::kPaoPanelFailed) +
                        plan.stats.counter(names::kPaoPanelDegraded) +
                        plan.stats.counter(names::kPaoFallbacks);
  f.statusOk = degraded == 0 && plan.unassignedPins() == 0 &&
               plan.allProvedOptimal() &&
               routing.stats.counter(names::kRouteTimeout) == 0;
  if (layers) layers->addFlow(plan, routing, optimizeS, negotiatedS, summarizeS);
  return f;
}

/// Times the panel extraction of `design` for the per-layer table (traced
/// run only). `optimizePinAccess` makes the same call inside each flow but
/// returns no span for it.
void measurePanelExtraction(const cpr::db::Design& design, Tracer& tracer,
                            LayerSample& layers) {
  const Clock::time_point t0 = Clock::now();
  std::size_t panels = 0;
  {
    Span s(tracer, "db.extractPanels", "panels");
    panels = cpr::db::extractPanels(design).size();
  }
  layers.add("db.extract_panels_s", secondsBetween(t0, Clock::now()));
  layers.add("db.panels", static_cast<double>(panels));
}

Outcome runBatch(const BatchSpec& spec, const RunOptions& opts,
                 Tracer& tracer) {
  Outcome out;

  // Set-up: synthesis of the run's designs. Half of the setupReps
  // syntheses run before the timed phase, and the last list is the input;
  // the other half run after it, so setup_s pools the host's state at both
  // ends of the run.
  std::vector<double> setup;
  const auto synthesize = [&] {
    std::vector<cpr::db::Design> list;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < spec.designs; ++i) {
      Span s(tracer, "gen.makeSuiteDesign", "setup");
      list.push_back(spec.make(opts.seed, i));
    }
    setup.push_back(secondsBetween(t0, Clock::now()));
    return list;
  };
  std::vector<cpr::db::Design> designs;
  for (int rep = 0; rep < spec.setupReps / 2; ++rep) designs = synthesize();
  for (const cpr::db::Design& d : designs) {
    if (const std::string bad = d.validate(); !bad.empty())
      out.mismatch("generated design " + d.name() + " fails validation: " + bad);
  }

  // Timed phase: whole passes over the design list until the run's time is
  // up, so every run times the same designs in the same proportions
  // whatever the host's speed. Untraced pass: one 4-thread flow of each
  // design. Traced pass: each 4-thread flow is run untraced and then
  // traced, so their difference is the tracing overhead.
  Tracer off(false, opts.workload);
  struct Done {
    int design;
    Flow flow;
  };
  std::vector<Done> flows4;
  std::vector<double> passMeans;
  std::vector<double> traced4;
  std::vector<double> untraced4;
  LayerSample layers;
  int passes = 0;
  const Clock::time_point start = Clock::now();
  while (passes == 0 || secondsBetween(start, Clock::now()) < opts.seconds) {
    double passSeconds = 0.0;
    for (int i = 0; i < spec.designs; ++i) {
      const cpr::db::Design& d = designs[std::size_t(i)];
      const std::string id =
          "pass" + std::to_string(passes) + ".design" + std::to_string(i);
      flows4.push_back({i, runFlow(d, spec.method, kThreads, off, id, nullptr)});
      passSeconds += flows4.back().flow.seconds;
      if (!opts.trace) continue;
      untraced4.push_back(flows4.back().flow.seconds);
      flows4.push_back(
          {i, runFlow(d, spec.method, kThreads, tracer, id + ".traced", &layers)});
      traced4.push_back(flows4.back().flow.seconds);
    }
    passMeans.push_back(passSeconds / spec.designs);
    ++passes;
  }
  const double timedSeconds = secondsBetween(start, Clock::now());
  for (int rep = 0; rep < spec.setupReps / 2; ++rep) (void)synthesize();

  // Untimed 1-thread flows of the first designs (untraced run only).
  std::vector<Done> flows1;
  for (int i = 0; !opts.trace && i < std::min(spec.oneThreadChecks, spec.designs);
       ++i) {
    flows1.push_back({i, runFlow(designs[std::size_t(i)], spec.method, 1, off,
                                 "design" + std::to_string(i) + ".1t", nullptr)});
  }

  // Correctness, outside the timed phase: every flow of a design has the
  // same digest and objective — the pinned ones at the default seed, else
  // those of its first 4-thread flow.
  const bool pinned = opts.seed == kDefaultSeed;
  const auto reference = [&](int design) -> const Flow& {
    return flows4[std::size_t(opts.trace ? 2 * design : design)].flow;
  };
  const auto check = [&](const Done& done, const std::string& what) {
    const Flow& f = done.flow;
    const auto k = std::size_t(done.design);
    ++out.attempted;
    bool good = f.statusOk;
    if (!f.statusOk)
      out.mismatch(what + ": degraded, unassigned, unproved or timed out");
    const std::string want = expectedDigest(
        pinned && k < spec.pinnedDigests.size() ? spec.pinnedDigests[k]
                                                : reference(done.design).digest,
        opts.flipExpected);
    if (hex16(f.digest) != want) {
      out.mismatch(what + ": digest " + hex16(f.digest) + ", expected " + want);
      good = false;
    }
    const double wantObj = pinned && k < spec.pinnedObjectives.size()
                               ? spec.pinnedObjectives[k]
                               : reference(done.design).objective;
    if (std::fabs(f.objective - wantObj) >
        1e-9 * std::max(1.0, std::fabs(wantObj))) {
      char buf[128];
      std::snprintf(buf, sizeof buf, ": plan objective %.17g, expected %.17g",
                    f.objective, wantObj);
      out.mismatch(what + buf);
      good = false;
    }
    if (good) ++out.ok;
    return good;
  };
  long ok4 = 0;
  for (const Done& d : flows4)
    ok4 += check(d, "4-thread flow of design " + std::to_string(d.design)) ? 1 : 0;
  for (const Done& d : flows1)
    check(d, "1-thread flow of design " + std::to_string(d.design));

  std::vector<double> secs4;
  for (const Done& d : flows4) secs4.push_back(d.flow.seconds);

  if (opts.trace) {
    measurePanelExtraction(designs.front(), tracer, layers);
    layers.add("gen.generate_s", median(setup) / spec.designs);
    layers.add("gen.nets", static_cast<double>(designs.front().nets().size()));
    layers.emit(out, /*meanPerFlow=*/true);
    const double tr = median(traced4);
    const double un = median(untraced4);
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "tracing overhead: flow_s traced %.4f s - untraced %.4f s = "
                  "%+.4f s (%+.2f%%)",
                  tr, un, tr - un, un > 0.0 ? 100.0 * (tr - un) / un : 0.0);
    out.info.emplace_back(buf);
    return out;
  }

  // Quality: summed over the designs, which every pass routes.
  double routed = 0.0;
  double nets = 0.0;
  double vias = 0.0;
  double wirelength = 0.0;
  double objective = 0.0;
  for (int i = 0; i < spec.designs; ++i) {
    char line[128];
    std::snprintf(line, sizeof line, "design %d: digest %s, plan objective %.17g",
                  i, hex16(reference(i).digest).c_str(), reference(i).objective);
    out.info.emplace_back(line);
    const cpr::eval::Metrics& m = reference(i).metrics;
    routed += m.routedClean;
    nets += m.totalNets;
    vias += static_cast<double>(m.vias);
    wirelength += static_cast<double>(m.wirelength);
    objective += reference(i).objective;
  }
  out.set("setup_s", median(setup), "s");
  out.info.push_back(describeSamples("setup s", setup));
  out.set("flow_s", median(passMeans), "s");
  out.set("peak_rss_mb", peakRssMb(), "MB");
  out.set("job_p50_s", quantile(secs4, 0.5), "s");
  out.set("job_p90_s", quantile(secs4, 0.9), "s");
  // One flow runs at a time, so this restates the mean flow time.
  out.set("jobs_per_s", static_cast<double>(ok4) / timedSeconds, "1/s");
  out.set("routability_pct", nets > 0.0 ? 100.0 * routed / nets : 0.0, "%");
  out.set("vias", vias, "count");
  out.set("wirelength", wirelength, "count");
  out.set("plan_objective", objective, "count");

  // The 1-thread flows' wall time and the 4-thread speed-up over the same
  // designs, for information only: they are single, untimed samples.
  double sum1 = 0.0;
  double sum4 = 0.0;
  for (const Done& d : flows1) sum1 += d.flow.seconds;
  for (const Done& d : flows4)
    if (d.design < spec.oneThreadChecks) sum4 += d.flow.seconds;
  sum4 /= passes;
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "%d pass(es) over %d designs in %.1f s: %zu 4-thread flows; "
                "1-thread check flows %.3f s, speed-up at 4 threads "
                "(information only) %.3fx",
                passes, spec.designs, timedSeconds, secs4.size(), sum1,
                sum4 > 0.0 ? sum1 / sum4 : 0.0);
  out.info.emplace_back(buf);
  std::string each = "4-thread flows, wall s:";
  for (double s : secs4) {
    std::snprintf(buf, sizeof buf, " %.3f", s);
    each += buf;
  }
  out.info.push_back(each);
  return out;
}

cpr::db::Design topDesign(std::uint64_t seed, int) {
  return cpr::gen::makeSuiteDesign(cpr::gen::suiteSpec("top"), seed);
}

/// ecc's net count and die area in a 1:9 die, so its rows are a third as
/// long as ecc's. Generic branch & bound time grows steeply with row
/// length: on ecc one panel can take most of a 7 s flow and the flow time
/// swings with the seed, while here the slowest panel stays near 0.1 s.
cpr::db::Design eccNarrowDesign(std::uint64_t seed, int i) {
  const cpr::gen::SuiteSpec& ecc = cpr::gen::suiteSpec("ecc");
  const double areaUm2 = ecc.widthUm * ecc.heightUm;
  const cpr::gen::SuiteSpec narrow{"ecc_narrow" + std::to_string(i), ecc.nets,
                                 std::sqrt(areaUm2 / 9.0),
                                 std::sqrt(areaUm2 * 9.0)};
  return cpr::gen::makeSuiteDesign(narrow, seed * 1000003ULL + std::uint64_t(i));
}

}  // namespace

Outcome runChipTop(const RunOptions& opts, Tracer& tracer) {
  return runBatch({.make = topDesign,
                   .designs = 1,
                   .oneThreadChecks = 1,
                   .setupReps = 20,
                   .method = cpr::core::Method::Lr,
                   .pinnedDigests = {0xf5208d438efa8410ULL},
                   .pinnedObjectives = {}},
                  opts, tracer);
}

Outcome runPaoGeneric(const RunOptions& opts, Tracer& tracer) {
  return runBatch({.make = eccNarrowDesign,
                   .designs = 16,
                   .oneThreadChecks = 2,
                   .setupReps = 20,
                   .method = cpr::core::Method::Ilp,
                   .pinnedDigests = {0xea7b9e84a88c3fbdULL,
                                     0xc51d1c0ff50a99a8ULL,
                                     0x902197bc740bcdd5ULL},
                   .pinnedObjectives = {26363.072081393413,
                                        26704.031596009328,
                                        26706.212092809667}},
                  opts, tracer);
}

}  // namespace perfbench
