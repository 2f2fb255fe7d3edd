#include <gtest/gtest.h>

#include <memory>

#include "core/conflict.h"
#include "core/exact_solver.h"
#include "core/interval_gen.h"
#include "core/lr_solver.h"
#include "core/optimizer.h"
#include "db/panel.h"
#include "gen/generator.h"
#include "obs/names.h"
#include "test_util.h"

namespace cpr::core {
namespace {

using testutil::kernelOf;

Problem makeProblem(std::uint64_t seed = 17) {
  gen::GenOptions o;
  o.seed = seed;
  o.width = 100;
  o.numRows = 2;
  o.pinDensity = 0.2;
  o.maxNetSpan = 30;
  const db::Design d = gen::generate(o);
  Problem p =
      buildProblem(d, std::vector<db::Panel>(db::extractPanels(d)), {});
  detectConflicts(p);
  return p;
}

void expectSameAssignment(const Assignment& a, const Assignment& b) {
  ASSERT_EQ(a.intervalOfPin.size(), b.intervalOfPin.size());
  for (std::size_t j = 0; j < a.intervalOfPin.size(); ++j)
    EXPECT_EQ(a.intervalOfPin[j], b.intervalOfPin[j]) << "pin " << j;
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
  EXPECT_EQ(a.violations, b.violations);
}

TEST(SolverInterface, LrMatchesFreeFunction) {
  const PanelKernel k = kernelOf(makeProblem());
  const Assignment direct = solveLr(k);
  const Assignment viaIface = LrSolver{{}}.solve(k);
  expectSameAssignment(direct, viaIface);
}

TEST(SolverInterface, ExactMatchesFreeFunction) {
  const PanelKernel k = kernelOf(makeProblem(19));
  ExactOptions eo;
  eo.deadline = support::Deadline::after(10.0);
  const Assignment direct = solveExact(k, eo);
  const Assignment viaIface = ExactSolver{eo}.solve(k);
  expectSameAssignment(direct, viaIface);
  EXPECT_TRUE(viaIface.provedOptimal);
}

TEST(SolverInterface, NamesAndFactory) {
  EXPECT_EQ(LrSolver{}.name(), "lr");
  EXPECT_EQ(ExactSolver{}.name(), "exact");
  EXPECT_EQ(IlpSolver{}.name(), "ilp");
  EXPECT_EQ(makeSolver({.method = Method::Lr})->name(), "lr");
  EXPECT_EQ(makeSolver({.method = Method::Exact})->name(), "exact");
  EXPECT_EQ(makeSolver({.method = Method::Ilp})->name(), "ilp");
}

TEST(SolverInterface, AllThreeSolversAgreeOnObjective) {
  // Small instance so the generic ILP path stays fast; exact and ilp are
  // both optimal, LR is a lower bound on them.
  gen::GenOptions o;
  o.seed = 23;
  o.width = 48;
  o.numRows = 1;
  o.pinDensity = 0.15;
  o.maxNetSpan = 20;
  o.maxNetRowSpread = 0;
  const db::Design d = gen::generate(o);
  Problem p = buildProblem(d, db::extractPanel(d, 0), {});
  detectConflicts(p);
  const PanelKernel k = kernelOf(p);

  ExactOptions eo;
  eo.deadline = support::Deadline::after(10.0);
  const Assignment lr = LrSolver{{}}.solve(k);
  const Assignment exact = ExactSolver{eo}.solve(k);
  const Assignment ilp = IlpSolver{{}}.solve(k);
  ASSERT_TRUE(exact.provedOptimal);
  ASSERT_TRUE(ilp.provedOptimal);
  EXPECT_NEAR(exact.objective, ilp.objective, 1e-6);
  EXPECT_LE(lr.objective, exact.objective + 1e-6);
}

TEST(SolverInterface, SolversEmitCanonicalCounters) {
  const PanelKernel k = kernelOf(makeProblem(29));
  obs::Collector lrObs;
  (void)LrSolver{{}}.solve(k, nullptr, &lrObs);
  EXPECT_GT(lrObs.counter(obs::names::kLrIterations), 0);
  EXPECT_FALSE(lrObs.series().empty());

  obs::Collector exObs;
  ExactOptions eo;
  eo.deadline = support::Deadline::after(10.0);
  (void)ExactSolver{eo}.solve(k, nullptr, &exObs);
  EXPECT_GT(exObs.counter(obs::names::kExactNodes), 0);

  obs::Collector ilpObs;
  gen::GenOptions small;
  small.seed = 23;
  small.width = 48;
  small.numRows = 1;
  small.pinDensity = 0.15;
  small.maxNetSpan = 20;
  small.maxNetRowSpread = 0;
  const db::Design d = gen::generate(small);
  Problem tiny = buildProblem(d, db::extractPanel(d, 0), {});
  detectConflicts(tiny);
  (void)IlpSolver{{}}.solve(kernelOf(tiny), nullptr, &ilpObs);
  EXPECT_GT(ilpObs.counter(obs::names::kIlpNodes), 0);
  EXPECT_GT(ilpObs.counter(obs::names::kIlpPivots), 0);
}

TEST(SolverInterface, OptimizerHonorsCustomSolverOverride) {
  gen::GenOptions o;
  o.seed = 31;
  o.width = 120;
  o.numRows = 3;
  o.pinDensity = 0.2;
  const db::Design d = gen::generate(o);

  OptimizerOptions viaEnum;
  viaEnum.solve.method = Method::Exact;
  viaEnum.solve.exact.deadline = support::Deadline::after(5.0);
  const PinAccessPlan a = optimizePinAccess(d, viaEnum);

  OptimizerOptions viaOverride;  // method left at Lr: override must win
  viaOverride.solver = std::make_shared<ExactSolver>(viaEnum.solve.exact);
  const PinAccessPlan b = optimizePinAccess(d, viaOverride);

  ASSERT_EQ(a.routes.size(), b.routes.size());
  for (std::size_t j = 0; j < a.routes.size(); ++j) {
    EXPECT_EQ(a.routes[j].track, b.routes[j].track);
    EXPECT_EQ(a.routes[j].span, b.routes[j].span);
  }
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
  EXPECT_EQ(a.stats.notes().at(std::string(cpr::obs::names::kPaoSolverNote)),
            "exact");
  EXPECT_EQ(b.stats.notes().at(std::string(cpr::obs::names::kPaoSolverNote)),
            "exact");
}

// Golden objectives captured from the nested (pre-CSR) solver paths at
// %.17g precision. The CSR kernel preserves iteration and floating-point
// order exactly, so these must keep matching to the last bit.
TEST(SolverInterface, GoldenObjectivesPinned) {
  struct Golden {
    std::uint64_t seed;
    double objective;
  };
  const Golden goldens[] = {{17, 176.42178129662054},
                            {19, 172.90642536321195},
                            {29, 207.59023232254097}};
  ExactOptions eo;
  eo.deadline = support::Deadline::after(10.0);
  for (const Golden& g : goldens) {
    const PanelKernel k = kernelOf(makeProblem(g.seed));
    const Assignment lr = solveLr(k);
    EXPECT_DOUBLE_EQ(lr.objective, g.objective) << "lr seed " << g.seed;
    EXPECT_EQ(lr.violations, 0);
    const Assignment exact = solveExact(k, eo);
    EXPECT_DOUBLE_EQ(exact.objective, g.objective) << "exact seed " << g.seed;
    EXPECT_TRUE(exact.provedOptimal);
  }
  // Tiny single-panel fixture where all three solvers agree exactly.
  gen::GenOptions o;
  o.seed = 23;
  o.width = 48;
  o.numRows = 1;
  o.pinDensity = 0.15;
  o.maxNetSpan = 20;
  o.maxNetRowSpread = 0;
  const db::Design d = gen::generate(o);
  Problem tiny = buildProblem(d, db::extractPanel(d, 0), {});
  detectConflicts(tiny);
  const PanelKernel tk = kernelOf(tiny);
  constexpr double kTinyGolden = 18.481436464210109;
  EXPECT_DOUBLE_EQ(LrSolver{{}}.solve(tk).objective, kTinyGolden);
  EXPECT_DOUBLE_EQ(ExactSolver{eo}.solve(tk).objective, kTinyGolden);
  EXPECT_DOUBLE_EQ(IlpSolver{{}}.solve(tk).objective, kTinyGolden);
}

// Design-level plan goldens (LR method, pinned objective + FNV-1a route
// digest): the full optimizer pipeline — generation, conflict detection,
// kernel compile, solve, merge — must reproduce the pre-CSR plans bit for
// bit, for every thread count.
TEST(SolverInterface, GoldenPlansPinnedAcrossThreadCounts) {
  struct Golden {
    std::uint64_t seed;
    double objective;
    std::size_t digest;
  };
  const Golden goldens[] = {{4, 488.34571741026241, 0xa8b2e703118bdeb6ULL},
                            {6, 486.15179977988981, 0x13af5ee8fbb07215ULL},
                            {8, 502.71800242058799, 0xb67a13059d15da59ULL}};
  for (const Golden& g : goldens) {
    gen::GenOptions o;
    o.seed = g.seed;
    o.width = 120;
    o.numRows = 4;
    o.pinDensity = 0.2;
    o.maxNetSpan = 40;
    const db::Design d = gen::generate(o);
    for (const int threads : {1, 4, 8}) {
      OptimizerOptions opts;
      opts.solve.method = Method::Lr;
      opts.threads = threads;
      const PinAccessPlan plan = optimizePinAccess(d, opts);
      EXPECT_DOUBLE_EQ(plan.objective, g.objective)
          << "seed " << g.seed << " threads " << threads;
      std::size_t h = 1469598103934665603ULL;
      auto mix = [&](long v) {
        h ^= static_cast<std::size_t>(v);
        h *= 1099511628211ULL;
      };
      for (const PinRoute& r : plan.routes) {
        mix(r.track);
        mix(r.span.lo);
        mix(r.span.hi);
      }
      EXPECT_EQ(h, g.digest) << "seed " << g.seed << " threads " << threads;
      EXPECT_EQ(plan.unassignedPins(), 0);
      EXPECT_GT(plan.stats.counter(obs::names::kPaoKernelBytes), 0);
    }
  }
}

TEST(SolverInterface, PlanCountersDeterministicAcrossThreadCounts) {
  gen::GenOptions o;
  o.seed = 37;
  o.width = 160;
  o.numRows = 6;
  o.pinDensity = 0.2;
  const db::Design d = gen::generate(o);

  OptimizerOptions one;
  one.threads = 1;
  OptimizerOptions many;
  many.threads = 4;
  const PinAccessPlan a = optimizePinAccess(d, one);
  const PinAccessPlan b = optimizePinAccess(d, many);
  EXPECT_EQ(a.stats.counters(), b.stats.counters());
  // Series (per-iteration LR traces tagged by panel src) also match exactly.
  ASSERT_EQ(a.stats.series().size(), b.stats.series().size());
  for (const auto& [name, s] : a.stats.series()) {
    const auto it = b.stats.series().find(name);
    ASSERT_NE(it, b.stats.series().end()) << name;
    EXPECT_EQ(s.columns, it->second.columns) << name;
    EXPECT_EQ(s.rows, it->second.rows) << name;
  }
}

}  // namespace
}  // namespace cpr::core
