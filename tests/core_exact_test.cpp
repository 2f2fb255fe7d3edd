#include <gtest/gtest.h>

#include "core/exact_solver.h"
#include "core/ilp_builder.h"
#include "core/lr_solver.h"
#include "ilp/branch_and_bound.h"
#include "test_util.h"

namespace cpr::core {
namespace {

namespace tu = testutil;

TEST(ExactSolver, MatchesBruteForceOnTinyInstances) {
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 40 && checked < 12; ++seed) {
    const db::Design d = tu::tinyDesign(seed, 20, 0.3);
    GenOptions g;
    g.maxExtent = 4;  // keep candidate counts enumerable
    const Problem p = tu::panelProblem(d, g);
    const std::optional<double> ref = tu::bruteForceOptimum(p);
    if (!ref) continue;
    ++checked;
    ExactStats stats;
    const Assignment a = solveExact(tu::kernelOf(p), {}, &stats);
    EXPECT_TRUE(a.provedOptimal) << "seed " << seed;
    EXPECT_NEAR(a.objective, *ref, 1e-6) << "seed " << seed;
    EXPECT_EQ(a.violations, 0) << "seed " << seed;
    EXPECT_GE(stats.rootUpperBound, *ref - 1e-6) << "seed " << seed;
  }
  EXPECT_GE(checked, 5) << "too few enumerable instances — loosen the guard";
}

TEST(ExactSolver, MatchesGenericLpBranchAndBound) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const db::Design d = tu::tinyDesign(seed, 28, 0.35);
    GenOptions g;
    g.maxExtent = 6;
    const PanelKernel k = tu::kernelOf(tu::panelProblem(d, g));
    const Assignment a = solveExact(k);
    ASSERT_TRUE(a.provedOptimal);

    const IlpBuild build = buildIlpModel(k);
    const ilp::IlpResult r = ilp::solveBinaryIlp(build.model);
    ASSERT_EQ(r.status, ilp::IlpStatus::Optimal) << "seed " << seed;
    const Assignment viaIlp = decodeIlpSolution(k, build, r.x);
    EXPECT_NEAR(a.objective, viaIlp.objective, 1e-6) << "seed " << seed;
  }
}

TEST(ExactSolver, PairwiseEncodingGivesSameOptimum) {
  const db::Design d = tu::tinyDesign(3, 24, 0.35);
  GenOptions g;
  g.maxExtent = 5;
  const PanelKernel k = tu::kernelOf(tu::panelProblem(d, g));
  const IlpBuild cliqueEnc = buildIlpModel(k, /*pairwiseConflicts=*/false);
  const IlpBuild pairEnc = buildIlpModel(k, /*pairwiseConflicts=*/true);
  const ilp::IlpResult a = ilp::solveBinaryIlp(cliqueEnc.model);
  const ilp::IlpResult b = ilp::solveBinaryIlp(pairEnc.model);
  ASSERT_EQ(a.status, ilp::IlpStatus::Optimal);
  ASSERT_EQ(b.status, ilp::IlpStatus::Optimal);
  EXPECT_NEAR(a.objective, b.objective, 1e-6);
  // Clique encoding needs no more rows than the pairwise one.
  EXPECT_LE(cliqueEnc.model.numConstraints(), pairEnc.model.numConstraints());
}

TEST(ExactSolver, DominatesLr) {
  for (std::uint64_t seed = 50; seed < 60; ++seed) {
    const db::Design d = tu::tinyDesign(seed, 48, 0.45);
    const Problem p = tu::panelProblem(d);
    const Assignment lr = solveLr(tu::kernelOf(p));
    const Assignment exact = solveExact(tu::kernelOf(p));
    ASSERT_TRUE(exact.provedOptimal) << "seed " << seed;
    EXPECT_LE(lr.objective, exact.objective + 1e-6) << "seed " << seed;
    EXPECT_EQ(audit(p, exact).overlapsBetweenNets, 0);
  }
}

TEST(ExactSolver, NodeLimitReturnsIncumbentUnproven) {
  // A dense multi-row instance: the duality gap cannot close in one node.
  gen::GenOptions g;
  g.seed = 9;
  g.width = 96;
  g.numRows = 3;
  g.pinDensity = 0.3;
  g.maxNetSpan = 48;
  const db::Design d = gen::generate(g);
  Problem p = buildProblem(d, db::extractPanels(d));
  detectConflicts(p);
  ExactOptions opts;
  opts.maxNodes = 1;
  ExactStats stats;
  const Assignment a = solveExact(tu::kernelOf(p), opts, &stats);
  EXPECT_FALSE(a.provedOptimal);
  // Incumbent comes from the LR seed and is still legal.
  EXPECT_EQ(a.violations, 0);
  EXPECT_EQ(audit(p, a).unassignedPins, 0);
}

TEST(ExactSolver, AssignmentIsAlwaysLegal) {
  for (std::uint64_t seed = 70; seed < 80; ++seed) {
    const db::Design d = tu::tinyDesign(seed, 40, 0.5);
    const Problem p = tu::panelProblem(d);
    const Assignment a = solveExact(tu::kernelOf(p));
    const AssignmentAudit audit_ = audit(p, a);
    EXPECT_EQ(a.violations, 0);
    EXPECT_EQ(audit_.overlapsBetweenNets, 0);
    EXPECT_EQ(audit_.unassignedPins, 0);
    EXPECT_TRUE(audit_.eachPinCovered);
    EXPECT_GE(a.objective, tu::minimalProfitBound(p) - 1e-9);
  }
}

}  // namespace
}  // namespace cpr::core
