#include <gtest/gtest.h>

#include "core/lr_solver.h"
#include "test_util.h"

namespace cpr::core {
namespace {

namespace tu = testutil;

TEST(MaxGains, PicksHighestGainPerPin) {
  // Two pins of different nets; pin 0 has intervals {0 (gain 5), 1 (gain 2)},
  // pin 1 has {2 (gain 3)}.
  Problem p;
  p.pins.resize(2);
  p.pins[0].intervals = {0, 1};
  p.pins[0].minimalInterval = 1;
  p.pins[1].intervals = {2};
  p.pins[1].minimalInterval = 2;
  p.intervals.resize(3);
  p.intervals[0].pins = {0};
  p.intervals[1].pins = {0};
  p.intervals[2].pins = {1};
  p.profit = {5.0, 2.0, 3.0};
  const std::vector<Index> sel = maxGains(tu::kernelOf(p), {5.0, 2.0, 3.0});
  ASSERT_EQ(sel.size(), 2u);
  EXPECT_NE(std::find(sel.begin(), sel.end(), 0), sel.end());
  EXPECT_NE(std::find(sel.begin(), sel.end(), 2), sel.end());
}

TEST(MaxGains, SharedIntervalAssignsAllItsPins) {
  // One shared interval (gain counts twice) beats two singles.
  Problem p;
  p.pins.resize(2);
  p.pins[0].intervals = {0, 2};
  p.pins[0].minimalInterval = 0;
  p.pins[1].intervals = {1, 2};
  p.pins[1].minimalInterval = 1;
  p.intervals.resize(3);
  p.intervals[0].pins = {0};
  p.intervals[1].pins = {1};
  p.intervals[2].pins = {0, 1};
  p.profit = {1.0, 1.0, 1.5};
  // gains use weight = degree * profit → shared gain 3.0.
  const std::vector<Index> sel = maxGains(tu::kernelOf(p), {1.0, 1.0, 3.0});
  ASSERT_EQ(sel.size(), 1u);
  EXPECT_EQ(sel[0], 2);
}

TEST(MaxGains, SkipsIntervalWhosePinIsTaken) {
  // Descending gains: 0 (pin A), 1 (pin A again, must skip), 2 (pin B).
  Problem p;
  p.pins.resize(2);
  p.pins[0].intervals = {0, 1};
  p.pins[0].minimalInterval = 1;
  p.pins[1].intervals = {2};
  p.pins[1].minimalInterval = 2;
  p.intervals.resize(3);
  p.intervals[0].pins = {0};
  p.intervals[1].pins = {0};
  p.intervals[2].pins = {1};
  p.profit = {9.0, 8.0, 1.0};
  const std::vector<Index> sel = maxGains(tu::kernelOf(p), {9.0, 8.0, 1.0});
  ASSERT_EQ(sel.size(), 2u);
  EXPECT_EQ(sel[0], 0);
  EXPECT_EQ(sel[1], 2);
}

TEST(LrSolver, ConflictFreeOnGeneratedPanels) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const db::Design d = tu::tinyDesign(seed, 40, 0.4);
    const Problem p = tu::panelProblem(d);
    const Assignment a = solveLr(tu::kernelOf(p));
    EXPECT_EQ(a.violations, 0) << "seed " << seed;
    const AssignmentAudit audit_ = audit(p, a);
    EXPECT_EQ(audit_.overlapsBetweenNets, 0) << "seed " << seed;
    EXPECT_EQ(audit_.unassignedPins, 0) << "seed " << seed;
    EXPECT_TRUE(audit_.eachPinCovered) << "seed " << seed;
    EXPECT_NEAR(audit_.objective, a.objective, 1e-9);
    EXPECT_GE(a.objective, tu::minimalProfitBound(p) - 1e-9) << "seed " << seed;
  }
}

TEST(LrSolver, RespectsIterationBound) {
  const db::Design d = tu::tinyDesign(3, 40, 0.5);
  const Problem p = tu::panelProblem(d);
  LrOptions opts;
  opts.maxIterations = 5;
  LrStats stats;
  const Assignment a = solveLr(tu::kernelOf(p), opts, &stats);
  EXPECT_LE(stats.iterations, 5);
  EXPECT_EQ(a.violations, 0);  // conflict removal still cleans up
}

TEST(LrSolver, SkipConflictRemovalMayLeaveViolations) {
  // With a single iteration and no cleanup, dense instances keep conflicts.
  const db::Design d = tu::tinyDesign(5, 40, 0.6);
  const Problem p = tu::panelProblem(d);
  LrOptions opts;
  opts.maxIterations = 1;
  opts.skipConflictRemoval = true;
  const Assignment a = solveLr(tu::kernelOf(p), opts);
  const AssignmentAudit audit_ = audit(p, a);
  EXPECT_EQ(audit_.unassignedPins, 0);  // every pin still assigned
  // violations is the count under the conflict-set definition; the direct
  // geometric audit must agree about whether any conflict exists.
  EXPECT_EQ(a.violations > 0, audit_.overlapsBetweenNets > 0);
}

TEST(LrSolver, BidirectionalMultipliersStayValid) {
  const db::Design d = tu::tinyDesign(7, 48, 0.5);
  const Problem p = tu::panelProblem(d);
  LrOptions opts;
  opts.bidirectionalMultipliers = true;
  const Assignment a = solveLr(tu::kernelOf(p), opts);
  EXPECT_EQ(a.violations, 0);
  EXPECT_EQ(audit(p, a).overlapsBetweenNets, 0);
}

TEST(LrSolver, ObjectiveImprovesOnAllMinimalBaseline) {
  // On a sparse panel LR should beat the trivial all-minimal solution.
  const db::Design d = tu::tinyDesign(11, 60, 0.15);
  const Problem p = tu::panelProblem(d);
  const Assignment a = solveLr(tu::kernelOf(p));
  EXPECT_GT(a.objective, tu::minimalProfitBound(p) + 1e-6);
}

/// Parameterized seed sweep at higher density: LR must always produce a
/// legal (conflict-free, fully assigned) solution.
class LrProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LrProperty, AlwaysLegal) {
  const db::Design d = tu::tinyDesign(GetParam(), 64, 0.55);
  const Problem p = tu::panelProblem(d);
  const Assignment a = solveLr(tu::kernelOf(p));
  EXPECT_EQ(a.violations, 0);
  const AssignmentAudit audit_ = audit(p, a);
  EXPECT_EQ(audit_.overlapsBetweenNets, 0);
  EXPECT_EQ(audit_.unassignedPins, 0);
  EXPECT_TRUE(audit_.eachPinCovered);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LrProperty,
                         ::testing::Range<std::uint64_t>(100, 120));

}  // namespace
}  // namespace cpr::core
