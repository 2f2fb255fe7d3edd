/// \file core_reexpand_test.cpp
/// Unit tests for the LR solver's greedy re-expansion refinement: it must
/// only ever improve the objective, preserve the ILP's equality semantics
/// (no pin covered by two selected intervals), and respect conflict sets.
#include <gtest/gtest.h>

#include "core/conflict.h"
#include "core/lr_solver.h"
#include "test_util.h"

namespace cpr::core {
namespace {

namespace tu = testutil;

/// Hand-built problem where plain shrink-to-minimum demonstrably loses
/// length that re-expansion can win back: two diff-net pins on one track
/// whose long intervals conflict, but a second track offers pin 0 a long
/// conflict-free interval.
Problem twoTrackEscape() {
  Problem p;
  p.pins.resize(2);
  // Pin 0 (net 0): long on track 0 (id 0), minimal (id 1), long on track 1
  // (id 2).
  // Pin 1 (net 1): long on track 0 (id 3), minimal (id 4).
  p.intervals.resize(5);
  auto set = [&](Index i, Coord track, geom::Interval span, Index net,
                 std::vector<Index> pins, bool minimal) {
    AccessInterval& iv = p.intervals[static_cast<std::size_t>(i)];
    iv.track = track;
    iv.span = span;
    iv.conflictSpan = span;
    iv.net = net;
    iv.pins = std::move(pins);
    iv.minimal = minimal;
  };
  set(0, 0, {0, 15}, 0, {0}, false);
  set(1, 0, {4, 4}, 0, {0}, true);
  set(2, 1, {0, 15}, 0, {0}, false);
  set(3, 0, {6, 20}, 1, {1}, false);
  set(4, 0, {12, 12}, 1, {1}, true);
  p.pins[0].net = 0;
  p.pins[0].intervals = {0, 1, 2};
  p.pins[0].minimalInterval = 1;
  p.pins[1].net = 1;
  p.pins[1].intervals = {3, 4};
  p.pins[1].minimalInterval = 4;
  assignProfits(p);
  detectConflicts(p);
  return p;
}

TEST(Reexpand, RecoversLengthOnAlternateTrack) {
  const Problem p = twoTrackEscape();
  LrOptions with;
  with.reexpandRounds = 2;
  LrOptions without;
  without.reexpandRounds = 0;
  const Assignment base = solveLr(tu::kernelOf(p), without);
  const Assignment refined = solveLr(tu::kernelOf(p), with);
  EXPECT_GE(refined.objective, base.objective);
  // The refined solution must give both pins long intervals: pin 0 escapes
  // to track 1 (id 2), pin 1 keeps its long interval (id 3).
  EXPECT_EQ(refined.intervalOfPin[0], 2);
  EXPECT_EQ(refined.intervalOfPin[1], 3);
  EXPECT_EQ(refined.violations, 0);
}

TEST(Reexpand, NeverWorsensAndStaysLegal) {
  for (std::uint64_t seed = 300; seed < 312; ++seed) {
    const db::Design d = tu::tinyDesign(seed, 56, 0.5);
    const Problem p = tu::panelProblem(d);
    LrOptions with;
    with.reexpandRounds = 3;
    LrOptions without;
    without.reexpandRounds = 0;
    const Assignment base = solveLr(tu::kernelOf(p), without);
    const Assignment refined = solveLr(tu::kernelOf(p), with);
    EXPECT_GE(refined.objective, base.objective - 1e-9) << "seed " << seed;
    EXPECT_EQ(refined.violations, 0) << "seed " << seed;
    const AssignmentAudit audit_ = audit(p, refined);
    EXPECT_EQ(audit_.overlapsBetweenNets, 0) << "seed " << seed;
    EXPECT_EQ(audit_.unassignedPins, 0) << "seed " << seed;
    EXPECT_TRUE(audit_.eachPinCovered) << "seed " << seed;
  }
}

TEST(Reexpand, PreservesIlpEqualitySemantics) {
  // After refinement, no pin may be covered by a *different* selected
  // interval than its own — the property whose violation once inflated the
  // objective beyond the true ILP optimum.
  for (std::uint64_t seed = 320; seed < 330; ++seed) {
    const db::Design d = tu::tinyDesign(seed, 48, 0.45);
    const Problem p = tu::panelProblem(d);
    const Assignment a = solveLr(tu::kernelOf(p));
    std::vector<char> selected(p.intervals.size(), 0);
    for (Index i : a.intervalOfPin) {
      if (i != geom::kInvalidIndex) selected[static_cast<std::size_t>(i)] = 1;
    }
    for (std::size_t i = 0; i < p.intervals.size(); ++i) {
      if (!selected[i]) continue;
      for (Index q : p.intervals[i].pins) {
        EXPECT_EQ(a.intervalOfPin[static_cast<std::size_t>(q)],
                  static_cast<Index>(i))
            << "pin " << q << " covered by selected interval " << i
            << " but assigned elsewhere (seed " << seed << ")";
      }
    }
  }
}

TEST(Reexpand, StaysAtOrBelowExactOptimum) {
  for (std::uint64_t seed = 340; seed < 348; ++seed) {
    const db::Design d = tu::tinyDesign(seed, 24, 0.3);
    GenOptions g;
    g.maxExtent = 4;
    const Problem p = tu::panelProblem(d, g);
    const std::optional<double> ref = tu::bruteForceOptimum(p);
    if (!ref) continue;
    const Assignment lr = solveLr(tu::kernelOf(p));
    EXPECT_LE(lr.objective, *ref + 1e-6) << "seed " << seed;
  }
}

}  // namespace
}  // namespace cpr::core
