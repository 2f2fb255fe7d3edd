/// \file test_util.h
/// Shared helpers for core solver tests: tiny random instances, the kernel
/// compile step the solvers take their input from, and an exhaustive
/// reference solver for the weighted interval assignment ILP.
#pragma once

#include <limits>
#include <optional>
#include <vector>

#include "core/conflict.h"
#include "core/interval_gen.h"
#include "core/panel_kernel.h"
#include "db/panel.h"
#include "gen/generator.h"

namespace cpr::core::testutil {

/// Small single-row design; `density` controls pin-access competition.
inline db::Design tinyDesign(std::uint64_t seed, geom::Coord width = 24,
                             double density = 0.3) {
  gen::GenOptions o;
  o.name = "tiny";
  o.seed = seed;
  o.width = width;
  o.numRows = 1;
  o.pinDensity = density;
  o.maxNetSpan = width / 2;
  o.maxNetRowSpread = 0;
  o.blockagesPerRow = 0.5;
  o.maxBlockageLen = 4;
  return gen::generate(o);
}

/// Problem for row 0 with conflicts detected.
inline Problem panelProblem(const db::Design& d, const GenOptions& g = {}) {
  Problem p = buildProblem(d, db::extractPanel(d, 0), g);
  detectConflicts(p);
  return p;
}

/// Compiles `p` into the kernel every solver entry point consumes.
inline PanelKernel kernelOf(const Problem& p) {
  return PanelKernel::compile(p);
}

/// Exhaustive optimum of Formula (1) by enumerating every per-pin choice
/// tuple (the product of candidate sets Sj). A tuple maps to the ILP point
/// x = indicator of the distinct chosen intervals; it is feasible iff every
/// chosen interval is chosen by *all* pins it covers (equality rows 1b) and
/// no conflict set holds two distinct chosen intervals (1c).
/// Returns nullopt when the search space exceeds `maxTuples`.
inline std::optional<double> bruteForceOptimum(const Problem& p,
                                               std::uint64_t maxTuples = 3'000'000) {
  std::vector<const ProblemPin*> active;
  std::uint64_t tuples = 1;
  for (const ProblemPin& pin : p.pins) {
    if (pin.intervals.empty()) continue;
    active.push_back(&pin);
    if (tuples > maxTuples / std::max<std::size_t>(1, pin.intervals.size()))
      return std::nullopt;
    tuples *= pin.intervals.size();
  }

  double best = -std::numeric_limits<double>::infinity();
  bool feasible = false;
  std::vector<Index> choice(active.size(), geom::kInvalidIndex);

  auto evaluate = [&]() {
    // Map pin -> chosen interval for the consistency check.
    std::vector<char> selected(p.intervals.size(), 0);
    double obj = 0.0;
    for (std::size_t k = 0; k < active.size(); ++k) {
      selected[static_cast<std::size_t>(choice[k])] = 1;
      obj += p.profit[static_cast<std::size_t>(choice[k])];
    }
    // (1b): a chosen interval must be chosen by every pin it covers.
    std::vector<Index> choiceOfPin(p.pins.size(), geom::kInvalidIndex);
    for (std::size_t k = 0; k < active.size(); ++k) {
      const auto pinIdx = static_cast<std::size_t>(active[k] - p.pins.data());
      choiceOfPin[pinIdx] = choice[k];
    }
    for (std::size_t i = 0; i < p.intervals.size(); ++i) {
      if (!selected[i]) continue;
      for (Index q : p.intervals[i].pins) {
        if (choiceOfPin[static_cast<std::size_t>(q)] != static_cast<Index>(i))
          return;
      }
    }
    // (1c)
    for (const ConflictSet& cs : p.conflicts) {
      int count = 0;
      for (Index i : cs.intervals) count += selected[static_cast<std::size_t>(i)];
      if (count > 1) return;
    }
    feasible = true;
    if (obj > best) best = obj;
  };

  auto rec = [&](auto&& self, std::size_t k) -> void {
    if (k == active.size()) {
      evaluate();
      return;
    }
    for (Index i : active[k]->intervals) {
      choice[k] = i;
      self(self, k + 1);
    }
  };
  rec(rec, 0);
  if (!feasible) return std::nullopt;
  return best;
}

/// Sum over pins of the minimum-interval profit — a lower bound every
/// solver must meet (each assigned interval covers its pin).
inline double minimalProfitBound(const Problem& p) {
  double sum = 0.0;
  for (const ProblemPin& pin : p.pins) {
    if (pin.minimalInterval != geom::kInvalidIndex)
      sum += p.profit[static_cast<std::size_t>(pin.minimalInterval)];
  }
  return sum;
}

}  // namespace cpr::core::testutil
