/// \file exact_solver.h
/// Exact solver for the weighted interval assignment ILP (Formula 1).
///
/// This plays the role of the paper's commercial ILP solver: it returns a
/// provably optimal selection (one interval per pin, at most one interval
/// per conflict set) or the best incumbent when a node/time budget runs out.
///
/// Method: branch & bound over interval variables with a Lagrangian dual
/// bound. For multipliers λ >= 0 and per-interval penalty P_i = Σ_{m: i∈Cm}
/// λ_m, the value  Σ_j max_{i∈Sj} (f(I_i) - P_i / d_i)  +  Σ_m λ_m   is an
/// upper bound on Formula (1): splitting each interval's penalty across its
/// d_i covered pins relaxes the equality-coupled problem into independent
/// per-pin maximizations. Multipliers are tuned once at the root by
/// subgradient descent; branching fixes an interval from a violated conflict
/// set (or an inconsistently-chosen shared interval) to 1 or 0 and
/// propagates through the equality and conflict rows.
///
/// The solver consumes a compiled `PanelKernel` and an optional
/// `ExactScratch` arena (trail, stamps, node pools, root-dual buffers).
///
/// The generic LP-based branch & bound in `ilp/` solves the same model via
/// `buildIlpModel` (ilp_builder.h); tests cross-check the two and a brute
/// forcer on small instances. This specialized solver is the one that scales
/// far enough to trace the paper's Fig. 6 "ILP" curves.
#pragma once

#include <cstdint>

#include "core/lr_solver.h"
#include "core/panel_kernel.h"
#include "core/problem.h"
#include "obs/collector.h"
#include "support/deadline.h"
#include "support/hot_annotations.h"

namespace cpr::core {

struct ExactOptions {
  long maxNodes = 50'000'000;
  /// Wall-clock budget; unset (the default) never expires. Composes with the
  /// per-call deadline passed to `solveExact` — the sooner of the two wins.
  support::Deadline deadline;
  /// Root subgradient iterations used to tighten the dual bound.
  int rootDualIterations = 300;
  /// Subgradient step exponent (same schedule as the LR solver).
  double alpha = 0.95;
};

struct ExactStats {
  long nodes = 0;
  double rootUpperBound = 0.0;  ///< dual bound after root tuning
  double bestObjective = 0.0;
  bool optimal = false;
};

/// One trail entry of the B&B undo stack: either an interval status change
/// (`cand`) or a pin assignment (`pin`) — the strong types make the two
/// undo targets impossible to transpose.
struct ExactTrailOp {
  bool isStatus;
  CandIdx cand;
  PinIdx pin;
};

/// Reusable per-worker buffers for `solveExact`. Every solve fully
/// reinitializes the entries it reads (epoch stamps and trail included), so
/// one scratch serves panels of any size back to back; reuse only saves the
/// allocations. Embeds an `LrScratch` because the exact solver seeds its
/// incumbent from an internal LR run.
struct ExactScratch {
  // Root dual tuning.
  std::vector<double> term, lambda, penalty, bestPenalty;
  std::vector<CandIdx> rootChoice;
  // Search state with trail-based undo. The trail is a fixed-capacity stack
  // (`trail` sized once per solve, `trailLen` is the live top): an interval
  // status is recorded at most once per search path and a pin assignment at
  // most once, so numIntervals + numPins entries always suffice and the
  // B&B propagation never grows a container.
  std::vector<std::uint8_t> status;
  std::vector<CandIdx> assignedTo;
  std::vector<ExactTrailOp> trail;
  std::size_t trailLen = 0;
  std::vector<long> chosenStamp, csStamp;
  std::vector<int> csCount;
  // Node-local pools (safe to share across the recursion: no node reads
  // them after recursing into a child).
  std::vector<CandIdx> nodeChoice, nodeChosen;
  std::vector<PinIdx> activePins;
  std::vector<CandIdx> bestAssign;
  std::vector<char> selFlag;
  LrScratch lr;  ///< arena for the incumbent-seeding LR run

  /// Current capacity across all buffers, for the optimizer's arena gauge.
  [[nodiscard]] std::size_t footprintBytes() const CPR_NOALLOC;
};

/// Solves the compiled instance `k` exactly (profits and conflicts must have
/// been filled before compilation). The returned assignment has
/// violations == 0; `provedOptimal` reports whether the search completed
/// within its budget. `scratch` may be null (a local arena is used) or a
/// reused per-worker arena.
///
/// When `obs` is non-null the solver reports `exact.*` counters, the root
/// dual convergence series `exact.root` (bound per subgradient iteration),
/// and one `exact.panel` summary row (nodes, root bound, incumbent, gap).
/// `deadline` is an additional per-call budget (e.g. a panel sub-budget);
/// when it fires the best incumbent so far is returned, `provedOptimal` is
/// false, and `exact.timeout` is counted.
[[nodiscard]] Assignment solveExact(const PanelKernel& k,
                                    const ExactOptions& opts = {},
                                    ExactStats* stats = nullptr,
                                    obs::Collector* obs = nullptr,
                                    ExactScratch* scratch = nullptr,
                                    support::Deadline deadline = {}) CPR_HOT;

}  // namespace cpr::core
