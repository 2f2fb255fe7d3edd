/// \file solver.h
/// Unified solver interface over the weighted interval assignment problem.
///
/// All three solving paths of the reproduction — the scalable Lagrangian
/// relaxation (Section 3.4), the specialized exact branch & bound (playing
/// the paper's commercial ILP solver), and the generic ILP translation
/// through `ilp::Model` — implement the same `Solver` interface, so the
/// design-level optimizer, the benches, and the CLI select a solver by value
/// instead of switching on an enum at every call site. Solvers are stateless
/// after construction and safe to share across panel-solving threads; all
/// mutable per-solve state lives in the caller-owned `PanelScratch` arena.
///
/// Every entry point consumes a compiled `PanelKernel` (see panel_kernel.h)
/// plus an optional scratch arena; callers holding a nested `Problem`
/// compile it first.
///
/// Every `solve` accepts an optional `obs::Collector` into which the solver
/// reports its canonical counters and per-iteration trace series (see
/// obs/names.h); pass nullptr to skip all instrumentation.
#pragma once

#include <memory>
#include <string_view>

#include "core/exact_solver.h"
#include "core/lr_solver.h"
#include "core/panel_kernel.h"
#include "core/problem.h"
#include "ilp/branch_and_bound.h"
#include "obs/collector.h"
#include "support/deadline.h"
#include "support/hot_annotations.h"
#include "support/status.h"

namespace cpr::core {

/// Solver selection for option structs and command lines. `Lr` and `Exact`
/// are the paper's two methods; `Ilp` is the generic LP-based branch & bound
/// over the translated Formula (1) model (slow, used for cross-checking).
enum class Method {
  Lr,    ///< Lagrangian relaxation + greedy conflict removal (Algorithm 2)
  Exact, ///< specialized branch & bound to proven optimality (the "ILP")
  Ilp,   ///< generic ILP translation solved by ilp::solveBinaryIlp
};

/// Per-worker arena shared by every solver behind the interface. A worker
/// thread owns one `PanelScratch` and reuses it across all panels it
/// processes; each solve fully reinitializes what it reads, so reuse only
/// saves allocations (see LrScratch / ExactScratch).
struct PanelScratch {
  LrScratch lr;
  ExactScratch exact;

  /// Current capacity across the arenas, for the optimizer's gauge.
  [[nodiscard]] std::size_t footprintBytes() const {
    return lr.footprintBytes() + exact.footprintBytes();
  }
};

class Solver {
 public:
  virtual ~Solver() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Solves the compiled instance `k` (profits and conflicts filled before
  /// compilation). `scratch` may be null (solvers fall back to local
  /// buffers) or a reused per-worker arena. Reports counters and traces
  /// into `obs` when non-null. `deadline` is a per-call wall-clock budget
  /// (unset = none); built-in solvers compose it with any deadline carried
  /// in their options and return their best legal incumbent when it fires.
  [[nodiscard]] virtual Assignment solve(const PanelKernel& k,
                                         PanelScratch* scratch = nullptr,
                                         obs::Collector* obs = nullptr,
                                         support::Deadline deadline = {})
      const = 0;

  /// Fault-isolating entry point used at the panel boundary: never throws.
  /// Catches every exception out of `solve` (mapped to StatusCode::Failed)
  /// and classifies the result —
  ///   Ok         legal assignment, solver finished on its own terms;
  ///   Degraded   assignment still violates conflict rows (needs repair);
  ///   TimedOut   `deadline` fired; the value is the best incumbent, which
  ///              may be legal (usable) or empty;
  ///   Infeasible nothing assigned although the instance has pins;
  ///   Failed     `solve` threw; the value is unusable.
  /// The caller decides whether a non-Ok value is good enough or whether to
  /// walk further down the degradation ladder.
  [[nodiscard]] support::Outcome<Assignment> trySolve(
      const PanelKernel& k, PanelScratch* scratch = nullptr,
      obs::Collector* obs = nullptr, support::Deadline deadline = {}) const;
};

/// Algorithm 2 behind the interface; thin wrapper over `solveLr`.
class LrSolver final : public Solver {
 public:
  explicit LrSolver(LrOptions opts = {}) : opts_(opts) {}
  [[nodiscard]] std::string_view name() const override { return "lr"; }
  [[nodiscard]] Assignment solve(const PanelKernel& k,
                                 PanelScratch* scratch = nullptr,
                                 obs::Collector* obs = nullptr,
                                 support::Deadline deadline = {}) const override
      CPR_HOT;
  [[nodiscard]] const LrOptions& options() const { return opts_; }

 private:
  LrOptions opts_;
};

/// The specialized exact branch & bound behind the interface; wraps
/// `solveExact`.
class ExactSolver final : public Solver {
 public:
  explicit ExactSolver(ExactOptions opts = {}) : opts_(opts) {}
  [[nodiscard]] std::string_view name() const override { return "exact"; }
  [[nodiscard]] Assignment solve(const PanelKernel& k,
                                 PanelScratch* scratch = nullptr,
                                 obs::Collector* obs = nullptr,
                                 support::Deadline deadline = {}) const override
      CPR_HOT;
  [[nodiscard]] const ExactOptions& options() const { return opts_; }

 private:
  ExactOptions opts_;
};

/// The ILP translation path: builds Formula (1) with `buildIlpModel`, solves
/// it with the generic LP-based branch & bound, and decodes the 0/1 solution.
class IlpSolver final : public Solver {
 public:
  explicit IlpSolver(ilp::IlpOptions opts = {}) : opts_(opts) {}
  [[nodiscard]] std::string_view name() const override { return "ilp"; }
  // CPR_COLD_OK: the generic translation path exists as a cross-checking
  // baseline; building the ilp::Model allocates by design and is never on
  // the scaling-critical path.
  [[nodiscard]] Assignment solve(const PanelKernel& k,
                                 PanelScratch* scratch = nullptr,
                                 obs::Collector* obs = nullptr,
                                 support::Deadline deadline = {}) const override
      CPR_COLD_OK;
  [[nodiscard]] const ilp::IlpOptions& options() const { return opts_; }

 private:
  ilp::IlpOptions opts_;
};

/// Everything `makeSolver` needs, in one bundle: the method plus each
/// engine's options. This is THE options path into the solver layer — the
/// optimizer embeds one, the CLI and benches fill one, and per-engine knobs
/// are reached through it instead of loose factory parameters.
struct SolverOptions {
  Method method = Method::Lr;
  LrOptions lr;
  ExactOptions exact;
  ilp::IlpOptions ilp;
};

/// Factory used by the optimizer, benches, and CLI.
[[nodiscard]] std::unique_ptr<Solver> makeSolver(const SolverOptions& opts = {});

}  // namespace cpr::core
