/// \file simplex.h
/// Dense two-phase primal simplex for the LP relaxation of `ilp::Model` —
/// the reference oracle the production revised engine
/// (ilp/revised_simplex.h) is cross-checked against, usable directly
/// (`solveLp`) or behind the `LpBackend` interface (`DenseSimplexBackend`).
/// It lives with the tests and benches that use it, not in src/.
///
/// Solves   max c·x   s.t.  Ax {<=,=,>=} b,  0 <= x <= 1
/// where the unit upper bounds come from the binary declarations in the
/// model. A textbook dense implementation (Dantzig pricing with a
/// Bland's-rule anti-cycling fallback), not a sparse production LP code:
/// bounds are materialized as explicit `x_i <= 1` rows, so every pivot
/// touches a (rows + vars) x columns tableau. It cannot warm-start; the
/// backend wrapper solves every node from scratch.
#pragma once

#include "ilp/lp_backend.h"
#include "ilp/model.h"

namespace cpr::ilp {

/// Solves the LP relaxation of `m` with the dense engine. When `fix` is
/// non-null, fixed variables are substituted out before solving and reported
/// back at their fixed values. `deadline` bounds the pivot loop (polled
/// every tol::kDeadlineCheckStride iterations). `implicitUnitBounds` skips
/// the automatic `x_i <= 1` rows (valid when every variable is covered by an
/// equality row with unit coefficients, as in the pin access
/// set-partitioning model).
[[nodiscard]] LpResult solveLp(const Model& m, const LpOptions& opts = {},
                               const Fixing* fix = nullptr,
                               support::Deadline deadline = {},
                               bool implicitUnitBounds = false);

/// The dense engine as an `LpBackend`. Stateless beyond the bound model:
/// `solve` ignores `warm` and leaves `basisOut` empty, so branch & bound
/// children of a dense-backed search always cold-start.
class DenseSimplexBackend final : public LpBackend {
 public:
  void bind(const Model& m, const LpOptions& opts) override {
    model_ = &m;
    opts_ = opts;
  }
  [[nodiscard]] LpResult solve(const Fixing* fix, const LpBasis* warm,
                               LpBasis* basisOut,
                               support::Deadline deadline) override;

 private:
  const Model* model_ = nullptr;
  LpOptions opts_;
};

}  // namespace cpr::ilp
