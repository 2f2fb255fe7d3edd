/// \file panel_kernel.h
/// PanelKernel: a compiled, CSR-flattened view of a `Problem`.
///
/// The nested `Problem` (pin → candidate vector, interval → pin vector,
/// conflict → member vector) is the natural output of interval generation,
/// but it is a pointer-chasing structure: every solver iteration walks
/// heap-scattered `std::vector`s and the per-panel cost on large designs is
/// dominated by allocation and cache misses rather than by the subgradient
/// math. `compile(const Problem&)` flattens the instance once into contiguous
/// offset + data arrays (compressed sparse rows) plus packed per-interval /
/// per-conflict columns; all three solvers, the ILP translation, and the
/// flat `audit` then iterate spans over those arrays.
///
/// The three CSR index spaces are distinct strong types (`PinIdx`,
/// `CandIdx`, `ConflictIdx` — see core/ids.h): an accessor can only be
/// subscripted with an id from its own space, and the spans hand back typed
/// ids, so pin/interval/conflict mix-ups fail to compile instead of reading
/// a wrong-but-in-bounds column.
///
/// Ownership: the kernel reads the `Problem` only inside `compile` and
/// keeps nothing of it — every flat array is an owned copy, so the caller
/// may destroy the `Problem` right after compiling, and a compiled kernel is
/// self-contained and safe to hand across threads by const reference.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/ids.h"
#include "core/problem.h"
#include "support/contracts.h"
#include "support/hot_annotations.h"

namespace cpr::core {

class PanelKernel {
 public:
  PanelKernel() = default;

  /// Flattens `p` (profits filled, conflicts detected) into CSR form. All
  /// flat arrays preserve the nested iteration order exactly, so solvers
  /// running on the kernel produce bit-identical results to the nested
  /// paths they replaced.
  /// CPR_COLD_OK: compilation is per-panel setup that allocates the CSR
  /// arrays by design; the hot solve loops only ever read the result.
  [[nodiscard]] static PanelKernel compile(const Problem& p) CPR_COLD_OK;

  [[nodiscard]] std::size_t numPins() const { return pinCandOff_.empty() ? 0 : pinCandOff_.size() - 1; }
  [[nodiscard]] std::size_t numIntervals() const { return track_.size(); }
  [[nodiscard]] std::size_t numConflicts() const { return confTrack_.size(); }

  // ---- per-pin ----
  /// Sj: candidate interval ids of pin `j`.
  [[nodiscard]] std::span<const CandIdx> candidatesOf(PinIdx j) const {
    return rowSpan(pinCandOff_, pinCand_, j.idx());
  }
  /// Sj sorted by non-increasing profit (ties by id) — the LR re-expansion
  /// order, precomputed at compile time since it only depends on the
  /// instance.
  [[nodiscard]] std::span<const CandIdx> sortedCandidatesOf(PinIdx j) const {
    return rowSpan(pinCandOff_, sortedCand_, j.idx());
  }
  [[nodiscard]] CandIdx minimalIntervalOf(PinIdx j) const {
    return minimalOf_[j.idx()];
  }
  [[nodiscard]] Index designPinOf(PinIdx j) const {
    return designPin_[j.idx()];
  }

  // ---- per-interval ----
  /// Problem-local pins covered by interval `i`.
  [[nodiscard]] std::span<const PinIdx> pinsOf(CandIdx i) const {
    return rowSpan(ivPinOff_, ivPin_, i.idx());
  }
  /// Conflict sets containing interval `i` (the csOf cross-index).
  [[nodiscard]] std::span<const ConflictIdx> conflictsOf(CandIdx i) const {
    return rowSpan(ivConfOff_, ivConf_, i.idx());
  }
  [[nodiscard]] Coord trackOf(CandIdx i) const { return track_[i.idx()]; }
  [[nodiscard]] const geom::Interval& spanOf(CandIdx i) const {
    return span_[i.idx()];
  }
  [[nodiscard]] Index netOf(CandIdx i) const { return net_[i.idx()]; }
  /// Base profit f(Ii).
  [[nodiscard]] double profitOf(CandIdx i) const { return profit_[i.idx()]; }
  /// Objective weight degree(i) * profit(i) — precomputed.
  [[nodiscard]] double weightOf(CandIdx i) const { return weight_[i.idx()]; }
  /// d_i: number of covered pins.
  [[nodiscard]] Index degreeOf(CandIdx i) const { return degree_[i.idx()]; }
  [[nodiscard]] bool isMinimal(CandIdx i) const {
    return minimalBit_[i.idx()] != 0;
  }

  // ---- per-conflict ----
  /// Member interval ids of conflict set `m` (intervalsOfConflict).
  [[nodiscard]] std::span<const CandIdx> membersOf(ConflictIdx m) const {
    return rowSpan(confMemOff_, confMem_, m.idx());
  }
  [[nodiscard]] Coord conflictTrackOf(ConflictIdx m) const {
    return confTrack_[m.idx()];
  }
  /// Lm: span of the common intersection (the subgradient step scale).
  [[nodiscard]] Coord conflictSpanOf(ConflictIdx m) const {
    return confLm_[m.idx()];
  }

  /// Bytes held by the flat arrays — the kernel's whole footprint (size-based,
  /// so the value is deterministic for a given instance regardless of
  /// allocator growth).
  [[nodiscard]] std::size_t footprintBytes() const;

 private:
  template <typename T>
  [[nodiscard]] static std::span<const T> rowSpan(
      const std::vector<Index>& off, const std::vector<T>& data,
      std::size_t k) {
    // Contract: `k` names a row of this CSR adjacency and the row's
    // half-open offset range lies inside `data`. Debug builds fail loudly
    // on an out-of-range row id instead of handing out a wild span.
    CPR_DCHECK(k + 1 < off.size());
    CPR_DCHECK(off[k] <= off[k + 1]);
    CPR_DCHECK(std::size_t(off[k + 1]) <= data.size());
    return {data.begin() + off[k], data.begin() + off[k + 1]};
  }

  // CSR adjacencies (offsets have size n+1; data is the flat concatenation).
  std::vector<Index> pinCandOff_;
  std::vector<CandIdx> pinCand_;   ///< pin -> candidate intervals
  std::vector<CandIdx> sortedCand_;  ///< pinCand_ rows sorted by profit desc
  std::vector<Index> ivPinOff_;
  std::vector<PinIdx> ivPin_;  ///< interval -> covered pins
  std::vector<Index> confMemOff_;
  std::vector<CandIdx> confMem_;  ///< conflict -> member intervals
  std::vector<Index> ivConfOff_;
  std::vector<ConflictIdx> ivConf_;  ///< interval -> conflict sets
  // Packed per-interval columns.
  std::vector<Coord> track_;
  std::vector<geom::Interval> span_;
  std::vector<Index> net_;
  std::vector<double> profit_, weight_;
  std::vector<Index> degree_;
  std::vector<char> minimalBit_;
  // Packed per-pin columns.
  std::vector<CandIdx> minimalOf_;
  std::vector<Index> designPin_;
  // Packed per-conflict columns.
  std::vector<Coord> confTrack_, confLm_;
};

/// Flat-path audit: same semantics as `audit(const Problem&, ...)` but
/// iterating the kernel's CSR arrays. The two must agree exactly (enforced
/// by the panel-kernel property test).
/// CPR_COLD_OK: the audit is a correctness cross-check (seed validation,
/// test ground truth) that groups by track through a std::map by design.
[[nodiscard]] AssignmentAudit audit(const PanelKernel& k,
                                    const Assignment& a) CPR_COLD_OK;

}  // namespace cpr::core
