#include "core/panel_kernel.h"

#include <algorithm>
#include <limits>
#include <map>

namespace cpr::core {

namespace {

/// Builds `off`/`data` from `n` rows whose contents `rowOf(r)` yields. The
/// rows carry raw `Index` ids (the `Problem` boundary); `T` is the strong
/// id type of the destination space, wrapped element-by-element.
template <typename T, typename RowOf>
void flatten(std::size_t n, RowOf rowOf, std::vector<Index>& off,
             std::vector<T>& data) {
  off.assign(n + 1, 0);
  std::size_t total = 0;
  for (std::size_t r = 0; r < n; ++r) {
    total += rowOf(r).size();
    // Offsets are stored as Index; a panel whose flat adjacency no longer
    // fits would silently wrap and corrupt every span handed out later.
    CPR_CHECK(total <= std::size_t{std::numeric_limits<Index>::max()});
    off[r + 1] = static_cast<Index>(total);
  }
  data.clear();
  data.reserve(total);
  for (std::size_t r = 0; r < n; ++r) {
    for (const Index v : rowOf(r)) data.push_back(T{v});
  }
}

}  // namespace

PanelKernel PanelKernel::compile(const Problem& q) {
  PanelKernel k;
  const std::size_t nPins = q.pins.size();
  const std::size_t nIv = q.intervals.size();
  const std::size_t nCs = q.conflicts.size();

  flatten(nPins, [&](std::size_t j) -> const std::vector<Index>& {
    return q.pins[j].intervals;
  }, k.pinCandOff_, k.pinCand_);
  flatten(nIv, [&](std::size_t i) -> const std::vector<Index>& {
    return q.intervals[i].pins;
  }, k.ivPinOff_, k.ivPin_);
  flatten(nCs, [&](std::size_t m) -> const std::vector<Index>& {
    return q.conflicts[m].intervals;
  }, k.confMemOff_, k.confMem_);

  // Cross-index interval -> conflict sets by counting sort over the member
  // lists; filling in ascending `m` keeps each interval's conflict list in
  // the same order the nested `csOf` construction produced.
  k.ivConfOff_.assign(nIv + 1, 0);
  for (std::size_t m = 0; m < nCs; ++m) {
    for (const Index i : q.conflicts[m].intervals) {
      // A conflict member outside the interval table would turn the
      // counting sort below into an out-of-bounds histogram write.
      CPR_DCHECK(CandIdx{i}.idx() < nIv);
      ++k.ivConfOff_[CandIdx{i}.idx() + 1];
    }
  }
  for (std::size_t i = 1; i <= nIv; ++i) k.ivConfOff_[i] += k.ivConfOff_[i - 1];
  k.ivConf_.assign(std::size_t(k.ivConfOff_[nIv]), ConflictIdx{});
  {
    std::vector<Index> cursor(k.ivConfOff_.begin(), k.ivConfOff_.end() - 1);
    for (std::size_t m = 0; m < nCs; ++m) {
      for (const Index i : q.conflicts[m].intervals)
        k.ivConf_[std::size_t(cursor[CandIdx{i}.idx()]++)] = ConflictIdx{m};
    }
  }

  // Per-pin candidate order for LR re-expansion: profit desc, id asc.
  k.sortedCand_ = k.pinCand_;
  for (std::size_t j = 0; j < nPins; ++j) {
    std::sort(k.sortedCand_.begin() + k.pinCandOff_[j],
              k.sortedCand_.begin() + k.pinCandOff_[j + 1],
              [&](CandIdx a, CandIdx b) {
                const double pa = q.profit[a.idx()];
                const double pb = q.profit[b.idx()];
                return pa != pb ? pa > pb : a < b;
              });
  }

  k.track_.resize(nIv);
  k.span_.resize(nIv);
  k.net_.resize(nIv);
  k.profit_.resize(nIv);
  k.weight_.resize(nIv);
  k.degree_.resize(nIv);
  k.minimalBit_.resize(nIv);
  for (std::size_t i = 0; i < nIv; ++i) {
    const AccessInterval& iv = q.intervals[i];
    k.track_[i] = iv.track;
    k.span_[i] = iv.span;
    k.net_[i] = iv.net;
    k.profit_[i] = q.profit[i];
    k.weight_[i] = q.weight(static_cast<Index>(i));
    k.degree_[i] = static_cast<Index>(iv.pins.size());
    k.minimalBit_[i] = iv.minimal ? 1 : 0;
  }

  k.minimalOf_.resize(nPins);
  k.designPin_.resize(nPins);
  for (std::size_t j = 0; j < nPins; ++j) {
    k.minimalOf_[j] = CandIdx{q.pins[j].minimalInterval};
    k.designPin_[j] = q.pins[j].designPin;
  }

  k.confTrack_.resize(nCs);
  k.confLm_.resize(nCs);
  for (std::size_t m = 0; m < nCs; ++m) {
    k.confTrack_[m] = q.conflicts[m].track;
    k.confLm_[m] = q.conflicts[m].common.span();
  }
  return k;
}

std::size_t PanelKernel::footprintBytes() const {
  auto bytes = [](const auto& v) { return v.size() * sizeof(v[0]); };
  return bytes(pinCandOff_) + bytes(pinCand_) + bytes(sortedCand_) +
         bytes(ivPinOff_) +
         bytes(ivPin_) + bytes(confMemOff_) + bytes(confMem_) +
         bytes(ivConfOff_) + bytes(ivConf_) + bytes(track_) + bytes(span_) +
         bytes(net_) + bytes(profit_) + bytes(weight_) + bytes(degree_) +
         bytes(minimalBit_) + bytes(minimalOf_) + bytes(designPin_) +
         bytes(confTrack_) + bytes(confLm_);
}

AssignmentAudit audit(const PanelKernel& k, const Assignment& a) {
  AssignmentAudit out;
  std::vector<CandIdx> selected;
  const std::size_t nPins = k.numPins();
  CPR_CHECK(a.intervalOfPin.size() == nPins);
  for (std::size_t j = 0; j < nPins; ++j) {
    const Index raw = a.intervalOfPin[j];
    CPR_DCHECK(raw == geom::kInvalidIndex ||
               CandIdx{raw}.idx() < k.numIntervals());
    if (raw == geom::kInvalidIndex) {
      ++out.unassignedPins;
      continue;
    }
    const CandIdx i{raw};
    out.objective += k.profitOf(i);
    selected.push_back(i);
    const std::span<const CandIdx> cand = k.candidatesOf(PinIdx{j});
    if (std::find(cand.begin(), cand.end(), i) == cand.end())
      out.eachPinCovered = false;
  }
  std::sort(selected.begin(), selected.end());
  selected.erase(std::unique(selected.begin(), selected.end()),
                 selected.end());

  std::map<Coord, std::vector<CandIdx>> byTrack;
  for (const CandIdx i : selected) byTrack[k.trackOf(i)].push_back(i);
  for (const auto& [track, ids] : byTrack) {
    for (std::size_t u = 0; u < ids.size(); ++u) {
      for (std::size_t v = u + 1; v < ids.size(); ++v) {
        if (k.netOf(ids[u]) != k.netOf(ids[v]) &&
            k.spanOf(ids[u]).overlaps(k.spanOf(ids[v])))
          ++out.overlapsBetweenNets;
      }
    }
  }
  return out;
}

}  // namespace cpr::core
