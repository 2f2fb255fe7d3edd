#include "core/exact_solver.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/names.h"
#include "support/contracts.h"

namespace cpr::core {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr double kEps = 1e-9;

enum : std::uint8_t { kFree = 0, kOne = 1, kZero = 2 };

struct Search {
  const PanelKernel& k;
  const ExactOptions& opts;
  ExactScratch& s;
  obs::Collector* obs = nullptr;
  support::Deadline deadline;

  double lambdaSum = 0.0;

  // Incumbent.
  double bestObj = kNegInf;
  bool haveIncumbent = false;

  long epoch = 0;
  long nodes = 0;
  bool truncated = false;
  bool timedOut = false;

  Search(const PanelKernel& kernel, const ExactOptions& o, ExactScratch& sc)
      : k(kernel), opts(o), s(sc) {
    const std::size_t n = k.numIntervals();
    const std::size_t nPins = k.numPins();
    s.activePins.clear();
    s.activePins.reserve(nPins);
    for (std::size_t j = 0; j < nPins; ++j) {
      if (!k.candidatesOf(PinIdx{j}).empty()) s.activePins.push_back(PinIdx{j});
    }
    s.status.assign(n, kFree);
    s.assignedTo.assign(nPins, CandIdx::invalid());
    // Fixed-capacity undo stack: a status change is trailed at most once per
    // interval and an assignment at most once per pin along any search path.
    s.trail.resize(std::max(s.trail.size(), n + nPins));
    s.trailLen = 0;
    s.chosenStamp.assign(n, -1);
    s.csStamp.assign(k.numConflicts(), -1);
    s.csCount.assign(k.numConflicts(), 0);
    s.term.assign(n, 0.0);
    s.bestAssign.clear();
  }

  /// Subgradient tuning of the root multipliers: minimizes the split-penalty
  /// dual bound and freezes the best snapshot into `term` / `lambdaSum`.
  /// With a known feasible value (the LR seed) the step follows Polyak's
  /// rule t_k = θ (D(λ) - LB) / ||g||², which closes the root gap far faster
  /// than the diminishing schedule alone.
  void tuneRootDual(double incumbentValue) {
    const std::size_t n = k.numIntervals();
    const std::size_t nCs = k.numConflicts();
    s.lambda.assign(nCs, 0.0);
    s.penalty.assign(n, 0.0);  // P_i = sum of lambda over conflictsOf(i)
    s.bestPenalty.assign(n, 0.0);
    double bestBound = std::numeric_limits<double>::infinity();
    double bestLambdaSum = 0.0;
    s.rootChoice.assign(k.numPins(), CandIdx::invalid());
    const bool polyak = incumbentValue > kNegInf;
    double theta = 1.0;  // Polyak relaxation factor, halved on stalls
    int sinceImprove = 0;

    for (int it = 1; it <= std::max(1, opts.rootDualIterations); ++it) {
      if (deadline.expired()) {
        timedOut = true;
        break;  // the best snapshot so far still yields a valid bound
      }
      // Per-pin argmax under current multipliers.
      double bound = 0.0;
      for (const PinIdx j : s.activePins) {
        double best = kNegInf;
        CandIdx arg = CandIdx::invalid();
        for (const CandIdx i : k.candidatesOf(j)) {
          const double t =
              k.profitOf(i) -
              s.penalty[i.idx()] / static_cast<double>(k.degreeOf(i));
          if (t > best) {
            best = t;
            arg = i;
          }
        }
        bound += best;
        s.rootChoice[j.idx()] = arg;
      }
      double lsum = 0.0;
      for (const double l : s.lambda) lsum += l;
      bound += lsum;
      obs::row(obs, obs::names::kExactRootSeries, {"iter", "bound"},
               {static_cast<double>(it), bound});
      if (bound < bestBound - 1e-12) {
        bestBound = bound;
        s.bestPenalty = s.penalty;
        bestLambdaSum = lsum;
        sinceImprove = 0;
      } else if (polyak && ++sinceImprove >= 20) {
        theta = std::max(0.05, theta * 0.5);
        sinceImprove = 0;
      }
      if (polyak && bestBound <= incumbentValue + 1e-9) break;  // gap closed

      // Subgradient step on every conflict set.
      ++epoch;
      for (const PinIdx j : s.activePins) {
        const CandIdx i = s.rootChoice[j.idx()];
        s.chosenStamp[i.idx()] = epoch;
      }
      double gradNormSq = 0.0;
      if (polyak) {
        for (std::size_t m = 0; m < nCs; ++m) {
          int count = 0;
          for (const CandIdx i : k.membersOf(ConflictIdx{m}))
            count += s.chosenStamp[i.idx()] == epoch ? 1 : 0;
          const double grad = static_cast<double>(count - 1);
          if (grad > 0.0 || (grad < 0.0 && s.lambda[m] > 0.0))
            gradNormSq += grad * grad;
        }
        if (gradNormSq == 0.0) break;  // stationary: dual optimum reached
      }
      const double schedule =
          1.0 / std::pow(static_cast<double>(it), opts.alpha);
      const double polyakStep =
          polyak ? theta * std::max(0.0, bound - incumbentValue) / gradNormSq
                 : 0.0;
      for (std::size_t m = 0; m < nCs; ++m) {
        int count = 0;
        for (const CandIdx i : k.membersOf(ConflictIdx{m}))
          count += s.chosenStamp[i.idx()] == epoch ? 1 : 0;
        const double grad = static_cast<double>(count - 1);
        if (grad == 0.0) continue;
        const double tk =
            polyak
                ? polyakStep
                : schedule * static_cast<double>(k.conflictSpanOf(
                                 ConflictIdx{m}));
        const double next = std::max(0.0, s.lambda[m] + tk * grad);
        const double delta = next - s.lambda[m];
        if (delta == 0.0) continue;
        s.lambda[m] = next;
        for (const CandIdx i : k.membersOf(ConflictIdx{m}))
          s.penalty[i.idx()] += delta;
      }
    }

    for (std::size_t i = 0; i < n; ++i)
      s.term[i] =
          k.profitOf(CandIdx{i}) -
          s.bestPenalty[i] / static_cast<double>(k.degreeOf(CandIdx{i}));
    lambdaSum = bestLambdaSum;
  }

  [[nodiscard]] bool outOfBudget() {
    if (nodes >= opts.maxNodes) return true;
    if ((nodes & 0x3ff) == 0 && deadline.expired()) {
      timedOut = true;
      return true;
    }
    return false;
  }

  std::size_t mark() const { return s.trailLen; }

  void undoTo(std::size_t m) {
    while (s.trailLen > m) {
      const ExactTrailOp op = s.trail[--s.trailLen];
      if (op.isStatus) {
        CPR_DCHECK(op.cand.idx() < s.status.size());
        s.status[op.cand.idx()] = kFree;
      } else {
        CPR_DCHECK(op.pin.idx() < s.assignedTo.size());
        s.assignedTo[op.pin.idx()] = CandIdx::invalid();
      }
    }
  }

  bool setZero(CandIdx i) {
    CPR_DCHECK(i.idx() < s.status.size());
    std::uint8_t& st = s.status[i.idx()];
    if (st == kOne) return false;
    if (st == kFree) {
      st = kZero;
      CPR_DCHECK(s.trailLen < s.trail.size());
      s.trail[s.trailLen++] = {true, i, PinIdx::invalid()};
    }
    return true;
  }

  /// Forces x_i = 1 and propagates the equality (1b) and conflict (1c) rows.
  bool forceOne(CandIdx i) {
    CPR_DCHECK(i.idx() < s.status.size());
    std::uint8_t& st = s.status[i.idx()];
    if (st == kZero) return false;
    if (st == kFree) {
      st = kOne;
      CPR_DCHECK(s.trailLen < s.trail.size());
      s.trail[s.trailLen++] = {true, i, PinIdx::invalid()};
    }
    for (const PinIdx q : k.pinsOf(i)) {
      if (s.assignedTo[q.idx()].valid()) {
        if (s.assignedTo[q.idx()] != i) return false;
      } else {
        s.assignedTo[q.idx()] = i;
        CPR_DCHECK(s.trailLen < s.trail.size());
        s.trail[s.trailLen++] = {false, CandIdx::invalid(), q};
      }
      for (const CandIdx c : k.candidatesOf(q)) {
        if (c != i && !setZero(c)) return false;
      }
    }
    for (const ConflictIdx m : k.conflictsOf(i)) {
      for (const CandIdx c : k.membersOf(m)) {
        if (c != i && !setZero(c)) return false;
      }
    }
    return true;
  }

  void dfs() {
    if (outOfBudget()) {
      truncated = true;
      return;
    }
    ++nodes;

    // Bound and per-pin choice under the current fixing. `nodeChoice` and
    // `nodeChosen` are shared across the recursion: a node never reads them
    // after recursing into a child, so one pool per worker suffices.
    s.nodeChoice.assign(k.numPins(), CandIdx::invalid());
    double bound = lambdaSum;
    for (const PinIdx j : s.activePins) {
      if (s.assignedTo[j.idx()].valid()) {
        s.nodeChoice[j.idx()] = s.assignedTo[j.idx()];
        bound += s.term[s.assignedTo[j.idx()].idx()];
        continue;
      }
      double best = kNegInf;
      CandIdx arg = CandIdx::invalid();
      for (const CandIdx i : k.candidatesOf(j)) {
        if (s.status[i.idx()] == kZero) continue;
        const double t = s.term[i.idx()];
        if (t > best) {
          best = t;
          arg = i;
        }
      }
      if (!arg.valid()) return;  // pin starved: infeasible node
      s.nodeChoice[j.idx()] = arg;
      bound += best;
    }
    if (haveIncumbent && bound <= bestObj + kEps) return;

    // Identify a violated conflict set or an inconsistently chosen shared
    // interval; both yield a free interval to branch on.
    ++epoch;
    s.nodeChosen.clear();
    s.nodeChosen.reserve(k.numPins());  // no-op warm; one entry per pin max
    for (const PinIdx j : s.activePins) {
      const CandIdx i = s.nodeChoice[j.idx()];
      long& st = s.chosenStamp[i.idx()];
      if (st != epoch) {
        st = epoch;
        s.nodeChosen.push_back(i);
      }
    }
    CandIdx branchI = CandIdx::invalid();
    double branchScore = kNegInf;
    for (const CandIdx i : s.nodeChosen) {
      for (const ConflictIdx m : k.conflictsOf(i)) {
        if (s.csStamp[m.idx()] != epoch) {
          s.csStamp[m.idx()] = epoch;
          s.csCount[m.idx()] = 0;
        }
        if (++s.csCount[m.idx()] >= 2) {
          // Conflict violated: branch on its free chosen member of max term.
          for (const CandIdx c : k.membersOf(m)) {
            if (s.chosenStamp[c.idx()] == epoch && s.status[c.idx()] == kFree &&
                s.term[c.idx()] > branchScore) {
              branchScore = s.term[c.idx()];
              branchI = c;
            }
          }
        }
      }
    }
    if (!branchI.valid()) {
      for (const CandIdx i : s.nodeChosen) {
        for (const PinIdx q : k.pinsOf(i)) {
          if (s.nodeChoice[q.idx()] != i) {
            branchI = i;  // shared interval chosen by only some covered pins
            break;
          }
        }
        if (branchI.valid()) break;
      }
    }

    if (!branchI.valid()) {
      // Consistent and conflict-free: a feasible ILP point.
      double value = 0.0;
      for (const PinIdx j : s.activePins)
        value += k.profitOf(s.nodeChoice[j.idx()]);
      if (!haveIncumbent || value > bestObj) {
        bestObj = value;
        s.bestAssign = s.nodeChoice;
        haveIncumbent = true;
      }
      if (bound <= value + kEps) return;  // bound met: subtree closed
      // Gap comes only from the penalty split; branch on the pin with the
      // widest top-two margin to shrink it.
      PinIdx pinToSplit = PinIdx::invalid();
      double bestMargin = kNegInf;
      for (const PinIdx j : s.activePins) {
        if (s.assignedTo[j.idx()].valid()) continue;
        int allowed = 0;
        double top1 = kNegInf;
        double top2 = kNegInf;
        for (const CandIdx i : k.candidatesOf(j)) {
          if (s.status[i.idx()] == kZero) continue;
          ++allowed;
          const double t = s.term[i.idx()];
          if (t > top1) {
            top2 = top1;
            top1 = t;
          } else if (t > top2) {
            top2 = t;
          }
        }
        if (allowed >= 2 && top1 - top2 > bestMargin) {
          bestMargin = top1 - top2;
          pinToSplit = j;
        }
      }
      if (!pinToSplit.valid()) return;  // fixing is fully forced
      branchI = s.nodeChoice[pinToSplit.idx()];
      if (s.status[branchI.idx()] != kFree) return;
    }

    // Children: x = 1 first (finds strong incumbents early), then x = 0.
    const std::size_t m0 = mark();
    if (forceOne(branchI)) dfs();
    undoTo(m0);
    if (setZero(branchI)) dfs();
    undoTo(m0);
  }
};

}  // namespace

std::size_t ExactScratch::footprintBytes() const {
  auto bytes = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
  return bytes(term) + bytes(lambda) + bytes(penalty) + bytes(bestPenalty) +
         bytes(rootChoice) + bytes(status) + bytes(assignedTo) +
         bytes(trail) + bytes(chosenStamp) + bytes(csStamp) + bytes(csCount) +
         bytes(nodeChoice) + bytes(nodeChosen) + bytes(activePins) +
         bytes(bestAssign) + bytes(selFlag) + lr.footprintBytes();
}

Assignment solveExact(const PanelKernel& k, const ExactOptions& opts,
                      ExactStats* stats, obs::Collector* obs,
                      ExactScratch* scratch, support::Deadline deadline) {
  ExactScratch local;
  ExactScratch& sc = scratch ? *scratch : local;
  Search search(k, opts, sc);
  search.obs = obs;
  search.deadline = support::Deadline::soonerOf(opts.deadline, deadline);

  // Root incumbent from the LR heuristic (always conflict-free); it also
  // anchors the Polyak steps of the root dual tuning.
  {
    LrOptions lrOpts;
    Assignment seed = solveLr(k, lrOpts, nullptr, nullptr, &sc.lr);
    if (seed.violations == 0) {
      const AssignmentAudit a = audit(k, seed);
      if (a.overlapsBetweenNets == 0) {
        sc.bestAssign.assign(seed.intervalOfPin.size(), CandIdx::invalid());
        for (std::size_t j = 0; j < seed.intervalOfPin.size(); ++j)
          sc.bestAssign[j] = CandIdx{seed.intervalOfPin[j]};
        search.bestObj = seed.objective;
        search.haveIncumbent = true;
      }
    }
  }
  search.tuneRootDual(search.haveIncumbent ? search.bestObj : kNegInf);

  double rootBound = search.lambdaSum;
  for (const PinIdx j : sc.activePins) {
    double best = kNegInf;
    for (const CandIdx i : k.candidatesOf(j))
      best = std::max(best, sc.term[i.idx()]);
    rootBound += best;
  }
  if (stats) stats->rootUpperBound = rootBound;

  search.dfs();

  const std::size_t nPins = k.numPins();
  Assignment out;
  out.intervalOfPin.assign(nPins, geom::kInvalidIndex);
  if (search.haveIncumbent) {
    CPR_DCHECK(sc.bestAssign.size() == nPins);
    for (std::size_t j = 0; j < nPins; ++j)
      out.intervalOfPin[j] = sc.bestAssign[j].value();
  }
  for (std::size_t j = 0; j < nPins; ++j) {
    const Index i = out.intervalOfPin[j];
    if (i != geom::kInvalidIndex) out.objective += k.profitOf(CandIdx{i});
  }
  out.provedOptimal = search.haveIncumbent && !search.truncated;
  // Violations of the final selection (0 expected).
  sc.selFlag.assign(k.numIntervals(), 0);
  for (const Index i : out.intervalOfPin)
    if (i != geom::kInvalidIndex) sc.selFlag[CandIdx{i}.idx()] = 1;
  for (std::size_t m = 0; m < k.numConflicts(); ++m) {
    int count = 0;
    for (const CandIdx i : k.membersOf(ConflictIdx{m}))
      count += sc.selFlag[i.idx()];
    if (count > 1) ++out.violations;
  }
  if (stats) {
    stats->nodes = search.nodes;
    stats->bestObjective = out.objective;
    stats->optimal = out.provedOptimal;
  }
  obs::add(obs, obs::names::kExactNodes, search.nodes);
  if (!out.provedOptimal) obs::add(obs, obs::names::kExactNotProved);
  if (search.timedOut) obs::add(obs, obs::names::kExactTimeout);
  obs::row(obs, obs::names::kExactPanelSeries,
           {"nodes", "root_bound", "best_objective", "gap", "proved"},
           {static_cast<double>(search.nodes), rootBound, out.objective,
            rootBound - out.objective, out.provedOptimal ? 1.0 : 0.0});
  return out;
}

}  // namespace cpr::core
