// MemoGFK: memory-optimized GeoFilterKruskal (paper Algorithm 3).
//
// Instead of materializing the WSPD, every round performs two pruned dual
// traversals — both instantiations of the shared dual-tree engine
// (spatial/traverse.h DualTraverse), differing only in their prune and
// base-case callbacks:
//   GetRho   — computes rho_hi, a lower bound on the BCCP of every
//              remaining pair with cardinality > beta (WRITE_MIN over the
//              separated pairs encountered; pruned by cardinality,
//              connectivity, and the current rho_hi);
//   GetPairs — retrieves exactly the separated pairs whose closest-pair
//              value lies in the window [rho_lo, rho_hi), materializing
//              only those (Figure 3's interval pruning).
// The retrieved edges feed a Kruskal batch sharing one union-find; then
// beta doubles and rho_lo advances to rho_hi. Rounds are non-overlapping,
// increasing weight windows, so the result is an exact MST.
//
// The driver is generic over the separation criterion and the value bounds
// so the same code implements EMST (Euclidean BCCP), HDBSCAN*-GanTao
// (standard separation, BCCP*), and HDBSCAN*-MemoGFK (the paper's new
// separation, BCCP*) — see Section 3.2.3. The bound callbacks `lb`, `ub`
// and the closest-pair callback `bccp` take arena node indices.
#pragma once

#include <atomic>
#include <limits>
#include <vector>

#include "emst/phase_breakdown.h"
#include "graph/kruskal.h"
#include "spatial/bccp.h"
#include "spatial/wspd.h"
#include "util/timer.h"

namespace parhc {

/// Tuning knobs for the MemoGFK round loop. The paper doubles beta every
/// round (crucial for the O(log n) round bound — Section 3.1.2); the
/// sequential GFK of Chatterjee et al. increments it instead. Exposed for
/// the ablation benchmark.
struct MemoGfkOptions {
  double beta_factor = 2.0;  ///< multiplicative growth (paper)
  uint32_t beta_add = 0;     ///< if nonzero, additive growth instead
};

namespace internal {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// GetRho (Algorithm 3 line 4): WRITE_MIN of lb over separated pairs still
/// spanning more than beta points and more than one component.
template <int D, typename Sep, typename LbFn>
void GetRho(const KdTree<D>& t, const Sep& sep, const LbFn& lb, uint32_t beta,
            std::atomic<double>& rho) {
  DualTraverse(
      t,
      [&](uint32_t a, uint32_t b) {
        if (t.NodeSize(a) + t.NodeSize(b) <= beta) return true;
        int64_t ca = t.Component(a);
        if (ca >= 0 && ca == t.Component(b)) return true;
        // Cannot lower rho below the already-found bound.
        return lb(a, b) >= rho.load(std::memory_order_relaxed);
      },
      [&](uint32_t a, uint32_t b) { return sep(t, a, b); },
      [&](uint32_t a, uint32_t b, bool separated) {
        // Unsplittable duplicate-leaf pairs carry no bound information.
        if (separated) WriteMin(&rho, lb(a, b));
      },
      /*count_visits=*/false);  // bound-only sweep: not a pair enumeration
}

/// GetPairs (Algorithm 3 line 5): emit the BCCP of every separated pair
/// whose value can lie in [rho_lo, rho_hi), pruning whole subtrees outside
/// the window (Figure 3).
template <int D, typename Sep, typename LbFn, typename UbFn, typename BccpFn,
          typename Emit>
void GetPairs(const KdTree<D>& t, const Sep& sep, const LbFn& lb,
              const UbFn& ub, const BccpFn& bccp, double rho_lo,
              double rho_hi, const Emit& emit) {
  DualTraverse(
      t,
      [&](uint32_t a, uint32_t b) {
        int64_t ca = t.Component(a);
        if (ca >= 0 && ca == t.Component(b)) return true;
        if (lb(a, b) >= rho_hi) return true;  // subtree above the window
        return ub(a, b) < rho_lo;             // subtree below the window
      },
      [&](uint32_t a, uint32_t b) { return sep(t, a, b); },
      [&](uint32_t a, uint32_t b, bool /*separated*/) {
        // Both separated pairs and unsplittable duplicate-leaf pairs are
        // realized through their closest pair.
        ClosestPair cp = bccp(a, b);
        if (cp.dist >= rho_lo && cp.dist < rho_hi) emit(cp);
      });
}

/// Runs the MemoGFK round loop over `tree` and returns the MST edges.
/// `initial_edges` (duplicate-leaf edges) are union'd in first.
template <int D, typename Sep, typename LbFn, typename UbFn, typename BccpFn>
std::vector<WeightedEdge> MemoGfkMst(KdTree<D>& tree, const Sep& sep,
                                     const LbFn& lb, const UbFn& ub,
                                     const BccpFn& bccp,
                                     std::vector<WeightedEdge> initial_edges,
                                     PhaseBreakdown* phases = nullptr,
                                     const MemoGfkOptions& opts = {}) {
  size_t n = tree.size();
  UnionFind uf(n);
  std::vector<WeightedEdge> out;
  out.reserve(n - 1);
  KruskalBatch(initial_edges, uf, out);

  uint32_t beta = 2;
  double rho_lo = 0;
  while (out.size() + 1 < n) {
    double rho_hi;
    std::vector<WeightedEdge> batch;
    {
      PhaseTimer phase(phases, &PhaseBreakdown::wspd, "phase:wspd");
      tree.RefreshComponents([&](uint32_t id) { return uf.Find(id); });
      // GetRho: rho_hi = min lower bound over separated pairs with |A|+|B|
      // > beta that are not yet connected (Algorithm 3 line 4).
      std::atomic<double> rho{kInf};
      GetRho(tree, sep, lb, beta, rho);
      // Remaining edges are all >= rho_lo by the round invariant, so the
      // window stays well-formed even if the bound dips below rho_lo.
      rho_hi = std::max(rho.load(), rho_lo);

      // GetPairs: materialize only the pairs whose value lies in
      // [rho_lo, rho_hi) (Algorithm 3 line 5).
      std::vector<std::vector<WeightedEdge>> local(NumWorkers());
      auto emit = [&](const ClosestPair& cp) {
        local[Scheduler::Get().MyId()].push_back({cp.u, cp.v, cp.dist});
      };
      GetPairs(tree, sep, lb, ub, bccp, rho_lo, rho_hi, emit);
      batch = Flatten(local);
      Stats::Get().RecordMaterialized(batch.size());
    }

    {
      PhaseTimer phase(phases, &PhaseBreakdown::kruskal, "phase:kruskal");
      KruskalBatch(batch, uf, out);
    }

    if (opts.beta_add > 0) {
      beta += opts.beta_add;
    } else {
      beta = static_cast<uint32_t>(beta * opts.beta_factor);
    }
    rho_lo = rho_hi;
    if (rho_hi == kInf) break;  // final sweep retrieved everything left
  }
  PARHC_CHECK_MSG(out.size() + 1 == n, "MemoGFK did not span all points");
  return out;
}

}  // namespace internal
}  // namespace parhc
