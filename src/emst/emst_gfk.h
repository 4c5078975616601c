// EMST-GFK: parallel GeoFilterKruskal (paper Algorithm 2).
//
// The WSPD is materialized once; each round processes the pairs with
// cardinality at most beta whose BCCP is no heavier than rho_hi (the
// minimum node distance among the remaining larger pairs), passes those
// edges to a Kruskal batch sharing one union-find, filters out pairs whose
// two sides became fully connected, and doubles beta. BCCP results are
// cached in the pair records across rounds.
#pragma once

#include <limits>
#include <optional>
#include <vector>

#include "emst/duplicates.h"
#include "emst/phase_breakdown.h"
#include "graph/kruskal.h"
#include "spatial/bccp.h"
#include "spatial/wspd.h"
#include "util/timer.h"

namespace parhc {

namespace internal {

struct GfkPair {
  uint32_t a;         ///< arena node indices
  uint32_t b;
  double node_dist;   ///< lower bound on the pair's BCCP (box distance)
  double bccp = -1;   ///< cached BCCP distance (-1 = not yet computed)
  uint32_t u = 0;     ///< cached BCCP endpoints (original ids)
  uint32_t v = 0;
  uint32_t card;      ///< |A| + |B|

  bool HasBccp() const { return bccp >= 0; }
};

}  // namespace internal

/// Computes the Euclidean MST with the parallel GeoFilterKruskal algorithm
/// (Algorithm 2). O(n^2) work, O(log^2 n) depth.
template <int D>
std::vector<WeightedEdge> EmstGfk(const std::vector<Point<D>>& pts,
                                  PhaseBreakdown* phases = nullptr) {
  using Pair = internal::GfkPair;
  size_t n = pts.size();
  Timer total;
  std::optional<KdTree<D>> tree_storage;
  {
    PhaseTimer phase(phases, &PhaseBreakdown::build_tree, "phase:build_tree");
    tree_storage.emplace(pts, /*leaf_size=*/1);
  }
  KdTree<D>& tree = *tree_storage;

  std::vector<Pair> s;
  {
    PhaseTimer phase(phases, &PhaseBreakdown::wspd, "phase:wspd");
    GeometricSeparation<D> sep{2.0};
    std::vector<std::vector<Pair>> local(NumWorkers());
    WspdTraverse(tree, sep, [&](uint32_t a, uint32_t b) {
      double nd =
          std::sqrt(tree.NodeBox(a).MinSquaredDistance(tree.NodeBox(b)));
      local[Scheduler::Get().MyId()].push_back(
          Pair{a, b, nd, -1, 0, 0, tree.NodeSize(a) + tree.NodeSize(b)});
    });
    s = Flatten(local);
    Stats::Get().RecordMaterialized(s.size());
  }

  PhaseTimer kruskal_phase(phases, &PhaseBreakdown::kruskal, "phase:kruskal");
  UnionFind uf(n);
  std::vector<WeightedEdge> out;
  out.reserve(n - 1);
  {
    std::vector<WeightedEdge> dup =
        internal::DuplicateLeafEdges(tree, /*use_core_dist=*/false);
    KruskalBatch(dup, uf, out);
  }

  uint32_t beta = 2;
  while (out.size() + 1 < n && !s.empty()) {
    // (S_l, S_u) = Split(S, |A| + |B| <= beta).
    auto [sl, su] =
        Split(s, [&](const Pair& p) { return p.card <= beta; });
    // rho_hi = min node distance among larger pairs.
    double rho_hi = std::numeric_limits<double>::infinity();
    if (!su.empty()) {
      std::vector<double> dists =
          Tabulate(su.size(), [&](size_t i) { return su[i].node_dist; });
      rho_hi = Reduce(dists, rho_hi,
                      [](double x, double y) { return std::min(x, y); });
    }
    // Compute (and cache) BCCPs of the small pairs.
    ParallelFor(0, sl.size(), [&](size_t i) {
      if (!sl[i].HasBccp()) {
        ClosestPair cp = Bccp(tree, sl[i].a, sl[i].b);
        sl[i].bccp = cp.dist;
        sl[i].u = cp.u;
        sl[i].v = cp.v;
      }
    });
    auto [sl1, sl2] =
        Split(sl, [&](const Pair& p) { return p.bccp <= rho_hi; });
    std::vector<WeightedEdge> batch(sl1.size());
    ParallelFor(0, sl1.size(), [&](size_t i) {
      batch[i] = {sl1[i].u, sl1[i].v, sl1[i].bccp};
    });
    KruskalBatch(batch, uf, out);
    // Filter: keep pairs whose sides are not yet in one component.
    tree.RefreshComponents([&](uint32_t id) { return uf.Find(id); });
    sl2.insert(sl2.end(), su.begin(), su.end());
    s = Filter(sl2, [&](const Pair& p) {
      return tree.Component(p.a) < 0 ||
             tree.Component(p.a) != tree.Component(p.b);
    });
    beta *= 2;
  }
  kruskal_phase.Stop();
  if (phases) phases->total += total.Seconds();
  PARHC_CHECK_MSG(out.size() + 1 == n, "EMST-GFK did not span all points");
  return out;
}

}  // namespace parhc
