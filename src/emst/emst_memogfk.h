// EMST-MemoGFK (paper Algorithm 3): GeoFilterKruskal with the memory
// optimization — the paper's fastest EMST method.
#pragma once

#include <optional>
#include <vector>

#include "emst/duplicates.h"
#include "emst/memogfk_driver.h"

namespace parhc {

/// MemoGFK over a prebuilt tree (leaf_size must be 1). Mutates the tree's
/// component annotations; concurrent callers must serialize on the tree.
/// Used by the clustering engine to reuse one cached tree across queries.
///
/// `seed_edges` (tree point ids) must be edges of the MST being computed
/// under the strict (w, min id, max id) order, such as the surviving edges
/// of the MST of a superset of the points: every MST edge between two
/// points that remain is still an MST edge, because a cycle among the
/// remaining points is a cycle of the superset too. They are pre-unioned
/// together with the duplicate-leaf edges, so the rounds search only for
/// the edges that reconnect them, and component pruning skips every pair
/// inside one seeded fragment.
template <int D>
std::vector<WeightedEdge> EmstMemoGfkOnTree(
    KdTree<D>& tree, PhaseBreakdown* phases = nullptr,
    const MemoGfkOptions& opts = {},
    std::vector<WeightedEdge> seed_edges = {}) {
  GeometricSeparation<D> sep{2.0};
  auto lb = [&tree](uint32_t a, uint32_t b) {
    return std::sqrt(tree.NodeBox(a).MinSquaredDistance(tree.NodeBox(b)));
  };
  auto ub = [&tree](uint32_t a, uint32_t b) {
    return std::sqrt(tree.NodeBox(a).MaxSquaredDistance(tree.NodeBox(b)));
  };
  auto bccp = [&tree](uint32_t a, uint32_t b) { return Bccp(tree, a, b); };
  std::vector<WeightedEdge> known =
      internal::DuplicateLeafEdges(tree, /*use_core_dist=*/false);
  known.insert(known.end(), seed_edges.begin(), seed_edges.end());
  return internal::MemoGfkMst(tree, sep, lb, ub, bccp, std::move(known),
                              phases, opts);
}

/// Computes the Euclidean MST with MemoGFK. O(n^2) work, O(log^2 n) depth,
/// and only the per-round window of WSPD pairs is ever materialized.
template <int D>
std::vector<WeightedEdge> EmstMemoGfk(const std::vector<Point<D>>& pts,
                                      PhaseBreakdown* phases = nullptr,
                                      const MemoGfkOptions& opts = {}) {
  Timer total;
  std::optional<KdTree<D>> tree;
  {
    PhaseTimer phase(phases, &PhaseBreakdown::build_tree, "phase:build_tree");
    tree.emplace(pts, /*leaf_size=*/1);
  }
  std::vector<WeightedEdge> mst = EmstMemoGfkOnTree(*tree, phases, opts);
  if (phases) phases->total += total.Seconds();
  return mst;
}

}  // namespace parhc
