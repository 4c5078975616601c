// Parallel approximate OPTICS (paper Appendix C), after Gan & Tao [28].
//
// A WSPD with separation constant s = sqrt(8/rho) is built; each pair
// contributes edges between "representative" points following the four
// cardinality cases (a)-(d) with weights
//     w(u, v) = max(cd(u), cd(v), d(u, v) / (1 + rho)),
// and the MST of the resulting O(n * minPts^2)-edge base graph approximates
// the mutual reachability MST within the rho-dependent bound. As in the
// paper's implementation, the representative of a node is a fixed
// (pseudo-random) member point.
#pragma once

#include <optional>
#include <vector>

#include "emst/duplicates.h"
#include "graph/kruskal.h"
#include "hdbscan/core_distance.h"
#include "parallel/semisort.h"
#include "spatial/wspd.h"
#include "util/timer.h"

namespace parhc {

/// Result of approximate OPTICS MST construction.
struct OpticsApproxResult {
  std::vector<WeightedEdge> mst;
  std::vector<double> core_dist;
  uint64_t base_graph_edges = 0;  ///< edges generated before the MST pass
};

/// Builds the approximate-OPTICS MST for `pts` with parameters `min_pts`
/// and `rho` (> 0; the paper's experiments use rho = 0.125, i.e. s = 8).
template <int D>
OpticsApproxResult OpticsApproxMst(const std::vector<Point<D>>& pts,
                                   int min_pts, double rho,
                                   PhaseBreakdown* phases = nullptr) {
  PARHC_CHECK(rho > 0);
  size_t n = pts.size();
  Timer total;
  std::optional<KdTree<D>> tree_storage;
  {
    PhaseTimer phase(phases, &PhaseBreakdown::build_tree, "phase:build_tree");
    tree_storage.emplace(pts, /*leaf_size=*/1);
  }
  KdTree<D>& tree = *tree_storage;

  OpticsApproxResult result;
  {
    PhaseTimer phase(phases, &PhaseBreakdown::core_dist, "phase:core_dist");
    result.core_dist = CoreDistances(tree, min_pts);
    tree.AnnotateCoreDistances(result.core_dist);
  }

  PhaseTimer wspd_phase(phases, &PhaseBreakdown::wspd, "phase:wspd");
  const double s = std::sqrt(8.0 / rho);
  GeometricSeparation<D> sep{s};
  const auto& cd = result.core_dist;
  const size_t mp = static_cast<size_t>(min_pts);
  // Per-worker edge buffers; each pair contributes its case (a)-(d) edges.
  std::vector<std::vector<WeightedEdge>> local(NumWorkers());
  auto weight = [&](uint32_t u, uint32_t v) {
    return std::max({cd[u], cd[v], Distance(pts[u], pts[v]) / (1.0 + rho)});
  };
  WspdTraverse(tree, sep, [&](uint32_t a, uint32_t b) {
    auto& buf = local[Scheduler::Get().MyId()];
    // Fixed pseudo-random representative per node (paper's simplification
    // of the approximate BCCP).
    auto rep = [&](uint32_t nd) {
      uint32_t span = tree.NodeSize(nd);
      uint32_t off = static_cast<uint32_t>(
          HashU64(tree.NodeBegin(nd) * 0x9e3779b9ull + tree.NodeEnd(nd)) %
          span);
      return tree.id(tree.NodeBegin(nd) + off);
    };
    bool small_a = tree.NodeSize(a) < mp, small_b = tree.NodeSize(b) < mp;
    if (small_a && small_b) {  // case (a): all cross pairs
      for (uint32_t i = tree.NodeBegin(a); i < tree.NodeEnd(a); ++i) {
        for (uint32_t j = tree.NodeBegin(b); j < tree.NodeEnd(b); ++j) {
          uint32_t u = tree.id(i), v = tree.id(j);
          buf.push_back({u, v, weight(u, v)});
        }
      }
    } else if (!small_a && small_b) {  // case (b)
      uint32_t u = rep(a);
      for (uint32_t j = tree.NodeBegin(b); j < tree.NodeEnd(b); ++j) {
        uint32_t v = tree.id(j);
        buf.push_back({u, v, weight(u, v)});
      }
    } else if (small_a && !small_b) {  // case (c)
      uint32_t v = rep(b);
      for (uint32_t i = tree.NodeBegin(a); i < tree.NodeEnd(a); ++i) {
        uint32_t u = tree.id(i);
        buf.push_back({u, v, weight(u, v)});
      }
    } else {  // case (d): representatives only
      uint32_t u = rep(a), v = rep(b);
      buf.push_back({u, v, weight(u, v)});
    }
  });
  std::vector<WeightedEdge> edges = Flatten(local);
  Stats::Get().RecordMaterialized(edges.size());
  result.base_graph_edges = edges.size();
  std::vector<WeightedEdge> dup =
      internal::DuplicateLeafEdges(tree, /*use_core_dist=*/true);
  edges.insert(edges.end(), dup.begin(), dup.end());
  wspd_phase.Stop();

  {
    PhaseTimer phase(phases, &PhaseBreakdown::kruskal, "phase:kruskal");
    result.mst = KruskalMst(n, std::move(edges));
  }
  if (phases) phases->total += total.Seconds();
  PARHC_CHECK_MSG(result.mst.size() + 1 == n,
                  "approximate OPTICS base graph is disconnected");
  return result;
}

}  // namespace parhc
