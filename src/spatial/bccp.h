// Bichromatic closest pair (BCCP) and its mutual-reachability variant BCCP*
// (paper Section 2.3), as instantiations of the shared dual-min engine.
//
// BCCP(A, B) returns the closest pair of points across two k-d tree nodes.
// BCCP*(A, B) minimizes the mutual reachability distance
//   d_m(p, q) = max(d(p, q), cd(p), cd(q))
// and requires the tree to be annotated with core distances. Both use a
// pruned dual descent (spatial/traverse.h DualMinTraverse): a node pair is
// skipped when a lower bound on its best achievable value is no better than
// the best found so far, and children are visited closest-first.
#pragma once

#include <cstdint>
#include <limits>

#include "geometry/distance.h"
#include "spatial/traverse.h"
#include "util/stats.h"

namespace parhc {

/// Result of a closest-pair computation. `u` and `v` are original point
/// ids; `dist` is the (mutual-reachability, for BCCP*) distance.
struct ClosestPair {
  uint32_t u = 0;
  uint32_t v = 0;
  double dist = std::numeric_limits<double>::infinity();
};

namespace internal {

// Deterministic tie-breaking on (dist, min id, max id).
template <int D, typename PairDist>
void BccpLeafScan(const KdTree<D>& tree, uint32_t a, uint32_t b,
                  const PairDist& pair_dist, ClosestPair& best) {
  for (uint32_t i = tree.NodeBegin(a); i < tree.NodeEnd(a); ++i) {
    for (uint32_t j = tree.NodeBegin(b); j < tree.NodeEnd(b); ++j) {
      double d = pair_dist(i, j);
      uint32_t u = tree.id(i), v = tree.id(j);
      if (d < best.dist ||
          (d == best.dist &&
           std::minmax(u, v) < std::minmax(best.u, best.v))) {
        best = {u, v, d};
      }
    }
  }
}

/// Batched Euclidean leaf scan: both leaves' points are contiguous in tree
/// order, so each outer point issues chunked point-to-block kernel calls
/// (geometry/distance.h). `gida` / `gidb` map the two trees' point indices
/// to the caller's id space; tie-breaking matches BccpLeafScan on
/// (dist, min id, max id) in that space. Works for the single-tree case
/// (ta == tb) and the cross-tree case alike.
template <int D, typename GidA, typename GidB>
void EuclideanLeafScanBatched(const KdTree<D>& ta, const KdTree<D>& tb,
                              uint32_t a, uint32_t b, const GidA& gida,
                              const GidB& gidb, ClosestPair& best) {
  double sq[kDistanceBatch];
  for (uint32_t i = ta.NodeBegin(a); i < ta.NodeEnd(a); ++i) {
    const Point<D>& p = ta.point(i);
    for (uint32_t j0 = tb.NodeBegin(b); j0 < tb.NodeEnd(b);
         j0 += static_cast<uint32_t>(kDistanceBatch)) {
      size_t cnt = std::min<size_t>(kDistanceBatch, tb.NodeEnd(b) - j0);
      BatchSquaredDistances(p, &tb.point(j0), cnt, sq);
      for (size_t c = 0; c < cnt; ++c) {
        double d = std::sqrt(sq[c]);
        uint32_t u = gida(i), v = gidb(j0 + static_cast<uint32_t>(c));
        if (d < best.dist ||
            (d == best.dist &&
             std::minmax(u, v) < std::minmax(best.u, best.v))) {
          best = {u, v, d};
        }
      }
    }
  }
}

// Counts one finished BCCP / BCCP* call that evaluated `distances` point
// pairs, in the calling thread's counter slot.
inline void CountBccp(uint64_t distances) {
  Stats::Add(Stats::kBccpComputed, 1);
  Stats::Add(Stats::kBccpPointDistances, distances);
}

}  // namespace internal

/// Exact closest pair between the point sets of nodes `a` and `b`.
template <int D>
ClosestPair Bccp(const KdTree<D>& tree, uint32_t a, uint32_t b) {
  ClosestPair best;
  uint64_t distances = 0;
  auto boxdist = [&](uint32_t x, uint32_t y) {
    return tree.NodeBox(x).MinSquaredDistance(tree.NodeBox(y));
  };
  DualMinTraverse(
      tree, a, b,
      [&](uint32_t x, uint32_t y) {
        return boxdist(x, y) >= best.dist * best.dist;
      },
      boxdist,
      [&](uint32_t x, uint32_t y) {
        distances += uint64_t{tree.NodeSize(x)} * tree.NodeSize(y);
        auto gid = [&](uint32_t i) { return tree.id(i); };
        internal::EuclideanLeafScanBatched(tree, tree, x, y, gid, gid, best);
      });
  internal::CountBccp(distances);
  return best;
}

/// Exact closest pair under mutual reachability distance (BCCP*). The tree
/// must have core distances annotated.
template <int D>
ClosestPair BccpStar(const KdTree<D>& tree, uint32_t a, uint32_t b) {
  PARHC_DCHECK(tree.has_core_dists());
  ClosestPair best;
  uint64_t distances = 0;
  DualMinTraverse(
      tree, a, b,
      [&](uint32_t x, uint32_t y) {
        double lb = std::max(
            {std::sqrt(tree.NodeBox(x).MinSquaredDistance(tree.NodeBox(y))),
             tree.CdMin(x), tree.CdMin(y)});
        return lb >= best.dist;
      },
      [&](uint32_t x, uint32_t y) {
        return tree.NodeBox(x).MinSquaredDistance(tree.NodeBox(y));
      },
      [&](uint32_t x, uint32_t y) {
        distances += uint64_t{tree.NodeSize(x)} * tree.NodeSize(y);
        internal::BccpLeafScan(
            tree, x, y,
            [&](uint32_t i, uint32_t j) {
              return std::max(
                  {DistanceDispatch(tree.point(i), tree.point(j)),
                   tree.core_dist(i), tree.core_dist(j)});
            },
            best);
      });
  internal::CountBccp(distances);
  return best;
}

}  // namespace parhc
