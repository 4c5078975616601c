// Cross-tree dual traversals: the two-tree counterparts of the single-tree
// engines in spatial/traverse.h, used by the batch-dynamic shard forest
// (src/dynamic/) to compute cross-shard candidate edges.
//
// The distance-decomposition result (Lettich, arXiv:2406.01739) states that
// the EMST of a union of parts is contained in the union of the parts'
// EMSTs plus cross-part candidate edges; the cross candidates are exactly
// the BCCP edges of a well-separated decomposition *between* the two trees
// (s = 2, the classical GFK argument applied pairwise). The same cycle-rule
// argument works for any strictly totally ordered weight function, which is
// how the mutual-reachability variant (CrossBccpStar with globally computed
// core distances) keeps HDBSCAN* exact over the shard forest.
//
// Both engines keep the two arenas positionally distinct — the first index
// always addresses `ta`, the second `tb` — and split the node with the
// larger bounding-sphere diameter, exactly like their single-tree
// counterparts. Leaf base cases tie-break in a caller-supplied id space
// (`ida` / `idb` map tree indices to global point ids) so that cross-shard
// closest pairs are deterministic in the *global* id order, matching the
// tie-breaks a from-scratch build over the union would make.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>

#include "spatial/bccp.h"
#include "spatial/traverse.h"

namespace parhc {

namespace internal {

/// Pruned dual descent over (node of ta, node of tb). Mirrors
/// DualTraversePair but never swaps sides: `a` stays in `ta`, `b` in `tb`.
template <int D, typename Prune, typename Sep, typename Base>
void CrossDualTraverseRec(const KdTree<D>& ta, const KdTree<D>& tb,
                          uint32_t a, uint32_t b, const Prune& prune,
                          const Sep& sep, const Base& base) {
  if (prune(a, b)) return;
  if (sep(a, b)) {
    base(a, b, /*separated=*/true);
    return;
  }
  bool split_a =
      !ta.IsLeaf(a) && (tb.IsLeaf(b) || ta.Diameter(a) >= tb.Diameter(b));
  if (!split_a && tb.IsLeaf(b)) {
    // Two unsplittable leaves that are not separated (coincident duplicate
    // groups with zero diameters are separated by every criterion, so this
    // is the overlapping-leaf base case).
    base(a, b, /*separated=*/false);
    return;
  }
  uint32_t l = split_a ? ta.Left(a) : tb.Left(b);
  uint32_t r = l + 1;
  bool fork = ta.NodeSize(a) + tb.NodeSize(b) >= kDualSeqCutoff;
  auto recurse = [&](uint32_t child) {
    if (split_a) {
      CrossDualTraverseRec(ta, tb, child, b, prune, sep, base);
    } else {
      CrossDualTraverseRec(ta, tb, a, child, prune, sep, base);
    }
  };
  if (fork) {
    ParDo([&] { recurse(l); }, [&] { recurse(r); });
  } else {
    recurse(l);
    recurse(r);
  }
}

}  // namespace internal

/// Parallel pruned dual traversal between the roots of two trees:
///   prune(a, b) -> bool     skip this cross pair and everything below it;
///   sep(a, b)   -> bool     the pair is well-separated — stop and report;
///   base(a, b, separated)   consume a finished cross pair.
/// Callbacks may run concurrently and must be thread-safe.
template <int D, typename Prune, typename Sep, typename Base>
void CrossDualTraverse(const KdTree<D>& ta, const KdTree<D>& tb,
                       const Prune& prune, const Sep& sep, const Base& base) {
  internal::CrossDualTraverseRec(ta, tb, ta.root(), tb.root(), prune, sep,
                                 base);
}

/// Sequential pruned dual descent toward a minimum between two trees — the
/// cross-tree BCCP engine. `pairkey(a, b)` orders child visits (lower
/// first); `prune` and `leaf_pair` as in DualMinTraverse.
template <int D, typename Prune, typename PairKey, typename LeafPair>
void CrossDualMinTraverse(const KdTree<D>& ta, const KdTree<D>& tb,
                          uint32_t a, uint32_t b, const Prune& prune,
                          const PairKey& pairkey, const LeafPair& leaf_pair) {
  if (prune(a, b)) return;
  if (ta.IsLeaf(a) && tb.IsLeaf(b)) {
    leaf_pair(a, b);
    return;
  }
  bool split_a =
      !ta.IsLeaf(a) && (tb.IsLeaf(b) || ta.Diameter(a) >= tb.Diameter(b));
  uint32_t l = split_a ? ta.Left(a) : tb.Left(b);
  uint32_t r = l + 1;
  double kl = split_a ? pairkey(l, b) : pairkey(a, l);
  double kr = split_a ? pairkey(r, b) : pairkey(a, r);
  if (kr < kl) std::swap(l, r);
  if (split_a) {
    CrossDualMinTraverse(ta, tb, l, b, prune, pairkey, leaf_pair);
    CrossDualMinTraverse(ta, tb, r, b, prune, pairkey, leaf_pair);
  } else {
    CrossDualMinTraverse(ta, tb, a, l, prune, pairkey, leaf_pair);
    CrossDualMinTraverse(ta, tb, a, r, prune, pairkey, leaf_pair);
  }
}

namespace internal {

// Deterministic tie-breaking on (dist, min global id, max global id): ids
// come from the caller's mapping so cross-shard ties resolve exactly as a
// from-scratch build over the union would.
template <int D, typename PairDist, typename IdA, typename IdB>
void CrossBccpLeafScan(const KdTree<D>& ta, const KdTree<D>& tb, uint32_t a,
                       uint32_t b, const PairDist& pair_dist, const IdA& ida,
                       const IdB& idb, ClosestPair& best) {
  for (uint32_t i = ta.NodeBegin(a); i < ta.NodeEnd(a); ++i) {
    for (uint32_t j = tb.NodeBegin(b); j < tb.NodeEnd(b); ++j) {
      double d = pair_dist(i, j);
      uint32_t u = ida(ta.id(i)), v = idb(tb.id(j));
      if (d < best.dist ||
          (d == best.dist &&
           std::minmax(u, v) < std::minmax(best.u, best.v))) {
        best = {u, v, d};
      }
    }
  }
}

}  // namespace internal

/// Exact closest pair between the point sets of node `a` of `ta` and node
/// `b` of `tb`. `ida` / `idb` map each tree's point ids to global ids; the
/// returned pair carries global ids.
template <int D, typename IdA, typename IdB>
ClosestPair CrossBccp(const KdTree<D>& ta, const KdTree<D>& tb, uint32_t a,
                      uint32_t b, const IdA& ida, const IdB& idb) {
  ClosestPair best;
  uint64_t distances = 0;
  auto boxdist = [&](uint32_t x, uint32_t y) {
    return ta.NodeBox(x).MinSquaredDistance(tb.NodeBox(y));
  };
  CrossDualMinTraverse(
      ta, tb, a, b,
      [&](uint32_t x, uint32_t y) {
        return boxdist(x, y) >= best.dist * best.dist;
      },
      boxdist,
      [&](uint32_t x, uint32_t y) {
        distances += uint64_t{ta.NodeSize(x)} * tb.NodeSize(y);
        internal::EuclideanLeafScanBatched(
            ta, tb, x, y, [&](uint32_t i) { return ida(ta.id(i)); },
            [&](uint32_t j) { return idb(tb.id(j)); }, best);
      });
  internal::CountBccp(distances);
  return best;
}

/// Exact closest pair under mutual reachability distance between two trees
/// (cross-shard BCCP*). Both trees must have core distances annotated — with
/// *globally* computed core distances for shard-forest exactness.
template <int D, typename IdA, typename IdB>
ClosestPair CrossBccpStar(const KdTree<D>& ta, const KdTree<D>& tb,
                          uint32_t a, uint32_t b, const IdA& ida,
                          const IdB& idb) {
  PARHC_DCHECK(ta.has_core_dists() && tb.has_core_dists());
  ClosestPair best;
  uint64_t distances = 0;
  CrossDualMinTraverse(
      ta, tb, a, b,
      [&](uint32_t x, uint32_t y) {
        double lb = std::max(
            {std::sqrt(ta.NodeBox(x).MinSquaredDistance(tb.NodeBox(y))),
             ta.CdMin(x), tb.CdMin(y)});
        return lb >= best.dist;
      },
      [&](uint32_t x, uint32_t y) {
        return ta.NodeBox(x).MinSquaredDistance(tb.NodeBox(y));
      },
      [&](uint32_t x, uint32_t y) {
        distances += uint64_t{ta.NodeSize(x)} * tb.NodeSize(y);
        internal::CrossBccpLeafScan(
            ta, tb, x, y,
            [&](uint32_t i, uint32_t j) {
              return std::max({DistanceDispatch(ta.point(i), tb.point(j)),
                               ta.core_dist(i), tb.core_dist(j)});
            },
            ida, idb, best);
      });
  internal::CountBccp(distances);
  return best;
}

}  // namespace parhc
