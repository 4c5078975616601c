// Cross-tree dual traversals: the two-tree counterparts of the single-tree
// engines in spatial/traverse.h, and CrossWspdEdges, the one cross step of
// the distance-decomposition rule shared by the batch-dynamic shard
// forest's cross tier (src/dynamic/, through CrossBccpEdges) and the
// partitioned high-dimensional EMST (src/emst/emst_highdim.h).
//
// The distance-decomposition result (Lettich, arXiv:2406.01739) states that
// the EMST of a union of parts is contained in the union of the parts'
// EMSTs plus cross-part candidate edges; the cross candidates are exactly
// the BCCP edges of a well-separated decomposition *between* the two trees
// (s = 2, the classical GFK argument applied pairwise). The same argument
// holds for mutual reachability, but only the EMST gains from cached
// parts: mutual-reachability weights change with every core-distance
// epoch, so the shard forest and the router run HDBSCAN* on one kd-tree
// over all their points (the static artifact DAG, engine/artifacts.h).
// Parts pay only when cached: the router, which rebuilds its mirror every
// mutation epoch, runs its EMST on that same DAG too.
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
#include <vector>

#include "graph/edge.h"
#include "parallel/primitives.h"
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

/// Cross candidate edges between two trees: one edge per s = 2
/// well-separated cross pair (and per overlapping leaf pair), produced by
/// `edge_fn(a, b, separated) -> WeightedEdge` — typically the pair's
/// CrossBccp edge. `edge_fn` runs concurrently.
template <int D, typename EdgeFn>
std::vector<WeightedEdge> CrossWspdEdges(const KdTree<D>& ta,
                                         const KdTree<D>& tb,
                                         const EdgeFn& edge_fn) {
  std::vector<std::vector<WeightedEdge>> local(NumWorkers());
  CrossDualTraverse(
      ta, tb, [](uint32_t, uint32_t) { return false; },
      [&](uint32_t a, uint32_t b) {
        return WellSeparated(ta.NodeBox(a), tb.NodeBox(b), 2.0);
      },
      [&](uint32_t a, uint32_t b, bool separated) {
        local[Scheduler::Get().MyId()].push_back(edge_fn(a, b, separated));
      });
  return Flatten(local);
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

/// CrossWspdEdges with each cross pair's exact closest pair (its CrossBccp
/// edge). `ida` / `idb` map tree point ids to the global ids the edges
/// carry.
template <int D, typename IdA, typename IdB>
std::vector<WeightedEdge> CrossBccpEdges(const KdTree<D>& ta,
                                         const KdTree<D>& tb, const IdA& ida,
                                         const IdB& idb) {
  return CrossWspdEdges(ta, tb, [&](uint32_t a, uint32_t b, bool) {
    ClosestPair cp = CrossBccp(ta, tb, a, b, ida, idb);
    return WeightedEdge{cp.u, cp.v, cp.dist};
  });
}

}  // namespace parhc
