// High-dimensional EMST via distance decomposition over k-means partitions.
//
// Low-dimensional EMST methods rely on kd-tree pruning, which degrades at
// embedding dimensions (d = 64..768). This path instead applies the
// distance-decomposition result (Lettich, arXiv:2406.01739 — the same rule
// the batch-dynamic shard forest in src/dynamic/ uses): for any disjoint
// partition of the input,
//
//   EMST(union)  ⊆  ∪ partition EMSTs  ∪  cross-partition BCCP candidates,
//
// where the cross candidates are the BCCP edges of an s=2 well-separated
// decomposition between each pair of partition trees (CrossWspdEdges in
// spatial/cross_traverse.h, the cross step the shard forest shares).
// Kruskal over that candidate set reproduces the exact EMST for *any*
// partition, so the k-means partitioning is purely a performance
// choice: it groups nearby points so the per-partition MemoGFK runs see
// compact trees and the cross passes see mostly far-apart (cheaply
// separable) node pairs.
//
// The `eps` knob (Jayaram et al. 2023-style pruning, arXiv:2304.01434): a
// well-separated cross pair whose box bounds already agree to within
// (1+eps) — max box distance <= (1+eps) * min box distance — is settled by
// a representative pair instead of an exact BCCP descent. Every candidate
// edge kept this way is within (1+eps) of that pair's exact BCCP, every
// dropped descent is replaced (never removed), and the output is still a
// spanning tree measured with true edge weights, so
//
//   exact weight  <=  eps-path weight,
//
// and the eps-path weight tracks (1+eps) * exact; the CI bench gate
// (BENCH_highdim_emst.json) enforces the ratio on every run. eps = 0
// requests the exact decomposition.
//
// Partitioning is deterministic at any worker count: k-means seeds from
// evenly spaced input indices and accumulates center updates over fixed
// index blocks combined in block order, so the candidate set — and with
// the deterministic Kruskal edge order, the output MST — is reproducible.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "emst/emst_memogfk.h"
#include "geometry/distance.h"
#include "graph/kruskal.h"
#include "parallel/primitives.h"
#include "parallel/scheduler.h"
#include "spatial/cross_traverse.h"

namespace parhc {

struct HighDimEmstOptions {
  /// 0 = exact decomposition; > 0 = (1+eps)-bounded cross-pair pruning.
  double eps = 0.0;
  /// Number of k-means partitions; 0 picks automatically from n.
  int partitions = 0;
  /// Lloyd refinement rounds (seeding is deterministic regardless).
  int kmeans_iters = 4;
};

/// Build statistics surfaced through the engine response.
struct HighDimEmstInfo {
  int partitions = 1;
  size_t cross_pairs = 0;    ///< cross pairs settled by an exact BCCP
  size_t cross_pruned = 0;   ///< cross pairs settled by an eps representative
  size_t candidate_edges = 0;
};

namespace internal {

/// Deterministic Lloyd k-means assignment: centers seed from evenly spaced
/// input indices; each round reassigns via the batched distance kernel
/// (lowest center index wins ties) and recomputes centers over fixed index
/// blocks combined in block order, so the result is independent of the
/// worker count and of scheduling.
template <int D>
std::vector<uint32_t> KmeansAssign(const std::vector<Point<D>>& pts, int k,
                                   int iters) {
  const size_t n = pts.size();
  std::vector<Point<D>> centers(k);
  for (int c = 0; c < k; ++c) {
    centers[c] = pts[(static_cast<size_t>(c) * n) / static_cast<size_t>(k)];
  }
  std::vector<uint32_t> assign(n, 0);
  // Fixed blocking (depends only on n) keeps the center accumulation
  // deterministic: workers fill disjoint per-block partials, the combine
  // runs sequentially in block order.
  const size_t nb = std::min<size_t>((n + 4095) / 4096, 64);
  const size_t block = (n + nb - 1) / nb;
  for (int it = 0; it < iters; ++it) {
    ParallelFor(0, n, [&](size_t i) {
      double sq[kDistanceBatch];
      double best = std::numeric_limits<double>::infinity();
      uint32_t bc = 0;
      for (int c0 = 0; c0 < k; c0 += static_cast<int>(kDistanceBatch)) {
        size_t cnt = std::min<size_t>(kDistanceBatch, k - c0);
        BatchSquaredDistances(pts[i], centers.data() + c0, cnt, sq);
        for (size_t c = 0; c < cnt; ++c) {
          if (sq[c] < best) {
            best = sq[c];
            bc = static_cast<uint32_t>(c0 + c);
          }
        }
      }
      assign[i] = bc;
    });
    if (it + 1 == iters) break;
    std::vector<std::vector<Point<D>>> sums(nb);
    std::vector<std::vector<size_t>> counts(nb);
    ParallelFor(
        0, nb,
        [&](size_t b) {
          sums[b].assign(k, Point<D>{});
          counts[b].assign(k, 0);
          size_t lo = b * block, hi = std::min(n, lo + block);
          for (size_t i = lo; i < hi; ++i) {
            Point<D>& s = sums[b][assign[i]];
            for (int d = 0; d < D; ++d) s[d] += pts[i][d];
            ++counts[b][assign[i]];
          }
        },
        1);
    for (int c = 0; c < k; ++c) {
      Point<D> total{};
      size_t cnt = 0;
      for (size_t b = 0; b < nb; ++b) {
        for (int d = 0; d < D; ++d) total[d] += sums[b][c][d];
        cnt += counts[b][c];
      }
      if (cnt == 0) continue;  // empty cluster keeps its previous center
      for (int d = 0; d < D; ++d) {
        centers[c][d] = total[d] / static_cast<double>(cnt);
      }
    }
  }
  return assign;
}

}  // namespace internal

/// EMST (exact for eps = 0, (1+eps)-weight otherwise) over the k-means
/// distance decomposition. Point ids in the returned edges are input
/// indices. Small inputs fall back to a single MemoGFK tree.
template <int D>
std::vector<WeightedEdge> HighDimEmst(const std::vector<Point<D>>& pts,
                                      const HighDimEmstOptions& opts = {},
                                      HighDimEmstInfo* info = nullptr) {
  const size_t n = pts.size();
  HighDimEmstInfo local_info;
  if (info == nullptr) info = &local_info;
  *info = HighDimEmstInfo{};
  if (n < 2) return {};
  int parts = opts.partitions;
  if (parts <= 0) {
    parts = n < 2048 ? 1
                     : static_cast<int>(std::min<size_t>(16, n / 1024));
  }
  parts = static_cast<int>(std::min<size_t>(parts, n));
  if (parts <= 1) {
    info->partitions = 1;
    KdTree<D> tree(pts, /*leaf_size=*/1);
    std::vector<WeightedEdge> mst = EmstMemoGfkOnTree(tree);
    info->candidate_edges = mst.size();
    return mst;
  }

  std::vector<uint32_t> assign =
      internal::KmeansAssign(pts, parts, opts.kmeans_iters);
  std::vector<std::vector<Point<D>>> ppts(parts);
  std::vector<std::vector<uint32_t>> gids(parts);
  for (size_t i = 0; i < n; ++i) {
    ppts[assign[i]].push_back(pts[i]);
    gids[assign[i]].push_back(static_cast<uint32_t>(i));
  }
  // Drop empty partitions (possible when k-means collapses clusters).
  size_t np = 0;
  for (int p = 0; p < parts; ++p) {
    if (ppts[p].empty()) continue;
    if (static_cast<size_t>(p) != np) {
      ppts[np] = std::move(ppts[p]);
      gids[np] = std::move(gids[p]);
    }
    ++np;
  }
  ppts.resize(np);
  gids.resize(np);
  info->partitions = static_cast<int>(np);

  // Per-partition exact MSTs (MemoGFK; inner algorithms parallelize).
  std::vector<WeightedEdge> candidates;
  std::vector<std::unique_ptr<KdTree<D>>> trees(np);
  for (size_t p = 0; p < np; ++p) {
    trees[p] = std::make_unique<KdTree<D>>(ppts[p], /*leaf_size=*/1);
    std::vector<WeightedEdge> mst = EmstMemoGfkOnTree(*trees[p]);
    for (const WeightedEdge& e : mst) {
      candidates.push_back({gids[p][e.u], gids[p][e.v], e.w});
    }
  }
  // Cross-partition candidates for every partition pair: each
  // well-separated cross pair's exact BCCP, or (eps path) a representative
  // pair when the pair's box bounds are already (1+eps)-tight.
  std::atomic<size_t> pruned{0};
  size_t cross = 0;
  const double tight = (1.0 + opts.eps) * (1.0 + opts.eps);
  for (size_t a = 0; a < np; ++a) {
    for (size_t b = a + 1; b < np; ++b) {
      const KdTree<D>& ta = *trees[a];
      const KdTree<D>& tb = *trees[b];
      const std::vector<uint32_t>& ga = gids[a];
      const std::vector<uint32_t>& gb = gids[b];
      auto ida = [&](uint32_t i) { return ga[i]; };
      auto idb = [&](uint32_t j) { return gb[j]; };
      std::vector<WeightedEdge> edges = CrossWspdEdges(
          ta, tb, [&](uint32_t x, uint32_t y, bool separated) {
            if (separated && opts.eps > 0) {
              double lb2 = ta.NodeBox(x).MinSquaredDistance(tb.NodeBox(y));
              double ub2 = ta.NodeBox(x).MaxSquaredDistance(tb.NodeBox(y));
              if (ub2 <= tight * lb2) {
                uint32_t i = ta.NodeBegin(x), j = tb.NodeBegin(y);
                pruned.fetch_add(1, std::memory_order_relaxed);
                double d = DistanceDispatch(ta.point(i), tb.point(j));
                return WeightedEdge{ida(ta.id(i)), idb(tb.id(j)), d};
              }
            }
            ClosestPair cp = CrossBccp(ta, tb, x, y, ida, idb);
            return WeightedEdge{cp.u, cp.v, cp.dist};
          });
      cross += edges.size();
      candidates.insert(candidates.end(), edges.begin(), edges.end());
    }
  }
  info->cross_pruned = pruned.load();
  info->cross_pairs = cross - info->cross_pruned;
  info->candidate_edges = candidates.size();
  return KruskalMst(n, std::move(candidates));
}

}  // namespace parhc
