// k-nearest-neighbor queries over the k-d tree arena (paper Section 2.3).
//
// All-points kNN runs the per-point queries in parallel; each query keeps a
// bounded max-heap of the k best squared distances and descends through the
// shared single-tree engine, which prunes subtrees whose box cannot beat the
// current k-th best. Following the paper, a point is one of its own k
// nearest neighbors.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "geometry/distance.h"
#include "parallel/scheduler.h"
#include "spatial/traverse.h"

namespace parhc {

namespace internal {

/// Fixed-capacity max-heap of (squared distance, id) used by kNN queries.
class KnnHeap {
 public:
  KnnHeap(size_t k, std::pair<double, uint32_t>* storage)
      : k_(k), heap_(storage) {}

  double Worst() const {
    return size_ < k_ ? std::numeric_limits<double>::infinity()
                      : heap_[0].first;
  }

  void Offer(double sqdist, uint32_t id) {
    if (size_ < k_) {
      heap_[size_++] = {sqdist, id};
      std::push_heap(heap_, heap_ + size_);
    } else if (sqdist < heap_[0].first) {
      std::pop_heap(heap_, heap_ + size_);
      heap_[size_ - 1] = {sqdist, id};
      std::push_heap(heap_, heap_ + size_);
    }
  }

  size_t size() const { return size_; }
  const std::pair<double, uint32_t>* data() const { return heap_; }
  std::pair<double, uint32_t>* data() { return heap_; }

 private:
  size_t k_;
  size_t size_ = 0;
  std::pair<double, uint32_t>* heap_;
};

template <int D>
void KnnQueryInto(const KdTree<D>& tree, const Point<D>& q, KnnHeap& heap) {
  SingleTraverse(
      tree,
      [&](uint32_t v) {
        return BoxMinSquaredDistanceDispatch(tree.NodeBox(v), q);
      },
      [&](uint32_t, double pri) { return pri >= heap.Worst(); },
      [&](uint32_t v) {
        // Leaf points are contiguous in tree order, so the scan is a
        // point-to-block kernel call staged through a stack buffer
        // (chunked: duplicate leaves can exceed leaf_size).
        double sq[kDistanceBatch];
        for (uint32_t j0 = tree.NodeBegin(v); j0 < tree.NodeEnd(v);
             j0 += static_cast<uint32_t>(kDistanceBatch)) {
          size_t cnt = std::min<size_t>(kDistanceBatch, tree.NodeEnd(v) - j0);
          BatchSquaredDistances(q, &tree.point(j0), cnt, sq);
          for (size_t c = 0; c < cnt; ++c) {
            heap.Offer(sq[c], tree.id(j0 + static_cast<uint32_t>(c)));
          }
        }
      });
}

}  // namespace internal

/// k nearest neighbors of `q` (by original point id), sorted by distance.
/// Includes the query point itself if `q` is in the tree.
template <int D>
std::vector<std::pair<double, uint32_t>> KnnQuery(const KdTree<D>& tree,
                                                  const Point<D>& q,
                                                  size_t k) {
  std::vector<std::pair<double, uint32_t>> buf(k);
  internal::KnnHeap heap(k, buf.data());
  internal::KnnQueryInto(tree, q, heap);
  buf.resize(heap.size());
  std::sort(buf.begin(), buf.end());
  for (auto& e : buf) e.first = std::sqrt(e.first);
  return buf;
}

namespace internal {

/// Runs `count` kNN queries of at most k results in parallel — query i at
/// `query(i)` — handing each a per-worker scratch heap (allocated once per
/// worker, not per query) and the filled heap to `consume(i, heap)`. The
/// query body issues no nested parallel work, so one scratch buffer per
/// worker is race-free.
template <int D, typename QueryFn, typename ConsumeFn>
void ParallelKnnQueries(const KdTree<D>& tree, size_t count, size_t k,
                        const QueryFn& query, const ConsumeFn& consume) {
  std::vector<std::vector<std::pair<double, uint32_t>>> scratch(NumWorkers());
  ParallelFor(0, count, [&](size_t i) {
    auto& buf = scratch[Scheduler::Get().MyId()];
    if (buf.size() < k) buf.resize(k);
    KnnHeap heap(k, buf.data());
    KnnQueryInto(tree, query(i), heap);
    consume(i, heap);
  });
}

/// The all-points kNN queries: `consume(tree_idx, heap)` gets each tree
/// point's full heap of k.
template <int D, typename ConsumeFn>
void AllKnnQueries(const KdTree<D>& tree, size_t k, ConsumeFn consume) {
  size_t n = tree.size();
  PARHC_CHECK_MSG(k >= 1 && k <= n, "k out of range");
  ParallelKnnQueries(
      tree, n, k,
      [&](size_t i) -> const Point<D>& {
        return tree.point(static_cast<uint32_t>(i));
      },
      [&](size_t i, KnnHeap& heap) {
        PARHC_DCHECK(heap.size() == k);
        consume(static_cast<uint32_t>(i), heap);
      });
}

}  // namespace internal

/// kNN rows of arbitrary query points: row i — `out[i*k .. i*k+k)` — holds
/// the sorted *squared* distances from queries[i] to its k nearest tree
/// points (the query itself included when it is in the tree), +inf-padded
/// past tree.size(). These are the raw heap values, so rows computed
/// against disjoint point sets merge exactly (the k smallest of a union
/// are the merge of the parts' k smallest) before one square root.
template <int D>
std::vector<double> KnnSquaredRows(const KdTree<D>& tree,
                                   const std::vector<Point<D>>& queries,
                                   size_t k) {
  std::vector<double> rows(queries.size() * k,
                           std::numeric_limits<double>::infinity());
  internal::ParallelKnnQueries(
      tree, queries.size(), std::min(k, tree.size()),
      [&](size_t i) -> const Point<D>& { return queries[i]; },
      [&](size_t i, internal::KnnHeap& heap) {
        std::pair<double, uint32_t>* best = heap.data();
        std::sort(best, best + heap.size());
        double* row = rows.data() + i * k;
        for (size_t t = 0; t < heap.size(); ++t) row[t] = best[t].first;
      });
  return rows;
}

/// Distance from every point to its k-th nearest neighbor (including
/// itself), indexed by original point id — the core distance cd(p) for
/// k = minPts (Section 2.1). O(k n log n) work, O(log n) depth.
template <int D>
std::vector<double> KthNeighborDistances(const KdTree<D>& tree, size_t k) {
  std::vector<double> out(tree.size());
  internal::AllKnnQueries(tree, k, [&](uint32_t ti, internal::KnnHeap& heap) {
    out[tree.id(ti)] = std::sqrt(heap.Worst());
  });
  return out;
}

/// Sorted distances from every point to each of its k nearest neighbors
/// (including itself): row p — `out[p*k .. p*k+k)`, indexed by original
/// point id — holds the 1st..k-th neighbor distances in ascending order.
/// Row prefix j of this matrix is exactly KthNeighborDistances(tree, j) for
/// every j <= k (bit-identical: both take the square root of the exact
/// j-th smallest squared distance), which is what lets the clustering
/// engine derive core distances for any minPts <= k from one kNN pass.
template <int D>
std::vector<double> AllKnnDistances(const KdTree<D>& tree, size_t k) {
  std::vector<double> out(tree.size() * k);
  internal::AllKnnQueries(tree, k, [&](uint32_t ti, internal::KnnHeap& heap) {
    std::pair<double, uint32_t>* row = heap.data();
    std::sort(row, row + k);
    double* dst = out.data() + static_cast<size_t>(tree.id(ti)) * k;
    for (size_t j = 0; j < k; ++j) dst[j] = std::sqrt(row[j].first);
  });
  return out;
}

}  // namespace parhc
