// Distributed merge kernels for the router's sharded query pipeline.
//
// The router treats each worker's slice of a sharded dataset like the
// batch-dynamic backend (src/dynamic/) treats one of its LSM shards for
// the EMST: by the distance-decomposition rule, the MST of the union is
// contained in the union of the per-slice MSTs (computed worker-side by
// the kOpExportMst / kOpShardMrMst frame verbs; a worker runs the MR-MST
// frame on its set's artifact DAG, the live-set DAG for a dynamic set)
// plus one closest-pair edge per well-separated cross pair (s = 2)
// *between* slices — computed here over router-built kd-trees by the
// shard forest's own cross step (CrossBccpEdges over CrossWspdEdges in
// spatial/cross_traverse.h, with global-id tie-breaks), so the Kruskal run
// over the merged candidates reproduces the single-node MST bit for bit.
// The mutual-reachability variant, which a single node computes on one
// tree over all its points, stays exact because the router annotates
// every slice tree with *globally* merged core distances before the
// cross traversal (see MergeKnnRows: the k smallest of a union is the
// merge of the parts' k smallest).
//
// All entry points issue parallel scheduler work — run them inside a
// worker group (the router wraps them in its BuildExecutor).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "engine/export.h"
#include "engine/registry.h"  // PARHC_FOR_EACH_DIM
#include "graph/edge.h"
#include "parallel/primitives.h"
#include "parallel/scheduler.h"
#include "spatial/cross_traverse.h"

namespace parhc {
namespace cluster {

/// One worker's slice of a sharded dataset, in the worker's ascending-gid
/// order. `dense[l]` is the dense union index (ascending global gid over
/// live points) of the worker's l-th live point.
struct WorkerSlice {
  std::vector<uint32_t> dense;
  std::vector<double> coords;  ///< flattened row-major, same order
};

/// Type-erased per-dimension merge state: kd-trees over each worker's
/// slice, reused across the cross traversals of one merged build.
class MergerBase {
 public:
  virtual ~MergerBase() = default;

  /// (Re)builds the per-slice trees. Slices may be empty.
  virtual void SetWorkers(const std::vector<WorkerSlice>& slices) = 0;

  /// Cross-slice Euclidean BCCP candidate edges, dense-index endpoints.
  virtual std::vector<WeightedEdge> CrossEmstEdges() = 0;

  /// Cross-slice BCCP* candidate edges under globally merged core
  /// distances (indexed by dense union index), dense-index endpoints.
  virtual std::vector<WeightedEdge> CrossMrEdges(
      const std::vector<double>& core_dense) = 0;
};

template <int D>
class Merger : public MergerBase {
 public:
  void SetWorkers(const std::vector<WorkerSlice>& slices) override {
    trees_.clear();
    dense_.clear();
    for (const WorkerSlice& s : slices) {
      dense_.push_back(s.dense);
      if (s.dense.empty()) {
        trees_.emplace_back(nullptr);
      } else {
        std::vector<Point<D>> pts =
            engine_export::UnflattenRows<D>(s.coords, s.dense.size());
        trees_.emplace_back(new KdTree<D>(pts, /*leaf_size=*/1));
      }
    }
  }

  std::vector<WeightedEdge> CrossEmstEdges() override {
    return CrossPairs(/*mutual_reach=*/false);
  }

  std::vector<WeightedEdge> CrossMrEdges(
      const std::vector<double>& core_dense) override {
    for (size_t w = 0; w < trees_.size(); ++w) {
      if (trees_[w] == nullptr) continue;
      // AnnotateCoreDistances indexes by the tree's original point order,
      // which is the slice's ascending-gid order.
      std::vector<double> core_local(dense_[w].size());
      for (size_t l = 0; l < dense_[w].size(); ++l) {
        core_local[l] = core_dense[dense_[w][l]];
      }
      trees_[w]->AnnotateCoreDistances(core_local);
    }
    return CrossPairs(/*mutual_reach=*/true);
  }

 private:
  /// CrossBccpEdges between every pair of non-empty slices.
  std::vector<WeightedEdge> CrossPairs(bool mutual_reach) {
    std::vector<WeightedEdge> out;
    for (size_t i = 0; i < trees_.size(); ++i) {
      for (size_t j = i + 1; j < trees_.size(); ++j) {
        if (trees_[i] == nullptr || trees_[j] == nullptr) continue;
        const std::vector<uint32_t>& da = dense_[i];
        const std::vector<uint32_t>& db = dense_[j];
        std::vector<WeightedEdge> edges = CrossBccpEdges(
            *trees_[i], *trees_[j], [&](uint32_t t) { return da[t]; },
            [&](uint32_t t) { return db[t]; }, mutual_reach);
        out.insert(out.end(), edges.begin(), edges.end());
      }
    }
    return out;
  }

  std::vector<std::unique_ptr<KdTree<D>>> trees_;
  std::vector<std::vector<uint32_t>> dense_;
};

inline std::unique_ptr<MergerBase> MakeMerger(int dim) {
  switch (dim) {
#define PARHC_CLUSTER_MERGER_CASE(D) \
  case D:                            \
    return std::unique_ptr<MergerBase>(new Merger<D>());
    PARHC_FOR_EACH_DIM(PARHC_CLUSTER_MERGER_CASE)
#undef PARHC_CLUSTER_MERGER_CASE
    default:
      return nullptr;
  }
}

/// Merges per-worker kNN rows: each worker_rows[w] holds count*k sorted
/// squared distances of the same `count` queries against that worker's
/// slice (+inf-padded; see KnnSquaredRows in spatial/knn.h). Row i of the
/// result is the k smallest of the union — exactly the row a single-node
/// kNN over the union computes, because every worker already contributed
/// its k smallest. Issues parallel work.
inline std::vector<double> MergeKnnRows(
    size_t count, size_t k,
    const std::vector<std::vector<double>>& worker_rows) {
  size_t w_count = worker_rows.size();
  std::vector<double> out(count * k,
                          std::numeric_limits<double>::infinity());
  ParallelFor(0, count, [&](size_t i) {
    std::vector<size_t> idx(w_count, 0);
    for (size_t t = 0; t < k; ++t) {
      size_t best_w = w_count;
      double best = std::numeric_limits<double>::infinity();
      for (size_t w = 0; w < w_count; ++w) {
        if (idx[w] >= k) continue;
        double d = worker_rows[w][i * k + idx[w]];
        if (d < best) {
          best = d;
          best_w = w;
        }
      }
      if (best_w == w_count) break;  // all remaining are +inf
      out[i * k + t] = best;
      ++idx[best_w];
    }
  });
  return out;
}

}  // namespace cluster
}  // namespace parhc
