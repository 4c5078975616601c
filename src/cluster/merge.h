// The router's per-epoch mirror of a sharded dataset and its merge
// kernels.
//
// EMST: the router treats each worker's slice like the batch-dynamic
// backend (src/dynamic/) treats one of its LSM shards. By the distance-
// decomposition rule, the MST of the union is contained in the union of
// the per-slice MSTs (computed worker-side by the kOpExportMst frame verb)
// plus one closest-pair edge per well-separated cross pair (s = 2)
// *between* slices — computed here over router-built kd-trees by the shard
// forest's own cross step (CrossBccpEdges in spatial/cross_traverse.h,
// with global-id tie-breaks), so the Kruskal run over the merged
// candidates reproduces the single-node MST bit for bit.
//
// HDBSCAN* gains nothing from cached parts (mutual-reachability weights
// change with every core-distance epoch), so the mirror holds one static
// artifact DAG (engine/artifacts.h) over all mirrored points in dense
// (ascending gid) order, exactly as a single node's shard forest does over
// its live set: the same points in the same order through the same DAG, so
// core distances, MR-MSTs, dendrograms and labels are the single node's.
//
// Client kNN frames fan out unchanged and merge with MergeKnnRows (the k
// smallest of a union is the merge of the parts' k smallest).
//
// All entry points issue parallel scheduler work — run them inside a
// worker group (the router wraps them in its BuildExecutor).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "engine/artifacts.h"
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

/// Type-erased per-dimension mirror state: kd-trees over each worker's
/// slice for the EMST's cross traversal, and the artifact DAG over the
/// whole mirror for HDBSCAN*.
class MergerBase {
 public:
  virtual ~MergerBase() = default;

  /// (Re)builds the per-slice trees and a fresh DAG over the `n` mirrored
  /// points (slices partition the dense indices [0, n); they may be empty).
  virtual void SetWorkers(const std::vector<WorkerSlice>& slices, size_t n) = 0;

  /// Cross-slice Euclidean BCCP candidate edges, dense-index endpoints.
  virtual std::vector<WeightedEdge> CrossEmstEdges() = 0;

  /// AnswerQuery's clustering step on the mirror's DAG (see
  /// DatasetArtifacts::Clustering), building what is missing.
  virtual bool Clustering(int min_pts, bool need_plot, EngineResponse* out,
                          ClusteringView* view) = 0;
};

template <int D>
class Merger : public MergerBase {
 public:
  void SetWorkers(const std::vector<WorkerSlice>& slices, size_t n) override {
    trees_.clear();
    dense_.clear();
    std::vector<Point<D>> mirror(n);
    for (const WorkerSlice& s : slices) {
      dense_.push_back(s.dense);
      if (s.dense.empty()) {
        trees_.emplace_back(nullptr);
        continue;
      }
      std::vector<Point<D>> pts =
          engine_export::UnflattenRows<D>(s.coords, s.dense.size());
      for (size_t l = 0; l < pts.size(); ++l) mirror[s.dense[l]] = pts[l];
      trees_.emplace_back(new KdTree<D>(pts, /*leaf_size=*/1));
    }
    mirror_ = std::make_unique<DatasetArtifacts<D>>(std::move(mirror));
  }

  std::vector<WeightedEdge> CrossEmstEdges() override {
    std::vector<WeightedEdge> out;
    for (size_t i = 0; i < trees_.size(); ++i) {
      for (size_t j = i + 1; j < trees_.size(); ++j) {
        if (trees_[i] == nullptr || trees_[j] == nullptr) continue;
        const std::vector<uint32_t>& da = dense_[i];
        const std::vector<uint32_t>& db = dense_[j];
        std::vector<WeightedEdge> edges = CrossBccpEdges(
            *trees_[i], *trees_[j], [&](uint32_t t) { return da[t]; },
            [&](uint32_t t) { return db[t]; });
        out.insert(out.end(), edges.begin(), edges.end());
      }
    }
    return out;
  }

  bool Clustering(int min_pts, bool need_plot, EngineResponse* out,
                  ClusteringView* view) override {
    return mirror_->Clustering(min_pts, need_plot, /*allow_build=*/true, out,
                               view);
  }

 private:
  std::vector<std::unique_ptr<KdTree<D>>> trees_;
  std::vector<std::vector<uint32_t>> dense_;
  std::unique_ptr<DatasetArtifacts<D>> mirror_;
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
