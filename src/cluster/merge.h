// The router's per-epoch mirror of a sharded dataset and its kNN merge.
//
// The mirror holds one static artifact DAG (engine/artifacts.h) over all
// mirrored points in dense (ascending gid) order, exactly as a single
// node's shard forest holds one over its live set: the same points in the
// same order through the same DAG, so core distances, MR-MSTs, dendrograms
// and labels are the single node's, bit for bit. The DAG's EMST (MemoGFK
// on its kd-tree) is edge-identical to the shard forest's EMST, which
// DynamicOracle.EmstExactAfterEveryInsertAndDeleteBatch holds against a
// from-scratch MemoGFK over the live points in gid order.
//
// Client kNN frames fan out unchanged and merge with MergeKnnRows (the k
// smallest of a union is the merge of the parts' k smallest).
//
// All entry points issue parallel scheduler work — run them inside a
// worker group (the router wraps them in its BuildExecutor).
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <vector>

#include "engine/artifacts.h"
#include "engine/export.h"
#include "engine/registry.h"  // PARHC_FOR_EACH_DIM
#include "parallel/primitives.h"
#include "parallel/scheduler.h"

namespace parhc {
namespace cluster {

/// Type-erased per-dimension mirror: the artifact DAG over every mirrored
/// point. Both steps build what is missing.
class MergerBase {
 public:
  virtual ~MergerBase() = default;

  /// AnswerQuery's EMST step on the mirror's DAG (see
  /// DatasetArtifacts::Emst).
  virtual bool Emst(bool need_dendro, EngineResponse* out, EmstView* view) = 0;

  /// AnswerQuery's clustering step on the mirror's DAG (see
  /// DatasetArtifacts::Clustering).
  virtual bool Clustering(int min_pts, bool need_plot, EngineResponse* out,
                          ClusteringView* view) = 0;
};

template <int D>
class Merger : public MergerBase {
 public:
  explicit Merger(std::vector<Point<D>> pts) : mirror_(std::move(pts)) {}

  bool Emst(bool need_dendro, EngineResponse* out, EmstView* view) override {
    return mirror_.Emst(need_dendro, /*allow_build=*/true, out, view);
  }

  bool Clustering(int min_pts, bool need_plot, EngineResponse* out,
                  ClusteringView* view) override {
    return mirror_.Clustering(min_pts, need_plot, /*allow_build=*/true, out,
                              view);
  }

 private:
  DatasetArtifacts<D> mirror_;
};

/// The mirror of `n` points whose coordinates `coords` holds row-major in
/// dense order; null when no instantiation covers `dim`.
inline std::unique_ptr<MergerBase> MakeMerger(
    int dim, const std::vector<double>& coords, size_t n) {
  switch (dim) {
#define PARHC_CLUSTER_MERGER_CASE(D)    \
  case D:                               \
    return std::make_unique<Merger<D>>( \
        engine_export::UnflattenRows<D>(coords, n));
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
