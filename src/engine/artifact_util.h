// The query surface shared by the engine's three artifact backends: the
// immutable per-dataset cache (engine/artifacts.h), the batch-dynamic
// shard-forest cache (dynamic/artifacts.h) and the router's per-epoch
// mirror of sharded workers (cluster/router.cc). AnswerQuery owns the one
// validation order and error strings, label extraction and the response
// fill; a backend supplies only its EMST and its per-minPts MR-MST (the
// latter two take the MR-MST from a DatasetArtifacts over all their
// points, and the router its EMST too). The
// helpers below keep the build/reuse traces, the build:<key> trace spans
// (one per artifact built, see README "Observability") and the dendrograms
// identical across backends.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "dendrogram/builder.h"
#include "dendrogram/cluster_extraction.h"
#include "dendrogram/reachability.h"
#include "engine/request.h"
#include "graph/edge.h"
#include "hdbscan/stability.h"
#include "obs/trace.h"

namespace parhc {

/// Worker count at or above which artifact dendrograms use the parallel
/// builder; below it the sequential builder wins (no Euler-tour overhead).
inline constexpr int kParallelDendrogramWorkers = 8;

/// Records `key` in the response's built or reused artifact trace (first
/// mention wins; later stages touching the same artifact are not repeated).
inline void TraceArtifact(EngineResponse* out, bool built,
                          const std::string& key) {
  auto contains = [&](const std::vector<std::string>& v) {
    return std::find(v.begin(), v.end(), key) != v.end();
  };
  if (contains(out->built) || contains(out->reused)) return;
  (built ? out->built : out->reused).push_back(key);
}

/// Interned span name for a cold build of artifact `key` (nullptr when
/// tracing is off, which makes the obs::Span a no-op). Builds are rare,
/// so the intern mutex never touches the request fast path.
inline const char* BuildSpanName(const std::string& key) {
  if (!obs::Tracer::Get().enabled()) return nullptr;
  return obs::Tracer::Get().Intern("build:" + key);
}

inline double TotalEdgeWeight(const std::vector<WeightedEdge>& edges) {
  double w = 0;
  for (const auto& e : edges) w += e.w;
  return w;
}

/// Ordered dendrogram of `edges` over `n` points anchored at source 0, via
/// whichever builder fits the current worker count (both produce the same
/// ordered dendrogram).
inline std::shared_ptr<const Dendrogram> BuildDendrogramArtifact(
    size_t n, const std::vector<WeightedEdge>& edges) {
  if (n == 1) {
    auto d = std::make_shared<Dendrogram>(1);
    d->set_root(0);
    return d;
  }
  if (NumWorkers() >= kParallelDendrogramWorkers) {
    return std::make_shared<const Dendrogram>(
        BuildDendrogramParallel(n, edges, /*source=*/0));
  }
  return std::make_shared<const Dendrogram>(
      BuildDendrogramSequential(n, edges, /*source=*/0));
}

/// The EMST and its single-linkage dendrogram (built on demand).
struct EmstView {
  std::shared_ptr<const std::vector<WeightedEdge>> mst;
  double mst_weight = 0;
  std::shared_ptr<const Dendrogram> dendrogram;
};

/// One per-minPts clustering: core distances and MR-MST (always), the
/// dendrogram and reachability plot (on demand).
struct ClusteringView {
  std::shared_ptr<const std::vector<double>> core_dist;
  std::shared_ptr<const std::vector<WeightedEdge>> mst;
  double mst_weight = 0;
  std::shared_ptr<const Dendrogram> dendrogram;
  std::shared_ptr<const ReachabilityPlot> plot;
};

/// Build-or-reuse step for an artifact derived from an MST (the
/// `sl-dendro` of the shard-forest EMST) in a backend that
/// serializes its builds: fills an empty `slot` from `build()` inside a
/// build:<key> span and traces `key` as built, else as reused. Returns
/// false iff the slot is empty and !allow_build.
template <typename T, typename Build>
bool EnsureDerived(std::shared_ptr<const T>& slot, const std::string& key,
                   bool allow_build, EngineResponse* out,
                   const Build& build) {
  bool built = !slot;
  if (built) {
    if (!allow_build) return false;
    obs::Span span(BuildSpanName(key), "engine");
    slot = build();
  }
  TraceArtifact(out, built, key);
  return true;
}

/// Answers `req` over a dataset of `n` live points: validates, asks the
/// backend for the artifacts, then extracts labels and fills `out`.
///   emst_fn(need_dendro, EmstView*) -> bool
///   clustering_fn(min_pts, need_plot, ClusteringView*) -> bool
/// fill the view (the clustering always with its dendrogram) and return
/// false iff an artifact was missing and the backend may not build it —
/// then this returns false too, and the caller retries on its build path.
/// A backend that cannot answer sets out->error and returns true.
/// Invalid requests return true with out->ok == false.
template <typename EmstFn, typename ClusteringFn>
bool AnswerQuery(const EngineRequest& req, size_t n, EngineResponse* out,
                 const EmstFn& emst_fn, const ClusteringFn& clustering_fn) {
  if (n == 0) {
    out->error = "dataset is empty";
    return true;
  }
  switch (req.type) {
    case QueryType::kEmst:
    case QueryType::kSingleLinkage: {
      if (req.type == QueryType::kEmst && req.emst_eps >= 0) {
        out->error = "eps EMST is supported on static datasets only";
        return true;
      }
      bool need_dendro = req.type == QueryType::kSingleLinkage;
      if (need_dendro && (req.k < 1 || req.k > n)) {
        out->error = "k must be in [1, n]";
        return true;
      }
      EmstView v;
      if (!emst_fn(need_dendro, &v)) return false;
      if (!out->error.empty()) return true;
      out->mst = v.mst;
      out->mst_weight = v.mst_weight;
      if (need_dendro) {
        out->dendrogram = v.dendrogram;
        out->labels = KClusters(*v.dendrogram, req.k);
        SummarizeLabels(out->labels, out);
      }
      out->ok = true;
      return true;
    }
    case QueryType::kHdbscan:
    case QueryType::kDbscanStarAt:
    case QueryType::kReachability:
    case QueryType::kStableClusters: {
      if (req.min_pts < 1 || static_cast<size_t>(req.min_pts) > n) {
        out->error = "min_pts must be in [1, n]";
        return true;
      }
      if (req.type == QueryType::kStableClusters && req.min_cluster_size < 2) {
        out->error = "min_cluster_size must be >= 2";
        return true;
      }
      ClusteringView v;
      if (!clustering_fn(req.min_pts, req.type == QueryType::kReachability,
                         &v)) {
        return false;
      }
      if (!out->error.empty()) return true;
      out->core_dist = v.core_dist;
      if (req.type == QueryType::kHdbscan) {
        out->mst = v.mst;
        out->mst_weight = v.mst_weight;
        out->dendrogram = v.dendrogram;
      } else if (req.type == QueryType::kDbscanStarAt) {
        out->labels = DbscanStarLabels(*v.dendrogram, *v.core_dist, req.eps);
        SummarizeLabels(out->labels, out);
      } else if (req.type == QueryType::kReachability) {
        out->plot = v.plot;
      } else {
        StabilityClusters sc =
            ExtractStableClusters(*v.dendrogram, req.min_cluster_size);
        out->labels = std::move(sc.label);
        out->stability = std::move(sc.stability);
        SummarizeLabels(out->labels, out);
      }
      out->ok = true;
      return true;
    }
  }
  out->error = "unknown query type";
  return true;
}

}  // namespace parhc
