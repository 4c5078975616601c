// Flat-row conversions behind the worker-side frame verbs that the router
// tier (src/cluster/) fans out to (net/protocol.cc: point export, kNN rows
// of query points) and behind the router's mirror (cluster/merge.h).
// Frames carry points as row-major doubles; the artifact backends take
// typed points.
//
// The frames' kNN rows come from DatasetArtifacts::KnnForQueries
// (engine/artifacts.h) on the set's cached kd-tree — a static set's own
// DAG, or the DAG a dynamic set keeps over its live points
// (dynamic/artifacts.h) — which runs the single-node kNN kernel
// (KnnSquaredRows in spatial/knn.h), so the router's merged rows are
// bit-identical to a single node's.
#pragma once

#include <cstddef>
#include <vector>

#include "geometry/point.h"

namespace parhc {
namespace engine_export {

template <int D>
void FlattenInto(const std::vector<Point<D>>& pts,
                 std::vector<double>* out) {
  out->resize(pts.size() * static_cast<size_t>(D));
  for (size_t i = 0; i < pts.size(); ++i) {
    for (int d = 0; d < D; ++d) {
      (*out)[i * static_cast<size_t>(D) + d] = pts[i][d];
    }
  }
}

template <int D>
std::vector<Point<D>> UnflattenRows(const std::vector<double>& coords,
                                    size_t count) {
  std::vector<Point<D>> pts(count);
  for (size_t i = 0; i < count; ++i) {
    for (int d = 0; d < D; ++d) {
      pts[i][d] = coords[i * static_cast<size_t>(D) + d];
    }
  }
  return pts;
}

}  // namespace engine_export
}  // namespace parhc
