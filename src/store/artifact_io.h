// Typed snapshot save/load for each artifact node of the engine pipeline:
// point sets, the flat kd-tree arena, kNN sorted-prefix matrices, EMST /
// MR-MST edge lists, and dendrograms (format.h describes the bytes).
//
// Loads validate everything they cannot afford to trust — header kind and
// dimension, section sizes against the header counts, and the structural
// invariants that downstream traversals index by (child links in bounds
// and forward-pointing, point ranges inside [0, n), dendrogram children in
// bounds) — raising the typed errors of errors.h. Checksums (verified by
// SnapshotFile) already rule out silent corruption; the structural checks
// rule out crafted or stale files crashing the process.
//
// Zero-copy contract: the kd-tree node arena and the kNN prefix matrix are
// adopted as views into the mapped file (the dominant bytes of a warm
// start); point sets, edge lists, and dendrograms are small or need
// mutation-adjacent ownership and are copied out.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dendrogram/dendrogram.h"
#include "graph/edge.h"
#include "spatial/kdtree.h"
#include "store/snapshot.h"

namespace parhc {

namespace store_internal {

inline void RequireSectionSize(const SnapshotFile& f, size_t got,
                               uint64_t want, const char* what) {
  if (got != want) {
    throw SnapshotFormatError(f.path() + ": " + what + " has " +
                              std::to_string(got) + " elements, header says " +
                              std::to_string(want));
  }
}

template <int D>
void RequireFinitePoints(const SnapshotFile& f, Span<const Point<D>> pts) {
  if (!AllFinite(pts.data(), pts.size())) {
    throw SnapshotFormatError(f.path() + ": " + kNonFiniteCoordinates);
  }
}

}  // namespace store_internal

// ---- Point sets -----------------------------------------------------------

template <int D>
void SavePointsSnapshot(const std::string& path,
                        const std::vector<Point<D>>& pts) {
  SnapshotWriter w(SnapshotKind::kPoints, D, pts.size());
  w.AddSection(SectionId::kPointData, pts.data(), pts.size());
  w.Write(path);
}

template <int D>
std::vector<Point<D>> LoadPointsSnapshot(const std::string& path) {
  SnapshotFile f(path);
  f.ExpectKind(SnapshotKind::kPoints, D);
  if (f.count() < 1) {
    throw SnapshotSchemaError(path + ": empty point set");
  }
  Span<const Point<D>> data = f.section<Point<D>>(SectionId::kPointData);
  store_internal::RequireSectionSize(f, data.size(), f.count(), "point data");
  store_internal::RequireFinitePoints(f, data);
  return std::vector<Point<D>>(data.begin(), data.end());
}

// ---- kd-tree arena --------------------------------------------------------

template <int D>
void SaveKdTreeSnapshot(const std::string& path, const KdTree<D>& tree) {
  uint32_t nc = tree.node_count();
  SnapshotWriter w(SnapshotKind::kKdTree, D, tree.size(), nc,
                   tree.leaf_size());
  w.AddSection(SectionId::kPointData, tree.points().data(),
               tree.points().size());
  w.AddSection(SectionId::kPointIds, tree.ids().data(), tree.ids().size());
  w.AddSection(SectionId::kTreeLeft, tree.left_data(), nc);
  w.AddSection(SectionId::kTreeRange, tree.range_data(), nc);
  w.AddSection(SectionId::kTreeBox, tree.box_data(), nc);
  w.AddSection(SectionId::kTreeDiameter, tree.diameter_data(), nc);
  w.Write(path);
}

/// Loads a tree zero-copy: the four node-arena arrays stay views into the
/// mapped snapshot (kept alive by the tree); tree-order points and ids are
/// copied out (they are the mutation-adjacent arrays downstream annotation
/// passes index against).
template <int D>
std::unique_ptr<KdTree<D>> LoadKdTreeSnapshot(const std::string& path) {
  SnapshotFile f(path);
  f.ExpectKind(SnapshotKind::kKdTree, D);
  uint64_t n = f.count();
  uint64_t nc = f.param();
  uint64_t leaf_size = f.aux();
  if (n < 1 || nc < 1 || nc > 2 * n || leaf_size < 1) {
    throw SnapshotSchemaError(path + ": implausible kd-tree header (n=" +
                              std::to_string(n) + ", nodes=" +
                              std::to_string(nc) + ")");
  }
  using Range = typename KdTree<D>::PointRange;
  Span<const Point<D>> pts = f.section<Point<D>>(SectionId::kPointData);
  Span<const uint32_t> ids = f.section<uint32_t>(SectionId::kPointIds);
  Span<const uint32_t> left = f.section<uint32_t>(SectionId::kTreeLeft);
  Span<const Range> range = f.section<Range>(SectionId::kTreeRange);
  Span<const Box<D>> box = f.section<Box<D>>(SectionId::kTreeBox);
  Span<const double> diameter = f.section<double>(SectionId::kTreeDiameter);
  store_internal::RequireSectionSize(f, pts.size(), n, "tree points");
  store_internal::RequireSectionSize(f, ids.size(), n, "tree ids");
  store_internal::RequireSectionSize(f, left.size(), nc, "left links");
  store_internal::RequireSectionSize(f, range.size(), nc, "node ranges");
  store_internal::RequireSectionSize(f, box.size(), nc, "node boxes");
  store_internal::RequireSectionSize(f, diameter.size(), nc,
                                     "node diameters");
  store_internal::RequireFinitePoints(f, pts);
  // Structural validation: everything traversals index by must be in
  // bounds, and child links must point forward (the bottom-up sweeps'
  // reverse-scan invariant).
  for (uint64_t v = 0; v < nc; ++v) {
    uint32_t l = left[v];
    if (l != KdTree<D>::kNullNode && (l <= v || l + 1 >= nc)) {
      throw SnapshotFormatError(path + ": node " + std::to_string(v) +
                                " has out-of-range child link");
    }
    if (range[v].begin >= range[v].end || range[v].end > n) {
      throw SnapshotFormatError(path + ": node " + std::to_string(v) +
                                " has invalid point range");
    }
  }
  for (uint64_t i = 0; i < n; ++i) {
    if (ids[i] >= n) {
      throw SnapshotFormatError(path + ": tree id out of range");
    }
  }
  typename KdTree<D>::ArenaParts parts;
  parts.leaf_size = static_cast<uint32_t>(leaf_size);
  parts.node_count = static_cast<uint32_t>(nc);
  parts.pts.assign(pts.begin(), pts.end());
  parts.ids.assign(ids.begin(), ids.end());
  parts.left = left.data();
  parts.range = range.data();
  parts.box = box.data();
  parts.diameter = diameter.data();
  parts.keepalive = f.mapping();
  return std::make_unique<KdTree<D>>(std::move(parts));
}

// ---- kNN sorted-prefix matrix ---------------------------------------------

inline void SaveMatrixSnapshot(const std::string& path, uint32_t dim,
                               uint64_t n, uint64_t k, const double* data) {
  SnapshotWriter w(SnapshotKind::kKnnPrefix, dim, n, k);
  w.AddSection(SectionId::kMatrixData, data, n * k);
  w.Write(path);
}

/// A loaded n x k matrix: a zero-copy view plus the mapping keeping it
/// alive.
struct LoadedMatrix {
  uint64_t n = 0;
  uint64_t k = 0;
  Span<const double> data;
  std::shared_ptr<const MappedFile> keepalive;
};

inline LoadedMatrix LoadMatrixSnapshot(const std::string& path,
                                       uint32_t dim) {
  SnapshotFile f(path);
  f.ExpectKind(SnapshotKind::kKnnPrefix, dim);
  LoadedMatrix m;
  m.n = f.count();
  m.k = f.param();
  if (m.k < 1 || m.k > m.n) {
    throw SnapshotSchemaError(path + ": implausible kNN prefix width " +
                              std::to_string(m.k));
  }
  m.data = f.section<double>(SectionId::kMatrixData);
  store_internal::RequireSectionSize(f, m.data.size(), m.n * m.k,
                                     "matrix data");
  m.keepalive = f.mapping();
  return m;
}

// ---- Edge lists -----------------------------------------------------------

inline void SaveEdgesSnapshot(const std::string& path,
                              const std::vector<WeightedEdge>& edges,
                              uint64_t param) {
  static_assert(sizeof(WeightedEdge) == 16,
                "WeightedEdge must serialize without padding");
  SnapshotWriter w(SnapshotKind::kEdgeList, 0, edges.size(), param);
  w.AddSection(SectionId::kEdgeData, edges.data(), edges.size());
  w.Write(path);
}

/// Loads an edge list saved with `param` whose endpoints must lie in
/// [0, num_vertices).
inline std::vector<WeightedEdge> LoadEdgesSnapshot(const std::string& path,
                                                   uint64_t param,
                                                   uint64_t num_vertices) {
  SnapshotFile f(path);
  f.ExpectKind(SnapshotKind::kEdgeList);
  if (f.param() != param) {
    throw SnapshotSchemaError(path + ": edge list parameter " +
                              std::to_string(f.param()) + ", expected " +
                              std::to_string(param));
  }
  Span<const WeightedEdge> data =
      f.section<WeightedEdge>(SectionId::kEdgeData);
  store_internal::RequireSectionSize(f, data.size(), f.count(), "edge data");
  for (const WeightedEdge& e : data) {
    if (e.u >= num_vertices || e.v >= num_vertices) {
      throw SnapshotFormatError(path + ": edge endpoint out of range");
    }
  }
  return std::vector<WeightedEdge>(data.begin(), data.end());
}

// ---- Dendrograms ----------------------------------------------------------

inline void SaveDendrogramSnapshot(const std::string& path,
                                   const Dendrogram& d, uint64_t param) {
  size_t n = d.num_points();
  std::vector<uint32_t> left(n - 1), right(n - 1);
  std::vector<double> height(n - 1);
  for (size_t i = 0; i < n - 1; ++i) {
    uint32_t id = static_cast<uint32_t>(n + i);
    left[i] = d.Left(id);
    right[i] = d.Right(id);
    height[i] = d.Height(id);
  }
  uint32_t root = d.root();
  SnapshotWriter w(SnapshotKind::kDendrogram, 0, n, param);
  w.AddSection(SectionId::kDendroLeft, left.data(), left.size());
  w.AddSection(SectionId::kDendroRight, right.data(), right.size());
  w.AddSection(SectionId::kDendroHeight, height.data(), height.size());
  w.AddSection(SectionId::kDendroRoot, &root, 1);
  w.Write(path);
}

inline std::shared_ptr<const Dendrogram> LoadDendrogramSnapshot(
    const std::string& path, uint64_t param, uint64_t num_points) {
  SnapshotFile f(path);
  f.ExpectKind(SnapshotKind::kDendrogram);
  if (f.param() != param || f.count() != num_points || num_points < 1) {
    throw SnapshotSchemaError(path + ": dendrogram is over " +
                              std::to_string(f.count()) +
                              " points at parameter " +
                              std::to_string(f.param()) + ", expected " +
                              std::to_string(num_points) + " at " +
                              std::to_string(param));
  }
  uint64_t n = num_points;
  Span<const uint32_t> left = f.section<uint32_t>(SectionId::kDendroLeft);
  Span<const uint32_t> right = f.section<uint32_t>(SectionId::kDendroRight);
  Span<const double> height = f.section<double>(SectionId::kDendroHeight);
  Span<const uint32_t> root = f.section<uint32_t>(SectionId::kDendroRoot);
  store_internal::RequireSectionSize(f, left.size(), n - 1, "left children");
  store_internal::RequireSectionSize(f, right.size(), n - 1,
                                     "right children");
  store_internal::RequireSectionSize(f, height.size(), n - 1, "heights");
  store_internal::RequireSectionSize(f, root.size(), 1, "root");
  auto d = std::make_shared<Dendrogram>(n);
  uint64_t num_nodes = 2 * n - 1;
  if (root[0] >= num_nodes) {
    throw SnapshotFormatError(path + ": dendrogram root out of range");
  }
  for (uint64_t i = 0; i < n - 1; ++i) {
    if (left[i] >= num_nodes || right[i] >= num_nodes) {
      throw SnapshotFormatError(path + ": dendrogram child out of range");
    }
    d->SetInternal(static_cast<uint32_t>(n + i), left[i], right[i],
                   height[i]);
  }
  d->set_root(root[0]);
  // The bounds checks above make the wiring memory-safe; Validate rejects
  // the remaining structurally-broken cases (cycles, shared children,
  // height inversions) a crafted file could encode.
  if (!d->Validate()) {
    throw SnapshotFormatError(path + ": dendrogram fails validation");
  }
  return d;
}

}  // namespace parhc
