// The per-width half of the dataset registry (see registry.h): the entry
// classes over the two artifact backends, the runtime-width loaders and
// the MakeStaticEntry factories. This is the one translation unit that
// instantiates the engine stack (DatasetArtifacts<D>, DynamicArtifacts<D>
// and their snapshot loaders) for every width of PARHC_FOR_EACH_DIM;
// every other object reaches a dataset through DatasetEntryBase.
#include "engine/registry.h"

#include "data/io.h"
#include "dynamic/artifacts.h"
#include "engine/artifacts.h"
#include "store/errors.h"
#include "store/manifest.h"

namespace parhc {
namespace {

std::string UnsupportedDim(int64_t dim) {
  return "unsupported dataset dimension " + std::to_string(dim);
}

// Frames carry points as row-major doubles; the backends take typed
// points.

template <int D>
void FlattenInto(const std::vector<Point<D>>& pts, std::vector<double>* out) {
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

/// Rows already checked to hold D coordinates each.
template <int D>
std::vector<Point<D>> RowsToPoints(
    const std::vector<std::vector<double>>& rows) {
  std::vector<Point<D>> pts(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    for (int d = 0; d < D; ++d) pts[i][d] = rows[i][d];
  }
  return pts;
}

template <int D>
class DatasetEntry final : public DatasetEntryBase {
 public:
  explicit DatasetEntry(std::vector<Point<D>> pts)
      : artifacts_(std::move(pts)) {}

  /// Warm-starts from a snapshot directory (see DatasetArtifacts::LoadFrom).
  explicit DatasetEntry(const std::string& snapshot_dir) {
    artifacts_.LoadFrom(snapshot_dir);
  }

  int dim() const override { return D; }
  size_t num_points() const override { return artifacts_.num_points(); }
  size_t knn_k() const override { return artifacts_.knn_k(); }
  size_t num_cached_clusterings() const override {
    return artifacts_.num_cached_clusterings();
  }
  bool Answer(const EngineRequest& req, bool allow_build,
              EngineResponse* out) override {
    return artifacts_.Answer(req, allow_build, out);
  }
  bool Emst(bool need_dendro, bool allow_build, EngineResponse* out,
            EmstView* view) override {
    return artifacts_.Emst(need_dendro, allow_build, out, view);
  }
  bool Clustering(int min_pts, bool need_plot, bool allow_build,
                  EngineResponse* out, ClusteringView* view) override {
    return artifacts_.Clustering(min_pts, need_plot, allow_build, out, view);
  }
  void SaveTo(const std::string& dir) const override {
    artifacts_.SaveTo(dir);
  }

  void ExportLive(std::vector<uint32_t>* gids,
                  std::vector<double>* coords) override {
    size_t n = artifacts_.num_points();
    gids->resize(n);
    for (size_t i = 0; i < n; ++i) (*gids)[i] = static_cast<uint32_t>(i);
    FlattenInto<D>(artifacts_.points(), coords);
  }

  std::vector<double> KnnForQueries(const std::vector<double>& coords,
                                    size_t count, size_t k) override {
    return artifacts_.KnnForQueries(UnflattenRows<D>(coords, count), k);
  }

 private:
  DatasetArtifacts<D> artifacts_;
};

/// A batch-dynamic dataset over the LSM shard forest. Starts empty; points
/// arrive through InsertRows and leave through DeleteIds.
template <int D>
class DynamicDatasetEntry final : public DatasetEntryBase {
 public:
  DynamicDatasetEntry() = default;

  /// Warm-starts from a snapshot directory (see DynamicArtifacts::LoadFrom).
  explicit DynamicDatasetEntry(const std::string& snapshot_dir) {
    artifacts_.LoadFrom(snapshot_dir);
  }

  int dim() const override { return D; }
  size_t num_points() const override { return artifacts_.num_points(); }
  size_t knn_k() const override { return artifacts_.knn_k(); }
  size_t num_cached_clusterings() const override {
    return artifacts_.num_cached_clusterings();
  }
  bool Answer(const EngineRequest& req, bool allow_build,
              EngineResponse* out) override {
    return artifacts_.Answer(req, allow_build, out);
  }
  bool Emst(bool need_dendro, bool allow_build, EngineResponse* out,
            EmstView* view) override {
    return artifacts_.Emst(need_dendro, allow_build, out, view);
  }
  bool Clustering(int min_pts, bool need_plot, bool allow_build,
                  EngineResponse* out, ClusteringView* view) override {
    return artifacts_.Clustering(min_pts, need_plot, allow_build, out, view);
  }

  bool is_dynamic() const override { return true; }
  size_t num_shards() const override { return artifacts_.num_shards(); }
  size_t num_tombstones() const override {
    return artifacts_.num_tombstones();
  }

  std::string InsertRows(const std::vector<std::vector<double>>& rows,
                         uint32_t* first_gid) override {
    if (rows.empty()) return "insert batch must be non-empty";
    for (const auto& row : rows) {
      if (row.size() != static_cast<size_t>(D)) return RowDimMismatch(D);
    }
    std::vector<Point<D>> pts = RowsToPoints<D>(rows);
    if (!AllFinite(pts.data(), pts.size())) return kNonFiniteCoordinates;
    uint32_t first = artifacts_.InsertBatch(std::move(pts));
    if (first_gid) *first_gid = first;
    return "";
  }

  std::string DeleteIds(const std::vector<uint32_t>& gids,
                        size_t* deleted) override {
    size_t n = artifacts_.DeleteBatch(gids);
    if (deleted) *deleted = n;
    return "";
  }

  void SaveTo(const std::string& dir) const override {
    artifacts_.SaveTo(dir);
  }

  void ExportLive(std::vector<uint32_t>* gids,
                  std::vector<double>* coords) override {
    std::vector<Point<D>> pts;
    artifacts_.ExportLive(gids, &pts);
    FlattenInto<D>(pts, coords);
  }

  std::vector<double> KnnForQueries(const std::vector<double>& coords,
                                    size_t count, size_t k) override {
    return artifacts_.KnnForQueries(UnflattenRows<D>(coords, count), k);
  }

 private:
  DynamicArtifacts<D> artifacts_;
};

/// Add for untrusted points: rejects non-finite coordinates. Returns ""
/// on success, else an error message.
template <int D>
std::string TryAdd(DatasetRegistry& reg, const std::string& name,
                   std::vector<Point<D>> pts) {
  if (!AllFinite(pts.data(), pts.size())) return kNonFiniteCoordinates;
  reg.Add(name, std::move(pts));
  return "";
}

}  // namespace

template <int D>
std::shared_ptr<DatasetEntryBase> MakeStaticEntry(std::vector<Point<D>> pts) {
  return std::make_shared<DatasetEntry<D>>(std::move(pts));
}

#define PARHC_INSTANTIATE_STATIC_ENTRY(D)                        \
  template std::shared_ptr<DatasetEntryBase> MakeStaticEntry<D>( \
      std::vector<Point<D>>);
PARHC_FOR_EACH_DIM(PARHC_INSTANTIATE_STATIC_ENTRY)
#undef PARHC_INSTANTIATE_STATIC_ENTRY

std::shared_ptr<DatasetEntryBase> MakeStaticEntry(
    int dim, const std::vector<double>& coords, size_t n) {
  return VisitDim(dim, std::shared_ptr<DatasetEntryBase>(), [&](auto w) {
    constexpr int D = decltype(w)::value;
    return MakeStaticEntry<D>(UnflattenRows<D>(coords, n));
  });
}

std::string DatasetRegistry::TryAddRows(
    const std::string& name, const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return "dataset must be non-empty";
  int dim = static_cast<int>(rows[0].size());
  return VisitDim(dim, UnsupportedDim(dim), [&](auto w) -> std::string {
    constexpr int D = decltype(w)::value;
    for (const auto& row : rows) {
      if (row.size() != static_cast<size_t>(D)) {
        return "rows must share one dimension";
      }
    }
    return TryAdd(*this, name, RowsToPoints<D>(rows));
  });
}

std::string DatasetRegistry::TryAddBin(const std::string& name,
                                       const std::string& path) {
  PointsBinHeader h = ReadPointsBinHeader(path);
  int dim = static_cast<int>(h.dim);
  return VisitDim(dim, UnsupportedDim(h.dim), [&](auto w) -> std::string {
    if (h.count == 0) return "dataset must be non-empty";
    return TryAdd(*this, name, ReadPointsBinAs<decltype(w)::value>(path));
  });
}

std::string DatasetRegistry::TryAddDynamic(const std::string& name, int dim) {
  return VisitDim(dim, UnsupportedDim(dim), [&](auto w) {
    Insert(name, std::make_shared<DynamicDatasetEntry<decltype(w)::value>>());
    return std::string();
  });
}

std::string DatasetRegistry::TryLoadSnapshot(const std::string& name,
                                             const std::string& dir) {
  try {
    ManifestInfo info = ReadManifestInfo(dir + "/" + kManifestFileName);
    int dim = static_cast<int>(info.dim);
    return VisitDim(dim, UnsupportedDim(info.dim), [&](auto w) {
      constexpr int D = decltype(w)::value;
      std::shared_ptr<DatasetEntryBase> entry;
      if (info.dynamic) {
        entry = std::make_shared<DynamicDatasetEntry<D>>(dir);
      } else {
        entry = std::make_shared<DatasetEntry<D>>(dir);
      }
      Insert(name, std::move(entry));
      return std::string();
    });
  } catch (const SnapshotError& e) {
    return e.what();
  }
}

}  // namespace parhc
