// Dataset registry: named, type-erased datasets behind one handle.
//
// Point dimensionality is a compile-time template parameter everywhere in
// the library; the serving layer needs to hold datasets of several
// dimensions in one table and route requests by name at runtime. Each
// registered dataset owns a DatasetArtifacts<D> behind a virtual interface
// (DatasetEntryBase) carrying the per-dataset readers-writer lock that the
// engine's query path uses. Supported dimensions are the paper's evaluation
// set {2, 3, 4, 5, 7, 10, 16} plus the embedding widths {64, 256} served by
// the high-dimensional EMST path (emst/emst_highdim.h); loading another
// dimension fails with a clear error rather than instantiating unboundedly.
//
// Static datasets are immutable once added; re-adding a name atomically
// replaces the entry: in-flight queries keep answering from the old
// shared_ptr and new queries see the new data (documented in README
// "Serving layer"). Batch-dynamic datasets (AddDynamic) instead accept
// InsertRows / DeleteIds mutations, backed by the LSM shard forest
// (dynamic/artifacts.h), whose HDBSCAN* side is one DatasetArtifacts<D>
// over the live points per mutation epoch; the engine front-end
// serializes mutations with artifact builds.
//
// Lifetime audit (Remove vs concurrent Run): Find hands each query its own
// shared_ptr copy, so Remove only drops the registry's reference — the
// entry (and the shared_mutex inside it) outlives every in-flight query,
// and a query that loses the race keeps answering from the orphaned entry.
// Regression-tested by EngineConcurrency.RemoveWhileQueriesInFlight.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "data/io.h"
#include "dynamic/artifacts.h"
#include "engine/artifacts.h"
#include "engine/export.h"
#include "engine/request.h"
#include "store/errors.h"
#include "store/manifest.h"

namespace parhc {

/// The error a dataset of dimension `dim` answers to an insert batch of
/// another width (the router tier words its own check identically).
inline std::string RowDimMismatch(int dim) {
  return "rows must match the dataset dimension " + std::to_string(dim);
}

/// Type-erased registered dataset. `mu` is the readers-writer lock the
/// engine front-end takes around Answer (shared for read-only cache hits,
/// exclusive for artifact builds and mutations).
class DatasetEntryBase {
 public:
  virtual ~DatasetEntryBase() = default;
  virtual int dim() const = 0;
  virtual size_t num_points() const = 0;
  virtual size_t knn_k() const = 0;
  virtual size_t num_cached_clusterings() const = 0;
  /// See DatasetArtifacts::Answer.
  virtual bool Answer(const EngineRequest& req, bool allow_build,
                      EngineResponse* out) = 0;

  /// Writes every cached artifact plus the dataset manifest into `dir`.
  /// Read-only (no lazy builds run), so the engine calls it under the
  /// *shared* lock — snapshots are taken while cache-hit queries keep
  /// serving. Raises SnapshotError subtypes.
  virtual void SaveTo(const std::string& dir) const = 0;

  // Partial-artifact export surface for the router tier (src/cluster/),
  // behind the kOpExportPoints / kOpKnnQuery frame verbs. Both may lazily
  // build caches (the dynamic backend's shard accessors mutate; the kNN
  // frame builds and reuses the kd-tree of the set's artifact DAG, for a
  // dynamic set the DAG over its live points), so the engine calls them
  // under the *exclusive* lock; the kNN frame issues parallel work and
  // runs on the build executor.

  /// Live points in ascending-global-id order: gids[i] and the matching
  /// dim() doubles at coords[i*dim()]. For immutable datasets gid == point
  /// index.
  virtual void ExportLive(std::vector<uint32_t>* gids,
                          std::vector<double>* coords) = 0;

  /// kNN rows of `count` query points (flattened coords, dim() doubles
  /// each) against the live points: row i = sorted squared distances to
  /// the k nearest (self included when resident), +inf-padded.
  virtual std::vector<double> KnnForQueries(const std::vector<double>& coords,
                                            size_t count, size_t k) = 0;

  // Batch-dynamic interface; the immutable backend rejects mutations.
  virtual bool is_dynamic() const { return false; }
  virtual size_t num_shards() const { return 1; }
  /// Tombstoned points (dynamic backend only; 0 for immutable datasets).
  virtual size_t num_tombstones() const { return 0; }
  /// Inserts one batch; on success returns "" and sets *first_gid to the
  /// first assigned global id (the batch gets [first, first + n)).
  virtual std::string InsertRows(
      const std::vector<std::vector<double>>& /*rows*/,
      uint32_t* /*first_gid*/) {
    return "dataset is immutable (create with AddDynamic for ingestion)";
  }
  /// Tombstones global ids; on success returns "" and sets *deleted to the
  /// number of points actually removed (unknown ids are skipped).
  virtual std::string DeleteIds(const std::vector<uint32_t>& /*gids*/,
                                size_t* /*deleted*/) {
    return "dataset is immutable (create with AddDynamic for ingestion)";
  }

  // Snapshot bookkeeping, written by the engine's save/load paths and
  // exported as per-dataset gauges (obs/sources.h). `snapshot_unix_ms` is
  // the wall-clock time of the last successful save or warm-start load
  // (-1 = never); `snapshot_bytes` the on-disk size of that snapshot.
  std::atomic<uint64_t> snapshot_bytes{0};
  std::atomic<int64_t> snapshot_unix_ms{-1};

  std::shared_mutex mu;
};

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
  void SaveTo(const std::string& dir) const override {
    artifacts_.SaveTo(dir);
  }

  void ExportLive(std::vector<uint32_t>* gids,
                  std::vector<double>* coords) override {
    size_t n = artifacts_.num_points();
    gids->resize(n);
    for (size_t i = 0; i < n; ++i) (*gids)[i] = static_cast<uint32_t>(i);
    engine_export::FlattenInto<D>(artifacts_.points(), coords);
  }

  std::vector<double> KnnForQueries(const std::vector<double>& coords,
                                    size_t count, size_t k) override {
    return artifacts_.KnnForQueries(
        engine_export::UnflattenRows<D>(coords, count), k);
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

  bool is_dynamic() const override { return true; }
  size_t num_shards() const override { return artifacts_.num_shards(); }
  size_t num_tombstones() const override {
    return artifacts_.num_tombstones();
  }

  std::string InsertRows(const std::vector<std::vector<double>>& rows,
                         uint32_t* first_gid) override {
    if (rows.empty()) return "insert batch must be non-empty";
    std::vector<Point<D>> pts(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      if (rows[i].size() != static_cast<size_t>(D)) {
        return RowDimMismatch(D);
      }
      for (int d = 0; d < D; ++d) pts[i][d] = rows[i][d];
    }
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
    engine_export::FlattenInto<D>(pts, coords);
  }

  std::vector<double> KnnForQueries(const std::vector<double>& coords,
                                    size_t count, size_t k) override {
    return artifacts_.KnnForQueries(
        engine_export::UnflattenRows<D>(coords, count), k);
  }

 private:
  DynamicArtifacts<D> artifacts_;
};

/// Cache-state summary of one registered dataset.
struct DatasetInfo {
  std::string name;
  int dim = 0;
  size_t num_points = 0;
  size_t knn_k = 0;                 ///< cached kNN prefix width (0 = none)
  size_t cached_clusterings = 0;    ///< per-minPts entries currently held
  bool dynamic = false;             ///< batch-dynamic (shard forest) backend
  size_t num_shards = 1;            ///< shard count (1 for immutable)
  size_t tombstones = 0;            ///< deleted-but-uncompacted points
  uint64_t snapshot_bytes = 0;      ///< last snapshot size (0 = never)
  int64_t snapshot_unix_ms = -1;    ///< last snapshot save/load wall time
};

/// X-macro over every registry-hosted dimension: each X(D) instantiates the
/// full engine stack (static + dynamic entries, artifact DAG, snapshot
/// loaders) at that width. The wide dims (64, 256) serve the
/// high-dimensional embedding workload (see emst/emst_highdim.h).
#define PARHC_FOR_EACH_DIM(X) X(2) X(3) X(4) X(5) X(7) X(10) X(16) X(64) X(256)

class DatasetRegistry {
 public:
  /// Dimensions the registry can host (one template instantiation each).
  static bool SupportedDim(int dim) {
    switch (dim) {
#define PARHC_DIM_CASE(D) case D:
      PARHC_FOR_EACH_DIM(PARHC_DIM_CASE)
#undef PARHC_DIM_CASE
      return true;
      default:
        return false;
    }
  }

  /// Registers (or atomically replaces) `name` with typed points.
  template <int D>
  void Add(const std::string& name, std::vector<Point<D>> pts) {
    PARHC_CHECK_MSG(!pts.empty(), "dataset must be non-empty");
    Insert(name, std::make_shared<DatasetEntry<D>>(std::move(pts)));
  }

  /// Registers `name` from runtime-dimension rows (all rows one
  /// dimension). Returns an empty string on success, else an error message
  /// — runtime data problems are query-path errors, not invariants, so
  /// this never aborts.
  std::string TryAddRows(const std::string& name,
                         const std::vector<std::vector<double>>& rows) {
    if (rows.empty()) return "dataset must be non-empty";
    int dim = static_cast<int>(rows[0].size());
    if (!SupportedDim(dim)) {
      return "unsupported dataset dimension " + std::to_string(dim);
    }
    for (const auto& row : rows) {
      if (row.size() != static_cast<size_t>(dim)) {
        return "rows must share one dimension";
      }
    }
    switch (dim) {
#define PARHC_DIM_CASE(D) \
  case D:                 \
    return TryAdd(name, RowsToPoints<D>(rows));
      PARHC_FOR_EACH_DIM(PARHC_DIM_CASE)
#undef PARHC_DIM_CASE
      default: return "";  // unreachable: SupportedDim checked above
    }
  }

  /// TryAddRows that treats failure as a programmer error.
  void AddRows(const std::string& name,
               const std::vector<std::vector<double>>& rows) {
    std::string err = TryAddRows(name, rows);
    PARHC_CHECK_MSG(err.empty(), err.c_str());
  }

  /// Loads a CSV (dimension inferred from the first row).
  void AddCsv(const std::string& name, const std::string& path) {
    AddRows(name, ReadPointsCsv(path));
  }

  /// Loads the binary point format, dispatching on the header's dimension
  /// and bulk-reading straight into typed points (no parsing, no per-row
  /// allocation). Returns an empty string on success or an error message
  /// for unsupported dimensions, empty files or non-finite coordinates;
  /// propagates the readers' std::runtime_error for unreadable or
  /// malformed files.
  std::string TryAddBin(const std::string& name, const std::string& path) {
    PointsBinHeader h = ReadPointsBinHeader(path);
    if (!SupportedDim(static_cast<int>(h.dim))) {
      return "unsupported dataset dimension " + std::to_string(h.dim);
    }
    if (h.count == 0) return "dataset must be non-empty";
    switch (h.dim) {
#define PARHC_DIM_CASE(D) \
  case D:                 \
    return TryAdd(name, ReadPointsBinAs<D>(path));
      PARHC_FOR_EACH_DIM(PARHC_DIM_CASE)
#undef PARHC_DIM_CASE
      default: return "";  // unreachable: SupportedDim checked above
    }
  }

  /// TryAddBin that treats recoverable failure as a programmer error.
  void AddBin(const std::string& name, const std::string& path) {
    std::string err = TryAddBin(name, path);
    PARHC_CHECK_MSG(err.empty(), err.c_str());
  }

  /// Registers (or atomically replaces) `name` as an empty batch-dynamic
  /// dataset of the given dimension. Returns "" on success.
  std::string TryAddDynamic(const std::string& name, int dim) {
    if (!SupportedDim(dim)) {
      return "unsupported dataset dimension " + std::to_string(dim);
    }
    switch (dim) {
#define PARHC_DIM_CASE(D)                                       \
  case D:                                                       \
    Insert(name, std::make_shared<DynamicDatasetEntry<D>>()); \
    break;
      PARHC_FOR_EACH_DIM(PARHC_DIM_CASE)
#undef PARHC_DIM_CASE
      default: break;  // unreachable: SupportedDim checked above
    }
    return "";
  }

  /// TryAddDynamic that treats failure as a programmer error.
  void AddDynamic(const std::string& name, int dim) {
    std::string err = TryAddDynamic(name, dim);
    PARHC_CHECK_MSG(err.empty(), err.c_str());
  }

  /// Registers (or atomically replaces) `name` from a snapshot directory
  /// written by SaveTo, dispatching on the manifest's backend kind and
  /// dimension. Returns "" on success; snapshot problems (missing,
  /// truncated, corrupt, version-mismatched, wrong-dimension files) come
  /// back as error strings — they raise typed SnapshotError subtypes
  /// internally and never abort.
  std::string TryLoadSnapshot(const std::string& name,
                              const std::string& dir) {
    try {
      ManifestInfo info = ReadManifestInfo(dir + "/" + kManifestFileName);
      if (!SupportedDim(static_cast<int>(info.dim))) {
        return "unsupported dataset dimension " + std::to_string(info.dim);
      }
      std::shared_ptr<DatasetEntryBase> entry;
      switch (info.dim) {
#define PARHC_DIM_CASE(D)                        \
  case D:                                        \
    entry = LoadEntry<D>(dir, info.dynamic); \
    break;
        PARHC_FOR_EACH_DIM(PARHC_DIM_CASE)
#undef PARHC_DIM_CASE
        default: break;  // unreachable: SupportedDim checked above
      }
      Insert(name, std::move(entry));
    } catch (const SnapshotError& e) {
      return e.what();
    }
    return "";
  }

  /// Drops `name` and its whole artifact cache. In-flight queries holding
  /// the entry finish normally. Returns false when absent.
  bool Remove(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.erase(name) > 0;
  }

  /// The entry for `name`, or nullptr.
  std::shared_ptr<DatasetEntryBase> Find(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    return it == entries_.end() ? nullptr : it->second;
  }

  /// Snapshot of all registered datasets, sorted by name. Cache-state
  /// fields are read under each entry's reader lock, so listing is safe
  /// concurrently with builds.
  std::vector<DatasetInfo> List() const {
    std::vector<std::pair<std::string, std::shared_ptr<DatasetEntryBase>>>
        snapshot;
    {
      std::lock_guard<std::mutex> lock(mu_);
      snapshot.assign(entries_.begin(), entries_.end());
    }
    std::vector<DatasetInfo> out;
    out.reserve(snapshot.size());
    for (const auto& [name, entry] : snapshot) {
      std::shared_lock<std::shared_mutex> read(entry->mu);
      out.push_back({name, entry->dim(), entry->num_points(), entry->knn_k(),
                     entry->num_cached_clusterings(), entry->is_dynamic(),
                     entry->num_shards(), entry->num_tombstones(),
                     entry->snapshot_bytes.load(std::memory_order_relaxed),
                     entry->snapshot_unix_ms.load(std::memory_order_relaxed)});
    }
    return out;
  }

 private:
  /// Add for untrusted points: rejects non-finite coordinates. Returns ""
  /// on success, else an error message.
  template <int D>
  std::string TryAdd(const std::string& name, std::vector<Point<D>> pts) {
    if (!AllFinite(pts.data(), pts.size())) return kNonFiniteCoordinates;
    Add(name, std::move(pts));
    return "";
  }

  template <int D>
  static std::shared_ptr<DatasetEntryBase> LoadEntry(const std::string& dir,
                                                     bool dynamic) {
    if (dynamic) return std::make_shared<DynamicDatasetEntry<D>>(dir);
    return std::make_shared<DatasetEntry<D>>(dir);
  }

  template <int D>
  static std::vector<Point<D>> RowsToPoints(
      const std::vector<std::vector<double>>& rows) {
    std::vector<Point<D>> pts(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      PARHC_CHECK_MSG(rows[i].size() == static_cast<size_t>(D),
                      "rows must share one dimension");
      for (int d = 0; d < D; ++d) pts[i][d] = rows[i][d];
    }
    return pts;
  }

  void Insert(const std::string& name,
              std::shared_ptr<DatasetEntryBase> entry) {
    std::lock_guard<std::mutex> lock(mu_);
    entries_[name] = std::move(entry);
  }

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<DatasetEntryBase>> entries_;
};

}  // namespace parhc
