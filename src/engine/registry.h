// Dataset registry: named, type-erased datasets behind one handle.
//
// Point dimensionality is a compile-time template parameter everywhere in
// the library; the serving layer needs to hold datasets of several
// dimensions in one table and route requests by name at runtime. Each
// registered dataset is a DatasetEntryBase: a static set's artifact DAG
// (engine/artifacts.h) or a dynamic set's shard forest
// (dynamic/artifacts.h) behind a virtual interface carrying the
// per-dataset readers-writer lock that the engine's query path uses.
// Supported dimensions are PARHC_FOR_EACH_DIM below: the paper's
// evaluation set {2, 3, 4, 5, 7, 10, 16} plus the embedding widths
// {64, 256} served by the high-dimensional EMST path
// (emst/emst_highdim.h); loading another dimension fails with a clear
// error rather than instantiating unboundedly.
//
// The width list is written once, here, and VisitDim is the one dispatch
// from a runtime width to a compile-time one. engine/registry.cc is the
// only translation unit that instantiates the backends per width: the
// entry classes, the Try* loaders and the MakeStaticEntry factories live
// there, so every other object compiles against the width-independent
// interface below. Adding a width is one entry in PARHC_FOR_EACH_DIM.
//
// Static datasets are immutable once added; re-adding a name atomically
// replaces the entry: in-flight queries keep answering from the old
// shared_ptr and new queries see the new data (documented in README
// "Serving layer"). Batch-dynamic datasets (TryAddDynamic) instead accept
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
#include <type_traits>
#include <utility>
#include <vector>

#include "engine/request.h"
#include "geometry/point.h"
#include "util/check.h"

namespace parhc {

struct EmstView;
struct ClusteringView;

/// Every registry-hosted dimension: VisitDim dispatches over it and
/// engine/registry.cc instantiates the full engine stack (static + dynamic
/// entries, artifact DAG, snapshot loaders) at each width. The wide dims
/// (64, 256) serve the high-dimensional embedding workload (see
/// emst/emst_highdim.h).
#define PARHC_FOR_EACH_DIM(X) X(2) X(3) X(4) X(5) X(7) X(10) X(16) X(64) X(256)

/// Calls f(std::integral_constant<int, D>{}) when `dim` is a listed width
/// D and returns its result; returns `otherwise` for any other width.
template <typename R, typename F>
constexpr R VisitDim(int dim, R otherwise, F&& f) {
  switch (dim) {
#define PARHC_VISIT_DIM_CASE(D) \
  case D:                       \
    return f(std::integral_constant<int, D>{});
    PARHC_FOR_EACH_DIM(PARHC_VISIT_DIM_CASE)
#undef PARHC_VISIT_DIM_CASE
    default:
      return otherwise;
  }
}

/// The listed widths in list order (the `hello` dim caps).
#define PARHC_DIM_ITEM(D) D,
inline constexpr int kSupportedDims[] = {PARHC_FOR_EACH_DIM(PARHC_DIM_ITEM)};
#undef PARHC_DIM_ITEM

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

  /// AnswerQuery's EMST step (engine/artifact_util.h): a static set's DAG
  /// EMST (DatasetArtifacts::Emst), a dynamic set's forest EMST. The
  /// router's mirror of a sharded set answers through this directly.
  virtual bool Emst(bool need_dendro, bool allow_build, EngineResponse* out,
                    EmstView* view) = 0;

  /// AnswerQuery's clustering step (DatasetArtifacts::Clustering) on the
  /// set's DAG — for a dynamic set, the DAG over its live points.
  virtual bool Clustering(int min_pts, bool need_plot, bool allow_build,
                          EngineResponse* out, ClusteringView* view) = 0;

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
  // runs on the build executor. Both run the single-node code, so the
  // router's merged kNN rows are bit-identical to a single node's.

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

/// The static entry over `pts` (non-empty). Defined in engine/registry.cc
/// and instantiated there for every listed width only.
template <int D>
std::shared_ptr<DatasetEntryBase> MakeStaticEntry(std::vector<Point<D>> pts);

/// The static entry over the `n` points whose coordinates `coords` holds
/// row-major (the router's mirror of a sharded set, in dense order); null
/// when `dim` is not a listed width.
std::shared_ptr<DatasetEntryBase> MakeStaticEntry(
    int dim, const std::vector<double>& coords, size_t n);

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

class DatasetRegistry {
 public:
  /// Dimensions the registry can host (one template instantiation each).
  static constexpr bool SupportedDim(int dim) {
    return VisitDim(dim, false, [](auto) { return true; });
  }

  /// Registers (or atomically replaces) `name` with typed points.
  template <int D>
  void Add(const std::string& name, std::vector<Point<D>> pts) {
    static_assert(SupportedDim(D), "D is not listed in PARHC_FOR_EACH_DIM");
    PARHC_CHECK_MSG(!pts.empty(), "dataset must be non-empty");
    Insert(name, MakeStaticEntry<D>(std::move(pts)));
  }

  /// Registers `name` from runtime-dimension rows (all rows one
  /// dimension). Returns an empty string on success, else an error message
  /// — runtime data problems are query-path errors, not invariants, so
  /// this never aborts.
  std::string TryAddRows(const std::string& name,
                         const std::vector<std::vector<double>>& rows);

  /// Loads the binary point format, dispatching on the header's dimension
  /// and bulk-reading straight into typed points (no parsing, no per-row
  /// allocation). Returns an empty string on success or an error message
  /// for unsupported dimensions, empty files or non-finite coordinates;
  /// propagates the readers' std::runtime_error for unreadable or
  /// malformed files.
  std::string TryAddBin(const std::string& name, const std::string& path);

  /// Registers (or atomically replaces) `name` as an empty batch-dynamic
  /// dataset of the given dimension. Returns "" on success.
  std::string TryAddDynamic(const std::string& name, int dim);

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
                              const std::string& dir);

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
  void Insert(const std::string& name,
              std::shared_ptr<DatasetEntryBase> entry) {
    std::lock_guard<std::mutex> lock(mu_);
    entries_[name] = std::move(entry);
  }

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<DatasetEntryBase>> entries_;
};

}  // namespace parhc
