// Per-dataset artifact cache: the memoized pipeline DAG of the clustering
// engine.
//
//              points
//                |
//              kd-tree ------------------+
//                |                       |
//          kNN prefixes @K             EMST  -->  single-linkage dendrogram
//                |                       |              |
//         core distances @m           weight        k-clusters labels
//                |
//     mutual-reachability MST @m
//                |
//          dendrogram @m
//           /    |     \
//   DBSCAN*@eps  reach  stable clusters
//
// Every node is built at most once per parameterization and reused by later
// queries. The key reuse rule (the engine's algorithmic win): the kNN
// prefix matrix is kept at K = the largest minPts seen, and the core
// distances for any m <= K are the m-th column of that matrix —
// bit-identical to a direct CoreDistances(tree, m) pass, because both are
// the square root of the exact m-th smallest squared neighbor distance. A
// minPts sweep therefore costs one kNN pass plus per-m MST + dendrogram
// rebuilds, and eps / min-cluster-size / reachability queries at an
// already-seen minPts touch only the cached dendrogram.
//
// Invalidation (two backends, one model):
//  * This file is the *immutable* backend: datasets never change, so
//    artifacts never go stale. Growing K installs a wider prefix matrix
//    (versioned behind a shared_ptr; readers of the old width finish on
//    their snapshot); derived artifacts keep their values (prefixes of a
//    longer sorted neighbor list are unchanged). Per-minPts clusterings
//    are LRU-capped (kMaxCachedClusterings) to bound memory; eviction is
//    safe because responses hold shared_ptr snapshots. Removing or
//    replacing a dataset drops the whole cache.
//  * The *mutable* backend (dynamic/artifacts.h) stores points as an LSM
//    shard forest and splits the EMST into a shard-local part (keyed by
//    shard content id: per-shard trees and EMSTs survive any mutation
//    that leaves their shard untouched, and a tombstoned shard's EMST
//    seeds its exact repair), a cross-shard part (per shard pair,
//    invalidated exactly when either side's content changes), and a
//    forest-global part keyed by the forest mutation epoch: the global
//    Kruskal result and its dendrogram. Its HDBSCAN* branch is this DAG:
//    one instance over the live points, created per mutation epoch, so
//    its answers are those of a static set holding the same points. An
//    insert therefore dirties only the new shard's artifacts, the cross
//    edges that mention it, and the global tier — never surviving shard
//    artifacts.
//
// Queries go through AnswerQuery (engine/artifact_util.h), the validation
// and response fill shared with the dynamic and router backends; this file
// supplies the EMST and per-minPts MR-MST nodes, plus the eps EMST path
// that only static datasets serve. A static dataset owns one DAG, a
// dynamic set one over its live points, and the router's mirror of a
// sharded set is itself a static registry entry (MakeStaticEntry in
// engine/registry.h), so HDBSCAN* runs here wherever it is served, and so
// does the router's EMST. The kNN frame (rows of arbitrary query points,
// which the router merges across workers) runs on the cached kd-tree too
// (KnnForQueries). Serving code reaches this class only through
// engine/registry.cc, which instantiates it once per registry width.
//
// Thread safety (the shard forest around a dynamic set's DAG and the
// router's mirror around its DAG rely on their owner's lock instead):
// every DAG node is a monitor-guarded state machine absent -> building ->
// ready, run by Node(). A builder claims the node's key in `building_`
// under `state_mu_`, runs the (possibly long, parallel) build OUTSIDE the
// lock, installs the result, and broadcasts `state_cv_`. Duplicate
// requests for the same node wait on the condition variable and come back
// with the builder's shared_ptr — exactly one build ever runs per node.
// Independent nodes (different datasets' artifacts trivially, and e.g.
// dendro@3 vs mst@5 of one dataset) build concurrently. The kNN matrix
// claims one key for every width, so a narrower matrix never replaces a
// wider one. The one cross-node constraint: MST-family builds
// (HdbscanMstOnTree / EmstMemoGfkOnTree) rewrite the kd-tree's annotation
// arrays (core-distance + component fields), so they serialize on
// `tree_annot_mu_`; kNN search and snapshot writes read only the tree's
// geometry and proceed concurrently. Answer(allow_build = false) is the
// read-only path: it never blocks on a build (a node mid-build reads as
// absent) and touches no mutable state beyond brief `state_mu_` critical
// sections and the atomic LRU clock.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "emst/emst_highdim.h"
#include "emst/emst_memogfk.h"
#include "engine/artifact_util.h"
#include "engine/request.h"
#include "hdbscan/hdbscan_mst.h"
#include "obs/trace.h"
#include "spatial/knn.h"
#include "store/artifact_io.h"
#include "store/manifest.h"
#include "store/mapped_array.h"

namespace parhc {

/// Upper bound on simultaneously cached per-minPts clusterings (MST +
/// dendrogram + plot) per dataset; least-recently-used entries are evicted.
inline constexpr size_t kMaxCachedClusterings = 8;

template <int D>
class DatasetArtifacts {
 public:
  explicit DatasetArtifacts(std::vector<Point<D>> pts)
      : pts_(std::move(pts)) {}

  /// Empty shell for LoadFrom (the snapshot store's two-phase
  /// construction); not a valid dataset until LoadFrom succeeds.
  DatasetArtifacts() = default;

  size_t num_points() const { return pts_.size(); }
  const std::vector<Point<D>>& points() const { return pts_; }
  /// K of the cached kNN prefix matrix (0 when no kNN pass has run).
  size_t knn_k() const {
    std::lock_guard<std::mutex> lk(state_mu_);
    return knn_ ? knn_->k : 0;
  }
  size_t num_cached_clusterings() const {
    std::lock_guard<std::mutex> lk(state_mu_);
    return hdbscan_.size();
  }

  /// Answers `req` into `out`, building missing artifacts when
  /// `allow_build`. Returns false iff an artifact was missing (or mid-
  /// build) and building was not allowed — the caller should retry on the
  /// build path; invalid requests return true with out->ok == false.
  bool Answer(const EngineRequest& req, bool allow_build,
              EngineResponse* out) {
    if (req.type == QueryType::kEmst && req.emst_eps >= 0) {
      std::shared_ptr<const HighDimEntry> e =
          HighDimEmstAt(req.emst_eps, allow_build, out);
      if (!e) return false;
      out->mst = e->mst;
      out->mst_weight = e->mst_weight;
      out->approx_eps = req.emst_eps;
      out->partitions = e->info.partitions;
      out->cross_pruned = e->info.cross_pruned;
      out->ok = true;
      return true;
    }
    return AnswerQuery(
        req, pts_.size(), out,
        [&](bool need_dendro, EmstView* v) {
          return Emst(need_dendro, allow_build, out, v);
        },
        [&](int min_pts, bool need_plot, ClusteringView* v) {
          return Clustering(min_pts, need_plot, allow_build, out, v);
        });
  }

  /// kNN rows of arbitrary query points against this set (KnnSquaredRows:
  /// sorted squared distances, +inf-padded past num_points()), on the
  /// cached kd-tree, which this builds on first use. Issues parallel work.
  std::vector<double> KnnForQueries(const std::vector<Point<D>>& queries,
                                    size_t k) {
    if (pts_.empty()) {
      return std::vector<double>(queries.size() * k,
                                 std::numeric_limits<double>::infinity());
    }
    EngineResponse unused;
    return KnnSquaredRows(*Tree(/*allow_build=*/true, &unused), queries, k);
  }

  /// EMST + optional single-linkage dendrogram into *view. Returns false
  /// iff something was missing and !allow_build.
  bool Emst(bool need_dendro, bool allow_build, EngineResponse* out,
            EmstView* view) {
    auto get = [&] { return emst_.mst; };
    auto mst = Node("emst", allow_build, out, get, [&] {
      std::shared_ptr<KdTree<D>> tree = Tree(allow_build, out);
      std::shared_ptr<const std::vector<WeightedEdge>> m;
      {
        // EMST builds rewrite the shared tree's annotation arrays.
        std::lock_guard<std::mutex> annot(tree_annot_mu_);
        m = std::make_shared<const std::vector<WeightedEdge>>(
            EmstMemoGfkOnTree(*tree));
      }
      std::lock_guard<std::mutex> lk(state_mu_);
      emst_.mst = m;
      emst_.mst_weight = TotalEdgeWeight(*m);
      return m;
    });
    if (!mst) return false;
    auto get_dendro = [&] { return emst_.dendrogram; };
    auto build_dendro = [&] {
      return Publish(emst_.dendrogram, BuildDendro(*mst));
    };
    if (need_dendro &&
        !Node("sl-dendro", allow_build, out, get_dendro, build_dendro)) {
      return false;
    }
    std::lock_guard<std::mutex> lk(state_mu_);
    *view = emst_;
    return true;
  }

  /// The per-minPts clustering, with the MST, dendrogram and (on demand)
  /// reachability plot copied into *view. Returns false iff something was
  /// missing and !allow_build.
  bool Clustering(int min_pts, bool need_plot, bool allow_build,
                  EngineResponse* out, ClusteringView* view) {
    const std::string suffix = "@" + std::to_string(min_pts);
    auto get = [&] { return Find(hdbscan_, min_pts); };
    std::shared_ptr<ClusteringEntry> e = Node(
        "mst" + suffix, allow_build, out, get, [&] {
          auto entry = std::make_shared<ClusteringEntry>();
          entry->core_dist = CoreDist(min_pts, allow_build, out);
          std::shared_ptr<KdTree<D>> tree = Tree(allow_build, out);
          {
            // MST builds rewrite the shared tree's annotation arrays.
            std::lock_guard<std::mutex> annot(tree_annot_mu_);
            entry->mst = std::make_shared<const std::vector<WeightedEdge>>(
                HdbscanMstOnTree(*tree, *entry->core_dist));
          }
          entry->mst_weight = TotalEdgeWeight(*entry->mst);
          std::lock_guard<std::mutex> lk(state_mu_);
          hdbscan_.emplace(min_pts, entry);
          // Never evict an entry a dendrogram or plot builder is extending.
          EvictLruClusterings(min_pts);
          return entry;
        });
    if (!e) return false;
    auto get_dendro = [&] { return e->dendrogram; };
    auto build_dendro = [&] {
      return Publish(e->dendrogram, BuildDendro(*e->mst));
    };
    std::shared_ptr<const Dendrogram> dendro =
        Node("dendro" + suffix, allow_build, out, get_dendro, build_dendro);
    if (!dendro) return false;
    auto get_plot = [&] { return e->plot; };
    auto build_plot = [&] {
      auto plot = std::make_shared<const ReachabilityPlot>(
          ComputeReachability(*dendro));
      return Publish(e->plot, plot);
    };
    if (need_plot &&
        !Node("reach" + suffix, allow_build, out, get_plot, build_plot)) {
      return false;
    }
    std::lock_guard<std::mutex> lk(state_mu_);
    *view = *e;
    Touch(*e);
    return true;
  }

  /// Writes every cached artifact plus the manifest into `dir` (created
  /// if needed). Takes a consistent shared_ptr snapshot of the DAG under
  /// `state_mu_`, then streams files with no lock held — concurrent
  /// queries and builds keep going (tree snapshots store only geometry,
  /// never the annotation arrays MST builds rewrite). Raises
  /// SnapshotError subtypes.
  void SaveTo(const std::string& dir) const {
    std::shared_ptr<KdTree<D>> tree;
    std::shared_ptr<const KnnMatrix> knn;
    EmstView emst;
    std::vector<std::pair<int, ClusteringView>> clusterings;
    {
      std::lock_guard<std::mutex> lk(state_mu_);
      tree = tree_;
      knn = knn_;
      emst = emst_;
      clusterings.reserve(hdbscan_.size());
      for (const auto& [min_pts, e] : hdbscan_) {
        clusterings.emplace_back(min_pts, *e);
      }
    }
    EnsureDatasetDir(dir);
    StaticManifest m;
    m.dim = D;
    m.n = pts_.size();
    m.points_file = PointsFileName();
    SavePointsSnapshot<D>(dir + "/" + m.points_file, pts_);
    if (tree) {
      m.tree_file = TreeFileName();
      SaveKdTreeSnapshot<D>(dir + "/" + m.tree_file, *tree);
    }
    if (knn) {
      m.knn_file = KnnFileName();
      m.knn_k = knn->k;
      SaveMatrixSnapshot(dir + "/" + m.knn_file, D, pts_.size(), knn->k,
                         knn->data.data());
    }
    if (emst.mst) {
      m.emst_file = EmstFileName();
      SaveEdgesSnapshot(dir + "/" + m.emst_file, *emst.mst, /*param=*/0);
      if (emst.dendrogram) {
        m.sl_dendro_file = SlDendroFileName();
        SaveDendrogramSnapshot(dir + "/" + m.sl_dendro_file,
                               *emst.dendrogram, /*param=*/0);
      }
    }
    for (const auto& [min_pts, v] : clusterings) {
      ClusteringManifestEntry c;
      c.min_pts = static_cast<uint32_t>(min_pts);
      c.mst_file = MstFileName(min_pts);
      SaveEdgesSnapshot(dir + "/" + c.mst_file, *v.mst, min_pts);
      if (v.dendrogram) {
        c.has_dendrogram = true;
        c.dendro_file = DendroFileName(min_pts);
        SaveDendrogramSnapshot(dir + "/" + c.dendro_file, *v.dendrogram,
                               min_pts);
      }
      m.clusterings.push_back(std::move(c));
    }
    WriteStaticManifest(dir + "/" + kManifestFileName, m);
  }

  /// Populates this default-constructed instance from a directory written
  /// by SaveTo: the kd-tree arena and kNN prefix matrix come back as
  /// zero-copy views of the mapped files; per-minPts core distances
  /// re-derive from the prefix columns (bit-identical, see the DAG notes
  /// above). Runs pre-publication on a fresh instance (no concurrent
  /// access). Raises SnapshotError subtypes; discard the instance on
  /// throw.
  void LoadFrom(const std::string& dir) {
    StaticManifest m = ReadStaticManifest(dir + "/" + kManifestFileName);
    if (m.dim != D) {
      throw SnapshotSchemaError(dir + ": manifest dimension " +
                                std::to_string(m.dim) + ", expected " +
                                std::to_string(D));
    }
    if (m.n < 1) throw SnapshotSchemaError(dir + ": empty dataset");
    pts_ = LoadPointsSnapshot<D>(dir + "/" + m.points_file);
    if (pts_.size() != m.n) {
      throw SnapshotSchemaError(dir + ": point count disagrees with manifest");
    }
    if (!m.tree_file.empty()) {
      tree_ = LoadKdTreeSnapshot<D>(dir + "/" + m.tree_file);
      if (tree_->size() != pts_.size()) {
        throw SnapshotSchemaError(dir + ": tree size disagrees with manifest");
      }
    }
    if (!m.knn_file.empty()) {
      LoadedMatrix mat = LoadMatrixSnapshot(dir + "/" + m.knn_file, D);
      if (mat.n != m.n || mat.k != m.knn_k) {
        throw SnapshotSchemaError(dir +
                                  ": kNN matrix disagrees with manifest");
      }
      auto knn = std::make_shared<KnnMatrix>();
      knn->data = MappedArray<double>(mat.data, mat.keepalive);
      knn->k = mat.k;
      knn_ = std::move(knn);
    }
    if (!m.emst_file.empty()) {
      std::vector<WeightedEdge> edges =
          LoadEdgesSnapshot(dir + "/" + m.emst_file, /*param=*/0, m.n);
      if (edges.size() + 1 != m.n) {
        throw SnapshotSchemaError(dir + ": EMST edge count mismatch");
      }
      emst_.mst_weight = TotalEdgeWeight(edges);
      emst_.mst = std::make_shared<const std::vector<WeightedEdge>>(
          std::move(edges));
      if (!m.sl_dendro_file.empty()) {
        emst_.dendrogram = LoadDendrogramSnapshot(
            dir + "/" + m.sl_dendro_file, /*param=*/0, m.n);
      }
    }
    EngineResponse scratch;  // loads do not report artifact traces
    size_t loaded_k = knn_ ? knn_->k : 0;
    for (const ClusteringManifestEntry& c : m.clusterings) {
      if (c.min_pts < 1 || c.min_pts > loaded_k) {
        // Core distances re-derive from the prefix matrix, so a cached
        // clustering without kNN coverage cannot have been written by
        // SaveTo.
        throw SnapshotSchemaError(dir + ": clustering@" +
                                  std::to_string(c.min_pts) +
                                  " lacks kNN prefix coverage");
      }
      auto entry = std::make_shared<ClusteringEntry>();
      entry->core_dist =
          CoreDist(static_cast<int>(c.min_pts), /*allow_build=*/true,
                   &scratch);
      std::vector<WeightedEdge> edges = LoadEdgesSnapshot(
          dir + "/" + c.mst_file, c.min_pts, m.n);
      if (edges.size() + 1 != m.n) {
        throw SnapshotSchemaError(dir + ": MR-MST edge count mismatch at " +
                                  std::to_string(c.min_pts));
      }
      entry->mst_weight = TotalEdgeWeight(edges);
      entry->mst = std::make_shared<const std::vector<WeightedEdge>>(
          std::move(edges));
      if (c.has_dendrogram) {
        entry->dendrogram = LoadDendrogramSnapshot(
            dir + "/" + c.dendro_file, c.min_pts, m.n);
      }
      Touch(*entry);
      hdbscan_.emplace(static_cast<int>(c.min_pts), std::move(entry));
    }
  }

 private:
  /// Versioned kNN prefix matrix: installed whole, never mutated, only
  /// replaced by a wider one. Readers keep their snapshot's stride.
  struct KnnMatrix {
    MappedArray<double> data;  ///< n x k, row-major by point id
    size_t k = 0;
  };

  /// One high-dimensional (partitioned) EMST build, keyed by its eps
  /// bound. Immutable once published; rebuilt on demand after a snapshot
  /// warm start (derived cache, deliberately not persisted by SaveTo).
  struct HighDimEntry {
    std::shared_ptr<const std::vector<WeightedEdge>> mst;
    double mst_weight = 0;
    HighDimEmstInfo info;
  };

  /// A claim on node `key` in `building_`. Taking it waits (on `lk`, which
  /// holds `state_mu_`) until no other thread holds the key. Scope exit
  /// releases it and wakes the waiters, re-locking `lk` if the build
  /// unlocked it, so a throwing build never wedges its waiters.
  class Claim {
   public:
    Claim(DatasetArtifacts* self, std::unique_lock<std::mutex>& lk,
          std::string key)
        : self_(self), lk_(lk), key_(std::move(key)) {
      self_->state_cv_.wait(
          lk_, [&] { return self_->building_.count(key_) == 0; });
      self_->building_.insert(key_);
    }
    Claim(const Claim&) = delete;
    Claim& operator=(const Claim&) = delete;
    ~Claim() {
      if (!lk_.owns_lock()) lk_.lock();
      self_->building_.erase(key_);
      self_->state_cv_.notify_all();
    }

   private:
    DatasetArtifacts* self_;
    std::unique_lock<std::mutex>& lk_;
    std::string key_;
  };

  /// A cached clustering plus its LRU stamp; slicing to ClusteringView
  /// copies the artifact pointers.
  struct ClusteringEntry : ClusteringView {
    std::atomic<uint64_t> last_used{0};
  };

  /// Stamps `e` as most recently used. Safe on the read-only query path
  /// (atomics only).
  void Touch(ClusteringEntry& e) {
    e.last_used.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
  }

  /// Drops least-recently-used clusterings beyond kMaxCachedClusterings
  /// (under `state_mu_`), never `keep_min_pts` nor one whose dendrogram or
  /// plot a builder is still extending. Snapshots held by responses stay
  /// valid. The matching core distances go too — they re-derive from the
  /// kNN prefixes in O(n) — so per-minPts memory really is bounded.
  void EvictLruClusterings(int keep_min_pts) {
    while (hdbscan_.size() > kMaxCachedClusterings) {
      auto victim = hdbscan_.end();
      uint64_t oldest = std::numeric_limits<uint64_t>::max();
      for (auto it = hdbscan_.begin(); it != hdbscan_.end(); ++it) {
        const std::string at = "@" + std::to_string(it->first);
        if (it->first == keep_min_pts || building_.count("dendro" + at) != 0 ||
            building_.count("reach" + at) != 0) {
          continue;
        }
        uint64_t used = it->second->last_used.load(std::memory_order_relaxed);
        if (used < oldest) {
          oldest = used;
          victim = it;
        }
      }
      if (victim == hdbscan_.end()) return;
      core_.erase(victim->first);
      hdbscan_.erase(victim);
    }
  }

  static void Trace(EngineResponse* out, bool built, const std::string& key) {
    TraceArtifact(out, built, key);
  }

  /// The monitor step of one DAG node. `get()` reads the node under
  /// `state_mu_` (null = absent); a hit is traced as reused. On a miss
  /// with `allow_build`, the caller waits while another thread builds
  /// `key` and re-reads; still absent, it becomes the node's one builder:
  /// `build()` runs outside the lock and publishes its result under
  /// `state_mu_`, and `key` is traced as built. Null iff absent and
  /// !allow_build.
  template <typename Get, typename Build>
  auto Node(const std::string& key, bool allow_build, EngineResponse* out,
            const Get& get, const Build& build) -> decltype(get()) {
    std::unique_lock<std::mutex> lk(state_mu_);
    decltype(get()) v = get();
    if (!v && allow_build) {
      Claim claim(this, lk, key);
      v = get();  // built while we waited
      if (!v) {
        lk.unlock();
        obs::Span span(BuildSpanName(key), "engine");
        v = build();
        Trace(out, /*built=*/true, key);
        return v;
      }
    }
    lk.unlock();
    if (v) Trace(out, /*built=*/false, key);
    return v;
  }

  /// Installs a freshly built value into `slot` under `state_mu_`.
  template <typename T>
  T Publish(T& slot, T v) {
    std::lock_guard<std::mutex> lk(state_mu_);
    slot = v;
    return v;
  }

  std::shared_ptr<KdTree<D>> Tree(bool allow_build, EngineResponse* out) {
    return Node("tree", allow_build, out, [&] { return tree_; }, [&] {
      return Publish(tree_, std::make_shared<KdTree<D>>(pts_, /*leaf_size=*/1));
    });
  }

  /// kNN prefix matrix covering at least k columns (grows to the max
  /// seen). Owned when built in RAM, a zero-copy mapped view after a
  /// snapshot load; growing K past a loaded width rebuilds an owned copy.
  /// Node's protocol with two kNN rules: a hit is traced with the width
  /// served, and every width claims the one key "knn", so a build waits
  /// while any width is being built and a narrower matrix never replaces
  /// a wider one.
  std::shared_ptr<const KnnMatrix> Prefixes(size_t k, bool allow_build,
                                            EngineResponse* out) {
    std::unique_lock<std::mutex> lk(state_mu_);
    auto wide_enough = [&] { return knn_ && knn_->k >= k; };
    if (!wide_enough() && allow_build) {
      Claim claim(this, lk, "knn");
      if (!wide_enough()) {
        lk.unlock();
        const std::string key = "knn@" + std::to_string(k);
        obs::Span span(BuildSpanName(key), "engine");
        std::shared_ptr<KdTree<D>> tree = Tree(allow_build, out);
        auto mat = std::make_shared<KnnMatrix>();
        mat->data = AllKnnDistances(*tree, k);
        mat->k = k;
        Publish<std::shared_ptr<const KnnMatrix>>(knn_, mat);
        Trace(out, /*built=*/true, key);
        return mat;
      }
    }
    if (!wide_enough()) return nullptr;
    Trace(out, /*built=*/false, "knn@" + std::to_string(knn_->k));
    return knn_;
  }

  /// Core distances for min_pts, derived from the prefix matrix column.
  std::shared_ptr<const std::vector<double>> CoreDist(int min_pts,
                                                      bool allow_build,
                                                      EngineResponse* out) {
    return Node(
        "cd@" + std::to_string(min_pts), allow_build, out,
        [&] { return Find(core_, min_pts); },
        [&]() -> std::shared_ptr<const std::vector<double>> {
          std::shared_ptr<const KnnMatrix> prefix =
              Prefixes(static_cast<size_t>(min_pts), allow_build, out);
          size_t n = pts_.size();
          size_t stride = prefix->k;
          auto cd = std::make_shared<std::vector<double>>(n);
          ParallelFor(0, n, [&](size_t i) {
            (*cd)[i] = prefix->data[i * stride + (min_pts - 1)];
          });
          std::lock_guard<std::mutex> lk(state_mu_);
          core_.emplace(min_pts, cd);
          return cd;
        });
  }

  /// Partitioned high-dimensional EMST at `eps` (exact decomposition when
  /// eps == 0; see emst/emst_highdim.h). Null iff missing and
  /// !allow_build.
  std::shared_ptr<const HighDimEntry> HighDimEmstAt(double eps,
                                                    bool allow_build,
                                                    EngineResponse* out) {
    char key[48];
    std::snprintf(key, sizeof(key), "emst-hd@%g", eps);
    auto build = [&]() -> std::shared_ptr<const HighDimEntry> {
      auto entry = std::make_shared<HighDimEntry>();
      HighDimEmstOptions opts;
      opts.eps = eps;
      // Builds private partition trees (never the shared annotated tree_),
      // so no tree_annot_mu_ — eps builds run concurrently with everything.
      entry->mst = std::make_shared<const std::vector<WeightedEdge>>(
          HighDimEmst(pts_, opts, &entry->info));
      entry->mst_weight = TotalEdgeWeight(*entry->mst);
      std::lock_guard<std::mutex> lk(state_mu_);
      highdim_[eps] = entry;
      return entry;
    };
    return Node(key, allow_build, out, [&] { return Find(highdim_, eps); },
                build);
  }

  /// The mapped value at `key`, or null.
  template <typename Map, typename K>
  static typename Map::mapped_type Find(const Map& m, const K& key) {
    auto it = m.find(key);
    return it == m.end() ? nullptr : it->second;
  }

  std::shared_ptr<const Dendrogram> BuildDendro(
      const std::vector<WeightedEdge>& edges) const {
    return BuildDendrogramArtifact(pts_.size(), edges);
  }

  std::vector<Point<D>> pts_;

  // DAG node storage. Every field below is read/written only under
  // `state_mu_` (builds run outside it; see the file comment's monitor
  // protocol). `tree_annot_mu_` additionally serializes the MST-family
  // builds that rewrite the kd-tree's annotation arrays.
  mutable std::mutex state_mu_;
  mutable std::condition_variable state_cv_;
  std::mutex tree_annot_mu_;

  std::shared_ptr<KdTree<D>> tree_;
  std::shared_ptr<const KnnMatrix> knn_;
  std::map<int, std::shared_ptr<const std::vector<double>>> core_;
  std::map<int, std::shared_ptr<ClusteringEntry>> hdbscan_;
  EmstView emst_;
  std::map<double, std::shared_ptr<const HighDimEntry>> highdim_;
  std::set<std::string> building_;  ///< keys of the nodes being built

  std::atomic<uint64_t> clock_{0};
};

}  // namespace parhc
