// Batch-dynamic artifact cache: the mutable-dataset backend of the
// clustering engine (the immutable backend is engine/artifacts.h).
//
// Points live in an LSM shard forest (forest.h). Every pipeline artifact is
// assigned to one of three invalidation tiers:
//
//   shard tier    per-shard kd-tree and EMST edge list, cached inside the
//                 shard object; survive any mutation that leaves the shard
//                 untouched (keyed implicitly by shard content id). A
//                 tombstone keeps the shard's EMST edges as seeds of an
//                 exact repair (shard.h).
//   cross tier    per shard *pair*: the Euclidean cross candidate edges
//                 (well-separated cross decomposition + cross BCCP, s = 2),
//                 cached by content-id pair — stale exactly when either
//                 side's live content changes.
//   global tier   everything derived from the whole forest: the dense gid
//                 map, the global EMST and its dendrogram, and the live-set
//                 DAG (HDBSCAN*); dropped by every mutation.
//
//            shard tier             cross tier          global tier
//   shard i: tree, EMST (seeds) --+
//                                 +-- cross(i,j) --> Kruskal --> EMST
//   shard j: tree, EMST (seeds) --+
//   all live points, dense order --> live-set DAG (engine/artifacts.h):
//                                    tree -> kNN -> cd@m -> MR-MST@m -> ...
//
// The EMST uses the distance-decomposition rule (Lettich,
// arXiv:2406.01739): the MST of a union of parts is contained in the union
// of the parts' MSTs plus cross-part candidate edges. A small insert
// therefore pays its own shard build + EMST, one cross pass against each
// surviving shard, and a Kruskal over ~n cached edges — not an O(n) tree
// + MST rebuild; a delete re-runs only the tombstoned shard's MemoGFK,
// seeded with its surviving EMST edges.
//
// HDBSCAN* gains nothing from cached parts: mutual-reachability weights
// change with every core-distance epoch. So it is exactly the static
// computation over the live points: one DatasetArtifacts over the live
// points in dense order, created by the first clustering read or kNN frame
// of a mutation epoch and dropped by the next mutation. Its core distances
// are bit-identical and its MR-MST edge-identical to a from-scratch
// HdbscanMst over the live points; its replies name the artifacts it
// builds (tree, knn@K, cd@m, mst@m, ...) as a static set's do. This
// backend keeps only the dense -> gid mapping (point_ids).
//
// Queries go through AnswerQuery (engine/artifact_util.h), the validation
// and response fill shared with the static and router backends; cross
// candidates come from CrossWspdEdges (spatial/cross_traverse.h), the one
// cross step shared with the high-dimensional EMST. Every
// artifact built gets a trace span: the live-set DAG's build:<key> spans,
// and the fixed names build:semst, build:xemst and build:forest-emst for
// the EMST tiers, whose keys carry content ids that grow without bound
// under churn.
//
// Per-point outputs (core distances, labels, dendrograms, MST endpoints)
// use *dense* indices: position i corresponds to the i-th live global id in
// ascending order (EngineResponse::point_ids carries the mapping). Because
// the dense map is monotone in gid, all tie-breaks agree with a
// from-scratch build over the live points in gid order.
//
// Thread safety: the forest and the tiers here have none of their own; the
// engine front-end serializes mutations and builds (engine.h).
// Answer(allow_build = false) is the read-only path: it touches no mutable
// state here, and the live-set DAG is internally synchronized.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "dynamic/forest.h"
#include "engine/artifact_util.h"
#include "engine/artifacts.h"
#include "engine/request.h"
#include "graph/kruskal.h"
#include "obs/trace.h"
#include "spatial/cross_traverse.h"
#include "store/artifact_io.h"
#include "store/manifest.h"

namespace parhc {

template <int D>
class DynamicArtifacts {
 public:
  size_t num_points() const { return forest_.live_count(); }
  size_t num_shards() const { return forest_.num_shards(); }
  size_t num_tombstones() const { return forest_.dead_count(); }
  size_t knn_k() const { return live_ ? live_->knn_k() : 0; }
  size_t num_cached_clusterings() const {
    return live_ ? live_->num_cached_clusterings() : 0;
  }
  uint32_t next_gid() const { return forest_.next_gid(); }
  /// Entries in the dense gid map — O(live points) by construction;
  /// regression-tested against churn alongside the forest locator.
  size_t dense_map_size() const { return dense_of_gid_.size(); }
  const ShardForest<D>& forest() const { return forest_; }

  /// Inserts one batch; returns the first assigned global id. Invalidates
  /// the global tier (cached cross edges and shard artifacts survive).
  uint32_t InsertBatch(std::vector<Point<D>> pts) {
    uint32_t first = forest_.InsertBatch(std::move(pts));
    InvalidateGlobalTier();
    return first;
  }

  /// Tombstones the given global ids; returns the number deleted.
  size_t DeleteBatch(const std::vector<uint32_t>& gids) {
    size_t deleted = forest_.DeleteBatch(gids);
    if (deleted > 0) InvalidateGlobalTier();
    return deleted;
  }

  /// Live points in ascending-gid order — the router tier's export/mirror
  /// surface (net kOpExportPoints), merged from the shards' live lists;
  /// the engine calls it under the entry's exclusive lock.
  void ExportLive(std::vector<uint32_t>* gids, std::vector<Point<D>>* pts) {
    gids->clear();
    pts->clear();
    gids->reserve(forest_.live_count());
    pts->reserve(forest_.live_count());
    forest_.ForEachLive([&](uint32_t gid, const Point<D>& p) {
      gids->push_back(gid);
      pts->push_back(p);
    });
  }

  /// kNN rows of arbitrary query points against the live points (net
  /// kOpKnnQuery, the router's client kNN fan-out; see
  /// DatasetArtifacts::KnnForQueries), on the live-set DAG's tree, which
  /// the epoch's clustering reads reuse. Issues parallel work and may
  /// build the DAG, so the engine runs this on the build executor under
  /// the exclusive lock.
  std::vector<double> KnnForQueries(const std::vector<Point<D>>& queries,
                                    size_t k) {
    return LiveSet().KnnForQueries(queries, k);
  }

  /// Same contract as DatasetArtifacts::Answer.
  bool Answer(const EngineRequest& req, bool allow_build,
              EngineResponse* out) {
    bool answered = AnswerQuery(
        req, forest_.live_count(), out,
        [&](bool need_dendro, EmstView* v) {
          return Emst(need_dendro, allow_build, out, v);
        },
        [&](int min_pts, bool need_plot, ClusteringView* v) {
          if (!live_ && !allow_build) return false;
          return LiveSet().Clustering(min_pts, need_plot, allow_build, out, v);
        });
    if (out->ok) out->point_ids = ids_dense_;
    return answered;
  }

  /// Writes the forest (per-shard files: full point batches + tombstone
  /// bitmaps + cached shard EMSTs, never repair seeds) plus the cached
  /// cross-edge tier and the manifest into `dir`. Read-only — no lazy
  /// artifact builds run — so it is safe under the engine's shared lock,
  /// concurrently with cache-hit queries. Raises SnapshotError subtypes.
  void SaveTo(const std::string& dir) const {
    EnsureDatasetDir(dir);
    DynamicManifest m;
    m.dim = D;
    m.live_count = forest_.live_count();
    m.next_gid = forest_.next_gid();
    m.next_uid = forest_.next_uid();
    m.next_content_id = forest_.next_content_id();
    for (size_t i = 0; i < forest_.num_shards(); ++i) {
      const Shard<D>& s = forest_.shard(i);
      ShardManifestEntry e;
      e.uid = s.uid();
      e.content_id = s.content_id();
      e.has_emst = s.has_emst();
      e.file = ShardFileName(i);
      SaveShardSnapshot(dir + "/" + e.file, s);
      m.shards.push_back(std::move(e));
    }
    // The cross cache may hold entries keyed by content ids that a
    // delete/merge has since retired (PurgeStaleCrossEdges only runs
    // inside EMST builds, and SaveTo is const). Snapshot only the live
    // pairs: a stale entry can reference tombstoned endpoints, which
    // LoadFrom would (rightly) reject.
    std::vector<uint64_t> live_cids;
    live_cids.reserve(m.shards.size());
    for (const ShardManifestEntry& e : m.shards) {
      live_cids.push_back(e.content_id);
    }
    std::sort(live_cids.begin(), live_cids.end());
    auto alive = [&](uint64_t cid) {
      return std::binary_search(live_cids.begin(), live_cids.end(), cid);
    };
    for (const auto& [key, edges] : cross_) {
      if (!alive(key.first) || !alive(key.second)) continue;
      CrossManifestEntry c;
      c.cid_a = key.first;
      c.cid_b = key.second;
      c.file = CrossFileName(key.first, key.second);
      SaveEdgesSnapshot(dir + "/" + c.file, edges, /*param=*/0);
      m.cross.push_back(std::move(c));
    }
    WriteDynamicManifest(dir + "/" + kManifestFileName, m);
  }

  /// Restores a default-constructed instance from a directory written by
  /// SaveTo: shard structure, tombstones, cached shard EMSTs and the
  /// cross-edge tier come back warm; the global tier (Kruskal results,
  /// dendrograms, the live-set DAG) rebuilds on first use. Raises
  /// SnapshotError subtypes; discard the instance on throw.
  void LoadFrom(const std::string& dir) {
    DynamicManifest m = ReadDynamicManifest(dir + "/" + kManifestFileName);
    if (m.dim != D) {
      throw SnapshotSchemaError(dir + ": manifest dimension " +
                                std::to_string(m.dim) + ", expected " +
                                std::to_string(D));
    }
    std::vector<std::unique_ptr<Shard<D>>> shards;
    std::unordered_set<uint64_t> uids;
    std::unordered_set<uint32_t> live_gids;
    uint64_t live = 0;
    for (const ShardManifestEntry& e : m.shards) {
      // Everything the forest's Restore CHECKs must be validated here
      // first: untrusted files raise, they never abort.
      if (e.uid >= m.next_uid || e.content_id >= m.next_content_id ||
          !uids.insert(e.uid).second) {
        throw SnapshotSchemaError(dir + ": shard identity out of range or " +
                                  "duplicated in manifest");
      }
      std::unique_ptr<Shard<D>> s =
          LoadShardSnapshot(dir + "/" + e.file, e, m.next_gid);
      for (uint32_t i = 0; i < s->gids().size(); ++i) {
        if (!s->dead(i) && !live_gids.insert(s->gids()[i]).second) {
          throw SnapshotFormatError(dir + ": live gid " +
                                    std::to_string(s->gids()[i]) +
                                    " appears in two shards");
        }
      }
      live += s->live_count();
      shards.push_back(std::move(s));
    }
    if (live != m.live_count) {
      throw SnapshotSchemaError(dir + ": live count disagrees with manifest");
    }
    forest_.Restore(std::move(shards), m.next_gid, m.next_uid,
                    m.next_content_id);
    for (const CrossManifestEntry& c : m.cross) {
      if (c.cid_a >= c.cid_b) {
        throw SnapshotSchemaError(dir +
                                  ": cross entry not in canonical order");
      }
      std::vector<WeightedEdge> edges =
          LoadEdgesSnapshot(dir + "/" + c.file, /*param=*/0, m.next_gid);
      for (const WeightedEdge& e : edges) {
        if (!forest_.IsLive(e.u) || !forest_.IsLive(e.v)) {
          throw SnapshotFormatError(dir + "/" + c.file +
                                    ": cross edge endpoint is not live");
        }
      }
      cross_.emplace(std::make_pair(c.cid_a, c.cid_b), std::move(edges));
    }
  }

 private:
  static constexpr uint64_t kNoEpoch = std::numeric_limits<uint64_t>::max();

  // --- shard snapshot IO (store) -----------------------------------------

  static void SaveShardSnapshot(const std::string& path, const Shard<D>& s) {
    SnapshotWriter w(SnapshotKind::kShard, D, s.total_count(), s.uid(),
                     s.content_id());
    w.AddSection(SectionId::kPointData, s.points().data(),
                 s.points().size());
    w.AddSection(SectionId::kShardGids, s.gids().data(), s.gids().size());
    w.AddSection(SectionId::kShardDead, s.dead_bitmap().data(),
                 s.dead_bitmap().size());
    if (s.has_emst()) {
      w.AddSection(SectionId::kEdgeData, s.cached_emst().data(),
                   s.cached_emst().size());
    }
    w.Write(path);
  }

  static std::unique_ptr<Shard<D>> LoadShardSnapshot(
      const std::string& path, const ShardManifestEntry& me,
      uint32_t next_gid) {
    SnapshotFile f(path);
    f.ExpectKind(SnapshotKind::kShard, D);
    if (f.param() != me.uid || f.aux() != me.content_id) {
      throw SnapshotSchemaError(path +
                                ": shard identity disagrees with manifest");
    }
    uint64_t n = f.count();
    if (n < 1) throw SnapshotSchemaError(path + ": empty shard");
    Span<const Point<D>> pts = f.section<Point<D>>(SectionId::kPointData);
    Span<const uint32_t> gids = f.section<uint32_t>(SectionId::kShardGids);
    Span<const uint8_t> dead = f.section<uint8_t>(SectionId::kShardDead);
    store_internal::RequireSectionSize(f, pts.size(), n, "shard points");
    store_internal::RequireSectionSize(f, gids.size(), n, "shard gids");
    store_internal::RequireSectionSize(f, dead.size(), n, "shard tombstones");
    store_internal::RequireFinitePoints(f, pts);
    size_t live = 0;
    for (uint64_t i = 0; i < n; ++i) {
      if (gids[i] >= next_gid || (i > 0 && gids[i - 1] >= gids[i])) {
        throw SnapshotFormatError(path +
                                  ": shard gids not ascending below next_gid");
      }
      live += dead[i] == 0;
    }
    if (live == 0) {
      throw SnapshotSchemaError(path + ": shard has no live points");
    }
    std::vector<WeightedEdge> emst;
    if (me.has_emst) {
      // The shard's cached EMST is an embedded section, in gid space over
      // the live points; reject endpoints this shard does not own (a
      // crafted or misfiled snapshot), which downstream candidate merging
      // would index by.
      Span<const WeightedEdge> edata =
          f.section<WeightedEdge>(SectionId::kEdgeData);
      emst.assign(edata.begin(), edata.end());
      auto owns_live = [&](uint32_t gid) {
        const uint32_t* it =
            std::lower_bound(gids.begin(), gids.end(), gid);
        return it != gids.end() && *it == gid &&
               dead[it - gids.begin()] == 0;
      };
      for (const WeightedEdge& e : emst) {
        if (!owns_live(e.u) || !owns_live(e.v)) {
          throw SnapshotFormatError(path +
                                    ": shard EMST endpoint not live here");
        }
      }
    }
    return std::make_unique<Shard<D>>(
        me.uid, me.content_id, std::vector<Point<D>>(pts.begin(), pts.end()),
        std::vector<uint32_t>(gids.begin(), gids.end()),
        std::vector<uint8_t>(dead.begin(), dead.end()), std::move(emst),
        me.has_emst);
  }

  void InvalidateGlobalTier() {
    emst_epoch_ = kNoEpoch;
    emst_ = EmstView();
    ids_dense_.reset();
    dense_of_gid_.clear();
    live_.reset();
  }

  // --- dense <-> gid mapping and the live-set DAG (global tier) ----------

  void EnsureDense() {
    if (ids_dense_ && dense_epoch_ == forest_.epoch()) return;
    auto ids =
        std::make_shared<const std::vector<uint32_t>>(forest_.LiveGids());
    // Hash map keyed by live gid only: like the forest's locator, the
    // dense mapping is O(live points), not O(historical gid space).
    dense_of_gid_.clear();
    dense_of_gid_.reserve(ids->size());
    for (uint32_t i = 0; i < ids->size(); ++i) {
      dense_of_gid_.emplace((*ids)[i], i);
    }
    ids_dense_ = std::move(ids);
    dense_epoch_ = forest_.epoch();
  }

  /// Dense index of a live gid (EnsureDense must be current).
  uint32_t DenseOf(uint32_t gid) const {
    auto it = dense_of_gid_.find(gid);
    PARHC_DCHECK(it != dense_of_gid_.end());
    return it->second;
  }

  /// The static artifact DAG over the live points in dense order (point
  /// index = dense index), created at most once per epoch.
  DatasetArtifacts<D>& LiveSet() {
    if (!live_) {
      EnsureDense();
      std::vector<Point<D>> pts;
      pts.reserve(forest_.live_count());
      forest_.ForEachLive(
          [&](uint32_t, const Point<D>& p) { pts.push_back(p); });
      live_ = std::make_unique<DatasetArtifacts<D>>(std::move(pts));
    }
    return *live_;
  }

  /// Kruskal over gid-space candidates, remapped to dense indices in
  /// place (concurrent const-only hash lookups are safe): the spanning
  /// tree of the live points, with dense endpoints.
  std::vector<WeightedEdge> DenseKruskal(std::vector<WeightedEdge> edges) const {
    ParallelFor(0, edges.size(), [&](size_t i) {
      edges[i].u = DenseOf(edges[i].u);
      edges[i].v = DenseOf(edges[i].v);
    });
    size_t n = forest_.live_count();
    std::vector<WeightedEdge> mst = KruskalMst(n, std::move(edges));
    PARHC_CHECK_MSG(mst.size() + 1 == n,
                    "shard-forest MST candidates did not span all points");
    return mst;
  }

  // --- cross candidate edges (cross tier) --------------------------------

  /// Euclidean cross candidates between two shards, in gid space.
  static std::vector<WeightedEdge> CrossCandidates(Shard<D>& sa,
                                                   Shard<D>& sb) {
    const KdTree<D>& ta = sa.tree();
    const KdTree<D>& tb = sb.tree();
    const std::vector<uint32_t>& ga = sa.live_gids();
    const std::vector<uint32_t>& gb = sb.live_gids();
    return CrossBccpEdges(
        ta, tb, [&](uint32_t i) { return ga[i]; },
        [&](uint32_t j) { return gb[j]; });
  }

  /// Drops cross-tier cache entries that mention a content id no longer in
  /// the forest (the shard was merged, compacted, or tombstoned).
  void PurgeStaleCrossEdges() {
    std::vector<uint64_t> cids;
    cids.reserve(forest_.num_shards());
    for (size_t i = 0; i < forest_.num_shards(); ++i) {
      cids.push_back(forest_.shard(i).content_id());
    }
    std::sort(cids.begin(), cids.end());
    auto alive = [&](uint64_t c) {
      return std::binary_search(cids.begin(), cids.end(), c);
    };
    for (auto it = cross_.begin(); it != cross_.end();) {
      if (!alive(it->first.first) || !alive(it->first.second)) {
        it = cross_.erase(it);
      } else {
        ++it;
      }
    }
  }

  // --- EMST family -------------------------------------------------------

  bool EnsureForestEmst(bool allow_build, EngineResponse* out) {
    if (emst_.mst && emst_epoch_ == forest_.epoch()) {
      TraceArtifact(out, /*built=*/false, "forest-emst");
      return true;
    }
    if (!allow_build) return false;
    // Literal span names: interning the content-id keys would grow the
    // tracer's intern table with every write (see the header comment).
    obs::Span span("build:forest-emst", "engine");
    EnsureDense();
    PurgeStaleCrossEdges();
    std::vector<WeightedEdge> candidates;
    for (size_t i = 0; i < forest_.num_shards(); ++i) {
      Shard<D>& s = forest_.shard(i);
      const std::string key = "semst@" + std::to_string(s.content_id());
      bool built = !s.has_emst();
      obs::Span shard_span(built ? "build:semst" : nullptr, "engine");
      const std::vector<WeightedEdge>& edges = s.EmstEdges();
      shard_span.End();
      TraceArtifact(out, built, key);
      candidates.insert(candidates.end(), edges.begin(), edges.end());
    }
    for (size_t i = 0; i < forest_.num_shards(); ++i) {
      for (size_t j = i + 1; j < forest_.num_shards(); ++j) {
        Shard<D>& sa = forest_.shard(i);
        Shard<D>& sb = forest_.shard(j);
        // Materialize into a value pair: std::minmax over the returned
        // temporaries would yield a pair of dangling references.
        std::pair<uint64_t, uint64_t> key{
            std::min(sa.content_id(), sb.content_id()),
            std::max(sa.content_id(), sb.content_id())};
        std::string trace_key = "xemst@" + std::to_string(key.first) + "-" +
                                std::to_string(key.second);
        auto it = cross_.find(key);
        bool built = it == cross_.end();
        if (built) {
          obs::Span cross_span("build:xemst", "engine");
          it = cross_.emplace(key, CrossCandidates(sa, sb)).first;
        }
        TraceArtifact(out, built, trace_key);
        candidates.insert(candidates.end(), it->second.begin(),
                          it->second.end());
      }
    }
    std::vector<WeightedEdge> mst = DenseKruskal(std::move(candidates));
    emst_.mst_weight = TotalEdgeWeight(mst);
    emst_.mst =
        std::make_shared<const std::vector<WeightedEdge>>(std::move(mst));
    emst_.dendrogram.reset();
    emst_epoch_ = forest_.epoch();
    span.End();
    TraceArtifact(out, /*built=*/true, "forest-emst");
    return true;
  }

  /// The forest EMST plus, when `need_dendro`, its single-linkage
  /// dendrogram into *view. False iff missing and !allow_build.
  bool Emst(bool need_dendro, bool allow_build, EngineResponse* out,
            EmstView* view) {
    if (!EnsureForestEmst(allow_build, out)) return false;
    if (need_dendro &&
        !EnsureDerived(emst_.dendrogram, "sl-dendro", allow_build, out, [&] {
          return BuildDendrogramArtifact(forest_.live_count(), *emst_.mst);
        })) {
      return false;
    }
    *view = emst_;
    return true;
  }

  ShardForest<D> forest_;

  // Global tier: dense mapping (compacting: keyed by live gids only).
  std::shared_ptr<const std::vector<uint32_t>> ids_dense_;
  std::unordered_map<uint32_t, uint32_t> dense_of_gid_;
  uint64_t dense_epoch_ = kNoEpoch;

  // Cross tier: Euclidean candidates per content-id pair.
  std::map<std::pair<uint64_t, uint64_t>, std::vector<WeightedEdge>> cross_;

  // Global tier: EMST.
  EmstView emst_;
  uint64_t emst_epoch_ = kNoEpoch;

  // Global tier: the live-set DAG (HDBSCAN* and kNN frames).
  std::unique_ptr<DatasetArtifacts<D>> live_;
};

}  // namespace parhc
