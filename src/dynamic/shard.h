// One immutable shard of the batch-dynamic LSM forest (src/dynamic/).
//
// A shard owns one batch of points (plus their stable global ids) and a
// tombstone bitmap. Its *live* subset — the points not yet tombstoned — is
// what every derived artifact is defined over: a flat kd-tree arena built
// with the existing arena builder, and the shard's Euclidean MST edge list
// in global-id space. Both are built lazily and cached until the live set
// changes (the GPU single-tree EMST line of work, Prokopenko et al.
// arXiv:2207.00514, motivates keeping each shard a static flat arena
// rather than mutating the tree in place).
//
// A tombstone drops the tree but keeps the EMST edges as *seeds*, across
// further tombstones, until the next EMST build. Under the strict
// (w, min id, max id) order every MST edge between two surviving points is
// an edge of the survivors' MST (a cycle among the survivors is a cycle of
// the whole set), so the rebuild pre-unions the surviving seeds and its
// MemoGFK rounds only search for the edges that reconnect the fragments —
// an exact repair, not an approximation. A merge or compaction discards
// the shard and its seeds; snapshots do not save them.
//
// Identity is two-level:
//  * `uid`        — stable for the lifetime of the shard object; the
//                   forest's gid locator refers to shards by uid, so
//                   tombstoning (which moves no points) leaves it valid.
//  * `content_id` — identifies the live *content*; the forest bumps it on
//                   every tombstone. Cross-shard artifact caches key on
//                   content ids, so any live-set change invalidates exactly
//                   the cached cross edges that mention this shard.
//
// Invariant: local point order is ascending in global id (batches arrive
// gid-ascending and merges are gid-ordered merges), so per-shard tie-breaks
// on local ids agree with global-id tie-breaks — required for the shard
// forest's MSTs to match a from-scratch build edge-for-edge.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "emst/emst_memogfk.h"
#include "graph/edge.h"
#include "parallel/primitives.h"
#include "spatial/kdtree.h"
#include "util/check.h"

namespace parhc {

template <int D>
class Shard {
 public:
  Shard(uint64_t uid, uint64_t content_id, std::vector<Point<D>> pts,
        std::vector<uint32_t> gids)
      : uid_(uid),
        content_id_(content_id),
        pts_(std::move(pts)),
        gids_(std::move(gids)),
        dead_(pts_.size(), 0) {
    PARHC_CHECK_MSG(!pts_.empty(), "shard must be non-empty");
    PARHC_CHECK(pts_.size() == gids_.size());
    for (size_t i = 1; i < gids_.size(); ++i) {
      PARHC_DCHECK(gids_[i - 1] < gids_[i]);
    }
  }

  /// Snapshot-restore constructor: rebuilds a shard with its tombstone
  /// bitmap (and, when the snapshot carried one, its cached EMST edge
  /// list) exactly as saved. The caller (store load path) has already
  /// validated sizes, gid order, and that at least one point is live.
  Shard(uint64_t uid, uint64_t content_id, std::vector<Point<D>> pts,
        std::vector<uint32_t> gids, std::vector<uint8_t> dead,
        std::vector<WeightedEdge> emst, bool has_emst)
      : uid_(uid),
        content_id_(content_id),
        pts_(std::move(pts)),
        gids_(std::move(gids)),
        dead_(std::move(dead)),
        emst_(std::move(emst)),
        has_emst_(has_emst) {
    PARHC_CHECK_MSG(!pts_.empty(), "shard must be non-empty");
    PARHC_CHECK(pts_.size() == gids_.size() && pts_.size() == dead_.size());
    for (uint8_t d : dead_) dead_count_ += d != 0;
    PARHC_CHECK_MSG(dead_count_ < pts_.size(),
                    "restored shard must have a live point");
  }

  uint64_t uid() const { return uid_; }
  uint64_t content_id() const { return content_id_; }

  size_t total_count() const { return pts_.size(); }
  size_t live_count() const { return pts_.size() - dead_count_; }
  size_t dead_count() const { return dead_count_; }
  double dead_fraction() const {
    return static_cast<double>(dead_count_) / static_cast<double>(pts_.size());
  }
  /// LSM size class: floor(log2(live_count)).
  int size_class() const {
    int c = 0;
    for (size_t n = live_count(); n > 1; n >>= 1) ++c;
    return c;
  }

  /// All points / gids, including tombstoned entries (stable local order).
  const std::vector<Point<D>>& points() const { return pts_; }
  const std::vector<uint32_t>& gids() const { return gids_; }
  bool dead(uint32_t local) const { return dead_[local] != 0; }
  /// The tombstone bitmap (1 byte per point), for snapshot saves.
  const std::vector<uint8_t>& dead_bitmap() const { return dead_; }
  /// The cached EMST edges without triggering a build (valid only when
  /// has_emst()); read-only, for snapshot saves.
  const std::vector<WeightedEdge>& cached_emst() const { return emst_; }

  /// Tombstones one local index, dropping the live-set artifacts except
  /// the EMST edges, which become the seeds of the next EmstEdges() build
  /// (seeds already kept from an earlier tombstone stay). The forest bumps
  /// `content_id` alongside. Returns false if already dead.
  bool Tombstone(uint32_t local, uint64_t new_content_id) {
    PARHC_CHECK(local < pts_.size());
    if (dead_[local]) return false;
    dead_[local] = 1;
    ++dead_count_;
    content_id_ = new_content_id;
    tree_.reset();
    if (has_emst_) seeds_ = std::move(emst_);
    emst_.clear();
    has_emst_ = false;
    live_pts_.clear();
    live_gids_.clear();
    return true;
  }

  /// Live points / gids in local (= gid-ascending) order. Aliases the full
  /// arrays when nothing is tombstoned.
  const std::vector<Point<D>>& live_points() {
    EnsureLive();
    return dead_count_ == 0 ? pts_ : live_pts_;
  }
  const std::vector<uint32_t>& live_gids() {
    EnsureLive();
    return dead_count_ == 0 ? gids_ : live_gids_;
  }

  bool has_tree() const { return tree_ != nullptr; }
  bool has_emst() const { return has_emst_; }

  /// The shard's kd-tree over its live points (arena builder, unit leaves),
  /// built on first use. Tree point ids index live_points()/live_gids().
  KdTree<D>& tree() {
    if (!tree_) {
      tree_ = std::make_unique<KdTree<D>>(live_points(), /*leaf_size=*/1);
    }
    return *tree_;
  }

  /// The shard's exact EMST over its live points, edges in global-id space,
  /// built on first use via MemoGFK on the shard tree, seeded with the
  /// kept edges whose endpoints are both still live.
  const std::vector<WeightedEdge>& EmstEdges() {
    if (!has_emst_) {
      emst_ = EmstMemoGfkOnTree(tree(), /*phases=*/nullptr, /*opts=*/{},
                                LiveSeeds());
      const std::vector<uint32_t>& lg = live_gids();
      for (WeightedEdge& e : emst_) {
        e.u = lg[e.u];
        e.v = lg[e.v];
      }
      has_emst_ = true;
    }
    return emst_;
  }

  /// Releases the live points and gids of this shard (for merging or
  /// compaction); the shard must be discarded afterwards.
  std::pair<std::vector<Point<D>>, std::vector<uint32_t>> TakeLive() {
    EnsureLive();
    if (dead_count_ == 0) {
      return {std::move(pts_), std::move(gids_)};
    }
    return {std::move(live_pts_), std::move(live_gids_)};
  }

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

 private:
  /// Takes the kept seeds whose two endpoints are still live, remapped to
  /// live-local ids by binary search in the gid-ascending live_gids().
  std::vector<WeightedEdge> LiveSeeds() {
    constexpr uint32_t kGone = std::numeric_limits<uint32_t>::max();
    const std::vector<uint32_t>& lg = live_gids();
    auto local = [&lg](uint32_t gid) {
      auto it = std::lower_bound(lg.begin(), lg.end(), gid);
      return it != lg.end() && *it == gid
                 ? static_cast<uint32_t>(it - lg.begin())
                 : kGone;
    };
    std::vector<WeightedEdge> seeds = std::move(seeds_);  // empties seeds_
    ParallelFor(0, seeds.size(), [&](size_t i) {
      seeds[i].u = local(seeds[i].u);
      seeds[i].v = local(seeds[i].v);
    });
    return Filter(seeds, [](const WeightedEdge& e) {
      return e.u != kGone && e.v != kGone;
    });
  }

  void EnsureLive() {
    if (dead_count_ == 0 || !live_pts_.empty()) return;
    live_pts_.reserve(live_count());
    live_gids_.reserve(live_count());
    for (size_t i = 0; i < pts_.size(); ++i) {
      if (!dead_[i]) {
        live_pts_.push_back(pts_[i]);
        live_gids_.push_back(gids_[i]);
      }
    }
  }

  uint64_t uid_;
  uint64_t content_id_;
  std::vector<Point<D>> pts_;
  std::vector<uint32_t> gids_;
  std::vector<uint8_t> dead_;  ///< tombstone bitmap (1 byte per point)
  size_t dead_count_ = 0;

  // Live-set artifacts, dropped on every tombstone (the EMST edges move to
  // `seeds_`, in global-id space, until the next EmstEdges() build).
  std::vector<Point<D>> live_pts_;
  std::vector<uint32_t> live_gids_;
  std::unique_ptr<KdTree<D>> tree_;
  std::vector<WeightedEdge> emst_;
  bool has_emst_ = false;
  std::vector<WeightedEdge> seeds_;
};

}  // namespace parhc
