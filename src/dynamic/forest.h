// LSM/Bkd-style logarithmic shard forest: the point store of the
// batch-dynamic dataset backend (src/dynamic/).
//
// Points live in immutable shards (shard.h). InsertBatch creates one new
// shard from the batch and then runs the geometric merge cascade: whenever
// two shards fall in the same size class (floor log2 of live count), they
// are merged into one — the classical Bentley–Saxe logarithmic method, so
// at most O(log n) shards exist and every point is re-merged O(log n)
// times over its lifetime. DeleteBatch tombstones points in place through a
// gid locator; a shard whose dead fraction passes kCompactDeadFraction is
// compacted (its survivors re-enter the forest as a fresh shard, which may
// itself cascade into merges).
//
// Global ids are assigned sequentially at insertion and never reused. The
// locator is a *compacting* hash map gid -> (shard uid, local index):
// tombstoning erases the entry, so the map is O(live points), not
// O(historical gid space) — a churn-heavy long-running dataset stays
// bounded however many gids it has burned through. Tombstoning moves no
// points, so surviving entries stay valid until a merge or compaction
// relocates the survivors. Whole-forest scans in gid order (ForEachLive,
// LiveGids) do not touch the locator: they merge the shards' gid-ascending
// live lists.
//
// `epoch()` counts mutations: any artifact derived from the whole forest
// (the global EMST, the live-set DAG's kNN rows and clusterings) is tagged
// with the epoch it was built at and is stale whenever the tags differ. Per-
// shard and per-shard-pair artifacts instead key on shard content ids,
// which survive mutations that leave the shard untouched — this is the
// shard-aware half of the invalidation model (engine/artifacts.h).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dynamic/shard.h"

namespace parhc {

/// Dead fraction beyond which DeleteBatch compacts a shard.
inline constexpr double kCompactDeadFraction = 0.25;

template <int D>
class ShardForest {
 public:
  size_t live_count() const { return live_count_; }
  size_t num_shards() const { return shards_.size(); }
  /// Tombstoned (deleted but not yet compacted) points across all shards.
  size_t dead_count() const {
    size_t n = 0;
    for (const auto& s : shards_) n += s->dead_count();
    return n;
  }
  /// Mutation counter: bumped by every effective InsertBatch / DeleteBatch.
  uint64_t epoch() const { return epoch_; }
  /// One past the largest assigned gid.
  uint32_t next_gid() const { return next_gid_; }
  /// Gid-allocation cursors, persisted by the snapshot store so restored
  /// forests keep minting fresh uids / content ids.
  uint64_t next_uid() const { return next_uid_; }
  uint64_t next_content_id() const { return next_content_id_; }
  /// Live entries in the gid locator — O(live points) by construction
  /// (tombstones erase their entry); regression-tested against churn.
  size_t locator_size() const { return loc_.size(); }

  Shard<D>& shard(size_t i) { return *shards_[i]; }
  const Shard<D>& shard(size_t i) const { return *shards_[i]; }

  /// Inserts one batch as a new shard and runs the merge cascade. Returns
  /// the first assigned gid (the batch gets [first, first + n)).
  uint32_t InsertBatch(std::vector<Point<D>> pts) {
    PARHC_CHECK_MSG(!pts.empty(), "insert batch must be non-empty");
    uint32_t first = next_gid_;
    PARHC_CHECK_MSG(static_cast<uint64_t>(next_gid_) + pts.size() <=
                        std::numeric_limits<uint32_t>::max(),
                    "global id space exhausted");
    std::vector<uint32_t> gids(pts.size());
    for (size_t i = 0; i < gids.size(); ++i) {
      gids[i] = first + static_cast<uint32_t>(i);
    }
    next_gid_ += static_cast<uint32_t>(pts.size());
    live_count_ += pts.size();
    AddShard(std::move(pts), std::move(gids));
    MergeCascade();
    ++epoch_;
    return first;
  }

  /// Snapshot restore: replaces this (empty) forest with the given shards
  /// and allocation cursors, rebuilding the locator and live count. The
  /// store load path has already validated shard invariants (ascending
  /// unique gids below `next_gid`, unique uids below `next_uid`). No merge
  /// cascade runs — the saved shard structure is restored as-is.
  void Restore(std::vector<std::unique_ptr<Shard<D>>> shards,
               uint32_t next_gid, uint64_t next_uid,
               uint64_t next_content_id) {
    PARHC_CHECK_MSG(shards_.empty(), "Restore requires an empty forest");
    next_gid_ = next_gid;
    next_uid_ = next_uid;
    next_content_id_ = next_content_id;
    for (auto& s : shards) {
      PARHC_CHECK(s->uid() < next_uid_ && s->content_id() < next_content_id_);
      slot_of_uid_[s->uid()] = shards_.size();
      for (uint32_t i = 0; i < s->gids().size(); ++i) {
        if (s->dead(i)) continue;
        uint32_t gid = s->gids()[i];
        PARHC_CHECK(gid < next_gid_);
        auto [it, inserted] = loc_.emplace(gid, Loc{s->uid(), i});
        PARHC_CHECK_MSG(inserted, "duplicate live gid across shards");
        ++live_count_;
      }
      shards_.push_back(std::move(s));
    }
  }

  /// Tombstones the given gids (unknown or already-dead gids are skipped),
  /// compacting any shard that passes the dead-fraction threshold. Returns
  /// the number of points actually deleted.
  size_t DeleteBatch(const std::vector<uint32_t>& gids) {
    size_t deleted = 0;
    std::vector<size_t> dirty;  // slots whose live set changed
    for (uint32_t gid : gids) {
      auto lit = loc_.find(gid);  // absent = unknown or already dead
      if (lit == loc_.end()) continue;
      Loc loc = lit->second;
      auto it = slot_of_uid_.find(loc.uid);
      PARHC_DCHECK(it != slot_of_uid_.end());
      Shard<D>& s = *shards_[it->second];
      if (s.Tombstone(loc.local, next_content_id_++)) {
        loc_.erase(lit);  // compacting: dead gids leave the locator
        --live_count_;
        ++deleted;
        dirty.push_back(it->second);
      }
    }
    if (deleted == 0) return 0;
    // Compact dirty shards past the threshold, highest slot first so the
    // swap-removes in RemoveShard don't disturb pending slots.
    std::sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
    bool structural = false;
    for (size_t i = dirty.size(); i-- > 0;) {
      size_t slot = dirty[i];
      Shard<D>& s = *shards_[slot];
      if (s.dead_fraction() <= kCompactDeadFraction && s.live_count() > 0) {
        continue;
      }
      auto live = shards_[slot]->TakeLive();
      RemoveShard(slot);
      if (!live.first.empty()) {
        AddShard(std::move(live.first), std::move(live.second));
      }
      structural = true;
    }
    if (structural) MergeCascade();
    ++epoch_;
    return deleted;
  }

  bool IsLive(uint32_t gid) const { return loc_.count(gid) != 0; }

  /// Calls visit(gid, point) for every live point in ascending gid order:
  /// a merge of the shards' gid-ascending live lists, O(live log shards)
  /// with no locator lookup.
  template <typename Visit>
  void ForEachLive(const Visit& visit) {
    struct Cursor {
      const uint32_t* gid;  ///< next live gid of one shard
      const uint32_t* end;
      const Point<D>* point;  ///< the point of *gid
    };
    auto later = [](const Cursor& a, const Cursor& b) {
      return *a.gid > *b.gid;
    };
    std::vector<Cursor> heap;
    for (auto& s : shards_) {
      const std::vector<uint32_t>& g = s->live_gids();
      if (g.empty()) continue;
      heap.push_back({g.data(), g.data() + g.size(), s->live_points().data()});
    }
    std::make_heap(heap.begin(), heap.end(), later);
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), later);
      Cursor& c = heap.back();
      visit(*c.gid++, *c.point++);
      if (c.gid == c.end) {
        heap.pop_back();
      } else {
        std::push_heap(heap.begin(), heap.end(), later);
      }
    }
  }

  /// All live gids, ascending (see ForEachLive).
  std::vector<uint32_t> LiveGids() {
    std::vector<uint32_t> out;
    out.reserve(live_count_);
    ForEachLive([&](uint32_t gid, const Point<D>&) { out.push_back(gid); });
    return out;
  }

 private:
  struct Loc {
    uint64_t uid = 0;
    uint32_t local = 0;
  };

  void AddShard(std::vector<Point<D>> pts, std::vector<uint32_t> gids) {
    uint64_t uid = next_uid_++;
    auto s = std::make_unique<Shard<D>>(uid, next_content_id_++,
                                        std::move(pts), std::move(gids));
    for (uint32_t i = 0; i < s->gids().size(); ++i) {
      loc_[s->gids()[i]] = {uid, i};
    }
    slot_of_uid_[uid] = shards_.size();
    shards_.push_back(std::move(s));
  }

  void RemoveShard(size_t slot) {
    slot_of_uid_.erase(shards_[slot]->uid());
    if (slot + 1 != shards_.size()) {
      shards_[slot] = std::move(shards_.back());
      slot_of_uid_[shards_[slot]->uid()] = slot;
    }
    shards_.pop_back();
  }

  /// Bentley–Saxe: while two shards share a size class, merge them (a
  /// gid-ordered merge, preserving the ascending-gid shard invariant).
  void MergeCascade() {
    for (;;) {
      std::unordered_map<int, size_t> by_class;
      size_t a = shards_.size(), b = shards_.size();
      for (size_t i = 0; i < shards_.size(); ++i) {
        int cls = shards_[i]->size_class();
        auto [it, inserted] = by_class.emplace(cls, i);
        if (!inserted) {
          a = it->second;
          b = i;
          break;
        }
      }
      if (b == shards_.size()) return;
      auto la = shards_[a]->TakeLive();
      auto lb = shards_[b]->TakeLive();
      // Remove the higher slot first so the lower slot index stays valid.
      RemoveShard(std::max(a, b));
      RemoveShard(std::min(a, b));
      std::vector<Point<D>> pts;
      std::vector<uint32_t> gids;
      pts.reserve(la.first.size() + lb.first.size());
      gids.reserve(la.second.size() + lb.second.size());
      size_t i = 0, j = 0;
      while (i < la.second.size() || j < lb.second.size()) {
        bool take_a = j == lb.second.size() ||
                      (i < la.second.size() && la.second[i] < lb.second[j]);
        if (take_a) {
          pts.push_back(la.first[i]);
          gids.push_back(la.second[i]);
          ++i;
        } else {
          pts.push_back(lb.first[j]);
          gids.push_back(lb.second[j]);
          ++j;
        }
      }
      AddShard(std::move(pts), std::move(gids));
    }
  }

  std::vector<std::unique_ptr<Shard<D>>> shards_;
  std::unordered_map<uint64_t, size_t> slot_of_uid_;
  /// Compacting gid locator: holds exactly the live gids (tombstones
  /// erase), so per-epoch work over it is O(live points).
  std::unordered_map<uint32_t, Loc> loc_;
  uint32_t next_gid_ = 0;
  size_t live_count_ = 0;
  uint64_t next_uid_ = 0;
  uint64_t next_content_id_ = 0;
  uint64_t epoch_ = 0;
};

}  // namespace parhc
