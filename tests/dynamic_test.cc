// Batch-dynamic ingestion: cross-tree traversals (spatial/cross_traverse.h),
// the LSM shard forest (src/dynamic/), and its exact incremental
// EMST / HDBSCAN* maintenance, cross-checked against from-scratch builds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <vector>

#include "data/generators.h"
#include "dynamic/artifacts.h"
#include "dynamic/forest.h"
#include "emst/emst_memogfk.h"
#include "engine/engine.h"
#include "hdbscan/hdbscan.h"
#include "spatial/cross_traverse.h"
#include "test_util.h"
#include "util/stats.h"

namespace parhc {
namespace {

using test::RowsFrom;
using test::SortedWeights;

std::vector<WeightedEdge> Sorted(std::vector<WeightedEdge> edges) {
  std::sort(edges.begin(), edges.end());
  return edges;
}

/// Renumbers cluster labels by first occurrence so two labelings of the
/// same partition compare equal (label ids are "dense but arbitrary").
std::vector<int32_t> NormalizedLabels(const std::vector<int32_t>& in) {
  std::vector<int32_t> out(in.size());
  std::map<int32_t, int32_t> remap;
  for (size_t i = 0; i < in.size(); ++i) {
    if (in[i] < 0) {
      out[i] = in[i];
      continue;
    }
    out[i] =
        remap.emplace(in[i], static_cast<int32_t>(remap.size())).first->second;
  }
  return out;
}

// --- Cross-tree traversals ----------------------------------------------

TEST(CrossTraverse, CrossBccpMatchesBruteForce) {
  auto a = test::RandomPoints<2>(300, 7);
  auto b = test::RandomPoints<2>(211, 8);
  KdTree<2> ta(a, 1), tb(b, 1);
  auto ida = [&](uint32_t i) { return i; };
  auto idb = [&](uint32_t j) { return j + 1000; };
  ClosestPair got = CrossBccp(ta, tb, ta.root(), tb.root(), ida, idb);
  ClosestPair want;
  for (uint32_t i = 0; i < a.size(); ++i) {
    for (uint32_t j = 0; j < b.size(); ++j) {
      double d = Distance(a[i], b[j]);
      if (d < want.dist) want = {i, j + 1000, d};
    }
  }
  EXPECT_EQ(got.dist, want.dist);
  EXPECT_EQ(std::minmax(got.u, got.v), std::minmax(want.u, want.v));
}

// --- Shard forest mechanics ---------------------------------------------

TEST(ShardForest, GeometricMergeBoundsShardCount) {
  ShardForest<2> forest;
  auto pts = test::RandomPoints<2>(500, 3);
  for (size_t i = 0; i < pts.size(); ++i) {
    forest.InsertBatch({pts[i]});
    // Bentley-Saxe: all shards have distinct size classes, so the count is
    // logarithmic in the live total.
    size_t n = forest.live_count();
    size_t bound = 1;
    while ((size_t{1} << bound) <= n) ++bound;
    EXPECT_LE(forest.num_shards(), bound) << "after " << i + 1 << " inserts";
  }
  EXPECT_EQ(forest.live_count(), pts.size());
}

TEST(ShardForest, TombstonesAndCompaction) {
  ShardForest<2> forest;
  auto pts = test::RandomPoints<2>(256, 5);
  forest.InsertBatch(pts);
  ASSERT_EQ(forest.num_shards(), size_t{1});
  uint64_t cid_before = forest.shard(0).content_id();

  // A small delete tombstones in place: same shard object, bumped content
  // id, no compaction below the threshold.
  EXPECT_EQ(forest.DeleteBatch({0, 1, 2, 3}), size_t{4});
  ASSERT_EQ(forest.num_shards(), size_t{1});
  EXPECT_EQ(forest.live_count(), size_t{252});
  EXPECT_EQ(forest.shard(0).dead_count(), size_t{4});
  EXPECT_NE(forest.shard(0).content_id(), cid_before);
  EXPECT_FALSE(forest.IsLive(2));
  EXPECT_TRUE(forest.IsLive(100));
  // Deleting the same ids again is a no-op.
  EXPECT_EQ(forest.DeleteBatch({0, 1, 2, 3}), size_t{0});

  // Push the shard past kCompactDeadFraction: survivors are compacted into
  // a fresh shard with no tombstones.
  std::vector<uint32_t> more;
  for (uint32_t g = 4; g < 80; ++g) more.push_back(g);
  EXPECT_EQ(forest.DeleteBatch(more), size_t{76});
  ASSERT_EQ(forest.num_shards(), size_t{1});
  EXPECT_EQ(forest.live_count(), size_t{176});
  EXPECT_EQ(forest.shard(0).dead_count(), size_t{0});

  // The survivors keep their points after relocation.
  std::vector<uint32_t> live = forest.LiveGids();
  ASSERT_EQ(live.size(), size_t{176});
  EXPECT_TRUE(std::is_sorted(live.begin(), live.end()));
  size_t visited = 0;
  forest.ForEachLive([&](uint32_t gid, const Point<2>& p) {
    ++visited;
    EXPECT_EQ(p[0], pts[gid][0]);
    EXPECT_EQ(p[1], pts[gid][1]);
  });
  EXPECT_EQ(visited, size_t{176});
}

// The gid locator and dense map compact: after many insert/delete epochs
// their sizes track the *live* count, never the historical gid space —
// the ROADMAP churn-scaling fix (per-epoch work stays O(live points)).
TEST(ShardForest, LocatorStaysBoundedUnderChurn) {
  constexpr size_t kBatch = 200;
  constexpr int kEpochs = 50;
  DynamicArtifacts<2> artifacts;
  EngineRequest req;
  req.type = QueryType::kEmst;
  std::mt19937_64 rng(99);
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    uint32_t first =
        artifacts.InsertBatch(test::RandomPoints<2>(kBatch, rng()));
    // Query so the dense gid map actually materializes each epoch.
    EngineResponse r;
    ASSERT_TRUE(artifacts.Answer(req, /*allow_build=*/true, &r));
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(artifacts.dense_map_size(), artifacts.num_points());
    // Delete most of the batch, keeping a small resident remainder.
    std::vector<uint32_t> doomed;
    for (uint32_t g = first; g < first + kBatch - 10; ++g) {
      doomed.push_back(g);
    }
    EXPECT_EQ(artifacts.DeleteBatch(doomed), doomed.size());
    // The locator holds exactly the live gids — deleted history leaves no
    // residue, however many gids have been burned through.
    EXPECT_EQ(artifacts.forest().locator_size(), artifacts.num_points());
    EXPECT_EQ(artifacts.num_points(), size_t{10} * (epoch + 1));
  }
  // 50 epochs burned ~10k gids; live structures stay at the ~500 live
  // points (the old dense-array scheme would have grown 20x larger).
  EXPECT_EQ(artifacts.forest().next_gid(), kBatch * kEpochs);
  EXPECT_EQ(artifacts.forest().locator_size(), size_t{10} * kEpochs);
  EngineResponse r;
  ASSERT_TRUE(artifacts.Answer(req, /*allow_build=*/true, &r));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(artifacts.dense_map_size(), size_t{10} * kEpochs);
  EXPECT_EQ(r.point_ids->size(), size_t{10} * kEpochs);
  EXPECT_TRUE(std::is_sorted(r.point_ids->begin(), r.point_ids->end()));
}

// --- Randomized oracle: exactness after every insert/delete batch --------

/// Mirror of the forest contents by gid, for from-scratch rebuilds.
template <int D>
struct Mirror {
  std::vector<Point<D>> pts;  // indexed by gid
  std::vector<bool> live;

  void Insert(const std::vector<Point<D>>& batch) {
    for (const auto& p : batch) {
      pts.push_back(p);
      live.push_back(true);
    }
  }
  std::vector<Point<D>> LivePoints() const {
    std::vector<Point<D>> out;
    for (size_t i = 0; i < pts.size(); ++i) {
      if (live[i]) out.push_back(pts[i]);
    }
    return out;
  }
};

/// Asserts the shard-forest EMST bit-matches a from-scratch MemoGFK build
/// over the live points in gid order (same dense id space).
template <int D>
void ExpectEmstMatchesScratch(DynamicArtifacts<D>& dyn,
                              const Mirror<D>& mirror) {
  EngineRequest req;
  req.type = QueryType::kEmst;
  EngineResponse r;
  ASSERT_TRUE(dyn.Answer(req, /*allow_build=*/true, &r));
  ASSERT_TRUE(r.ok) << r.error;
  std::vector<Point<D>> live = mirror.LivePoints();
  std::vector<WeightedEdge> scratch = EmstMemoGfk(live);
  ASSERT_EQ(r.mst->size(), scratch.size());
  EXPECT_EQ(Sorted(*r.mst), Sorted(scratch));
  EXPECT_EQ(r.mst_weight, test::TotalWeight(scratch));
  ASSERT_NE(r.point_ids, nullptr);
  EXPECT_EQ(r.point_ids->size(), live.size());
}

/// Asserts the shard-forest HDBSCAN* pipeline is exact against a
/// from-scratch Hdbscan over the live points in gid order: core distances
/// bit-match, the MR-MST weight multiset and total weight bit-match, and
/// the dendrograms induce identical flat clusterings at every tested cut.
/// (Edge *identity* is not compared: mutual-reachability weights tie
/// whenever two edges share their max core distance, and under ties the
/// from-scratch MemoGFK baseline itself materializes one BCCP* per WSP —
/// not necessarily the id-order-minimal tied edge — so two exact MSTs can
/// legitimately differ in which tied edges they carry. All MSTs of a graph
/// share the weight multiset and the same connectivity at every threshold,
/// which is what these assertions pin down.)
template <int D>
void ExpectHdbscanMatchesScratch(DynamicArtifacts<D>& dyn,
                                 const Mirror<D>& mirror, int min_pts) {
  EngineRequest req;
  req.type = QueryType::kHdbscan;
  req.min_pts = min_pts;
  EngineResponse r;
  ASSERT_TRUE(dyn.Answer(req, /*allow_build=*/true, &r));
  ASSERT_TRUE(r.ok) << r.error;
  std::vector<Point<D>> live = mirror.LivePoints();
  HdbscanResult direct = Hdbscan(live, min_pts);
  for (size_t i = 0; i < live.size(); ++i) {
    ASSERT_EQ((*r.core_dist)[i], direct.core_dist[i]) << "point " << i;
  }
  ASSERT_EQ(r.mst->size(), direct.mst.size());
  EXPECT_EQ(SortedWeights(*r.mst), SortedWeights(direct.mst));
  EXPECT_EQ(r.mst_weight, test::TotalWeight(Sorted(direct.mst)));
  double root_h = direct.dendrogram.Height(direct.dendrogram.root());
  for (double frac : {0.02, 0.1, 0.4}) {
    EXPECT_EQ(NormalizedLabels(DbscanStarLabels(*r.dendrogram, *r.core_dist,
                                                root_h * frac)),
              NormalizedLabels(direct.ClustersAt(root_h * frac)))
        << "frac=" << frac;
  }
}

TEST(DynamicOracle, EmstExactAfterEveryInsertAndDeleteBatch) {
  std::mt19937_64 rng(17);
  DynamicArtifacts<2> dyn;
  Mirror<2> mirror;

  auto base = test::RandomPoints<2>(700, 31);
  mirror.Insert(base);
  dyn.InsertBatch(base);
  ExpectEmstMatchesScratch(dyn, mirror);

  for (int round = 0; round < 6; ++round) {
    if (round % 3 == 2) {
      // Delete a random live batch.
      std::vector<uint32_t> victims;
      for (uint32_t gid = 0; gid < mirror.pts.size(); ++gid) {
        if (mirror.live[gid] && rng() % 10 == 0) victims.push_back(gid);
      }
      ASSERT_EQ(dyn.DeleteBatch(victims), victims.size());
      for (uint32_t gid : victims) mirror.live[gid] = false;
    } else {
      auto batch =
          test::RandomPoints<2>(60 + round * 13, 100 + round);
      mirror.Insert(batch);
      dyn.InsertBatch(batch);
    }
    ExpectEmstMatchesScratch(dyn, mirror);
  }
}

TEST(DynamicOracle, HdbscanExactAfterEveryInsertAndDeleteBatch) {
  std::mt19937_64 rng(23);
  DynamicArtifacts<2> dyn;
  Mirror<2> mirror;

  auto base = SeedSpreaderVarden<2>(600, 41, 3);
  mirror.Insert(base);
  dyn.InsertBatch(base);
  ExpectHdbscanMatchesScratch(dyn, mirror, 8);

  for (int round = 0; round < 4; ++round) {
    if (round == 2) {
      std::vector<uint32_t> victims;
      for (uint32_t gid = 0; gid < mirror.pts.size(); ++gid) {
        if (mirror.live[gid] && rng() % 8 == 0) victims.push_back(gid);
      }
      ASSERT_EQ(dyn.DeleteBatch(victims), victims.size());
      for (uint32_t gid : victims) mirror.live[gid] = false;
    } else {
      auto batch = SeedSpreaderVarden<2>(90, 200 + round, 2);
      mirror.Insert(batch);
      dyn.InsertBatch(batch);
    }
    ExpectHdbscanMatchesScratch(dyn, mirror, 8);
    // A second minPts exercises the kNN prefix reuse (m < K) path.
    ExpectHdbscanMatchesScratch(dyn, mirror, 4);
  }
}

TEST(DynamicOracle, HigherDimensionalForest) {
  DynamicArtifacts<3> dyn;
  Mirror<3> mirror;
  for (int b = 0; b < 4; ++b) {
    auto batch = test::RandomPoints<3>(120, 300 + b);
    mirror.Insert(batch);
    dyn.InsertBatch(batch);
  }
  ExpectEmstMatchesScratch(dyn, mirror);
  ExpectHdbscanMatchesScratch(dyn, mirror, 6);
}

/// Asserts the shard-forest HDBSCAN* MST is edge-identical to HdbscanMst
/// over the live points in gid order, with bit-identical core distances:
/// the forest runs the kNN pass and the MR-MST on one kd-tree over the
/// same points in the same order.
template <int D>
void ExpectHdbscanEdgesMatchScratch(DynamicArtifacts<D>& dyn,
                                    const Mirror<D>& mirror, int min_pts) {
  EngineRequest req;
  req.type = QueryType::kHdbscan;
  req.min_pts = min_pts;
  EngineResponse r;
  ASSERT_TRUE(dyn.Answer(req, /*allow_build=*/true, &r));
  ASSERT_TRUE(r.ok) << r.error;
  HdbscanMstResult direct = HdbscanMst(mirror.LivePoints(), min_pts);
  EXPECT_EQ(*r.core_dist, direct.core_dist) << "minPts " << min_pts;
  EXPECT_EQ(Sorted(*r.mst), Sorted(direct.mst)) << "minPts " << min_pts;
}

/// Deletes every live gid that `rng` picks with probability 1/every.
template <int D>
void DeleteRandomLive(DynamicArtifacts<D>& dyn, Mirror<D>& mirror,
                      std::mt19937_64& rng, int every) {
  std::vector<uint32_t> victims;
  for (uint32_t gid = 0; gid < mirror.pts.size(); ++gid) {
    if (mirror.live[gid] && rng() % every == 0) victims.push_back(gid);
  }
  ASSERT_EQ(dyn.DeleteBatch(victims), victims.size());
  for (uint32_t gid : victims) mirror.live[gid] = false;
}

/// Insert-only, delete-only and mixed rounds, each read at minPts 8 and
/// then 4 (the kNN prefix reuse path): every round's reads run on that
/// epoch's live-set DAG.
template <int D>
void HdbscanEdgeIdentityUnderChurn(uint64_t seed) {
  std::mt19937_64 rng(seed);
  DynamicArtifacts<D> dyn;
  Mirror<D> mirror;
  auto base = SeedSpreaderVarden<D>(700, seed, 3);
  mirror.Insert(base);
  dyn.InsertBatch(base);
  ExpectHdbscanEdgesMatchScratch(dyn, mirror, 8);
  for (int round = 0; round < 4; ++round) {
    if (round != 1) {
      auto batch = SeedSpreaderVarden<D>(70 + 11 * round, seed + round, 2);
      mirror.Insert(batch);
      dyn.InsertBatch(batch);
    }
    if (round % 2 == 1) DeleteRandomLive(dyn, mirror, rng, 15);
    ExpectHdbscanEdgesMatchScratch(dyn, mirror, 8);
    ExpectHdbscanEdgesMatchScratch(dyn, mirror, 4);
  }
  EXPECT_GT(dyn.num_shards(), size_t{1});
}

TEST(DynamicOracle, HdbscanEdgeIdenticalAfterInterleavedBatches2D) {
  HdbscanEdgeIdentityUnderChurn<2>(71);
}

TEST(DynamicOracle, HdbscanEdgeIdenticalAfterInterleavedBatches3D) {
  HdbscanEdgeIdentityUnderChurn<3>(73);
}

// --- Seeded repair of tombstoned shard EMSTs -----------------------------

TEST(DynamicSeededRepair, TwoDeleteBatchesOnOneShardBeforeOneRead) {
  DynamicArtifacts<2> dyn;
  Mirror<2> mirror;
  auto base = test::RandomPoints<2>(1000, 81);
  mirror.Insert(base);
  dyn.InsertBatch(base);
  ExpectEmstMatchesScratch(dyn, mirror);  // the shard EMST the seeds are
  std::mt19937_64 rng(82);
  DeleteRandomLive(dyn, mirror, rng, 20);
  DeleteRandomLive(dyn, mirror, rng, 20);
  // Both batches tombstoned the one shard in place; no compaction ran.
  ASSERT_EQ(dyn.num_shards(), size_t{1});
  ASSERT_GT(dyn.num_tombstones(), size_t{50});
  ExpectEmstMatchesScratch(dyn, mirror);
  // The repaired EMST seeds the next repair.
  DeleteRandomLive(dyn, mirror, rng, 20);
  ExpectEmstMatchesScratch(dyn, mirror);
}

TEST(DynamicSeededRepair, ThreeDimensionalForest) {
  DynamicArtifacts<3> dyn;
  Mirror<3> mirror;
  for (int b = 0; b < 3; ++b) {
    auto batch = test::RandomPoints<3>(150 + 200 * b, 310 + b);
    mirror.Insert(batch);
    dyn.InsertBatch(batch);
  }
  ExpectEmstMatchesScratch(dyn, mirror);
  std::mt19937_64 rng(83);
  DeleteRandomLive(dyn, mirror, rng, 12);
  ASSERT_GT(dyn.num_tombstones(), size_t{0});
  ExpectEmstMatchesScratch(dyn, mirror);
}

TEST(DynamicSeededRepair, CompactionDropsSeedsAndStaysExact) {
  DynamicArtifacts<2> dyn;
  Mirror<2> mirror;
  auto base = test::RandomPoints<2>(600, 84);
  mirror.Insert(base);
  dyn.InsertBatch(base);
  ExpectEmstMatchesScratch(dyn, mirror);
  std::vector<uint32_t> first, second;
  for (uint32_t g = 0; g < 600; ++g) {
    if (g % 10 == 3) first.push_back(g);
    if (g % 10 == 5 || g % 10 == 7) second.push_back(g);
  }
  // 10 % dead: tombstoned in place, the EMST becomes seeds...
  ASSERT_EQ(dyn.DeleteBatch(first), first.size());
  for (uint32_t g : first) mirror.live[g] = false;
  ASSERT_EQ(dyn.num_tombstones(), first.size());
  // ...then 30 % dead crosses kCompactDeadFraction: the survivors move to
  // a fresh shard without seeds.
  ASSERT_EQ(dyn.DeleteBatch(second), second.size());
  for (uint32_t g : second) mirror.live[g] = false;
  ASSERT_EQ(dyn.num_tombstones(), size_t{0});
  ExpectEmstMatchesScratch(dyn, mirror);
}

TEST(DynamicSeededRepair, DuplicateHeavySetMatchesByWeight) {
  auto pts = test::DuplicatedPoints<2>(800, 85);
  DynamicArtifacts<2> dyn;
  Mirror<2> mirror;
  mirror.Insert(pts);
  dyn.InsertBatch(pts);
  EngineRequest req;
  req.type = QueryType::kEmst;
  EngineResponse warm;
  ASSERT_TRUE(dyn.Answer(req, /*allow_build=*/true, &warm));
  std::mt19937_64 rng(86);
  DeleteRandomLive(dyn, mirror, rng, 10);
  ASSERT_GT(dyn.num_tombstones(), size_t{0});
  EngineResponse r;
  ASSERT_TRUE(dyn.Answer(req, /*allow_build=*/true, &r));
  ASSERT_TRUE(r.ok) << r.error;
  // Which zero-weight edges span a duplicate group is not unique.
  std::vector<WeightedEdge> scratch = EmstMemoGfk(mirror.LivePoints());
  EXPECT_EQ(SortedWeights(*r.mst), SortedWeights(scratch));
}

TEST(DynamicSeededRepair, RepairComputesFewerBccpsThanScratch) {
  auto pts = test::RandomPoints<2>(3000, 87);
  std::vector<uint32_t> gids(pts.size());
  std::iota(gids.begin(), gids.end(), 0u);
  Shard<2> shard(/*uid=*/0, /*content_id=*/0, pts, gids);
  shard.EmstEdges();
  for (uint32_t g = 0; g < pts.size(); g += 41) shard.Tombstone(g, g + 1);
  StatsEpoch repair_epoch;
  std::vector<WeightedEdge> repaired = shard.EmstEdges();
  uint64_t repair_bccp = repair_epoch.Delta().bccp_computed;

  KdTree<2> tree(shard.live_points(), /*leaf_size=*/1);
  StatsEpoch scratch_epoch;
  std::vector<WeightedEdge> scratch = EmstMemoGfkOnTree(tree);
  uint64_t scratch_bccp = scratch_epoch.Delta().bccp_computed;
  const std::vector<uint32_t>& lg = shard.live_gids();
  for (WeightedEdge& e : scratch) {
    e.u = lg[e.u];
    e.v = lg[e.v];
  }
  EXPECT_EQ(Sorted(repaired), Sorted(scratch));
  EXPECT_LT(repair_bccp, scratch_bccp);
}

// --- Duplicates arriving across batches (zero-weight cross edges) --------

TEST(DynamicDuplicates, SplitAcrossBatchesEmstWeightMatches) {
  // Heavy duplication (~n/4 distinct locations) split over several batches,
  // so identical points land in different shards and must be connected by
  // zero-weight cross edges from the cross BCCP pass.
  auto pts = test::DuplicatedPoints<2>(400, 77);
  DynamicArtifacts<2> dyn;
  Mirror<2> mirror;
  for (size_t off = 0; off < pts.size(); off += 100) {
    std::vector<Point<2>> batch(pts.begin() + off, pts.begin() + off + 100);
    mirror.Insert(batch);
    dyn.InsertBatch(batch);
  }
  EngineRequest req;
  req.type = QueryType::kEmst;
  EngineResponse r;
  ASSERT_TRUE(dyn.Answer(req, /*allow_build=*/true, &r));
  ASSERT_TRUE(r.ok) << r.error;
  // Zero-weight edge *identity* depends on the shard partition (any
  // spanning set of a duplicate group is exchangeable), so compare the
  // weight multiset, not edge ids.
  std::vector<WeightedEdge> scratch = EmstMemoGfk(mirror.LivePoints());
  EXPECT_EQ(SortedWeights(*r.mst), SortedWeights(scratch));
  double prim = test::PrimEmstWeight(mirror.LivePoints());
  EXPECT_NEAR(r.mst_weight, prim, 1e-9 * (1 + prim));
}

TEST(DynamicDuplicates, SplitAcrossBatchesHdbscanMatches) {
  auto pts = test::DuplicatedPoints<2>(300, 99);
  DynamicArtifacts<2> dyn;
  Mirror<2> mirror;
  for (size_t off = 0; off < pts.size(); off += 75) {
    std::vector<Point<2>> batch(pts.begin() + off, pts.begin() + off + 75);
    mirror.Insert(batch);
    dyn.InsertBatch(batch);
  }
  EngineRequest req;
  req.type = QueryType::kHdbscan;
  req.min_pts = 5;
  EngineResponse r;
  ASSERT_TRUE(dyn.Answer(req, /*allow_build=*/true, &r));
  ASSERT_TRUE(r.ok) << r.error;
  std::vector<Point<2>> live = mirror.LivePoints();
  HdbscanResult direct = Hdbscan(live, 5);
  for (size_t i = 0; i < live.size(); ++i) {
    ASSERT_EQ((*r.core_dist)[i], direct.core_dist[i]) << "point " << i;
  }
  EXPECT_EQ(SortedWeights(*r.mst), SortedWeights(direct.mst));
  double prim = test::PrimMutualReachabilityWeight(live, 5);
  EXPECT_NEAR(r.mst_weight, prim, 1e-9 * (1 + prim));
}

// --- Engine integration: shard-aware invalidation ------------------------

bool HasKeyWithPrefix(const std::vector<std::string>& keys,
                      const std::string& prefix) {
  return std::any_of(keys.begin(), keys.end(), [&](const std::string& k) {
    return k.rfind(prefix, 0) == 0;
  });
}

TEST(DynamicEngine, InsertDirtiesOnlyCrossAndDownstreamArtifacts) {
  ClusteringEngine engine;
  engine.registry().AddDynamic("d", 2);
  auto base = test::RandomPoints<2>(900, 51);
  ASSERT_EQ(engine.InsertBatch("d", RowsFrom(base)), "");

  EngineRequest req;
  req.type = QueryType::kEmst;
  req.dataset = "d";
  EngineResponse warm = engine.Run(req);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(HasKeyWithPrefix(warm.built, "semst@"));
  EXPECT_TRUE(HasKeyWithPrefix(warm.built, "forest-emst"));

  // Identical query: pure cache hit.
  EngineResponse hit = engine.Run(req);
  ASSERT_TRUE(hit.ok);
  EXPECT_TRUE(hit.built.empty()) << "second query rebuilt artifacts";
  EXPECT_EQ(hit.mst.get(), warm.mst.get());

  // A small insert must reuse the surviving shard's EMST (shard tier),
  // building only the new shard's artifacts, the cross edges, and the
  // global Kruskal.
  auto batch = test::RandomPoints<2>(50, 52);
  uint32_t first = 0;
  ASSERT_EQ(engine.InsertBatch("d", RowsFrom(batch), &first), "");
  EXPECT_EQ(first, 900u);
  EngineResponse after = engine.Run(req);
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_TRUE(HasKeyWithPrefix(after.reused, "semst@"))
      << "surviving shard EMST was rebuilt";
  EXPECT_TRUE(HasKeyWithPrefix(after.built, "semst@"));
  EXPECT_TRUE(HasKeyWithPrefix(after.built, "xemst@"));
  EXPECT_TRUE(HasKeyWithPrefix(after.built, "forest-emst"));

  // A further insert that leaves the first two shards untouched must reuse
  // their cached *cross* edges too (regression: the cross cache was once
  // keyed by dangling minmax references, so it never hit).
  auto tiny = test::RandomPoints<2>(9, 53);
  ASSERT_EQ(engine.InsertBatch("d", RowsFrom(tiny)), "");
  EngineResponse third = engine.Run(req);
  ASSERT_TRUE(third.ok) << third.error;
  EXPECT_TRUE(HasKeyWithPrefix(third.reused, "xemst@"))
      << "surviving shard-pair cross edges were recomputed";

  // Registry surfaces the dynamic backend.
  auto infos = engine.registry().List();
  ASSERT_EQ(infos.size(), size_t{1});
  EXPECT_TRUE(infos[0].dynamic);
  EXPECT_EQ(infos[0].num_points, size_t{959});
  EXPECT_GE(infos[0].num_shards, size_t{1});
}

TEST(DynamicEngine, DeleteAndPointIdsStayConsistent) {
  ClusteringEngine engine;
  engine.registry().AddDynamic("d", 2);
  auto base = SeedSpreaderVarden<2>(500, 61, 3);
  ASSERT_EQ(engine.InsertBatch("d", RowsFrom(base)), "");

  size_t deleted = 0;
  ASSERT_EQ(engine.DeleteBatch("d", {5, 6, 7, 99999}, &deleted), "");
  EXPECT_EQ(deleted, size_t{3});

  EngineRequest req;
  req.type = QueryType::kHdbscan;
  req.dataset = "d";
  req.min_pts = 6;
  EngineResponse r = engine.Run(req);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_NE(r.point_ids, nullptr);
  EXPECT_EQ(r.point_ids->size(), size_t{497});
  EXPECT_TRUE(std::is_sorted(r.point_ids->begin(), r.point_ids->end()));
  EXPECT_EQ(std::count(r.point_ids->begin(), r.point_ids->end(), 6u), 0);
  EXPECT_EQ(r.mst->size(), size_t{496});

  // Mutating an immutable dataset fails cleanly.
  engine.registry().Add("static", test::RandomPoints<2>(50, 1));
  EXPECT_NE(engine.InsertBatch("static", RowsFrom(base)), "");
  EXPECT_NE(engine.DeleteBatch("static", {1}), "");

  // Dimension mismatch and empty-dataset queries fail cleanly.
  EXPECT_NE(engine.InsertBatch("d", {{1.0, 2.0, 3.0}}), "");
  engine.registry().AddDynamic("empty", 2);
  req.dataset = "empty";
  EngineResponse empty = engine.Run(req);
  EXPECT_FALSE(empty.ok);
}

}  // namespace
}  // namespace parhc
