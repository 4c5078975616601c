// Multi-query clustering engine: memoized artifact DAG, dataset registry,
// and serving front-end (src/engine/).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <limits>
#include <numeric>
#include <thread>

#include "data/generators.h"
#include "data/io.h"
#include "emst/emst.h"
#include "engine/engine.h"
#include "hdbscan/hdbscan.h"
#include "test_util.h"

namespace parhc {
namespace {

using test::SortedWeights;

// --- Core-distance prefix reuse -----------------------------------------

// One kNN@16 pass must yield, for every minPts <= 16, core distances that
// are bit-identical to a direct CoreDistances(tree, minPts) pass.
TEST(EnginePrefixReuse, DerivedCoreDistancesMatchDirectExactly) {
  auto pts = SeedSpreaderVarden<2>(3000, 11, 3);
  KdTree<2> tree(pts, 1);

  ClusteringEngine engine;
  engine.registry().Add("d", pts);
  EngineRequest req;
  req.dataset = "d";
  req.type = QueryType::kHdbscan;

  // Warm the prefix matrix at the largest minPts first.
  req.min_pts = 16;
  EngineResponse warm = engine.Run(req);
  ASSERT_TRUE(warm.ok) << warm.error;
  ASSERT_NE(std::find(warm.built.begin(), warm.built.end(), "knn@16"),
            warm.built.end());

  for (int min_pts : {2, 5, 10, 16}) {
    req.min_pts = min_pts;
    EngineResponse r = engine.Run(req);
    ASSERT_TRUE(r.ok) << r.error;
    // No further kNN pass: the @16 prefixes serve every smaller minPts.
    EXPECT_EQ(std::count_if(
                  r.built.begin(), r.built.end(),
                  [](const std::string& k) { return k.rfind("knn@", 0) == 0; }),
              0)
        << "minPts=" << min_pts << " rebuilt kNN";
    std::vector<double> direct = CoreDistances(tree, min_pts);
    ASSERT_EQ(r.core_dist->size(), direct.size());
    for (size_t i = 0; i < direct.size(); ++i) {
      ASSERT_EQ((*r.core_dist)[i], direct[i])
          << "minPts=" << min_pts << " point " << i;
    }
  }
}

// The same guarantee at the kNN API level: every column of the prefix
// matrix equals the corresponding KthNeighborDistances pass, and rows are
// sorted ascending.
TEST(EnginePrefixReuse, AllKnnDistancesColumnsMatchKthNeighbor) {
  auto pts = test::RandomPoints<3>(800, 5);
  KdTree<3> tree(pts, 1);
  constexpr size_t kK = 12;
  std::vector<double> prefix = AllKnnDistances(tree, kK);
  ASSERT_EQ(prefix.size(), pts.size() * kK);
  for (size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(prefix[i * kK], 0.0) << "self distance";
    for (size_t j = 1; j < kK; ++j) {
      EXPECT_LE(prefix[i * kK + j - 1], prefix[i * kK + j]);
    }
  }
  for (size_t k : {size_t{1}, size_t{4}, size_t{12}}) {
    std::vector<double> direct = KthNeighborDistances(tree, k);
    for (size_t i = 0; i < pts.size(); ++i) {
      ASSERT_EQ(prefix[i * kK + (k - 1)], direct[i]) << "k=" << k;
    }
  }
}

// --- Cached vs uncached equivalence -------------------------------------

TEST(EngineEquivalence, CachedHdbscanMatchesDirect) {
  auto pts = SeedSpreaderVarden<2>(4000, 13, 3);
  ClusteringEngine engine;
  engine.registry().Add("d", pts);

  EngineRequest req;
  req.dataset = "d";
  req.type = QueryType::kHdbscan;
  req.min_pts = 50;
  ASSERT_TRUE(engine.Run(req).ok);  // warm kNN@50 + clustering@50

  for (int min_pts : {5, 10, 20, 50}) {
    HdbscanResult direct = Hdbscan(pts, min_pts);
    req.min_pts = min_pts;
    EngineResponse r = engine.Run(req);
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_EQ(r.mst->size(), direct.mst.size());
    // Same mutual-reachability graph, unique generic-position weights:
    // the MST edge weight multisets must agree exactly.
    EXPECT_EQ(SortedWeights(*r.mst), SortedWeights(direct.mst))
        << "minPts=" << min_pts;
    EXPECT_EQ(r.mst_weight,
              std::accumulate(r.mst->begin(), r.mst->end(), 0.0,
                              [](double s, const WeightedEdge& e) {
                                return s + e.w;
                              }));
    // The dendrograms answer identical flat clusterings and reachability
    // queries (cross-checks the sequential vs parallel builder too).
    double eps = direct.dendrogram.Height(direct.dendrogram.root()) * 0.05;
    EXPECT_EQ(DbscanStarLabels(*r.dendrogram, *r.core_dist, eps),
              direct.ClustersAt(eps))
        << "minPts=" << min_pts;
    ReachabilityPlot cached = ComputeReachability(*r.dendrogram);
    ReachabilityPlot plain = direct.Reachability();
    EXPECT_EQ(cached.order, plain.order) << "minPts=" << min_pts;
    EXPECT_EQ(cached.value, plain.value) << "minPts=" << min_pts;
  }
}

TEST(EngineEquivalence, DbscanAtEpsAndStableClustersMatchDirect) {
  auto pts = SeedSpreaderVarden<2>(3000, 17, 4);
  HdbscanResult direct = Hdbscan(pts, 10);
  ClusteringEngine engine;
  engine.registry().Add("d", pts);

  EngineRequest req;
  req.dataset = "d";
  req.type = QueryType::kDbscanStarAt;
  req.min_pts = 10;
  for (double frac : {0.01, 0.05, 0.3}) {
    req.eps = direct.dendrogram.Height(direct.dendrogram.root()) * frac;
    EngineResponse r = engine.Run(req);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.labels, direct.ClustersAt(req.eps)) << "frac=" << frac;
  }

  req.type = QueryType::kStableClusters;
  req.min_cluster_size = 30;
  EngineResponse r = engine.Run(req);
  ASSERT_TRUE(r.ok) << r.error;
  StabilityClusters sc = ExtractStableClusters(direct.dendrogram, 30);
  EXPECT_EQ(r.labels, sc.label);
  EXPECT_EQ(r.stability, sc.stability);
}

TEST(EngineEquivalence, EmstAndSingleLinkageMatchDirect) {
  auto pts = test::RandomPoints<3>(2500, 23);
  std::vector<WeightedEdge> direct = Emst(pts);
  ClusteringEngine engine;
  engine.registry().Add("d", pts);

  EngineRequest req;
  req.dataset = "d";
  req.type = QueryType::kEmst;
  EngineResponse r = engine.Run(req);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(SortedWeights(*r.mst), SortedWeights(direct));

  req.type = QueryType::kSingleLinkage;
  req.k = 6;
  EngineResponse sl = engine.Run(req);
  ASSERT_TRUE(sl.ok) << sl.error;
  Dendrogram d = BuildDendrogramParallel(pts.size(), direct, 0);
  EXPECT_EQ(sl.labels, KClusters(d, 6));
  // EMST artifacts were reused, not rebuilt.
  EXPECT_NE(std::find(sl.reused.begin(), sl.reused.end(), "emst"),
            sl.reused.end());
}

// --- Cache mechanics ----------------------------------------------------

TEST(EngineCache, SecondIdenticalQueryIsAPureHit) {
  ClusteringEngine engine;
  engine.registry().Add("d", UniformFill<2>(2000, 3));
  EngineRequest req;
  req.dataset = "d";
  req.type = QueryType::kHdbscan;
  req.min_pts = 10;
  EngineResponse first = engine.Run(req);
  ASSERT_TRUE(first.ok);
  EXPECT_FALSE(first.built.empty());
  EngineResponse second = engine.Run(req);
  ASSERT_TRUE(second.ok);
  EXPECT_TRUE(second.built.empty()) << "second query rebuilt artifacts";
  EXPECT_EQ(second.mst.get(), first.mst.get());  // same shared snapshot
}

TEST(EngineCache, LruEvictionBoundsCachedClusterings) {
  ClusteringEngine engine;
  engine.registry().Add("d", UniformFill<2>(1500, 9));
  EngineRequest req;
  req.dataset = "d";
  req.type = QueryType::kHdbscan;
  std::vector<EngineResponse> held;
  for (int m = 2; m < 2 + static_cast<int>(kMaxCachedClusterings) + 4; ++m) {
    req.min_pts = m;
    held.push_back(engine.Run(req));  // responses outlive eviction
    ASSERT_TRUE(held.back().ok);
  }
  auto entry = engine.registry().Find("d");
  ASSERT_NE(entry, nullptr);
  EXPECT_LE(entry->num_cached_clusterings(), kMaxCachedClusterings);
  // Evicted snapshots stay valid through their shared_ptrs.
  for (const EngineResponse& r : held) {
    EXPECT_EQ(r.mst->size(), size_t{1499});
  }
}

TEST(EngineRegistry, ErrorsAndTypeErasedDispatch) {
  ClusteringEngine engine;
  EngineRequest req;
  req.dataset = "missing";
  EngineResponse r = engine.Run(req);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unknown dataset"), std::string::npos);

  engine.registry().Add("d7", ClusteredGaussians<7>(500, 2));
  req.dataset = "d7";
  req.type = QueryType::kHdbscan;
  req.min_pts = 5;
  r = engine.Run(req);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.mst->size(), size_t{499});

  req.min_pts = 0;
  EXPECT_FALSE(engine.Run(req).ok);
  req.min_pts = 501;
  EXPECT_FALSE(engine.Run(req).ok);

  std::vector<std::vector<double>> ragged = {{1, 2}, {3}};
  EXPECT_FALSE(engine.registry().TryAddRows("bad", ragged).empty());
  std::vector<std::vector<double>> dim6(4, std::vector<double>(6, 0.0));
  EXPECT_FALSE(engine.registry().TryAddRows("bad", dim6).empty());
  EXPECT_EQ(engine.registry().Find("bad"), nullptr);

  EXPECT_TRUE(engine.registry().Remove("d7"));
  EXPECT_FALSE(engine.registry().Remove("d7"));
  EXPECT_EQ(engine.registry().List().size(), size_t{0});
}

// The static and batch-dynamic backends answer through one AnswerQuery
// (engine/artifact_util.h): over the same points, invalid requests must
// fail with identical error strings and valid ones must agree in weights,
// core distances and labels (dynamic gids follow insertion order, so the
// dense point order matches the static one).
TEST(EngineQuerySurface, StaticAndDynamicBackendsAnswerIdentically) {
  auto pts = SeedSpreaderVarden<2>(600, 17, 3);
  const size_t n = pts.size();
  ClusteringEngine engine;
  engine.registry().Add("s", pts);
  ASSERT_EQ(engine.registry().TryAddDynamic("d", 2), "");
  std::vector<std::vector<double>> rows;
  for (const auto& p : pts) rows.push_back({p[0], p[1]});
  ASSERT_EQ(engine.InsertBatch("d", rows), "");

  auto request = [](QueryType type, int min_pts, size_t k, size_t mcs) {
    EngineRequest r;
    r.type = type;
    r.min_pts = min_pts;
    r.k = k;
    r.min_cluster_size = mcs;
    r.eps = 1.0;
    return r;
  };
  auto run = [&](EngineRequest r, const std::string& name) {
    r.dataset = name;
    return engine.Run(r);
  };
  const int too_big = static_cast<int>(n) + 1;
  const std::vector<EngineRequest> invalid = {
      request(QueryType::kSingleLinkage, 8, 0, 5),
      request(QueryType::kSingleLinkage, 8, n + 1, 5),
      request(QueryType::kHdbscan, 0, 1, 5),
      request(QueryType::kHdbscan, too_big, 1, 5),
      request(QueryType::kDbscanStarAt, 0, 1, 5),
      request(QueryType::kDbscanStarAt, too_big, 1, 5),
      request(QueryType::kReachability, 0, 1, 5),
      request(QueryType::kReachability, too_big, 1, 5),
      request(QueryType::kStableClusters, 8, 1, 1),
  };
  for (size_t i = 0; i < invalid.size(); ++i) {
    EngineResponse a = run(invalid[i], "s");
    EngineResponse b = run(invalid[i], "d");
    EXPECT_FALSE(a.ok) << "request " << i;
    EXPECT_FALSE(b.ok) << "request " << i;
    EXPECT_FALSE(a.error.empty()) << "request " << i;
    EXPECT_EQ(a.error, b.error) << "request " << i;
  }

  const std::vector<EngineRequest> valid = {
      request(QueryType::kEmst, 8, 1, 5),
      request(QueryType::kSingleLinkage, 8, 4, 5),
      request(QueryType::kHdbscan, 8, 1, 5),
      request(QueryType::kDbscanStarAt, 8, 1, 5),
      request(QueryType::kReachability, 8, 1, 5),
      request(QueryType::kStableClusters, 8, 1, 10),
  };
  for (size_t i = 0; i < valid.size(); ++i) {
    EngineResponse a = run(valid[i], "s");
    EngineResponse b = run(valid[i], "d");
    ASSERT_TRUE(a.ok) << "request " << i << ": " << a.error;
    ASSERT_TRUE(b.ok) << "request " << i << ": " << b.error;
    EXPECT_EQ(a.mst_weight, b.mst_weight) << "request " << i;
    EXPECT_EQ(a.labels, b.labels) << "request " << i;
    EXPECT_EQ(a.num_clusters, b.num_clusters) << "request " << i;
    ASSERT_EQ(a.core_dist == nullptr, b.core_dist == nullptr);
    if (a.core_dist) {
      EXPECT_EQ(*a.core_dist, *b.core_dist);
    }
  }

  // Dynamic-only refusals: the eps path, then a dataset emptied by deletes.
  EngineRequest eps = request(QueryType::kEmst, 8, 1, 5);
  eps.emst_eps = 0.5;
  EXPECT_TRUE(run(eps, "s").ok);
  EngineResponse r = run(eps, "d");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "eps EMST is supported on static datasets only");
  std::vector<uint32_t> all(n);
  std::iota(all.begin(), all.end(), 0u);
  ASSERT_EQ(engine.DeleteBatch("d", all), "");
  for (const EngineRequest& q : valid) {
    r = run(q, "d");
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error, "dataset is empty");
  }
}

// Every path that creates points rejects NaN and infinite coordinates with
// a typed error — CSV rows, binary point files, insert batches, static and
// shard-forest snapshots — and the engine keeps serving other datasets.
TEST(EngineRegistry, NonFiniteCoordinatesAreRejectedOnEveryIngress) {
  namespace fs = std::filesystem;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const fs::path tmp = fs::path(::testing::TempDir()) / "parhc_nonfinite";
  fs::remove_all(tmp);
  fs::create_directories(tmp);

  ClusteringEngine engine;
  engine.registry().Add("ok", UniformFill<2>(300, 1));
  auto still_serving = [&] {
    EngineRequest q;
    q.dataset = "ok";
    q.type = QueryType::kHdbscan;
    q.min_pts = 5;
    EngineResponse r = engine.Run(q);
    return r.ok && r.mst->size() == 299;
  };
  std::vector<std::vector<double>> rows = {{0, 0}, {1, 1}, {nan, 2}, {3, 3}};

  EXPECT_EQ(engine.registry().TryAddRows("csv", rows), kNonFiniteCoordinates);
  EXPECT_EQ(engine.registry().Find("csv"), nullptr);
  EXPECT_TRUE(still_serving());

  std::vector<Point<2>> bad_pts = {{{0, 0}}, {{1, inf}}, {{2, 2}}};
  const std::string bin = (tmp / "bad.bin").string();
  WritePointsBin(bin, bad_pts);
  EXPECT_EQ(engine.registry().TryAddBin("bin", bin), kNonFiniteCoordinates);
  EXPECT_EQ(engine.registry().Find("bin"), nullptr);
  EXPECT_TRUE(still_serving());

  ASSERT_EQ(engine.registry().TryAddDynamic("dyn", 2), "");
  ASSERT_EQ(engine.InsertBatch("dyn", {{0, 0}, {1, 1}}), "");
  EXPECT_EQ(engine.InsertBatch("dyn", rows), kNonFiniteCoordinates);
  rows[2][0] = -inf;
  EXPECT_EQ(engine.InsertBatch("dyn", rows), kNonFiniteCoordinates);
  EngineRequest emst;
  emst.dataset = "dyn";
  emst.type = QueryType::kEmst;
  EngineResponse r = engine.Run(emst);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.mst->size(), 1u);  // the rejected batches left no trace

  // Snapshots written from unchecked in-process data.
  ClusteringEngine writer;
  writer.registry().Add("bad", bad_pts);
  const std::string static_dir = (tmp / "static").string();
  ASSERT_EQ(writer.SaveDataset("bad", static_dir), "");
  std::string err = engine.LoadDataset("snap", static_dir);
  EXPECT_NE(err.find(kNonFiniteCoordinates), std::string::npos) << err;
  DynamicArtifacts<2> forest;
  forest.InsertBatch(bad_pts);
  const std::string dynamic_dir = (tmp / "dynamic").string();
  forest.SaveTo(dynamic_dir);
  err = engine.LoadDataset("snap", dynamic_dir);
  EXPECT_NE(err.find(kNonFiniteCoordinates), std::string::npos) << err;
  EXPECT_EQ(engine.registry().Find("snap"), nullptr);
  EXPECT_TRUE(still_serving());
  fs::remove_all(tmp);
}

// Concurrent readers answer from shared artifacts while a writer builds a
// new parameterization; run under the sanitizer CI job this validates the
// readers-writer discipline.
TEST(EngineConcurrency, ParallelMixedQueriesStayConsistent) {
  auto pts = SeedSpreaderVarden<2>(2000, 29, 3);
  HdbscanResult direct = Hdbscan(pts, 8);
  double eps = direct.dendrogram.Height(direct.dendrogram.root()) * 0.05;
  std::vector<int32_t> expect = direct.ClustersAt(eps);

  ClusteringEngine engine;
  engine.registry().Add("d", pts);
  EngineRequest warm;
  warm.dataset = "d";
  warm.type = QueryType::kHdbscan;
  warm.min_pts = 8;
  ASSERT_TRUE(engine.Run(warm).ok);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 15; ++i) {
        EngineRequest req;
        req.dataset = "d";
        if (t == 0 && i % 5 == 0) {
          // One thread also triggers builds of new parameterizations.
          req.type = QueryType::kHdbscan;
          req.min_pts = 3 + i;
          if (!engine.Run(req).ok) failures.fetch_add(1);
          continue;
        }
        req.type = QueryType::kDbscanStarAt;
        req.min_pts = 8;
        req.eps = eps;
        EngineResponse r = engine.Run(req);
        if (!r.ok || r.labels != expect) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// Two independent datasets' cold builds must proceed concurrently through
// the build executor (no engine-wide mutex), and every result must be
// bit-identical to the serialized-build path (a fresh engine answering the
// same queries one at a time).
TEST(EngineConcurrency, TwoDatasetsBuildConcurrentlyAndMatchSerial) {
  auto pts_a = SeedSpreaderVarden<2>(2500, 41, 3);
  auto pts_b = SeedSpreaderVarden<2>(2500, 43, 3);

  ClusteringEngine serial;
  serial.registry().Add("a", pts_a);
  serial.registry().Add("b", pts_b);
  EngineRequest req;
  req.type = QueryType::kHdbscan;
  req.min_pts = 10;
  req.dataset = "a";
  EngineResponse want_a = serial.Run(req);
  req.dataset = "b";
  EngineResponse want_b = serial.Run(req);
  ASSERT_TRUE(want_a.ok && want_b.ok);

  ClusteringEngine engine;
  engine.registry().Add("a", pts_a);
  engine.registry().Add("b", pts_b);
  EngineResponse got_a, got_b;
  std::thread ta([&] {
    EngineRequest r = req;
    r.dataset = "a";
    got_a = engine.Run(r);
  });
  std::thread tb([&] {
    EngineRequest r = req;
    r.dataset = "b";
    got_b = engine.Run(r);
  });
  ta.join();
  tb.join();
  ASSERT_TRUE(got_a.ok) << got_a.error;
  ASSERT_TRUE(got_b.ok) << got_b.error;
  EXPECT_EQ(got_a.mst_weight, want_a.mst_weight);
  EXPECT_EQ(got_b.mst_weight, want_b.mst_weight);
  ASSERT_EQ(got_a.mst->size(), want_a.mst->size());
  ASSERT_EQ(got_b.mst->size(), want_b.mst->size());
  EXPECT_EQ(SortedWeights(*got_a.mst), SortedWeights(*want_a.mst));
  EXPECT_EQ(SortedWeights(*got_b.mst), SortedWeights(*want_b.mst));
  EXPECT_EQ(*got_a.core_dist, *want_a.core_dist);
  EXPECT_EQ(*got_b.core_dist, *want_b.core_dist);
  EXPECT_GE(engine.executor().stats().builds_total, uint64_t{2});
}

// N threads requesting the same uncached artifact must coalesce onto one
// build: exactly one response reports building the MST, and every thread
// comes back holding the same shared_ptr snapshot.
TEST(EngineConcurrency, DuplicateArtifactRequestsCoalesce) {
  auto pts = SeedSpreaderVarden<2>(2500, 47, 3);
  ClusteringEngine engine;
  engine.registry().Add("d", pts);

  constexpr int kThreads = 6;
  std::vector<EngineResponse> res(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      EngineRequest req;
      req.dataset = "d";
      req.type = QueryType::kHdbscan;
      req.min_pts = 8;
      res[t] = engine.Run(req);
    });
  }
  for (auto& th : threads) th.join();

  int mst_builds = 0, tree_builds = 0;
  for (const auto& r : res) {
    ASSERT_TRUE(r.ok) << r.error;
    mst_builds += static_cast<int>(
        std::count(r.built.begin(), r.built.end(), "mst@8"));
    tree_builds += static_cast<int>(
        std::count(r.built.begin(), r.built.end(), "tree"));
    // Same physical snapshot, not an equal copy: coalesced waiters get
    // the builder's shared_ptr.
    EXPECT_EQ(r.mst.get(), res[0].mst.get());
    EXPECT_EQ(r.core_dist.get(), res[0].core_dist.get());
  }
  EXPECT_EQ(mst_builds, 1);
  EXPECT_EQ(tree_builds, 1);
}

// Mutating a batch-dynamic dataset excludes that dataset's builds (both
// take the exclusive per-dataset lock), and the end state is bit-identical
// to replaying the same batches serially.
TEST(EngineConcurrency, MutationExcludesBuildsAndMatchesSerialReplay) {
  constexpr int kBatches = 8;
  constexpr size_t kBatch = 150;
  std::vector<std::vector<std::vector<double>>> batches;
  std::mt19937_64 rng(59);
  std::uniform_real_distribution<double> u(0.0, 100.0);
  for (int b = 0; b < kBatches; ++b) {
    std::vector<std::vector<double>> rows(kBatch);
    for (auto& row : rows) row = {u(rng), u(rng)};
    batches.push_back(std::move(rows));
  }

  ClusteringEngine serial;
  serial.registry().AddDynamic("d", 2);
  for (const auto& rows : batches) {
    ASSERT_EQ(serial.InsertBatch("d", rows), "");
  }
  EngineRequest req;
  req.dataset = "d";
  req.type = QueryType::kHdbscan;
  req.min_pts = 6;
  EngineResponse want = serial.Run(req);
  ASSERT_TRUE(want.ok) << want.error;

  ClusteringEngine engine;
  engine.registry().AddDynamic("d", 2);
  std::atomic<int> failures{0};
  std::thread writer([&] {
    for (const auto& rows : batches) {
      if (!engine.InsertBatch("d", rows).empty()) failures.fetch_add(1);
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 10; ++i) {
        EngineResponse r = engine.Run(req);
        // Builds interleave with inserts: any consistent prefix of the
        // stream is a valid answer; empty-dataset errors are too. Crashes
        // and torn state are what this test hunts (run under TSan in CI).
        if (r.ok && r.mst && r.mst->size() + 1 > kBatches * kBatch) {
          failures.fetch_add(1);
        }
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(failures.load(), 0);

  EngineResponse got = engine.Run(req);
  ASSERT_TRUE(got.ok) << got.error;
  EXPECT_EQ(got.mst_weight, want.mst_weight);
  ASSERT_EQ(got.mst->size(), want.mst->size());
  EXPECT_EQ(SortedWeights(*got.mst), SortedWeights(*want.mst));
  EXPECT_EQ(*got.core_dist, *want.core_dist);
}

// Regression guard for the Registry::Remove vs concurrent Run lifetime
// audit: Find hands each query its own shared_ptr, so an entry removed (or
// replaced) mid-query must stay alive — including its shared_mutex, which
// the query still holds — until the last in-flight query drops it. Queries
// racing a Remove must either answer from their snapshot or report
// "unknown dataset"; nothing may crash or corrupt state. Run under the
// ASan/UBSan CI job this validates the whole lifetime story.
// Every kNN build waits while any width is being built, so when two
// threads race cold builds at minPts 4 and 12 the 12-wide matrix is never
// replaced by the 4-wide one.
TEST(EngineConcurrency, ConcurrentKnnWidthsKeepTheWidest) {
  for (int round = 0; round < 6; ++round) {
    ClusteringEngine engine;
    engine.registry().Add("d", SeedSpreaderVarden<2>(3000, 60 + round, 3));
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int min_pts : {4, 12}) {
      threads.emplace_back([&engine, &failures, min_pts] {
        EngineRequest req;
        req.dataset = "d";
        req.type = QueryType::kHdbscan;
        req.min_pts = min_pts;
        for (int i = 0; i < 3; ++i) {
          if (!engine.Run(req).ok) failures.fetch_add(1);
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(engine.registry().Find("d")->knn_k(), 12u) << "round " << round;
  }
}

TEST(EngineConcurrency, RemoveWhileQueriesInFlight) {
  auto pts = SeedSpreaderVarden<2>(1500, 37, 3);
  ClusteringEngine engine;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        EngineRequest req;
        req.dataset = "d";
        // Mix pure cache hits with builds of new parameterizations so some
        // queries hold the entry across long artifact builds.
        req.type = QueryType::kHdbscan;
        req.min_pts = 3 + (t * 31 + i++) % 6;
        EngineResponse r = engine.Run(req);
        if (!r.ok && r.error.find("unknown dataset") == std::string::npos) {
          failures.fetch_add(1);
        }
        if (r.ok && r.mst->size() + 1 != size_t{1500}) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (int cycle = 0; cycle < 10; ++cycle) {
    engine.registry().Add("d", pts);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    engine.registry().Remove("d");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// The kNN frame (kOpKnnQuery, which the router fans out) and HDBSCAN* on a
// static set and on a dynamic set over the same live points: both run on
// their set's artifact DAG (a dynamic set's DAG over its live points, in
// ascending-gid order), so rows, core distances and MR-MST edges are
// bit-identical, the dynamic set mapping its dense indices to gids.
TEST(EngineFrames, StaticAndDynamicSetsAnswerFramesIdentically) {
  auto all = SeedSpreaderVarden<2>(900, 91, 3);
  ClusteringEngine engine;
  ASSERT_EQ(engine.registry().TryAddDynamic("d", 2), "");
  const size_t kBatches = 4;
  const size_t kBatch = all.size() / kBatches;
  for (size_t b = 0; b < kBatches; ++b) {
    std::vector<Point<2>> batch(all.begin() + b * kBatch,
                                all.begin() + (b + 1) * kBatch);
    ASSERT_EQ(engine.InsertBatch("d", test::RowsFrom(batch)), "");
  }
  std::vector<uint32_t> victims;
  for (uint32_t gid = 0; gid < all.size(); gid += 7) victims.push_back(gid);
  size_t deleted = 0;
  ASSERT_EQ(engine.DeleteBatch("d", victims, &deleted), "");
  ASSERT_EQ(deleted, victims.size());
  std::vector<uint32_t> live_gids;
  std::vector<Point<2>> live;
  for (uint32_t gid = 0; gid < all.size(); ++gid) {
    if (gid % 7 == 0) continue;
    live_gids.push_back(gid);
    live.push_back(all[gid]);
  }
  engine.registry().Add("s", live);

  // Queries: resident points (self at distance 0), deleted points and
  // points off the data; k above the live count pads with +inf.
  std::vector<double> coords;
  for (uint32_t gid : {0u, 1u, 5u, 7u, 400u, 898u}) {
    coords.push_back(all[gid][0]);
    coords.push_back(all[gid][1]);
  }
  coords.insert(coords.end(), {-50.0, 3.0, 1e6, -1e6});
  const size_t count = coords.size() / 2;
  const double inf = std::numeric_limits<double>::infinity();
  for (size_t k : {size_t{1}, size_t{10}, live.size() + 3}) {
    std::vector<double> rows_s, rows_d;
    ASSERT_EQ(engine.KnnForQueries("s", k, coords, count, &rows_s), "");
    ASSERT_EQ(engine.KnnForQueries("d", k, coords, count, &rows_d), "");
    ASSERT_EQ(rows_s.size(), count * k);
    EXPECT_EQ(rows_s, rows_d) << "k=" << k;
    EXPECT_EQ(rows_d[k], 0.0) << "k=" << k;  // query 1 is live gid 1
    EXPECT_TRUE(std::is_sorted(rows_d.begin(), rows_d.begin() + k));
    if (k > live.size()) {
      EXPECT_LT(rows_d[live.size() - 1], inf);
      EXPECT_EQ(rows_d[live.size()], inf);
    }
  }

  EngineRequest req;
  req.dataset = "s";
  req.type = QueryType::kHdbscan;
  req.min_pts = 6;
  EngineResponse hs = engine.Run(req);
  req.dataset = "d";
  EngineResponse hd = engine.Run(req);
  ASSERT_TRUE(hs.ok) << hs.error;
  ASSERT_TRUE(hd.ok) << hd.error;
  ASSERT_EQ(hs.mst->size(), live.size() - 1);
  EXPECT_EQ(*hd.point_ids, live_gids);
  EXPECT_EQ(*hd.core_dist, *hs.core_dist);
  std::vector<WeightedEdge> mst_s = *hs.mst, mst_d = *hd.mst;
  std::sort(mst_s.begin(), mst_s.end());
  std::sort(mst_d.begin(), mst_d.end());
  EXPECT_EQ(mst_s, mst_d);
}

// kNN frames and queries on a dynamic set with no or one live point answer
// as the shard forest always did: +inf rows, no MR-MST edges, and the
// empty set's queries fail with "dataset is empty".
TEST(EngineFrames, EmptyAndSinglePointDynamicSets) {
  ClusteringEngine engine;
  ASSERT_EQ(engine.registry().TryAddDynamic("d", 2), "");
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> coords = {0.5, 0.5, 3.0, 4.0};
  std::vector<double> rows;
  ASSERT_EQ(engine.KnnForQueries("d", 3, coords, 2, &rows), "");
  EXPECT_EQ(rows, std::vector<double>(6, inf));
  EngineRequest req;
  req.dataset = "d";
  req.type = QueryType::kHdbscan;
  req.min_pts = 1;
  EngineResponse r = engine.Run(req);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "dataset is empty");

  uint32_t first = 0;
  ASSERT_EQ(engine.InsertBatch("d", {{0.5, 0.5}, {9.0, 9.0}}, &first), "");
  ASSERT_EQ(engine.DeleteBatch("d", {first + 1}), "");
  ASSERT_EQ(engine.KnnForQueries("d", 3, coords, 2, &rows), "");
  EXPECT_EQ(rows, (std::vector<double>{0.0, inf, inf, 18.5, inf, inf}));
  r = engine.Run(req);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.mst->empty());
  EXPECT_EQ(*r.core_dist, std::vector<double>{0.0});
  EXPECT_EQ(*r.point_ids, std::vector<uint32_t>{first});
}

// The inline read path (TryRunCached, shared lock, no builds) on a dynamic
// set: it answers clustering reads from the live-set DAG of the current
// mutation epoch only. Every insert or delete drops that DAG, so the next
// read misses instead of answering from the previous epoch's points, and
// one Run rebuilds what the inline path then serves unchanged.
TEST(EngineConcurrency, DynamicSetInlineReadsFollowTheMutationEpoch) {
  auto base = SeedSpreaderVarden<2>(800, 93, 3);
  ClusteringEngine engine;
  ASSERT_EQ(engine.registry().TryAddDynamic("d", 2), "");
  ASSERT_EQ(engine.InsertBatch("d", test::RowsFrom(base)), "");

  auto make = [](QueryType type) {
    EngineRequest r;
    r.dataset = "d";
    r.type = type;
    r.min_pts = 8;
    r.eps = 0.5;
    r.min_cluster_size = 10;
    return r;
  };
  const std::vector<EngineRequest> reads = {
      make(QueryType::kHdbscan),
      make(QueryType::kDbscanStarAt),
      make(QueryType::kReachability),
      make(QueryType::kStableClusters),
  };

  auto expect_hit = [&](const EngineRequest& req, const EngineResponse& want) {
    EngineResponse got;
    ASSERT_TRUE(engine.TryRunCached(req, &got));
    ASSERT_TRUE(got.ok) << got.error;
    EXPECT_TRUE(got.from_cache);
    EXPECT_TRUE(got.built.empty());
    EXPECT_EQ(*got.core_dist, *want.core_dist);
    EXPECT_EQ(*got.point_ids, *want.point_ids);
    EXPECT_EQ(got.labels, want.labels);
    ASSERT_EQ(got.mst == nullptr, want.mst == nullptr);
    if (want.mst) EXPECT_EQ(*got.mst, *want.mst);
    ASSERT_EQ(got.plot == nullptr, want.plot == nullptr);
    if (want.plot) {
      EXPECT_EQ(got.plot->order, want.plot->order);
      EXPECT_EQ(got.plot->value, want.plot->value);
    }
  };
  // One Run per read builds (or reuses) its artifacts; the inline path
  // then serves exactly that answer.
  auto run_then_hit = [&](size_t n) {
    for (const EngineRequest& req : reads) {
      EngineResponse want = engine.Run(req);
      ASSERT_TRUE(want.ok) << want.error;
      ASSERT_EQ(want.core_dist->size(), n);
      expect_hit(req, want);
    }
  };
  auto expect_all_miss = [&] {
    for (const EngineRequest& req : reads) {
      EngineResponse got;
      const int type = static_cast<int>(req.type);
      EXPECT_FALSE(engine.TryRunCached(req, &got)) << "type " << type;
    }
  };

  expect_all_miss();  // nothing built yet
  run_then_hit(base.size());

  auto batch = SeedSpreaderVarden<2>(60, 94, 2);
  ASSERT_EQ(engine.InsertBatch("d", test::RowsFrom(batch)), "");
  expect_all_miss();
  run_then_hit(base.size() + batch.size());

  size_t deleted = 0;
  ASSERT_EQ(engine.DeleteBatch("d", {2, 3, 5, 810}, &deleted), "");
  ASSERT_EQ(deleted, size_t{4});
  expect_all_miss();
  run_then_hit(base.size() + batch.size() - 4);
}

}  // namespace
}  // namespace parhc
