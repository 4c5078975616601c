// Tests for the multi-node serving tier (src/cluster/): the hello
// handshake, the placement map, and — the load-bearing invariant — that a
// router fronting several real workers answers EMST / HDBSCAN* / label
// queries over a sharded dataset bit-identically to one single-node
// engine over the union, across interleaved insert/delete batches and a
// worker restart restored from a snapshot. Runs under TSan in CI with the
// other concurrency tests.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/placement.h"
#include "cluster/router.h"
#include "cluster/upstream.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/trace.h"
#include "parhc.h"

namespace parhc {
namespace {

using cluster::Router;
using cluster::RouterOptions;
using cluster::ShardMap;
using cluster::Upstream;

/// One in-process engine-backed worker server on a loopback port.
struct Worker {
  explicit Worker(uint16_t port = 0) {
    net::NetServerOptions opts;
    opts.port = port;
    opts.workers = 2;
    opts.show_timing = false;
    engine = std::make_unique<ClusteringEngine>();
    server = std::make_unique<net::NetServer>(*engine, opts);
    EXPECT_EQ(server->Start(), "");
    loop = std::thread([this] { server->Run(); });
  }

  ~Worker() { Stop(); }

  void Stop() {
    if (!server) return;
    server->Shutdown();
    loop.join();
    server.reset();
    engine.reset();
  }

  uint16_t port() const { return server->port(); }
  std::string addr() const {
    return "127.0.0.1:" + std::to_string(port());
  }

  std::unique_ptr<ClusteringEngine> engine;
  std::unique_ptr<net::NetServer> server;
  std::thread loop;
};

net::ProtocolOptions NoTiming() {
  net::ProtocolOptions popts;
  popts.show_timing = false;
  return popts;
}

RouterOptions NoHealth() {
  RouterOptions ropts;
  ropts.start_health_thread = false;
  return ropts;
}

std::string Ask(Router& router, const std::string& line) {
  net::WireMessage msg;
  msg.text = line;
  return router.Handle(msg, NoTiming()).out;
}

/// Drops the built=/reused= introspection tokens: the router traces its
/// own merged-artifact scheme, so those keys legitimately differ from a
/// single-node backend's. Everything else must match byte for byte.
std::string StripArtifacts(const std::string& line) {
  std::istringstream ss(line);
  std::string tok, out;
  while (ss >> tok) {
    if (tok.rfind("built=", 0) == 0 || tok.rfind("reused=", 0) == 0) {
      continue;
    }
    if (!out.empty()) out += ' ';
    out += tok;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Placement map

TEST(Placement, OwnerOfGidIsDeterministicAndInRange) {
  for (uint32_t g = 0; g < 1000; ++g) {
    size_t o = cluster::OwnerOfGid(g, 3);
    EXPECT_LT(o, 3u);
    EXPECT_EQ(o, cluster::OwnerOfGid(g, 3));  // stable
  }
  // Not degenerate: 1000 gids over 3 workers hit every worker.
  std::set<size_t> seen;
  for (uint32_t g = 0; g < 1000; ++g) seen.insert(cluster::OwnerOfGid(g, 3));
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Placement, ShardMapSaveLoadRoundTrip) {
  ShardMap map;
  map.workers = 3;
  map.Allocate(100);
  std::vector<uint32_t> next_local(3, 0);
  for (uint32_t g = 0; g < 100; ++g) {
    map.local[g] = next_local[map.owner[g]]++;
  }
  map.dead[7] = 1;
  map.dead[42] = 1;
  EXPECT_EQ(map.LiveCount(), 98u);

  std::string path = ::testing::TempDir() + "/shard_map_test.map";
  cluster::SaveShardMap(path, /*dim=*/5, map);
  uint32_t dim = 0;
  ShardMap loaded = cluster::LoadShardMap(path, &dim);
  std::remove(path.c_str());

  EXPECT_EQ(dim, 5u);
  EXPECT_EQ(loaded.next_gid, map.next_gid);
  EXPECT_EQ(loaded.workers, map.workers);
  EXPECT_EQ(loaded.owner, map.owner);
  EXPECT_EQ(loaded.local, map.local);
  EXPECT_EQ(loaded.dead, map.dead);
  EXPECT_EQ(loaded.LiveCount(), 98u);
}

// ---------------------------------------------------------------------------
// Handshake

TEST(Upstream, HelloHandshakeVerifiesProtocolAndRole) {
  Worker w;
  Upstream up(w.addr(), /*timeout_ms=*/5000);
  EXPECT_EQ(up.Connect(), "");
  EXPECT_TRUE(up.healthy());
  // The worker advertises its compiled-in dimension caps.
  EXPECT_FALSE(up.dims().empty());
  bool has2 = false;
  for (int d : up.dims()) has2 |= (d == 2);
  EXPECT_TRUE(has2);

  // A router fronting this worker identifies itself as role=router with
  // the same protocol version.
  Router router({w.addr()}, NoHealth());
  EXPECT_EQ(router.Start(), "");
  std::string hello = Ask(router, "hello");
  EXPECT_EQ(hello.rfind("ok hello proto=" +
                            std::to_string(net::kProtocolVersion) +
                            " role=router dims=",
                        0),
            0u)
      << hello;
}

TEST(Upstream, ConnectToDeadPortFailsAndRouterStartIsStrict) {
  Upstream up("127.0.0.1:1", /*timeout_ms=*/500);
  EXPECT_NE(up.Connect(), "");
  EXPECT_FALSE(up.healthy());
  Worker w;
  Router router({w.addr(), "127.0.0.1:1"},
                NoHealth());
  EXPECT_NE(router.Start(), "");  // all workers must be up at startup
}

// ---------------------------------------------------------------------------
// Replicated datasets

TEST(Router, ReplicatedReadsFanOutAndBitMatchSingleNode) {
  Worker w1, w2;
  Router router({w1.addr(), w2.addr()},
                NoHealth());
  ASSERT_EQ(router.Start(), "");

  ClusteringEngine ref_engine;
  net::ProtocolSession ref(ref_engine, NoTiming());

  std::vector<std::string> script = {
      "gen rep 2 uniform 300 7", "emst rep",       "hdbscan rep 8",
      "dbscan rep 8 0.05",       "clusters rep 8 6", "slink rep 4",
      "emst nosuch",
  };
  // Reads round-robin, so each worker's warm/cold artifact state differs
  // from the single reference session's — the built=/reused= keys are the
  // only tokens allowed to diverge.
  for (const std::string& line : script) {
    EXPECT_EQ(StripArtifacts(Ask(router, line)),
              StripArtifacts(ref.HandleLine(line).out))
        << line;
  }
  // Reads round-robin: both upstreams served some of the 7 requests (the
  // gen broadcast alone touches both).
  EXPECT_GT(router.pool().at(0).counters().requests.load(), 1u);
  EXPECT_GT(router.pool().at(1).counters().requests.load(), 1u);

  // The cluster verb surfaces per-upstream counters.
  std::string cl = Ask(router, "cluster");
  EXPECT_NE(cl.find("upstream " + w1.addr() + " healthy=1"),
            std::string::npos)
      << cl;
  EXPECT_NE(cl.find("ok cluster workers=2 healthy=2 datasets=1"),
            std::string::npos)
      << cl;

  // Router-side list shows the serving mode.
  EXPECT_EQ(Ask(router, "list"),
            "dataset rep dim=2 n=300 mode=replicated\nok list\n");
}

// ---------------------------------------------------------------------------
// Sharded oracle

struct Oracle {
  Oracle(Router& router, net::ProtocolSession& ref)
      : router(router), ref(ref) {}

  /// Runs one line on both sides; mutations must match exactly, queries
  /// modulo the built=/reused= keys.
  void Check(const std::string& line) {
    std::string got = Ask(router, line);
    std::string want = ref.HandleLine(line).out;
    EXPECT_EQ(StripArtifacts(got), StripArtifacts(want)) << line;
  }

  Router& router;
  net::ProtocolSession& ref;
};

/// DBSCAN* labels via the binary frame path on both sides — exact int
/// comparison, which transitively pins the merged core distances (labels
/// flip if any core distance differs in even one bit).
void CheckLabelsFrame(Router& router, ClusteringEngine& ref_engine,
                      const std::string& name, int min_pts, double eps) {
  std::string payload;
  net::PutU16(&payload, static_cast<uint16_t>(name.size()));
  payload += name;
  payload += '\0';  // kind 0 = dbscan
  net::PutU32(&payload, static_cast<uint32_t>(min_pts));
  net::PutF64(&payload, eps);
  net::WireMessage msg;
  msg.binary = true;
  msg.opcode = net::kOpGetLabels;
  msg.payload = payload;
  std::string out = router.Handle(msg, NoTiming()).out;
  ASSERT_GT(out.size(), net::kFrameHeaderBytes);
  ASSERT_EQ(static_cast<uint8_t>(out[0]), net::kFrameMagic) << out;
  ASSERT_EQ(static_cast<uint8_t>(out[1]), net::kOpLabelsReply);
  // PayloadReader holds a reference — the payload must outlive it.
  std::string frame_payload = out.substr(net::kFrameHeaderBytes);
  net::PayloadReader rd(frame_payload);
  uint32_t count = rd.GetU32();
  std::vector<int32_t> labels(count);
  for (auto& l : labels) l = static_cast<int32_t>(rd.GetU32());
  ASSERT_TRUE(rd.ok());

  EngineRequest req;
  req.type = QueryType::kDbscanStarAt;
  req.dataset = name;
  req.min_pts = min_pts;
  req.eps = eps;
  EngineResponse r = ref_engine.Run(req);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(labels, r.labels);
}

/// A kOpKnnQuery frame: `queries` holds dim-wide rows.
net::WireMessage KnnFrame(const std::string& name, uint32_t k,
                          const std::vector<double>& queries, int dim) {
  net::WireMessage msg;
  msg.binary = true;
  msg.opcode = net::kOpKnnQuery;
  net::PutU16(&msg.payload, static_cast<uint16_t>(name.size()));
  msg.payload += name;
  net::PutU32(&msg.payload, k);
  net::PutU16(&msg.payload, static_cast<uint16_t>(dim));
  net::PutU32(&msg.payload, static_cast<uint32_t>(queries.size() / dim));
  for (double v : queries) net::PutF64(&msg.payload, v);
  return msg;
}

/// Client-facing kNN via the binary frame path: the router fans the query
/// frame to every owning worker and k-way merges the rows; the reply must
/// byte-match the single-node session (same opcode, count, k, and every
/// squared distance bit-for-bit).
void CheckKnnFrame(Router& router, net::ProtocolSession& ref,
                   const std::string& name, uint32_t k,
                   const std::vector<double>& queries, int dim) {
  net::WireMessage msg = KnnFrame(name, k, queries, dim);
  std::string got = router.Handle(msg, NoTiming()).out;
  std::string want = ref.Handle(msg).out;
  ASSERT_GT(want.size(), net::kFrameHeaderBytes);
  ASSERT_EQ(static_cast<uint8_t>(want[1]), net::kOpKnnReply);
  EXPECT_EQ(got, want) << name << " k=" << k;
}

TEST(Router, ShardedAnswersBitMatchSingleNodeAcrossMutationsAndRestart) {
  Worker w1, w3;
  auto w2 = std::make_unique<Worker>();
  std::vector<std::string> addrs = {w1.addr(), w2->addr(), w3.addr()};
  Router router(addrs, NoHealth());
  ASSERT_EQ(router.Start(), "");

  ClusteringEngine ref_engine;
  net::ProtocolSession ref(ref_engine, NoTiming());
  Oracle oracle(router, ref);

  oracle.Check("dyn s 2");

  std::mt19937 rng(20210621);
  std::set<uint32_t> live;
  uint32_t next_gid = 0;
  std::string snap_dir = ::testing::TempDir() + "/cluster_restart_snap";

  for (int round = 0; round < 6; ++round) {
    // Insert a batch (seed-deterministic on both sides; the router ships
    // the rows to the owners as bit-exact binary frames).
    size_t n = 25 + static_cast<size_t>(rng() % 30);
    const char* kind = (round % 2 == 0) ? "uniform" : "varden";
    oracle.Check("geninsert s 2 " + std::string(kind) + " " +
                 std::to_string(n) + " " + std::to_string(round + 1));
    for (size_t i = 0; i < n; ++i) live.insert(next_gid++);

    // Delete a few random live points (same gids on both sides).
    if (round > 0) {
      size_t kills = 1 + rng() % 6;
      std::string line = "delete s";
      for (size_t k = 0; k < kills && !live.empty(); ++k) {
        auto it = live.begin();
        std::advance(it, rng() % live.size());
        line += ' ' + std::to_string(*it);
        live.erase(it);
      }
      oracle.Check(line);
    }

    int m = 2 + static_cast<int>(rng() % 6);
    oracle.Check("emst s");
    oracle.Check("slink s 3");
    oracle.Check("hdbscan s " + std::to_string(m));
    oracle.Check("dbscan s " + std::to_string(m) + " 0.1");
    oracle.Check("clusters s " + std::to_string(m) + " 4");
    oracle.Check("reach s " + std::to_string(m));
    CheckLabelsFrame(router, ref_engine, "s", m, 0.08);
    std::vector<double> queries;
    for (int q = 0; q < 3 * 2; ++q) {
      queries.push_back((rng() % 1000) / 1000.0);
    }
    CheckKnnFrame(router, ref, "s", static_cast<uint32_t>(m), queries, 2);

    if (round == 3) {
      // Snapshot the cluster, kill worker 2, restart it empty on the same
      // port, and let the health pass restore its slice from the snapshot.
      std::string saved = Ask(router, "save s " + snap_dir);
      ASSERT_EQ(saved, "ok save s dir=" + snap_dir + "\n") << saved;
      ASSERT_TRUE(std::ifstream(snap_dir + "/cluster.map").good());

      uint16_t port = w2->port();
      w2->Stop();
      router.HealthPassNow(1000);  // ping fails -> marked down
      EXPECT_EQ(router.pool().HealthyCount(), 2u);
      // A read that must touch the dead owner fails loudly: a client kNN
      // frame fans out to every owner.
      std::string down =
          router.Handle(KnnFrame("s", 3, {0.5, 0.5}, 2), NoTiming()).out;
      EXPECT_EQ(down, "err knn s: worker 127.0.0.1:" + std::to_string(port) +
                          " is unhealthy\n");
      // EMST and clustering reads need no worker once this epoch's
      // mirror is exported: m=50 exceeds every kNN width built so far and
      // still answers, from the mirror's DAG, and so does the EMST family.
      oracle.Check("hdbscan s 50");
      oracle.Check("emst s");
      oracle.Check("slink s 5");

      w2 = std::make_unique<Worker>(port);  // fresh engine, same address
      router.HealthPassNow(5000);  // backoff expired -> reconnect + reseed
      EXPECT_EQ(router.pool().HealthyCount(), 3u);
    }
  }

  // Mixed single-point text inserts after everything above.
  oracle.Check("insert s 0.125 0.25 0.5 0.75");
  live.insert(next_gid++);
  live.insert(next_gid++);
  oracle.Check("emst s");
  oracle.Check("hdbscan s 4");

  // Error paths stay aligned too.
  oracle.Check("insert s 1.0");            // not a multiple of dim
  oracle.Check("delete s 999999");         // unknown gids -> deleted=0
  oracle.Check("slink s 0");               // k out of range
  oracle.Check("hdbscan s 100000");        // min_pts out of range
  oracle.Check("emst s eps 0.5");          // eps EMST is static-only

  EXPECT_EQ(Ask(router, "drop s"), ref.HandleLine("drop s").out);
}

/// Round trips each upstream has attempted so far.
std::vector<uint64_t> UpstreamRequests(Router& router) {
  std::vector<uint64_t> out;
  for (size_t w = 0; w < router.pool().size(); ++w) {
    out.push_back(router.pool().at(w).counters().requests.load());
  }
  return out;
}

// Once a read has exported the mirror of the current epoch, every EMST
// and clustering read runs on the mirror's artifact DAG: the EMST, a
// single-linkage cut and minPts wider and narrower than any built so far
// answer like the single node without one more upstream round trip.
TEST(Router, ShardedReadsRunOnTheMirror) {
  Worker w1, w2;
  Router router({w1.addr(), w2.addr()}, NoHealth());
  ASSERT_EQ(router.Start(), "");
  ClusteringEngine ref_engine;
  net::ProtocolSession ref(ref_engine, NoTiming());
  Oracle oracle(router, ref);

  oracle.Check("dyn s 2");
  oracle.Check("geninsert s 2 varden 300 5");
  oracle.Check("delete s 3 14 15 92");
  std::string first = Ask(router, "hdbscan s 5");
  EXPECT_NE(first.find(" built=[mirror,tree,knn@5,cd@5,mst@5,dendro@5]"),
            std::string::npos)
      << first;
  EXPECT_EQ(StripArtifacts(first),
            StripArtifacts(ref.HandleLine("hdbscan s 5").out));

  std::vector<uint64_t> before = UpstreamRequests(router);
  oracle.Check("hdbscan s 9");
  oracle.Check("reach s 3");
  oracle.Check("clusters s 12 4");
  oracle.Check("dbscan s 6 0.1");
  CheckLabelsFrame(router, ref_engine, "s", 7, 0.08);
  oracle.Check("emst s");
  oracle.Check("slink s 4");
  EXPECT_EQ(UpstreamRequests(router), before);

  // One- and three-point sets run through the same DAG.
  oracle.Check("dyn t 2");
  oracle.Check("insert t 0.5 0.25");
  oracle.Check("hdbscan t 1");
  oracle.Check("emst t");
  oracle.Check("insert t 0.125 0.75 0.875 0.5");
  oracle.Check("hdbscan t 2");
  oracle.Check("reach t 3");
  oracle.Check("clusters t 2 2");
  oracle.Check("emst t");
  oracle.Check("slink t 2");
}

TEST(Router, ShardedSaveLoadServesWarmAcrossRouterRestart) {
  Worker w1, w2;
  std::string snap_dir = ::testing::TempDir() + "/cluster_reload_snap";
  std::string before;
  {
    Router router({w1.addr(), w2.addr()},
                  NoHealth());
    ASSERT_EQ(router.Start(), "");
    ASSERT_EQ(Ask(router, "dyn p 2"), "ok dyn p dim=2\n");
    ASSERT_EQ(Ask(router, "geninsert p 2 uniform 80 3").substr(0, 2), "ok");
    ASSERT_EQ(Ask(router, "delete p 5 6 7"), "ok delete p deleted=3\n");
    before = StripArtifacts(Ask(router, "hdbscan p 4"));
    ASSERT_EQ(Ask(router, "save p " + snap_dir),
              "ok save p dir=" + snap_dir + "\n");
  }
  // A brand-new router (the workers kept their slices) reloads the
  // sharding map and serves identical answers.
  Router router2({w1.addr(), w2.addr()},
                 NoHealth());
  ASSERT_EQ(router2.Start(), "");
  ASSERT_EQ(Ask(router2, "load p snap " + snap_dir),
            "ok load p dim=2 n=77 warm\n");
  EXPECT_EQ(StripArtifacts(Ask(router2, "hdbscan p 4")), before);
  EXPECT_EQ(Ask(router2, "list"),
            "dataset p dim=2 n=77 mode=sharded\nok list\n");
}

// ---------------------------------------------------------------------------
// Trace propagation across hops

TEST(Router, HopSpansNestInsideTheRequestSpan) {
  Worker w1, w2;
  Router router({w1.addr(), w2.addr()},
                NoHealth());
  ASSERT_EQ(router.Start(), "");

  obs::Tracer& tracer = obs::Tracer::Get();
  tracer.Clear();
  tracer.Enable();
  ASSERT_EQ(Ask(router, "gen tr 2 uniform 200 1").substr(0, 2), "ok");
  ASSERT_EQ(Ask(router, "emst tr").substr(0, 2), "ok");
  tracer.Disable();

  std::string path = ::testing::TempDir() + "/cluster_trace_dump.json";
  ASSERT_EQ(Ask(router, "trace dump " + path).rfind("ok trace dump ", 0),
            0u);
  std::ifstream f(path, std::ios::binary);
  ASSERT_TRUE(f.good());
  std::string json((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  tracer.Clear();

  // Pull (name, ts, dur, trace) out of the Chrome trace_event stream.
  struct Ev {
    std::string name;
    double ts = 0, dur = 0;
    unsigned long long trace = 0;
  };
  std::vector<Ev> events;
  size_t pos = 0;
  const std::string kName = "{\"name\":\"";
  while ((pos = json.find(kName, pos)) != std::string::npos) {
    Ev e;
    size_t nb = pos + kName.size();
    size_t ne = json.find("\",\"cat\":\"", nb);
    ASSERT_NE(ne, std::string::npos);
    e.name = json.substr(nb, ne - nb);
    size_t body = json.find("\"ts\":", ne);
    ASSERT_NE(body, std::string::npos);
    ASSERT_EQ(std::sscanf(json.c_str() + body,
                          "\"ts\":%lf,\"dur\":%lf,\"pid\":%*d,\"tid\":%*d,"
                          "\"args\":{\"trace\":%llu}}",
                          &e.ts, &e.dur, &e.trace),
              3)
        << e.name;
    events.push_back(std::move(e));
    pos = ne;
  }

  // Each of the two requests minted one trace; every hop:<addr> span must
  // join its request's trace and nest inside the request:<verb> root by
  // time containment — that is the cross-hop propagation contract.
  std::map<unsigned long long, std::vector<const Ev*>> by_trace;
  for (const Ev& e : events) {
    if (e.trace != 0) by_trace[e.trace].push_back(&e);
  }
  constexpr double kEpsUs = 0.002;
  int hops_checked = 0;
  for (const auto& [trace_id, spans] : by_trace) {
    // The in-process workers share the process-global tracer, so each
    // trace also holds the WORKER-side request:* spans the propagated id
    // produced; the router's root is the outermost (longest) one.
    const Ev* root = nullptr;
    for (const Ev* e : spans) {
      if (e->name.rfind("request:", 0) == 0 &&
          (root == nullptr || e->dur > root->dur)) {
        root = e;
      }
    }
    ASSERT_NE(root, nullptr) << "orphan spans for trace " << trace_id;
    for (const Ev* e : spans) {
      if (e->name.rfind("hop:", 0) != 0) continue;
      EXPECT_GE(e->ts + kEpsUs, root->ts) << e->name;
      EXPECT_LE(e->ts + e->dur, root->ts + root->dur + kEpsUs) << e->name;
      ++hops_checked;
    }
  }
  // gen broadcasts to both workers; emst reads from one: >= 3 hops.
  EXPECT_GE(hops_checked, 3);
}

}  // namespace
}  // namespace parhc
