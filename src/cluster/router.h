// Multi-node sharded serving: the router tier.
//
// A Router fronts N parhc_netserver workers and speaks the same wire
// protocol (net/protocol.h + net/frame.h) on both sides, so any client of
// a single-node server can point at a router unchanged. It parses every
// request with the single node's parser (net::ParseLine and the
// net::Decode*Frame functions) and answers the verbs both tiers serve
// alike through net::HandleCommonVerb, so a malformed request gets the
// single node's err line; only execution is the router's own. Datasets
// live in one of two modes:
//
//  * Replicated (created by `gen` / `load`): the creation line is
//    broadcast to every worker — generators and loaders are deterministic,
//    so all replicas hold identical data — and reads round-robin across
//    healthy workers, scaling read throughput with the replica count.
//
//  * Sharded (created by `dyn` / `geninsert`): each ingested point gets a
//    global id from the router's watermark (the same contiguous sequence a
//    single-node dynamic dataset would assign) and is placed on worker
//    SplitMix64(gid) % N (cluster/placement.h). Queries run on a per-epoch
//    mirror of the live points (cluster/merge.h), exported once per
//    mutation epoch with the kOpExportPoints frame verb: EMST and
//    HDBSCAN* both run on one static artifact DAG over the mirror in
//    dense (ascending gid) order, exactly as a single node's dynamic set
//    runs its clustering reads over its live points; client kNN frames
//    fan out to every owner and k-way merge. So EMST / HDBSCAN* / kNN
//    answers are bit-identical to a single-node engine over the union —
//    same MST edge set, same edge order, same dendrogram, same labels
//    (tests/cluster_test.cc holds this). Validation, label extraction and
//    the response fill are the single-node code itself (AnswerQuery,
//    engine/artifact_util.h), so error responses are the same too.
//    Response lines differ only in the built=/reused= introspection keys
//    (the router traces its own artifact scheme: mirror, then the mirror
//    DAG's tree, emst, knn@K, ...; a single-node dynamic backend's keys
//    embed LSM content ids no other process can know).
//
// Failure semantics: health checks eject dead upstreams (reads skip them;
// sharded operations whose owners are down fail loudly, except that once
// the current epoch's mirror is exported every EMST and clustering read
// answers from it; client kNN frames still need every owner). A
// recovered worker is re-seeded: replicated datasets replay their
// creation lines (idempotent — the registry replaces by name); sharded
// slices are verified against the placement map via a point export and,
// when lost, restored from the last `save` snapshot if no mutation
// happened since, else the dataset is marked degraded until an operator
// restores it. Partial mutations (a worker failing mid-insert) also
// degrade the dataset rather than serving silently wrong answers.
//
// Trace ids propagate across hops: the router appends " trace=<id>" to
// forwarded lines and wraps every upstream round trip in a "hop:<addr>"
// span, so one client request yields a single trace spanning router and
// workers.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/merge.h"
#include "cluster/placement.h"
#include "cluster/upstream.h"
#include "engine/artifact_util.h"
#include "engine/executor.h"
#include "net/protocol.h"
#include "net/server.h"

namespace parhc {
namespace cluster {

struct RouterOptions {
  int upstream_timeout_ms = 30000;
  /// Bound on concurrent upstream round trips per fan-out (0 = all
  /// workers at once).
  size_t fanout = 0;
  int health_interval_ms = 1000;
  /// Tests drive HealthPass deterministically instead.
  bool start_health_thread = true;
};

class Router {
 public:
  Router(std::vector<std::string> upstream_addrs, RouterOptions opts = {});
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Connects and handshakes every upstream (strict: all must be up and
  /// speak net::kProtocolVersion with role "engine"), then starts the
  /// health thread. Returns "" on success.
  std::string Start();
  void Stop();

  /// Executes one wire message with the given front-end options (the
  /// session's show_timing / stats_source / obs).
  net::ProtocolResult Handle(const net::WireMessage& msg,
                             const net::ProtocolOptions& opts);

  UpstreamPool& pool() { return pool_; }

  /// Registers the router's metric sources (per-upstream counters,
  /// dataset gauge) — RouterSessionFactory::RegisterMetrics.
  void RegisterMetrics(obs::Observability& obs);

  /// One health pass at `now_ms` (test hook; the health thread calls this
  /// periodically): retries dead upstreams with doubling backoff and
  /// re-seeds recovered ones.
  void HealthPassNow(uint64_t now_ms);

 private:
  /// Per-epoch mirror of one sharded dataset, the router's global tier:
  /// replaced wholesale when the dataset's epoch moves, queried through
  /// the same AnswerQuery (engine/artifact_util.h) as the single-node
  /// backends.
  struct Merged {
    uint64_t epoch = 0;
    std::shared_ptr<const std::vector<uint32_t>> dense_gids;  ///< dense->gid
    std::unique_ptr<MergerBase> merger;  ///< the DAG over the mirror
  };

  struct Dataset {
    enum class Mode { kReplicated, kSharded };
    Mode mode = Mode::kReplicated;
    std::string name;  ///< registry name (fan-out payloads need it)
    int dim = 0;
    uint64_t order = 0;       ///< creation order (re-seed replay order)
    std::string seed_line;    ///< replicated: the creating gen/load line
    /// Replicated datasets loaded from snapshots may be batch-dynamic on
    /// the workers; the router refuses to forward mutations to them (a
    /// single replica would diverge).
    bool mutable_on_workers = false;
    size_t static_n = 0;      ///< replicated: n reported at creation

    // Sharded state (guarded by mu).
    std::mutex mu;            ///< serializes sharded operations
    ShardMap map;
    size_t live_n = 0;
    uint64_t epoch = 0;       ///< bumped by every successful mutation
    std::string last_save_dir;
    bool dirty_since_save = true;
    std::string degraded;     ///< non-empty: every sharded op errs with this
    std::unique_ptr<Merged> merged;
  };

  // -- verb handlers (router.cc) --
  /// Executes one parsed text request (net::ParseLine).
  net::ProtocolResult Execute(const net::Command& cmd,
                              const net::ProtocolOptions& opts);
  net::ProtocolResult HandleFrame(uint8_t opcode, const std::string& payload);
  /// Sends `line` to every healthy upstream; replies[i] holds worker i's
  /// raw reply bytes ("" for skipped or failed workers).
  std::vector<std::string> FanLine(std::string_view line);
  std::string Broadcast(std::string_view line, std::string_view verb);
  /// Sends `req` to the next healthy upstream and returns its raw reply.
  std::string Forward(const net::WireMessage& req, std::string_view verb);
  /// A mutation of an unknown or replicated dataset: replicas that a
  /// snapshot load may have made batch-dynamic refuse it (one replica
  /// would diverge); otherwise one worker answers with the exact
  /// single-node reply (unknown dataset, or the immutable-dataset error
  /// that leaves static replicas unchanged).
  std::string ForwardMutation(const Dataset* ds, const net::WireMessage& req,
                              std::string_view verb, const std::string& name);
  /// Adds `ds` under its name, next in creation (re-seed replay) order.
  void Register(std::shared_ptr<Dataset> ds);
  /// The `dyn` step: creates sharded dataset `name` on every worker.
  /// Returns the reply line and, on success, sets *created.
  std::string CreateSharded(const std::string& name, int dim,
                            std::shared_ptr<Dataset>* created);
  /// Answers `req` on sharded `ds` inside a worker group.
  EngineResponse RunSharded(Dataset& ds, const EngineRequest& req);
  std::string ShardedInsert(Dataset& ds, const std::string& name,
                            const std::vector<std::vector<double>>& rows,
                            const char* verb);
  std::string ShardedDelete(Dataset& ds, const std::string& name,
                            const std::vector<uint32_t>& gids);
  std::string ShardedSave(Dataset& ds, const std::string& name,
                          const std::string& dir);
  std::string ShardedLoad(const std::string& name, const std::string& dir);
  /// Answers a query on a sharded dataset through AnswerQuery; the steps
  /// below report failures in out->error.
  void AnswerSharded(Dataset& ds, const EngineRequest& req,
                     EngineResponse* out);
  /// The current epoch's mirror: every live point, exported with one
  /// kOpExportPoints frame per worker holding a slice and checked against
  /// the placement map.
  bool EnsureMirror(Dataset& ds, EngineResponse* out);
  void Reseed(size_t worker);
  void ReseedSharded(size_t worker, Dataset& ds);
  std::string ClusterStatsText() const;
  std::string RouterCountersText() const;

  std::shared_ptr<Dataset> FindDataset(const std::string& name);

  RouterOptions opts_;
  UpstreamPool pool_;
  BuildExecutor executor_;

  mutable std::shared_mutex mu_;  ///< guards datasets_ (brief lookups only)
  std::map<std::string, std::shared_ptr<Dataset>> datasets_;
  uint64_t next_order_ = 0;

  std::thread health_;
  std::atomic<bool> stop_{false};

  std::atomic<uint64_t> forwards_{0};  ///< verbatim round-robin forwards
  std::atomic<uint64_t> fanouts_{0};   ///< broadcast / sharded fan-outs
  std::atomic<uint64_t> merges_{0};    ///< merged artifact builds
};

/// One accepted connection on the router's NetServer.
class RouterSession : public net::SessionHandler {
 public:
  RouterSession(Router& router, net::ProtocolOptions opts)
      : router_(router), opts_(opts) {}

  net::ProtocolResult Handle(const net::WireMessage& msg) override;

 private:
  Router& router_;
  net::ProtocolOptions opts_;
};

class RouterSessionFactory : public net::SessionFactory {
 public:
  explicit RouterSessionFactory(Router& router) : router_(router) {}

  std::shared_ptr<net::SessionHandler> NewSession(
      const net::SessionContext& ctx) override {
    net::ProtocolOptions opts;
    opts.show_timing = ctx.show_timing;
    opts.stats_source = ctx.stats_source;
    opts.obs = ctx.obs;
    return std::make_shared<RouterSession>(router_, opts);
  }

  void RegisterMetrics(obs::Observability& obs) override {
    router_.RegisterMetrics(obs);
  }

 private:
  Router& router_;
};

}  // namespace cluster
}  // namespace parhc
