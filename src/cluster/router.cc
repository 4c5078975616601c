// Router-tier verb implementations (see router.h for the architecture and
// exactness/failure contracts).
//
// Requests arrive parsed by net::ParseLine, and responses reuse the
// single-node formatting (net/protocol.cc): a client sees the same bytes
// whether it talks to one worker or to a router fronting many — except
// the built=/reused= keys, which name the router's own merged artifacts.
#include "cluster/router.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <string_view>

#include "obs/trace.h"
#include "store/manifest.h"

namespace parhc {
namespace cluster {

namespace {

using net::StrPrintf;

uint64_t NowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Worker subdirectory for worker `w` under a sharded save/load dir.
std::string WorkerDir(const std::string& dir, size_t w) {
  return dir + "/w" + std::to_string(w);
}

std::string NoHealthyUpstream(std::string_view verb) {
  return StrPrintf("err %.*s: no healthy upstream\n",
                   static_cast<int>(verb.size()), verb.data());
}

net::WireMessage TextMessage(std::string_view line) {
  net::WireMessage msg;
  msg.text = line;
  return msg;
}

}  // namespace

Router::Router(std::vector<std::string> upstream_addrs, RouterOptions opts)
    : opts_(opts),
      pool_(std::move(upstream_addrs), opts.upstream_timeout_ms, opts.fanout) {}

Router::~Router() { Stop(); }

std::string Router::Start() {
  std::string err = pool_.ConnectAll();
  if (!err.empty()) return err;
  if (opts_.start_health_thread) {
    stop_.store(false, std::memory_order_release);
    health_ = std::thread([this] {
      while (!stop_.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(opts_.health_interval_ms));
        if (stop_.load(std::memory_order_acquire)) break;
        HealthPassNow(NowMs());
      }
    });
  }
  return "";
}

void Router::Stop() {
  stop_.store(true, std::memory_order_release);
  if (health_.joinable()) health_.join();
}

void Router::HealthPassNow(uint64_t now_ms) {
  for (size_t w : pool_.HealthPass(now_ms)) Reseed(w);
}

std::shared_ptr<Router::Dataset> Router::FindDataset(const std::string& name) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = datasets_.find(name);
  return it == datasets_.end() ? nullptr : it->second;
}

// ---- upstream fan-out / forwarding primitives ---------------------------

std::vector<std::string> Router::FanLine(std::string_view line) {
  fanouts_.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::string> replies(pool_.size());
  net::WireMessage req = TextMessage(line);
  pool_.ForEach([&](size_t i, Upstream& up) {
    if (!up.healthy()) return;
    net::WireMessage reply;
    std::string raw;
    if (up.Roundtrip(req, &reply, &raw)) replies[i] = raw;
  });
  return replies;
}

std::string Router::Broadcast(std::string_view line, std::string_view verb) {
  for (const std::string& r : FanLine(line)) {
    if (!r.empty()) return r;
  }
  return NoHealthyUpstream(verb);
}

std::string Router::Forward(const net::WireMessage& req,
                            std::string_view verb) {
  forwards_.fetch_add(1, std::memory_order_relaxed);
  for (size_t attempt = 0; attempt < pool_.size(); ++attempt) {
    Upstream* up = pool_.NextHealthy();
    if (up == nullptr) break;
    net::WireMessage reply;
    std::string raw;
    if (up->Roundtrip(req, &reply, &raw)) return raw;
  }
  return NoHealthyUpstream(verb);
}

std::string Router::ForwardMutation(const Dataset* ds,
                                    const net::WireMessage& req,
                                    std::string_view verb,
                                    const std::string& name) {
  if (ds != nullptr && ds->mutable_on_workers) {
    return StrPrintf(
        "err %.*s %s: replicated dataset is read-only via the router\n",
        static_cast<int>(verb.size()), verb.data(), name.c_str());
  }
  return Forward(req, verb);
}

void Router::Register(std::shared_ptr<Dataset> ds) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  ds->order = next_order_++;
  datasets_[ds->name] = std::move(ds);
}

// ---- sharded mutations --------------------------------------------------

std::string Router::ShardedInsert(Dataset& ds, const std::string& name,
                                  const std::vector<std::vector<double>>& rows,
                                  const char* verb) {
  if (!ds.degraded.empty()) {
    return StrPrintf("err %s %s: %s\n", verb, name.c_str(),
                     ds.degraded.c_str());
  }
  size_t w_count = pool_.size();
  uint32_t first = ds.map.next_gid;
  // Owners are derived from the un-advanced watermark; the map only
  // mutates after every owner acknowledged its sub-batch.
  std::vector<std::vector<double>> flat(w_count);
  std::vector<size_t> counts(w_count, 0);
  for (size_t i = 0; i < rows.size(); ++i) {
    // Refused here, before any worker mutates: a worker refusing its
    // sub-batch would leave the others inserted.
    if (!AllFinite(rows[i].data(), rows[i].size())) {
      return StrPrintf("err %s %s: %s\n", verb, name.c_str(),
                       kNonFiniteCoordinates);
    }
    size_t w = OwnerOfGid(first + static_cast<uint32_t>(i), w_count);
    ++counts[w];
    flat[w].insert(flat[w].end(), rows[i].begin(), rows[i].end());
  }
  for (size_t w = 0; w < w_count; ++w) {
    if (counts[w] != 0 && !pool_.at(w).healthy()) {
      return StrPrintf("err %s %s: worker %s is unhealthy\n", verb,
                       name.c_str(), pool_.at(w).addr().c_str());
    }
  }
  std::vector<uint32_t> wfirst(w_count, 0);
  std::vector<uint8_t> ok(w_count, 1);
  std::vector<std::string> errs(w_count);
  std::atomic<bool> io_fail{false};
  pool_.ForEach([&](size_t w, Upstream& up) {
    if (counts[w] == 0) return;
    std::string payload;
    net::PutU16(&payload, static_cast<uint16_t>(name.size()));
    payload += name;
    net::PutU16(&payload, static_cast<uint16_t>(ds.dim));
    net::PutU32(&payload, static_cast<uint32_t>(counts[w]));
    for (double v : flat[w]) net::PutF64(&payload, v);
    net::WireMessage req;
    req.binary = true;
    req.opcode = net::kOpInsertPoints;
    req.payload = std::move(payload);
    net::WireMessage reply;
    if (!up.Roundtrip(req, &reply, nullptr)) {
      ok[w] = 0;
      io_fail.store(true, std::memory_order_relaxed);
      errs[w] = "worker " + up.addr() + " failed mid-insert";
      return;
    }
    unsigned long n = 0;
    unsigned a = 0, b = 0;
    if (reply.binary ||
        sscanf(reply.text.c_str(), "ok insert %*s n=%lu gids=[%u,%u)", &n, &a,
               &b) != 3 ||
        n != counts[w]) {
      ok[w] = 0;
      errs[w] = reply.binary ? "unexpected frame reply" : reply.text;
      return;
    }
    wfirst[w] = a;
  });
  size_t mutated = 0, failed = 0;
  std::string first_err;
  for (size_t w = 0; w < w_count; ++w) {
    if (counts[w] == 0) continue;
    if (ok[w]) {
      ++mutated;
    } else {
      ++failed;
      if (first_err.empty()) first_err = errs[w];
    }
  }
  if (failed != 0) {
    // A clean refusal with no other worker mutated leaves the cluster
    // consistent; anything else (I/O loss mid-batch, mixed outcomes)
    // leaves worker state unknowable — stop serving wrong answers.
    if (mutated != 0 || io_fail.load(std::memory_order_relaxed)) {
      ds.degraded = "partial insert failure (" + first_err +
                    "); restore from a snapshot";
      ds.epoch++;
    }
    return StrPrintf("err %s %s: %s\n", verb, name.c_str(), first_err.c_str());
  }
  ds.map.Allocate(rows.size());
  std::vector<uint32_t> next_local = wfirst;
  for (uint32_t g = first; g < first + static_cast<uint32_t>(rows.size());
       ++g) {
    ds.map.local[g] = next_local[ds.map.owner[g]]++;
  }
  ds.live_n += rows.size();
  ds.epoch++;
  ds.dirty_since_save = true;
  return StrPrintf("ok %s %s n=%zu gids=[%u,%u)\n", verb, name.c_str(),
                   rows.size(), first,
                   first + static_cast<uint32_t>(rows.size()));
}

std::string Router::ShardedDelete(Dataset& ds, const std::string& name,
                                  const std::vector<uint32_t>& gids) {
  if (!ds.degraded.empty()) {
    return StrPrintf("err delete %s: %s\n", name.c_str(), ds.degraded.c_str());
  }
  size_t w_count = pool_.size();
  std::vector<std::vector<uint32_t>> locals(w_count);
  std::set<uint32_t> pending;
  for (uint32_t g : gids) {
    if (g >= ds.map.next_gid || ds.map.dead[g]) continue;
    if (!pending.insert(g).second) continue;  // duplicate in this request
    locals[ds.map.owner[g]].push_back(ds.map.local[g]);
  }
  // Unknown or already-dead ids are skipped, like the single-node
  // DeleteIds contract.
  if (pending.empty()) {
    return StrPrintf("ok delete %s deleted=0\n", name.c_str());
  }
  for (size_t w = 0; w < w_count; ++w) {
    if (!locals[w].empty() && !pool_.at(w).healthy()) {
      return StrPrintf("err delete %s: worker %s is unhealthy\n", name.c_str(),
                       pool_.at(w).addr().c_str());
    }
  }
  std::vector<uint8_t> ok(w_count, 1);
  std::vector<std::string> errs(w_count);
  std::atomic<bool> io_fail{false};
  pool_.ForEach([&](size_t w, Upstream& up) {
    if (locals[w].empty()) return;
    std::string line = "delete " + name;
    for (uint32_t l : locals[w]) line += ' ' + std::to_string(l);
    std::string reply;
    if (!up.SendLine(line, &reply)) {
      ok[w] = 0;
      io_fail.store(true, std::memory_order_relaxed);
      errs[w] = "worker " + up.addr() + " failed mid-delete";
      return;
    }
    unsigned long deleted = 0;
    if (sscanf(reply.c_str(), "ok delete %*s deleted=%lu", &deleted) != 1 ||
        deleted != locals[w].size()) {
      ok[w] = 0;
      errs[w] = reply;
    }
  });
  size_t mutated = 0, failed = 0;
  std::string first_err;
  for (size_t w = 0; w < w_count; ++w) {
    if (locals[w].empty()) continue;
    if (ok[w]) {
      ++mutated;
    } else {
      ++failed;
      if (first_err.empty()) first_err = errs[w];
    }
  }
  if (failed != 0) {
    if (mutated != 0 || io_fail.load(std::memory_order_relaxed)) {
      ds.degraded = "partial delete failure (" + first_err +
                    "); restore from a snapshot";
      ds.epoch++;
    }
    return StrPrintf("err delete %s: %s\n", name.c_str(), first_err.c_str());
  }
  for (uint32_t g : pending) ds.map.dead[g] = 1;
  ds.live_n -= pending.size();
  ds.epoch++;
  ds.dirty_since_save = true;
  return StrPrintf("ok delete %s deleted=%zu\n", name.c_str(), pending.size());
}

std::string Router::ShardedSave(Dataset& ds, const std::string& name,
                                const std::string& dir) {
  if (!ds.degraded.empty()) {
    return StrPrintf("err save %s: %s\n", name.c_str(), ds.degraded.c_str());
  }
  if (pool_.HealthyCount() != pool_.size()) {
    return StrPrintf("err save %s: need all %zu workers healthy\n",
                     name.c_str(), pool_.size());
  }
  std::vector<uint8_t> ok(pool_.size(), 0);
  std::vector<std::string> errs(pool_.size());
  pool_.ForEach([&](size_t w, Upstream& up) {
    std::string reply;
    if (!up.SendLine("save " + name + ' ' + WorkerDir(dir, w), &reply)) {
      errs[w] = "worker " + up.addr() + " failed during save";
      return;
    }
    if (reply.rfind("ok save ", 0) != 0) {
      errs[w] = reply;
      return;
    }
    ok[w] = 1;
  });
  for (size_t w = 0; w < pool_.size(); ++w) {
    if (!ok[w]) {
      return StrPrintf("err save %s: %s\n", name.c_str(), errs[w].c_str());
    }
  }
  EnsureDatasetDir(dir);
  SaveShardMap(dir + "/cluster.map", static_cast<uint32_t>(ds.dim), ds.map);
  ds.last_save_dir = dir;
  ds.dirty_since_save = false;
  return StrPrintf("ok save %s dir=%s\n", name.c_str(), dir.c_str());
}

std::string Router::ShardedLoad(const std::string& name,
                                const std::string& dir) {
  uint32_t dim = 0;
  ShardMap map;
  try {
    map = LoadShardMap(dir + "/cluster.map", &dim);
  } catch (const std::exception& e) {
    return StrPrintf("err load %s: %s\n", name.c_str(), e.what());
  }
  if (map.workers != pool_.size()) {
    return StrPrintf("err load %s: cluster map expects %u workers, have %zu\n",
                     name.c_str(), map.workers, pool_.size());
  }
  if (pool_.HealthyCount() != pool_.size()) {
    return StrPrintf("err load %s: need all %zu workers healthy\n",
                     name.c_str(), pool_.size());
  }
  std::vector<uint8_t> ok(pool_.size(), 0);
  std::vector<std::string> errs(pool_.size());
  pool_.ForEach([&](size_t w, Upstream& up) {
    std::string reply;
    if (!up.SendLine("load " + name + " snap " + WorkerDir(dir, w), &reply)) {
      errs[w] = "worker " + up.addr() + " failed during load";
      return;
    }
    if (reply.rfind("ok load ", 0) != 0) {
      errs[w] = reply;
      return;
    }
    ok[w] = 1;
  });
  for (size_t w = 0; w < pool_.size(); ++w) {
    if (!ok[w]) {
      return StrPrintf("err load %s: %s\n", name.c_str(), errs[w].c_str());
    }
  }
  auto ds = std::make_shared<Dataset>();
  ds->mode = Dataset::Mode::kSharded;
  ds->name = name;
  ds->dim = static_cast<int>(dim);
  ds->map = std::move(map);
  ds->live_n = ds->map.LiveCount();
  ds->epoch = 1;
  ds->last_save_dir = dir;
  ds->dirty_since_save = false;
  Register(ds);
  return StrPrintf("ok load %s dim=%d n=%zu warm\n", name.c_str(), ds->dim,
                   ds->live_n);
}

// ---- merged query pipeline (sharded datasets) ---------------------------

bool Router::EnsureMirror(Dataset& ds, EngineResponse* out) {
  if (ds.merged && ds.merged->epoch == ds.epoch) {
    TraceArtifact(out, /*built=*/false, "mirror");
    return true;
  }
  size_t w_count = pool_.size();
  size_t n = ds.live_n;
  int dim = ds.dim;

  // Expected slice of every worker, straight from the placement map: pairs
  // (worker-local gid, dense index) pushed in ascending-global order. Local
  // gids grow monotonically with global gids per worker, so this is also
  // ascending-local — the order ExportLive replies in.
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> expect(w_count);
  auto dense_gids = std::make_shared<std::vector<uint32_t>>();
  dense_gids->reserve(n);
  for (uint32_t g = 0; g < ds.map.next_gid; ++g) {
    if (ds.map.dead[g]) continue;
    expect[ds.map.owner[g]].push_back(
        {ds.map.local[g], static_cast<uint32_t>(dense_gids->size())});
    dense_gids->push_back(g);
  }
  for (size_t w = 0; w < w_count; ++w) {
    if (!expect[w].empty() && !pool_.at(w).healthy()) {
      out->error = "worker " + pool_.at(w).addr() + " is unhealthy";
      return false;
    }
  }

  // Every worker writes its rows straight into their dense positions.
  std::vector<double> coords(n * static_cast<size_t>(dim));
  std::vector<std::string> errs(w_count);
  pool_.ForEach([&](size_t w, Upstream& up) {
    if (expect[w].empty()) return;
    std::string payload;
    net::PutU16(&payload, static_cast<uint16_t>(ds.name.size()));
    payload += ds.name;
    net::WireMessage req;
    req.binary = true;
    req.opcode = net::kOpExportPoints;
    req.payload = std::move(payload);
    net::WireMessage reply;
    if (!up.Roundtrip(req, &reply, nullptr)) {
      errs[w] = "worker " + up.addr() + " failed during point export";
      return;
    }
    if (!reply.binary || reply.opcode != net::kOpPointsReply) {
      errs[w] = reply.binary ? "unexpected frame reply" : reply.text;
      return;
    }
    net::PayloadReader rd(reply.payload);
    int rdim = static_cast<int>(rd.GetU16());
    uint32_t count = rd.GetU32();
    if (!rd.ok() || rdim != dim || count != expect[w].size()) {
      errs[w] = "worker " + up.addr() +
                " slice does not match the placement map";
      return;
    }
    for (uint32_t l = 0; l < count; ++l) {
      if (rd.GetU32() != expect[w][l].first) {
        errs[w] = "worker " + up.addr() +
                  " slice does not match the placement map";
        return;
      }
    }
    for (const auto& [local, dense] : expect[w]) {
      double* row = coords.data() + static_cast<size_t>(dense) * dim;
      for (int d = 0; d < dim; ++d) row[d] = rd.GetF64();
    }
    if (!rd.ok() || rd.remaining() != 0) {
      errs[w] = "worker " + up.addr() + " sent a malformed points reply";
    }
  });
  for (size_t w = 0; w < w_count; ++w) {
    if (!errs[w].empty()) {
      out->error = errs[w];
      return false;
    }
  }
  auto merged = std::make_unique<Merged>();
  merged->epoch = ds.epoch;
  merged->dense_gids = std::move(dense_gids);
  merged->merger = MakeMerger(dim, coords, n);
  if (!merged->merger) {
    out->error = "unsupported dataset dimension " + std::to_string(dim);
    return false;
  }
  ds.merged = std::move(merged);
  TraceArtifact(out, /*built=*/true, "mirror");
  return true;
}

void Router::AnswerSharded(Dataset& ds, const EngineRequest& req,
                           EngineResponse* out) {
  if (!ds.degraded.empty()) {
    out->error = ds.degraded;
    return;
  }
  AnswerQuery(
      req, ds.live_n, out,
      [&](bool need_dendro, EmstView* v) {
        if (!EnsureMirror(ds, out)) return true;
        return ds.merged->merger->Emst(need_dendro, out, v);
      },
      [&](int min_pts, bool need_plot, ClusteringView* v) {
        if (!EnsureMirror(ds, out)) return true;
        return ds.merged->merger->Clustering(min_pts, need_plot, out, v);
      });
  if (out->ok) out->point_ids = ds.merged->dense_gids;
}

// ---- recovery -----------------------------------------------------------

void Router::Reseed(size_t worker) {
  // Replay order is creation order: later seed lines may reference
  // datasets earlier ones created.
  std::vector<std::pair<uint64_t, std::pair<std::string,
                                            std::shared_ptr<Dataset>>>> all;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    for (auto& kv : datasets_) {
      all.push_back({kv.second->order, {kv.first, kv.second}});
    }
  }
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  Upstream& up = pool_.at(worker);
  for (auto& item : all) {
    Dataset& ds = *item.second.second;
    if (ds.mode == Dataset::Mode::kReplicated) {
      // The registry replaces by name, so replay is idempotent whether the
      // worker lost the dataset (process restart) or kept it (transient
      // network failure).
      std::string reply;
      up.SendLine(ds.seed_line, &reply);
    } else {
      std::lock_guard<std::mutex> lock(ds.mu);
      ReseedSharded(worker, ds);
    }
  }
}

void Router::ReseedSharded(size_t worker, Dataset& ds) {
  Upstream& up = pool_.at(worker);
  const std::string& name = ds.name;
  std::vector<uint32_t> expected;
  for (uint32_t g = 0; g < ds.map.next_gid; ++g) {
    if (!ds.map.dead[g] && ds.map.owner[g] == worker) {
      expected.push_back(ds.map.local[g]);
    }
  }
  // Read-only probe: never recreate a sharded dataset with `dyn` while it
  // may still hold points — the registry would atomically replace it.
  std::string payload;
  net::PutU16(&payload, static_cast<uint16_t>(name.size()));
  payload += name;
  net::WireMessage req;
  req.binary = true;
  req.opcode = net::kOpExportPoints;
  req.payload = std::move(payload);
  net::WireMessage reply;
  if (!up.Roundtrip(req, &reply, nullptr)) return;  // next pass retries
  if (reply.binary && reply.opcode == net::kOpPointsReply) {
    net::PayloadReader rd(reply.payload);
    rd.GetU16();  // dim
    uint32_t count = rd.GetU32();
    bool intact = rd.ok() && count == expected.size();
    for (uint32_t l = 0; intact && l < count; ++l) {
      intact = rd.GetU32() == expected[l];
    }
    if (intact) return;  // transient outage; the slice survived
    ds.degraded = "worker " + up.addr() + " slice diverged from the " +
                  "placement map; restore from a snapshot";
    return;
  }
  // The worker lost the dataset (restart). Restore what we can prove.
  if (expected.empty()) {
    std::string ignored;
    up.SendLine("dyn " + name + ' ' + std::to_string(ds.dim), &ignored);
    return;
  }
  if (!ds.dirty_since_save && !ds.last_save_dir.empty()) {
    std::string r1, r2;
    up.SendLine("drop " + name, &r1);
    if (up.SendLine(
            "load " + name + " snap " + WorkerDir(ds.last_save_dir, worker),
            &r2) &&
        r2.rfind("ok load ", 0) == 0) {
      return;
    }
  }
  ds.degraded = "worker " + up.addr() + " lost its slice of " + name +
                " with unsynced mutations; restore from a snapshot";
}

// ---- observability ------------------------------------------------------

std::string Router::RouterCountersText() const {
  return StrPrintf(
      "router_forwards=%llu router_fanouts=%llu router_merges=%llu "
      "upstreams=%zu upstreams_healthy=%zu",
      static_cast<unsigned long long>(
          forwards_.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          fanouts_.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(merges_.load(std::memory_order_relaxed)),
      pool_.size(), pool_.HealthyCount());
}

std::string Router::ClusterStatsText() const {
  std::string out;
  for (size_t i = 0; i < pool_.size(); ++i) {
    const Upstream& up = pool_.at(i);
    const UpstreamCounters& c = up.counters();
    out += StrPrintf(
        "upstream %s healthy=%d requests=%llu errors=%llu reconnects=%llu "
        "bytes_out=%llu bytes_in=%llu\n",
        up.addr().c_str(), up.healthy() ? 1 : 0,
        static_cast<unsigned long long>(
            c.requests.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            c.errors.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            c.reconnects.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            c.bytes_out.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            c.bytes_in.load(std::memory_order_relaxed)));
  }
  size_t n_datasets;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    n_datasets = datasets_.size();
  }
  out += StrPrintf("ok cluster workers=%zu healthy=%zu datasets=%zu\n",
                   pool_.size(), pool_.HealthyCount(), n_datasets);
  return out;
}

void Router::RegisterMetrics(obs::Observability& obs) {
  obs.metrics.AddSource([this](obs::MetricsBuilder& b) {
    b.Gauge("parhc_router_upstreams", "Configured upstream workers.",
            static_cast<double>(pool_.size()));
    b.Gauge("parhc_router_upstreams_healthy",
            "Upstream workers currently passing health checks.",
            static_cast<double>(pool_.HealthyCount()));
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      b.Gauge("parhc_router_datasets", "Datasets tracked by the router.",
              static_cast<double>(datasets_.size()));
    }
    b.Counter("parhc_router_forwards_total",
              "Requests forwarded verbatim to one upstream.",
              static_cast<double>(forwards_.load(std::memory_order_relaxed)));
    b.Counter("parhc_router_fanouts_total",
              "Requests fanned out to multiple upstreams.",
              static_cast<double>(fanouts_.load(std::memory_order_relaxed)));
    b.Counter("parhc_router_merges_total",
              "Distributed artifact merges executed.",
              static_cast<double>(merges_.load(std::memory_order_relaxed)));
    for (size_t i = 0; i < pool_.size(); ++i) {
      const Upstream& up = pool_.at(i);
      const UpstreamCounters& c = up.counters();
      obs::MetricsBuilder::Labels labels{{"upstream", up.addr()}};
      b.Counter("parhc_router_upstream_requests_total",
                "Round trips attempted per upstream.",
                static_cast<double>(
                    c.requests.load(std::memory_order_relaxed)),
                labels);
      b.Counter("parhc_router_upstream_errors_total",
                "Failed round trips per upstream.",
                static_cast<double>(c.errors.load(std::memory_order_relaxed)),
                labels);
      b.Counter(
          "parhc_router_upstream_reconnects_total",
          "Successful reconnects per upstream.",
          static_cast<double>(c.reconnects.load(std::memory_order_relaxed)),
          labels);
    }
  });
}

// ---- dispatch ----

net::ProtocolResult Router::Handle(const net::WireMessage& msg,
                                   const net::ProtocolOptions& opts) {
  if (msg.binary) return HandleFrame(msg.opcode, msg.payload);
  return net::ExecuteLine(msg.text, [&](const net::Command& cmd) {
    return Execute(cmd, opts);
  });
}

std::string Router::CreateSharded(const std::string& name, int dim,
                                  std::shared_ptr<Dataset>* created) {
  if (pool_.HealthyCount() != pool_.size()) {
    return StrPrintf(
        "err dyn %s: need all %zu workers healthy to create a sharded "
        "dataset\n",
        name.c_str(), pool_.size());
  }
  for (const std::string& r : FanLine("dyn " + name + ' ' +
                                      std::to_string(dim))) {
    if (r.rfind("ok dyn ", 0) != 0) {
      return r.empty() ? StrPrintf("err dyn %s: a worker dropped out during "
                                   "creation\n",
                                   name.c_str())
                       : r;
    }
  }
  auto ds = std::make_shared<Dataset>();
  ds->mode = Dataset::Mode::kSharded;
  ds->name = name;
  ds->dim = dim;
  ds->map.workers = static_cast<uint32_t>(pool_.size());
  Register(ds);
  *created = std::move(ds);
  return StrPrintf("ok dyn %s dim=%d\n", name.c_str(), dim);
}

EngineResponse Router::RunSharded(Dataset& ds, const EngineRequest& req) {
  merges_.fetch_add(1, std::memory_order_relaxed);
  EngineResponse r;
  std::lock_guard<std::mutex> lock(ds.mu);
  // The mirror DAG's builds (kd-tree, kNN, MSTs, dendrograms) issue
  // parallel scheduler work, so they run inside a worker group like any
  // engine build.
  executor_.RunBuild([&] { AnswerSharded(ds, req, &r); });
  return r;
}

net::ProtocolResult Router::Execute(const net::Command& cmd,
                                    const net::ProtocolOptions& opts) {
  using Mode = Dataset::Mode;
  net::ProtocolResult res;
  std::string& out = res.out;
  const std::string& name = cmd.name;
  switch (cmd.verb) {
    case net::VerbId("stats"):
      out = "ok stats ";
      if (opts.stats_source) {
        out += opts.stats_source->Stats().Format();
        out += ' ';
      }
      out += RouterCountersText();
      out += ' ';
      out += executor_.stats().Format();
      out += '\n';
      break;
    case net::VerbId("cluster"):
      out = ClusterStatsText();
      break;
    case net::VerbId("list"): {
      std::shared_lock<std::shared_mutex> lock(mu_);
      for (const auto& kv : datasets_) {
        const Dataset& ds = *kv.second;
        bool sharded = ds.mode == Mode::kSharded;
        out += StrPrintf("dataset %s dim=%d n=%zu mode=%s\n", kv.first.c_str(),
                         ds.dim, sharded ? ds.live_n : ds.static_n,
                         sharded ? "sharded" : "replicated");
      }
      out += "ok list\n";
      break;
    }
    case net::VerbId("gen"):
    case net::VerbId("load"): {
      bool snap = cmd.verb == net::VerbId("load") && cmd.kind == "snap";
      if (snap && std::ifstream(cmd.path + "/cluster.map").good()) {
        out = ShardedLoad(name, cmd.path);
        break;
      }
      out = Broadcast(cmd.line, cmd.verb_text);
      int dim = 0;
      unsigned long n = 0;
      if (sscanf(out.c_str(), "ok %*s %*s dim=%d n=%lu", &dim, &n) == 2) {
        auto ds = std::make_shared<Dataset>();
        ds->mode = Mode::kReplicated;
        ds->name = name;
        ds->dim = dim;
        ds->static_n = n;
        ds->seed_line = cmd.line;
        // A snapshot may hold a batch-dynamic dataset; forwarding a
        // mutation to one replica would silently desynchronize the rest,
        // so such datasets are read-only through the router.
        ds->mutable_on_workers = snap;
        Register(std::move(ds));
      }
      break;
    }
    case net::VerbId("dyn"): {
      std::shared_ptr<Dataset> ds;
      out = CreateSharded(name, cmd.dim, &ds);
      break;
    }
    case net::VerbId("save"): {
      auto ds = FindDataset(name);
      if (ds && ds->mode == Mode::kSharded) {
        std::lock_guard<std::mutex> lock(ds->mu);
        out = ShardedSave(*ds, name, cmd.path);
      } else {
        // Replicated (or unknown — the worker answers with the exact
        // single-node error): any one replica holds the full dataset.
        out = Forward(TextMessage(cmd.line), cmd.verb_text);
      }
      break;
    }
    case net::VerbId("insert"): {
      auto ds = FindDataset(name);
      if (!ds || ds->mode == Mode::kReplicated) {
        out = ForwardMutation(ds.get(), TextMessage(cmd.line), cmd.verb_text,
                              name);
        break;
      }
      std::vector<std::vector<double>> rows;
      out = net::InsertRows(cmd, ds->dim, &rows);
      if (out.empty()) {
        std::lock_guard<std::mutex> lock(ds->mu);
        out = ShardedInsert(*ds, name, rows, "insert");
      }
      break;
    }
    case net::VerbId("geninsert"): {
      auto ds = FindDataset(name);
      if (ds && ds->mode == Mode::kReplicated) {
        out = ForwardMutation(ds.get(), TextMessage(cmd.line), cmd.verb_text,
                              name);
        break;
      }
      if (ds && ds->dim != cmd.dim) {
        out = StrPrintf("err geninsert %s: %s\n", name.c_str(),
                        RowDimMismatch(ds->dim).c_str());
        break;
      }
      // The generators are seed-deterministic, so running them on the
      // router yields bit-identical rows to a single-node `geninsert`;
      // shipping them as binary frames preserves every double exactly.
      std::vector<std::vector<double>> rows = executor_.RunBuild([&] {
        return net::GenerateRows(cmd.dim, cmd.kind, cmd.n, cmd.seed);
      });
      if (!ds) {
        out = CreateSharded(name, cmd.dim, &ds);
        if (!ds) break;
      }
      std::lock_guard<std::mutex> lock(ds->mu);
      out = ShardedInsert(*ds, name, rows, "geninsert");
      break;
    }
    case net::VerbId("delete"): {
      auto ds = FindDataset(name);
      if (!ds || ds->mode == Mode::kReplicated) {
        out = ForwardMutation(ds.get(), TextMessage(cmd.line), cmd.verb_text,
                              name);
      } else {
        std::lock_guard<std::mutex> lock(ds->mu);
        out = ShardedDelete(*ds, name, cmd.gids);
      }
      break;
    }
    case net::VerbId("drop"): {
      out = Broadcast(cmd.line, cmd.verb_text);
      std::unique_lock<std::shared_mutex> lock(mu_);
      datasets_.erase(name);
      break;
    }
    case net::VerbId("emst"):
    case net::VerbId("slink"):
    case net::VerbId("hdbscan"):
    case net::VerbId("dbscan"):
    case net::VerbId("reach"):
    case net::VerbId("clusters"): {
      const EngineRequest& req = cmd.query;
      auto ds = FindDataset(req.dataset);
      if (!ds || ds->mode == Mode::kReplicated) {
        // Replicated (round-robin across replicas) or unknown (the worker
        // answers with the exact single-node unknown-dataset error).
        out = Forward(TextMessage(cmd.line), cmd.verb_text);
        break;
      }
      uint64_t t0 = obs::NowNs();
      EngineResponse r = RunSharded(*ds, req);
      r.seconds = static_cast<double>(obs::NowNs() - t0) * 1e-9;
      out = net::FormatQueryResponse(std::string(cmd.verb_text), req.dataset,
                                     r, opts.show_timing);
      break;
    }
    default:
      return net::HandleCommonVerb(cmd, opts, "router");
  }
  return res;
}

net::ProtocolResult Router::HandleFrame(uint8_t opcode,
                                        const std::string& payload) {
  using Mode = Dataset::Mode;
  net::ProtocolResult res;
  std::string& out = res.out;
  try {
    net::WireMessage fwd;
    fwd.binary = true;
    fwd.opcode = opcode;
    fwd.payload = payload;
    if (opcode == net::kOpInsertPoints) {
      net::InsertFrame f;
      out = net::DecodeInsertFrame(payload, &f);
      if (!out.empty()) return res;
      auto ds = FindDataset(f.name);
      if (!ds || ds->mode == Mode::kReplicated) {
        out = ForwardMutation(ds.get(), fwd, "insert", f.name);
      } else if (ds->dim != f.dim) {
        out = StrPrintf("err insert %s: frame dim %d != dataset dim %d\n",
                        f.name.c_str(), f.dim, ds->dim);
      } else {
        std::lock_guard<std::mutex> lock(ds->mu);
        out = ShardedInsert(*ds, f.name, f.rows, "insert");
      }
    } else if (opcode == net::kOpGetLabels) {
      EngineRequest req;
      out = net::DecodeLabelsFrame(payload, &req);
      if (!out.empty()) return res;
      auto ds = FindDataset(req.dataset);
      if (!ds || ds->mode == Mode::kReplicated) {
        out = Forward(fwd, "labels");
        return res;
      }
      EngineResponse r = RunSharded(*ds, req);
      out = r.ok ? net::EncodeLabelsReply(r.labels)
                 : StrPrintf("err labels %s: %s\n", req.dataset.c_str(),
                             r.error.c_str());
    } else if (opcode == net::kOpKnnQuery) {
      net::KnnFrame f;
      out = net::DecodeKnnFrame(payload, &f);
      if (!out.empty()) return res;
      const std::string& name = f.name;
      uint32_t count = f.count;
      uint32_t k = f.k;
      auto ds = FindDataset(name);
      if (!ds || ds->mode == Mode::kReplicated) {
        out = Forward(fwd, "knn");
        return res;
      }
      std::lock_guard<std::mutex> lock(ds->mu);
      if (!ds->degraded.empty()) {
        out = StrPrintf("err knn %s: %s\n", name.c_str(), ds->degraded.c_str());
        return res;
      }
      if (ds->live_n == 0) {
        // Every worker holds the (empty) dataset; any one answers exactly
        // what a single node would.
        out = Forward(fwd, "knn");
        return res;
      }
      // The client payload is already in worker form, so the identical
      // frame fans out to every worker holding a live slice; each answers
      // with its k nearest per query point (rows sorted, +inf padded) and
      // the k-way merge of those rows is exactly the k nearest over the
      // union — no mirror needed for client-facing kNN.
      std::vector<uint32_t> live_per(pool_.size(), 0);
      for (uint32_t g = 0; g < ds->map.next_gid; ++g) {
        if (!ds->map.dead[g]) ++live_per[ds->map.owner[g]];
      }
      for (size_t w = 0; w < pool_.size(); ++w) {
        if (live_per[w] != 0 && !pool_.at(w).healthy()) {
          out = StrPrintf("err knn %s: worker %s is unhealthy\n", name.c_str(),
                          pool_.at(w).addr().c_str());
          return res;
        }
      }
      fanouts_.fetch_add(1, std::memory_order_relaxed);
      merges_.fetch_add(1, std::memory_order_relaxed);
      std::vector<std::vector<double>> worker_rows;
      std::mutex rows_mu;
      std::vector<std::string> errs(pool_.size());
      pool_.ForEach([&](size_t w, Upstream& up) {
        if (live_per[w] == 0) return;
        net::WireMessage reply;
        if (!up.Roundtrip(fwd, &reply, nullptr)) {
          errs[w] =
              StrPrintf("err knn %s: worker %s failed during kNN fan-out\n",
                        name.c_str(), up.addr().c_str());
          return;
        }
        if (!reply.binary || reply.opcode != net::kOpKnnReply) {
          // Worker-side text errors (k out of range, dim mismatch) pass
          // through verbatim so the router matches single-node bytes.
          errs[w] = reply.binary ? StrPrintf("err knn %s: unexpected frame "
                                             "reply\n",
                                             name.c_str())
                                 : reply.text;
          return;
        }
        net::PayloadReader rr(reply.payload);
        uint32_t rcount = rr.GetU32();
        uint32_t rk = rr.GetU32();
        if (!rr.ok() || rcount != count || rk != k ||
            rr.remaining() !=
                static_cast<size_t>(count) * k * sizeof(double)) {
          errs[w] =
              StrPrintf("err knn %s: worker %s sent a malformed kNN reply\n",
                        name.c_str(), up.addr().c_str());
          return;
        }
        std::vector<double> rows(static_cast<size_t>(count) * k);
        for (double& v : rows) v = rr.GetF64();
        std::lock_guard<std::mutex> rl(rows_mu);
        worker_rows.push_back(std::move(rows));
      });
      for (const std::string& e : errs) {
        if (!e.empty()) {
          out = e;
          return res;
        }
      }
      std::vector<double> merged_rows;
      executor_.RunBuild([&] {
        merged_rows = MergeKnnRows(count, k, worker_rows);
      });
      std::string reply;
      reply.reserve(8 + merged_rows.size() * sizeof(double));
      net::PutU32(&reply, count);
      net::PutU32(&reply, k);
      for (double v : merged_rows) net::PutF64(&reply, v);
      out = net::EncodeFrame(net::kOpKnnReply, reply);
    } else if (opcode == net::kOpExportPoints || opcode == net::kOpExportMst) {
      net::PayloadReader rd(payload);
      std::string name = rd.GetBytes(rd.GetU16());
      auto ds = rd.ok() && !name.empty() ? FindDataset(name) : nullptr;
      if (ds && ds->mode == Mode::kSharded) {
        // Export frames read one engine's own dataset (the router's mirror
        // export, a client's EMST edge read); a sharded dataset spans
        // every worker, so no single worker could answer them.
        out = "err export " + name +
              ": not supported on sharded datasets via the router\n";
      } else {
        out = Forward(fwd, "export");
      }
    } else {
      out = StrPrintf("err frame: unknown opcode 0x%02x\n", opcode);
    }
  } catch (const std::exception& e) {
    out = StrPrintf("err frame: %s\n", e.what());
  }
  return res;
}

net::ProtocolResult RouterSession::Handle(const net::WireMessage& msg) {
  return router_.Handle(msg, opts_);
}

}  // namespace cluster
}  // namespace parhc
