// Router-tier verb implementations (see router.h for the architecture and
// exactness/failure contracts).
//
// Response formatting deliberately reuses the single-node format strings
// (net/protocol.cc): a client sees the same bytes whether it talks to one
// worker or to a router fronting many — except the built=/reused= keys,
// which name the router's own merged artifacts.
#include "cluster/router.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string_view>

#include "graph/kruskal.h"
#include "obs/trace.h"
#include "obs/verb_counters.h"
#include "store/manifest.h"
#include "util/check.h"

namespace parhc {
namespace cluster {

namespace {

std::string StrPrintf(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  char buf[512];
  int n = vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  if (n < 0) return {};
  if (static_cast<size_t>(n) < sizeof buf) return std::string(buf, n);
  std::string big(static_cast<size_t>(n) + 1, '\0');
  va_start(ap, fmt);
  vsnprintf(&big[0], big.size(), fmt, ap);
  va_end(ap);
  big.resize(static_cast<size_t>(n));
  return big;
}

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

/// Dense index of a worker-local gid via the slice's ascending-local
/// array (edge endpoints arrive as worker-local gids; slices are small
/// enough that a binary search per endpoint is in the noise next to the
/// network round trip).
bool DenseOfLocal(const std::vector<uint32_t>& worker_local,
                  const std::vector<uint32_t>& worker_dense, uint32_t local,
                  uint32_t* dense) {
  auto it = std::lower_bound(worker_local.begin(), worker_local.end(), local);
  if (it == worker_local.end() || *it != local) return false;
  *dense = worker_dense[static_cast<size_t>(it - worker_local.begin())];
  return true;
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

std::vector<std::string> Router::FanLine(const std::string& line) {
  fanouts_.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::string> replies(pool_.size());
  pool_.ForEach([&](size_t i, Upstream& up) {
    if (!up.healthy()) return;
    net::WireMessage req;
    req.text = line;
    net::WireMessage reply;
    std::string raw;
    if (up.Roundtrip(req, &reply, &raw)) replies[i] = raw;
  });
  return replies;
}

std::string Router::Broadcast(const std::string& line,
                              const std::string& verb) {
  for (const std::string& r : FanLine(line)) {
    if (!r.empty()) return r;
  }
  return StrPrintf("err %s: no healthy upstream\n", verb.c_str());
}

std::string Router::ForwardRead(const std::string& line,
                                const std::string& verb) {
  forwards_.fetch_add(1, std::memory_order_relaxed);
  net::WireMessage req;
  req.text = line;
  for (size_t attempt = 0; attempt < pool_.size(); ++attempt) {
    Upstream* up = pool_.NextHealthy();
    if (up == nullptr) break;
    net::WireMessage reply;
    std::string raw;
    if (up->Roundtrip(req, &reply, &raw)) return raw;
  }
  return StrPrintf("err %s: no healthy upstream\n", verb.c_str());
}

std::string Router::ForwardFrame(const net::WireMessage& req,
                                 const std::string& verb) {
  forwards_.fetch_add(1, std::memory_order_relaxed);
  for (size_t attempt = 0; attempt < pool_.size(); ++attempt) {
    Upstream* up = pool_.NextHealthy();
    if (up == nullptr) break;
    net::WireMessage reply;
    std::string raw;
    if (up->Roundtrip(req, &reply, &raw)) return raw;
  }
  return StrPrintf("err %s: no healthy upstream\n", verb.c_str());
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
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    ds->order = next_order_++;
    datasets_[name] = ds;
  }
  return StrPrintf("ok load %s dim=%d n=%zu warm\n", name.c_str(), ds->dim,
                   ds->live_n);
}

// ---- merged query pipeline (sharded datasets) ---------------------------

bool Router::EnsureMirror(Dataset& ds, EngineResponse* out) {
  if (ds.merged && ds.merged->epoch == ds.epoch && ds.merged->mirror_ok) {
    TraceArtifact(out, /*built=*/false, "mirror");
    return true;
  }
  auto merged = std::make_unique<Merged>();
  merged->epoch = ds.epoch;
  size_t w_count = pool_.size();
  size_t n = ds.live_n;
  int dim = ds.dim;

  // Expected slice of every worker, straight from the placement map: pairs
  // (worker-local gid, global gid) pushed in ascending-global order. Local
  // gids grow monotonically with global gids per worker, so this is also
  // ascending-local — the order ExportLive replies in.
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> expect(w_count);
  std::vector<uint32_t> dense_of(ds.map.next_gid, 0);
  auto dense_gids = std::make_shared<std::vector<uint32_t>>();
  dense_gids->reserve(n);
  for (uint32_t g = 0; g < ds.map.next_gid; ++g) {
    if (ds.map.dead[g]) continue;
    dense_of[g] = static_cast<uint32_t>(dense_gids->size());
    dense_gids->push_back(g);
    expect[ds.map.owner[g]].push_back({ds.map.local[g], g});
  }
  for (size_t w = 0; w < w_count; ++w) {
    if (!expect[w].empty() && !pool_.at(w).healthy()) {
      out->error = "worker " + pool_.at(w).addr() + " is unhealthy";
      return false;
    }
  }

  merged->coords.assign(n * static_cast<size_t>(dim), 0.0);
  merged->worker_dense.assign(w_count, {});
  merged->worker_local.assign(w_count, {});
  std::vector<WorkerSlice> slices(w_count);
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
    std::vector<uint32_t>& wl = merged->worker_local[w];
    std::vector<uint32_t>& wd = merged->worker_dense[w];
    wl.resize(count);
    wd.resize(count);
    for (uint32_t l = 0; l < count; ++l) {
      uint32_t local = rd.GetU32();
      if (local != expect[w][l].first) {
        errs[w] = "worker " + up.addr() +
                  " slice does not match the placement map";
        return;
      }
      wl[l] = local;
      wd[l] = dense_of[expect[w][l].second];
    }
    WorkerSlice& s = slices[w];
    s.dense = wd;
    s.coords.resize(static_cast<size_t>(count) * dim);
    for (double& v : s.coords) v = rd.GetF64();
    if (!rd.ok() || rd.remaining() != 0) {
      errs[w] = "worker " + up.addr() + " sent a malformed points reply";
      return;
    }
    for (uint32_t l = 0; l < count; ++l) {
      std::memcpy(&merged->coords[static_cast<size_t>(wd[l]) * dim],
                  &s.coords[static_cast<size_t>(l) * dim],
                  sizeof(double) * static_cast<size_t>(dim));
    }
  });
  for (size_t w = 0; w < w_count; ++w) {
    if (!errs[w].empty()) {
      out->error = errs[w];
      return false;
    }
  }
  merged->dense_gids = std::move(dense_gids);
  merged->merger = MakeMerger(dim);
  if (!merged->merger) {
    out->error = "unsupported dataset dimension " + std::to_string(dim);
    return false;
  }
  merged->merger->SetWorkers(slices);
  merged->mirror_ok = true;
  ds.merged = std::move(merged);
  TraceArtifact(out, /*built=*/true, "mirror");
  return true;
}

bool Router::EnsureKnn(Dataset& ds, size_t k, EngineResponse* out) {
  Merged& m = *ds.merged;
  if (m.knn_ok && m.knn_k >= k) {
    TraceArtifact(out, /*built=*/false, "knn@" + std::to_string(m.knn_k));
    return true;
  }
  size_t n = ds.live_n;
  size_t K = std::min(std::max(k, m.knn_k), n);
  obs::Span span(BuildSpanName("knn@" + std::to_string(K)), "engine");
  std::vector<std::vector<double>> worker_rows;
  std::vector<std::string> errs(pool_.size());
  std::mutex rows_mu;
  pool_.ForEach([&](size_t w, Upstream& up) {
    if (m.worker_dense[w].empty()) return;
    std::string payload;
    net::PutU16(&payload, static_cast<uint16_t>(ds.name.size()));
    payload += ds.name;
    net::PutU32(&payload, static_cast<uint32_t>(K));
    net::PutU16(&payload, static_cast<uint16_t>(ds.dim));
    net::PutU32(&payload, static_cast<uint32_t>(n));
    for (double v : m.coords) net::PutF64(&payload, v);
    net::WireMessage req;
    req.binary = true;
    req.opcode = net::kOpKnnQuery;
    req.payload = std::move(payload);
    net::WireMessage reply;
    if (!up.Roundtrip(req, &reply, nullptr)) {
      errs[w] = "worker " + up.addr() + " failed during kNN fan-out";
      return;
    }
    if (!reply.binary || reply.opcode != net::kOpKnnReply) {
      errs[w] = reply.binary ? "unexpected frame reply" : reply.text;
      return;
    }
    net::PayloadReader rd(reply.payload);
    uint32_t count = rd.GetU32();
    uint32_t rk = rd.GetU32();
    if (!rd.ok() || count != n || rk != K ||
        rd.remaining() != static_cast<size_t>(n) * K * sizeof(double)) {
      errs[w] = "worker " + up.addr() + " sent a malformed kNN reply";
      return;
    }
    std::vector<double> rows(static_cast<size_t>(n) * K);
    for (double& v : rows) v = rd.GetF64();
    std::lock_guard<std::mutex> lock(rows_mu);
    worker_rows.push_back(std::move(rows));
  });
  for (const std::string& e : errs) {
    if (!e.empty()) {
      out->error = e;
      return false;
    }
  }
  m.knn_sq = MergeKnnRows(n, K, worker_rows);
  m.knn_k = K;
  m.knn_ok = true;
  TraceArtifact(out, /*built=*/true, "knn@" + std::to_string(K));
  return true;
}

std::shared_ptr<const std::vector<double>> Router::CoreDist(
    Dataset& ds, int min_pts, EngineResponse* out) {
  Merged& m = *ds.merged;
  const std::string key = "cd@" + std::to_string(min_pts);
  auto it = m.clusterings.core.find(min_pts);
  if (it != m.clusterings.core.end()) {
    TraceArtifact(out, /*built=*/false, key);
    return it->second;
  }
  obs::Span span(BuildSpanName(key), "engine");
  if (!EnsureKnn(ds, static_cast<size_t>(min_pts), out)) return nullptr;
  size_t n = ds.live_n;
  size_t stride = m.knn_k;
  auto cd = std::make_shared<std::vector<double>>(n);
  for (size_t i = 0; i < n; ++i) {
    (*cd)[i] = std::sqrt(m.knn_sq[i * stride + (min_pts - 1)]);
  }
  m.clusterings.core.emplace(min_pts, cd);
  TraceArtifact(out, /*built=*/true, key);
  return cd;
}

template <typename Append>
std::shared_ptr<const std::vector<WeightedEdge>> Router::MergedMst(
    Dataset& ds, uint8_t opcode, const char* what, const Append& append,
    std::vector<WeightedEdge> edges, EngineResponse* out) {
  Merged& m = *ds.merged;
  std::vector<std::string> errs(pool_.size());
  std::mutex edges_mu;
  pool_.ForEach([&](size_t w, Upstream& up) {
    if (m.worker_dense[w].empty()) return;
    std::string payload;
    net::PutU16(&payload, static_cast<uint16_t>(ds.name.size()));
    payload += ds.name;
    append(w, &payload);
    net::WireMessage req;
    req.binary = true;
    req.opcode = opcode;
    req.payload = std::move(payload);
    net::WireMessage reply;
    if (!up.Roundtrip(req, &reply, nullptr)) {
      errs[w] = "worker " + up.addr() + " failed during " + what + " fan-out";
      return;
    }
    if (!reply.binary || reply.opcode != net::kOpEdgesReply) {
      errs[w] = reply.binary ? "unexpected frame reply" : reply.text;
      return;
    }
    net::PayloadReader rd(reply.payload);
    uint32_t count = rd.GetU32();
    if (!rd.ok() || rd.remaining() != static_cast<size_t>(count) * 16) {
      errs[w] = "worker " + up.addr() + " sent a malformed edges reply";
      return;
    }
    std::vector<WeightedEdge> got(count);
    for (WeightedEdge& e : got) {
      uint32_t lu = rd.GetU32();
      uint32_t lv = rd.GetU32();
      double wgt = rd.GetF64();
      uint32_t du = 0, dv = 0;
      if (!DenseOfLocal(m.worker_local[w], m.worker_dense[w], lu, &du) ||
          !DenseOfLocal(m.worker_local[w], m.worker_dense[w], lv, &dv)) {
        errs[w] = "worker " + up.addr() + " returned an unknown edge id";
        return;
      }
      e = {du, dv, wgt};
    }
    std::lock_guard<std::mutex> lock(edges_mu);
    edges.insert(edges.end(), got.begin(), got.end());
  });
  for (const std::string& e : errs) {
    if (!e.empty()) {
      out->error = e;
      return nullptr;
    }
  }
  std::vector<WeightedEdge> mst = KruskalMst(ds.live_n, std::move(edges));
  PARHC_CHECK_MSG(mst.size() + 1 == ds.live_n,
                  "cluster MST candidates did not span all points");
  return std::make_shared<const std::vector<WeightedEdge>>(std::move(mst));
}

std::shared_ptr<ClusteringEntry> Router::BuildClustering(
    Dataset& ds, int min_pts, EngineResponse* out) {
  Merged& m = *ds.merged;
  auto cd = CoreDist(ds, min_pts, out);
  if (!cd) return nullptr;
  // Per-worker MR-MSTs under the *globally* merged core distances, in each
  // worker's ascending-gid order.
  auto append_core = [&](size_t w, std::string* payload) {
    net::PutU32(payload, static_cast<uint32_t>(m.worker_dense[w].size()));
    for (uint32_t dense : m.worker_dense[w]) net::PutF64(payload, (*cd)[dense]);
  };
  auto mst = MergedMst(ds, net::kOpShardMrMst, "MR-MST", append_core,
                       m.merger->CrossMrEdges(*cd), out);
  if (!mst) return nullptr;
  auto e = std::make_shared<ClusteringEntry>();
  e->core_dist = cd;
  e->mst = mst;
  e->mst_weight = TotalEdgeWeight(*mst);
  return e;
}

bool Router::EnsureEmst(Dataset& ds, EngineResponse* out) {
  Merged& m = *ds.merged;
  if (m.emst.mst) {
    TraceArtifact(out, /*built=*/false, "forest-emst");
    return true;
  }
  obs::Span span("build:forest-emst", "engine");
  m.emst.mst = MergedMst(ds, net::kOpExportMst, "EMST",
                         [](size_t, std::string*) {},
                         m.merger->CrossEmstEdges(), out);
  if (!m.emst.mst) return false;
  m.emst.mst_weight = TotalEdgeWeight(*m.emst.mst);
  TraceArtifact(out, /*built=*/true, "forest-emst");
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
        if (!EnsureMirror(ds, out) || !EnsureEmst(ds, out)) return true;
        Merged& m = *ds.merged;
        auto dendro = [&] {
          return BuildDendrogramArtifact(ds.live_n, *m.emst.mst);
        };
        if (need_dendro) {
          EnsureDerived(m.emst.dendrogram, "sl-dendro", /*allow_build=*/true,
                        out, dendro);
        }
        *v = m.emst;
        return true;
      },
      [&](int min_pts, bool need_plot, ClusteringView* v) {
        if (!EnsureMirror(ds, out)) return true;
        return ds.merged->clusterings.View(
            min_pts, need_plot, ds.live_n, /*allow_build=*/true, out,
            [&] { return BuildClustering(ds, min_pts, out); }, v);
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

// ---- dispatch -----------------------------------------------------------

net::ProtocolResult Router::Handle(const net::WireMessage& msg,
                                   const net::ProtocolOptions& opts) {
  if (msg.binary) return HandleFrame(msg.opcode, msg.payload, opts);
  // Same trace bookkeeping as ProtocolSession::HandleLine: standalone
  // front-ends (tests driving the router in-process) mint ids here; the
  // TCP server installs a context before dispatch, making this a no-op.
  obs::Tracer& tracer = obs::Tracer::Get();
  if (obs::CurrentTraceId() != 0) return DispatchLine(msg.text, opts);
  std::string stripped = msg.text;
  uint64_t propagated = net::ExtractTraceSuffix(&stripped);
  if (propagated == 0 && !tracer.enabled()) return DispatchLine(stripped, opts);
  obs::TraceContext ctx(propagated ? propagated : tracer.MintTraceId());
  size_t b = stripped.find_first_not_of(" \t");
  size_t e = stripped.find_first_of(" \t", b);
  std::string_view verb =
      b == std::string::npos
          ? std::string_view()
          : std::string_view(stripped.data() + b,
                             (e == std::string::npos ? stripped.size() : e) -
                                 b);
  obs::Span span(
      obs::VerbCounters::kRequestSpanNames[obs::VerbCounters::IndexOf(verb)],
      "net");
  return DispatchLine(stripped, opts);
}

net::ProtocolResult Router::DispatchLine(const std::string& line,
                                         const net::ProtocolOptions& opts) {
  net::ProtocolResult res;
  if (line.empty() || line[0] == '#') return res;
  std::istringstream ss(line);
  std::string cmd;
  ss >> cmd;
  try {
    if (cmd == "quit" || cmd == "exit") {
      res.quit = true;
    } else if (cmd == "help") {
      res.out = net::ProtocolHelpText();
    } else if (cmd == "hello") {
      res.out = net::HelloLine("router");
    } else if (cmd == "stats") {
      res.out = "ok stats ";
      if (opts.stats_source) {
        res.out += opts.stats_source->Stats().Format();
        res.out += ' ';
      }
      res.out += RouterCountersText();
      res.out += ' ';
      res.out += executor_.stats().Format();
      res.out += '\n';
    } else if (cmd == "cluster") {
      res.out = ClusterStatsText();
    } else if (cmd == "list") {
      std::shared_lock<std::shared_mutex> lock(mu_);
      for (const auto& kv : datasets_) {
        const Dataset& ds = *kv.second;
        bool sharded = ds.mode == Dataset::Mode::kSharded;
        res.out += StrPrintf("dataset %s dim=%d n=%zu mode=%s\n",
                             kv.first.c_str(), ds.dim,
                             sharded ? ds.live_n : ds.static_n,
                             sharded ? "sharded" : "replicated");
      }
      res.out += "ok list\n";
    } else if (cmd == "gen") {
      std::string name, kind;
      int dim = 0;
      size_t n = 0;
      ss >> name >> dim >> kind >> n;
      std::string reply = Broadcast(line, cmd);
      if (reply.rfind("ok gen ", 0) == 0 && !name.empty()) {
        auto ds = std::make_shared<Dataset>();
        ds->mode = Dataset::Mode::kReplicated;
        ds->name = name;
        ds->dim = dim;
        ds->static_n = n;
        ds->seed_line = line;
        std::unique_lock<std::shared_mutex> lock(mu_);
        ds->order = next_order_++;
        datasets_[name] = ds;
      }
      res.out = reply;
    } else if (cmd == "load") {
      std::string name, fmt, path;
      ss >> name >> fmt >> path;
      if (fmt == "snap" &&
          std::ifstream(path + "/cluster.map").good()) {
        res.out = ShardedLoad(name, path);
        return res;
      }
      std::string reply = Broadcast(line, cmd);
      int dim = 0;
      unsigned long n = 0;
      if (sscanf(reply.c_str(), "ok load %*s dim=%d n=%lu", &dim, &n) == 2 &&
          !name.empty()) {
        auto ds = std::make_shared<Dataset>();
        ds->mode = Dataset::Mode::kReplicated;
        ds->name = name;
        ds->dim = dim;
        ds->static_n = n;
        ds->seed_line = line;
        // A snapshot may hold a batch-dynamic dataset; forwarding a
        // mutation to one replica would silently desynchronize the rest,
        // so such datasets are read-only through the router.
        ds->mutable_on_workers = fmt == "snap";
        std::unique_lock<std::shared_mutex> lock(mu_);
        ds->order = next_order_++;
        datasets_[name] = ds;
      }
      res.out = reply;
    } else if (cmd == "dyn") {
      std::string name;
      int dim = 0;
      ss >> name >> dim;
      if (ss.fail() || name.empty()) {
        res.out = "err dyn: usage: dyn <name> <dim>\n";
        return res;
      }
      if (pool_.HealthyCount() != pool_.size()) {
        res.out = StrPrintf(
            "err dyn %s: need all %zu workers healthy to create a sharded "
            "dataset\n",
            name.c_str(), pool_.size());
        return res;
      }
      std::vector<std::string> replies = FanLine(line);
      for (const std::string& r : replies) {
        if (r.rfind("ok dyn ", 0) != 0) {
          res.out = r.empty()
                        ? StrPrintf("err dyn %s: a worker dropped out during "
                                    "creation\n",
                                    name.c_str())
                        : r;
          return res;
        }
      }
      auto ds = std::make_shared<Dataset>();
      ds->mode = Dataset::Mode::kSharded;
      ds->name = name;
      ds->dim = dim;
      ds->map.workers = static_cast<uint32_t>(pool_.size());
      {
        std::unique_lock<std::shared_mutex> lock(mu_);
        ds->order = next_order_++;
        datasets_[name] = ds;
      }
      res.out = StrPrintf("ok dyn %s dim=%d\n", name.c_str(), dim);
    } else if (cmd == "save") {
      std::string name, dir;
      ss >> name >> dir;
      if (name.empty() || dir.empty()) {
        res.out = "err save: usage: save <name> <dir>\n";
        return res;
      }
      auto ds = FindDataset(name);
      if (ds && ds->mode == Dataset::Mode::kSharded) {
        std::lock_guard<std::mutex> lock(ds->mu);
        res.out = ShardedSave(*ds, name, dir);
      } else {
        // Replicated (or unknown — the worker answers with the exact
        // single-node error): any one replica holds the full dataset.
        res.out = ForwardRead(line, cmd);
      }
    } else if (cmd == "insert") {
      std::string name;
      ss >> name;
      auto ds = FindDataset(name);
      if (!ds) {
        res.out = ForwardRead(line, cmd);
        return res;
      }
      if (ds->mode == Dataset::Mode::kReplicated) {
        if (ds->mutable_on_workers) {
          res.out = StrPrintf(
              "err insert %s: replicated dataset is read-only via the "
              "router\n",
              name.c_str());
        } else {
          // Static replicas refuse mutations with the single-node
          // immutable-dataset error and stay unchanged — forward for the
          // exact bytes.
          res.out = ForwardRead(line, cmd);
        }
        return res;
      }
      int dim = ds->dim;
      std::vector<double> vals;
      double v;
      while (ss >> v) vals.push_back(v);
      if (!ss.eof()) {
        res.out = StrPrintf("err insert %s: malformed coordinate\n",
                            name.c_str());
        return res;
      }
      if (vals.empty() || vals.size() % static_cast<size_t>(dim) != 0) {
        res.out = StrPrintf(
            "err insert %s: need a multiple of %d coordinates\n", name.c_str(),
            dim);
        return res;
      }
      std::vector<std::vector<double>> rows(vals.size() / dim);
      for (size_t i = 0; i < rows.size(); ++i) {
        rows[i].assign(vals.begin() + i * dim, vals.begin() + (i + 1) * dim);
      }
      std::lock_guard<std::mutex> lock(ds->mu);
      res.out = ShardedInsert(*ds, name, rows, "insert");
    } else if (cmd == "geninsert") {
      std::string name, kind;
      int dim = 0;
      size_t n = 0;
      uint64_t seed = 1;
      ss >> name >> dim >> kind >> n;
      if (!(ss >> seed)) seed = 1;
      if (name.empty() || n == 0 || !DatasetRegistry::SupportedDim(dim)) {
        res.out = "err geninsert: usage/unsupported dim\n";
        return res;
      }
      auto ds = FindDataset(name);
      if (ds && ds->mode == Dataset::Mode::kReplicated) {
        res.out = ds->mutable_on_workers
                      ? StrPrintf("err geninsert %s: replicated dataset is "
                                  "read-only via the router\n",
                                  name.c_str())
                      : ForwardRead(line, cmd);
        return res;
      }
      if (ds && ds->dim != dim) {
        res.out = StrPrintf("err geninsert %s: dim %d != dataset dim %d\n",
                            name.c_str(), dim, ds->dim);
        return res;
      }
      // The generators are seed-deterministic, so running them on the
      // router yields bit-identical rows to a single-node `geninsert`;
      // shipping them as binary frames preserves every double exactly.
      std::vector<std::vector<double>> rows = executor_.RunBuild(
          [&] { return net::GenerateRows(dim, kind, n, seed); });
      if (rows.empty()) {
        res.out = StrPrintf("err geninsert: unknown kind %s\n", kind.c_str());
        return res;
      }
      if (!ds) {
        net::ProtocolResult create =
            DispatchLine("dyn " + name + ' ' + std::to_string(dim), opts);
        if (create.out.rfind("ok dyn ", 0) != 0) {
          res.out = create.out;
          return res;
        }
        ds = FindDataset(name);
        if (!ds) {
          res.out = StrPrintf("err geninsert %s: creation raced with a "
                              "drop\n",
                              name.c_str());
          return res;
        }
      }
      std::lock_guard<std::mutex> lock(ds->mu);
      res.out = ShardedInsert(*ds, name, rows, "geninsert");
    } else if (cmd == "delete") {
      std::string name;
      ss >> name;
      std::vector<uint32_t> gids;
      uint32_t gid;
      while (ss >> gid) gids.push_back(gid);
      if (!ss.eof()) {
        res.out = StrPrintf("err delete %s: malformed gid\n", name.c_str());
        return res;
      }
      if (name.empty() || gids.empty()) {
        res.out = "err delete: usage: delete <name> <gid> [gid ...]\n";
        return res;
      }
      auto ds = FindDataset(name);
      if (!ds) {
        res.out = ForwardRead(line, cmd);
      } else if (ds->mode == Dataset::Mode::kReplicated) {
        res.out = ds->mutable_on_workers
                      ? StrPrintf("err delete %s: replicated dataset is "
                                  "read-only via the router\n",
                                  name.c_str())
                      : ForwardRead(line, cmd);
      } else {
        std::lock_guard<std::mutex> lock(ds->mu);
        res.out = ShardedDelete(*ds, name, gids);
      }
    } else if (cmd == "drop") {
      std::string name;
      ss >> name;
      std::string reply = Broadcast(line, cmd);
      {
        std::unique_lock<std::shared_mutex> lock(mu_);
        datasets_.erase(name);
      }
      res.out = reply;
    } else if (cmd == "emst" || cmd == "slink" || cmd == "hdbscan" ||
               cmd == "dbscan" || cmd == "reach" || cmd == "clusters") {
      EngineRequest req;
      ss >> req.dataset;
      if (cmd == "emst") {
        req.type = QueryType::kEmst;
        std::string sub;
        if (ss >> sub) {
          if (sub != "eps" || !(ss >> req.emst_eps) || req.emst_eps < 0) {
            res.out = "err emst: usage: emst <name> [eps <e>]\n";
            return res;
          }
        } else {
          ss.clear();
        }
      } else if (cmd == "slink") {
        req.type = QueryType::kSingleLinkage;
        ss >> req.k;
      } else if (cmd == "hdbscan") {
        req.type = QueryType::kHdbscan;
        ss >> req.min_pts;
      } else if (cmd == "dbscan") {
        req.type = QueryType::kDbscanStarAt;
        ss >> req.min_pts >> req.eps;
      } else if (cmd == "reach") {
        req.type = QueryType::kReachability;
        ss >> req.min_pts;
      } else {
        req.type = QueryType::kStableClusters;
        ss >> req.min_pts >> req.min_cluster_size;
      }
      if (ss.fail() || req.dataset.empty()) {
        res.out = StrPrintf(
            "err %s: missing or malformed arguments (try help)\n",
            cmd.c_str());
        return res;
      }
      auto ds = FindDataset(req.dataset);
      if (ds && ds->mode == Dataset::Mode::kSharded) {
        merges_.fetch_add(1, std::memory_order_relaxed);
        uint64_t t0 = obs::NowNs();
        EngineResponse r;
        {
          std::lock_guard<std::mutex> lock(ds->mu);
          // The whole merged pipeline (kd-tree builds, cross traversals,
          // Kruskal, dendrograms) issues parallel scheduler work, so it
          // runs inside a worker group like any engine build.
          executor_.RunBuild([&] {
            AnswerSharded(*ds, req, &r);
            return 0;
          });
        }
        r.seconds = static_cast<double>(obs::NowNs() - t0) * 1e-9;
        res.out = net::FormatQueryResponse(cmd, req.dataset, r,
                                           opts.show_timing);
      } else {
        // Replicated (round-robin across replicas) or unknown (the worker
        // answers with the exact single-node unknown-dataset error).
        res.out = ForwardRead(line, cmd);
      }
    } else if (cmd == "metrics") {
      std::string mode;
      ss >> mode;
      if (opts.obs == nullptr) {
        res.out = "err metrics: no metrics registry in this front-end\n";
      } else if (mode == "json") {
        res.out = opts.obs->metrics.Json();
        res.out += '\n';
      } else if (!mode.empty()) {
        res.out = "err metrics: usage: metrics [json]\n";
      } else {
        res.out = opts.obs->metrics.PrometheusText();
        res.out += "ok metrics\n";
      }
    } else if (cmd == "trace") {
      std::string sub;
      ss >> sub;
      obs::Tracer& tracer = obs::Tracer::Get();
      if (sub == "on") {
        tracer.Enable();
        res.out = "ok trace on\n";
      } else if (sub == "off") {
        tracer.Disable();
        res.out = "ok trace off\n";
      } else if (sub == "status") {
        res.out = StrPrintf(
            "ok trace status enabled=%d spans=%llu dropped=%llu\n",
            tracer.enabled() ? 1 : 0,
            static_cast<unsigned long long>(tracer.spans_recorded()),
            static_cast<unsigned long long>(tracer.spans_dropped()));
      } else if (sub == "clear") {
        tracer.Clear();
        res.out = "ok trace clear\n";
      } else if (sub == "dump") {
        std::string path;
        ss >> path;
        if (path.empty()) {
          res.out = "err trace: usage: trace dump <file>\n";
        } else {
          size_t spans = 0;
          if (tracer.DumpJsonToFile(path, &spans)) {
            res.out = StrPrintf("ok trace dump %s spans=%zu\n", path.c_str(),
                                spans);
          } else {
            res.out = StrPrintf("err trace dump %s: cannot write\n",
                                path.c_str());
          }
        }
      } else {
        res.out = "err trace: usage: trace on|off|status|clear|dump <file>\n";
      }
    } else if (cmd == "slowlog") {
      std::string sub;
      ss >> sub;
      if (opts.obs == nullptr) {
        res.out = "err slowlog: no slow-query log in this front-end\n";
      } else if (sub == "clear") {
        opts.obs->slowlog.Clear();
        res.out = "ok slowlog clear\n";
      } else if (sub == "threshold") {
        uint64_t us = 0;
        if (!(ss >> us)) {
          res.out = "err slowlog: usage: slowlog threshold <us>\n";
        } else {
          opts.obs->slowlog.set_threshold_us(us);
          res.out = StrPrintf("ok slowlog threshold_us=%llu\n",
                              static_cast<unsigned long long>(us));
        }
      } else if (!sub.empty()) {
        res.out = "err slowlog: usage: slowlog [clear|threshold <us>]\n";
      } else {
        std::vector<obs::SlowLogRecord> entries = opts.obs->slowlog.Entries();
        for (const obs::SlowLogRecord& e : entries) {
          res.out += e.Format();
          res.out += '\n';
        }
        res.out += StrPrintf(
            "ok slowlog n=%zu threshold_us=%llu\n", entries.size(),
            static_cast<unsigned long long>(
                opts.obs->slowlog.threshold_us()));
      }
    } else {
      res.out = StrPrintf("err unknown command: %s (try help)\n", cmd.c_str());
    }
  } catch (const std::exception& e) {
    res.out = StrPrintf("err %s: %s\n", cmd.c_str(), e.what());
  }
  return res;
}

net::ProtocolResult Router::HandleFrame(uint8_t opcode,
                                        const std::string& payload,
                                        const net::ProtocolOptions& opts) {
  net::ProtocolResult res;
  try {
    net::PayloadReader rd(payload);
    net::WireMessage fwd;
    fwd.binary = true;
    fwd.opcode = opcode;
    fwd.payload = payload;
    if (opcode == net::kOpInsertPoints) {
      std::string name = rd.GetBytes(rd.GetU16());
      int dim = static_cast<int>(rd.GetU16());
      uint32_t count = rd.GetU32();
      if (!rd.ok() || name.empty() || dim <= 0 || count == 0 ||
          rd.remaining() !=
              static_cast<size_t>(count) * dim * sizeof(double)) {
        res.out = "err insert: malformed frame payload\n";
        return res;
      }
      auto ds = FindDataset(name);
      if (!ds) {
        res.out = ForwardFrame(fwd, "insert");
        return res;
      }
      if (ds->mode == Dataset::Mode::kReplicated) {
        res.out = ds->mutable_on_workers
                      ? StrPrintf("err insert %s: replicated dataset is "
                                  "read-only via the router\n",
                                  name.c_str())
                      : ForwardFrame(fwd, "insert");
        return res;
      }
      if (ds->dim != dim) {
        res.out = StrPrintf("err insert %s: frame dim %d != dataset dim %d\n",
                            name.c_str(), dim, ds->dim);
        return res;
      }
      std::vector<std::vector<double>> rows(count, std::vector<double>(dim));
      for (auto& row : rows) {
        for (double& v : row) v = rd.GetF64();
      }
      std::lock_guard<std::mutex> lock(ds->mu);
      res.out = ShardedInsert(*ds, name, rows, "insert");
    } else if (opcode == net::kOpGetLabels) {
      std::string name = rd.GetBytes(rd.GetU16());
      uint8_t kind = rd.GetU8();
      EngineRequest req;
      req.dataset = name;
      req.min_pts = static_cast<int>(rd.GetU32());
      if (kind == 0) {
        req.type = QueryType::kDbscanStarAt;
        req.eps = rd.GetF64();
      } else {
        req.type = QueryType::kStableClusters;
        req.min_cluster_size = static_cast<size_t>(rd.GetU64());
      }
      if (!rd.ok() || name.empty() || kind > 1 || rd.remaining() != 0) {
        res.out = "err labels: malformed frame payload\n";
        return res;
      }
      auto ds = FindDataset(name);
      if (!ds || ds->mode == Dataset::Mode::kReplicated) {
        res.out = ForwardFrame(fwd, "labels");
        return res;
      }
      merges_.fetch_add(1, std::memory_order_relaxed);
      EngineResponse r;
      {
        std::lock_guard<std::mutex> lock(ds->mu);
        executor_.RunBuild([&] {
          AnswerSharded(*ds, req, &r);
          return 0;
        });
      }
      if (!r.ok) {
        res.out = StrPrintf("err labels %s: %s\n", name.c_str(),
                            r.error.c_str());
        return res;
      }
      std::string reply;
      reply.reserve(4 + r.labels.size() * 4);
      net::PutU32(&reply, static_cast<uint32_t>(r.labels.size()));
      for (int32_t l : r.labels) {
        net::PutU32(&reply, static_cast<uint32_t>(l));
      }
      res.out = net::EncodeFrame(net::kOpLabelsReply, reply);
    } else if (opcode == net::kOpKnnQuery) {
      std::string name = rd.GetBytes(rd.GetU16());
      uint32_t k = rd.GetU32();
      int qdim = static_cast<int>(rd.GetU16());
      uint32_t count = rd.GetU32();
      bool well_formed =
          rd.ok() && !name.empty() &&
          rd.remaining() ==
              static_cast<size_t>(count) * qdim * sizeof(double);
      auto ds = well_formed ? FindDataset(name) : nullptr;
      if (!ds || ds->mode == Dataset::Mode::kReplicated) {
        res.out = ForwardFrame(fwd, "knn");
        return res;
      }
      std::lock_guard<std::mutex> lock(ds->mu);
      if (!ds->degraded.empty()) {
        res.out = StrPrintf("err knn %s: %s\n", name.c_str(),
                            ds->degraded.c_str());
        return res;
      }
      if (ds->live_n == 0) {
        // Every worker holds the (empty) dataset; any one answers exactly
        // what a single node would.
        res.out = ForwardFrame(fwd, "knn");
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
          res.out = StrPrintf("err knn %s: worker %s is unhealthy\n",
                              name.c_str(), pool_.at(w).addr().c_str());
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
          res.out = e;
          return res;
        }
      }
      std::vector<double> merged_rows;
      executor_.RunBuild([&] {
        merged_rows = MergeKnnRows(count, k, worker_rows);
        return 0;
      });
      std::string reply;
      reply.reserve(8 + merged_rows.size() * sizeof(double));
      net::PutU32(&reply, count);
      net::PutU32(&reply, k);
      for (double v : merged_rows) net::PutF64(&reply, v);
      res.out = net::EncodeFrame(net::kOpKnnReply, reply);
    } else if (opcode == net::kOpExportPoints || opcode == net::kOpExportMst ||
               opcode == net::kOpShardMrMst) {
      std::string name = rd.GetBytes(rd.GetU16());
      const char* what = opcode == net::kOpShardMrMst ? "mrmst" : "export";
      auto ds = rd.ok() && !name.empty() ? FindDataset(name) : nullptr;
      if (ds && ds->mode == Dataset::Mode::kSharded) {
        // The export surface exists for router→worker fan-out; a sharded
        // dataset has no single worker that could answer it.
        res.out = StrPrintf(
            "err %s %s: not supported on sharded datasets via the router\n",
            what, name.c_str());
      } else {
        res.out = ForwardFrame(fwd, what);
      }
    } else {
      res.out = StrPrintf("err frame: unknown opcode 0x%02x\n", opcode);
    }
  } catch (const std::exception& e) {
    res.out = StrPrintf("err frame: %s\n", e.what());
  }
  (void)opts;
  return res;
}

net::ProtocolResult RouterSession::Handle(const net::WireMessage& msg) {
  return router_.Handle(msg, opts_);
}

}  // namespace cluster
}  // namespace parhc
