// ClusteringEngine: the multi-query serving front-end.
//
// One engine hosts many named datasets (DatasetRegistry) and answers
// EMST / single-linkage / HDBSCAN* / DBSCAN*-at-eps / reachability /
// stable-cluster requests against them, memoizing every pipeline artifact
// (see artifacts.h for the DAG and reuse guarantees).
//
// Concurrency discipline (artifact-DAG executor):
//  * Per dataset, a readers-writer lock: queries against the *immutable*
//    backend always take it shared — the artifact cache itself is a
//    thread-safe DAG of absent/building/ready nodes (artifacts.h), so any
//    number of readers and builders of one dataset coexist, duplicate
//    builds of the same artifact coalesce onto one builder, and
//    independent artifacts build concurrently. Batch-dynamic datasets keep
//    the classic split: shared for cache-only answers, exclusive for
//    builds and mutations (the shard forest is not internally
//    synchronized), which is also what excludes a dataset's builds while
//    it is being mutated.
//  * The BuildExecutor (executor.h) replaces the old engine-wide build
//    mutex: each build is admitted into a bounded set of concurrent
//    builds and runs inside its own TaskArena worker group, so builds for
//    different datasets — and independent artifacts of one dataset —
//    proceed in parallel, each with fork-join semantics identical to a
//    dedicated scheduler of the group's size.
//
// Run() is therefore safe to call from any number of threads; a cache hit
// never waits on a concurrent build, and cold builds of independent
// datasets overlap instead of queueing behind one mutex.
//
// Batch-dynamic datasets add two mutation entry points, InsertBatch and
// DeleteBatch. Mutations are writes end to end: they run as executor tasks
// holding the dataset's exclusive lock, so they serialize with that
// dataset's artifact builds and exclude concurrent readers of the same
// dataset for their duration — queries against other datasets are
// unaffected.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>

#include "engine/executor.h"
#include "engine/registry.h"
#include "engine/request.h"
#include "obs/slowlog.h"
#include "obs/trace.h"
#include "store/errors.h"
#include "util/timer.h"

namespace parhc {

/// Point-in-time copy of the engine's cumulative counters (see
/// ClusteringEngine::counters). Fields are individually exact but not
/// mutually consistent — they are read with relaxed atomics while the
/// engine keeps serving.
struct EngineCounterSnapshot {
  uint64_t queries = 0;      ///< Run() calls
  uint64_t cache_hits = 0;   ///< queries answered on the shared-lock path
  uint64_t builds = 0;       ///< queries that built >= 1 artifact
  uint64_t mutations = 0;    ///< successful InsertBatch/DeleteBatch calls
  uint64_t errors = 0;       ///< failed queries + failed mutations

  /// Space-separated key=value rendering (stable field order) used by the
  /// serving layer's `stats` verb.
  std::string Format() const {
    std::string s;
    auto kv = [&s](const char* k, uint64_t v) {
      s += ' ';
      s += k;
      s += '=';
      s += std::to_string(v);
    };
    kv("engine_queries", queries);
    kv("engine_cache_hits", cache_hits);
    kv("engine_builds", builds);
    kv("engine_mutations", mutations);
    kv("engine_errors", errors);
    return s.substr(1);
  }
};

class ClusteringEngine {
 public:
  /// The dataset table. Register/load/remove datasets through this; safe
  /// to use concurrently with Run().
  DatasetRegistry& registry() { return registry_; }
  const DatasetRegistry& registry() const { return registry_; }

  /// The build admission layer; exposed for its stats snapshot.
  const BuildExecutor& executor() const { return executor_; }

  /// Answers one request, building and caching whatever artifacts it
  /// needs. Thread-safe. Errors (unknown dataset, invalid parameters) come
  /// back as ok == false with `error` set; they never throw.
  EngineResponse Run(const EngineRequest& req) {
    Timer timer;
    EngineResponse out;
    std::shared_ptr<DatasetEntryBase> entry = registry_.Find(req.dataset);
    if (!entry) {
      out.error = "unknown dataset: " + req.dataset;
      out.seconds = timer.Seconds();
      return out;
    }
    {
      // Fast path: answer purely from cached artifacts under a shared
      // lock, concurrently with other readers.
      std::shared_lock<std::shared_mutex> read(entry->mu);
      if (entry->Answer(req, /*allow_build=*/false, &out)) {
        out.seconds = timer.Seconds();
        out.from_cache = true;
        counters_.queries.fetch_add(1, std::memory_order_relaxed);
        counters_.cache_hits.fetch_add(1, std::memory_order_relaxed);
        if (!out.ok) counters_.errors.fetch_add(1, std::memory_order_relaxed);
        return out;
      }
    }
    // Build path: run as an executor task inside a worker group. The
    // immutable backend's artifact DAG is internally synchronized, so a
    // shared lock suffices and same-dataset builds of independent
    // artifacts overlap (duplicates coalesce inside artifacts.h). The
    // dynamic backend mutates unsynchronized shard state, so its builds
    // take the exclusive lock — which is also what serializes them with
    // InsertBatch/DeleteBatch. Either way, re-answer from scratch: another
    // thread may have built the missing artifacts while we waited.
    out = EngineResponse();
    BuildAdmission adm;
    executor_.RunBuild(
        [&] {
          if (entry->is_dynamic()) {
            std::unique_lock<std::shared_mutex> write(entry->mu);
            entry->Answer(req, /*allow_build=*/true, &out);
          } else {
            std::shared_lock<std::shared_mutex> read(entry->mu);
            entry->Answer(req, /*allow_build=*/true, &out);
          }
        },
        &adm);
    out.seconds = timer.Seconds();
    counters_.queries.fetch_add(1, std::memory_order_relaxed);
    if (out.built.empty()) {
      // Lost the race to another builder: everything was cached (or
      // coalesced onto that builder) by the time we ran.
      counters_.cache_hits.fetch_add(1, std::memory_order_relaxed);
    } else {
      counters_.builds.fetch_add(1, std::memory_order_relaxed);
      RecordBuildProfile(req, out, adm);
    }
    if (!out.ok) counters_.errors.fetch_add(1, std::memory_order_relaxed);
    return out;
  }

  /// Non-blocking cache-only variant of Run: answers iff the dataset's
  /// shared lock is free right now AND every needed artifact is cached
  /// (never builds, never waits on a build). Returns false when the
  /// caller should fall back to Run() — used by the TCP server's event
  /// loop to answer warm reads inline without a worker handoff, which it
  /// may only attempt when no earlier request of the same connection is
  /// still queued (response ordering). Counter effects mirror Run's
  /// fast path exactly.
  bool TryRunCached(const EngineRequest& req, EngineResponse* out) {
    Timer timer;
    *out = EngineResponse();
    std::shared_ptr<DatasetEntryBase> entry = registry_.Find(req.dataset);
    if (!entry) {
      // Same terminal answer Run() gives; no build could change it now.
      out->error = "unknown dataset: " + req.dataset;
      out->seconds = timer.Seconds();
      return true;
    }
    std::shared_lock<std::shared_mutex> read(entry->mu, std::try_to_lock);
    if (!read.owns_lock()) return false;  // a build/mutation holds it
    if (!entry->Answer(req, /*allow_build=*/false, out)) return false;
    out->seconds = timer.Seconds();
    out->from_cache = true;
    counters_.queries.fetch_add(1, std::memory_order_relaxed);
    counters_.cache_hits.fetch_add(1, std::memory_order_relaxed);
    if (!out->ok) counters_.errors.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Inserts one batch of rows into the batch-dynamic dataset `name`.
  /// Returns "" on success (setting *first_gid to the batch's first global
  /// id), else an error message. Thread-safe.
  std::string InsertBatch(const std::string& name,
                          const std::vector<std::vector<double>>& rows,
                          uint32_t* first_gid = nullptr) {
    std::shared_ptr<DatasetEntryBase> entry = registry_.Find(name);
    if (!entry) return "unknown dataset: " + name;
    std::string err = executor_.RunBuild([&] {
      std::unique_lock<std::shared_mutex> write(entry->mu);
      return entry->InsertRows(rows, first_gid);
    });
    CountMutation(err);
    return err;
  }

  /// Tombstones global ids in the batch-dynamic dataset `name`. Returns ""
  /// on success (setting *deleted to the number of points removed; unknown
  /// ids are skipped), else an error message. Thread-safe.
  std::string DeleteBatch(const std::string& name,
                          const std::vector<uint32_t>& gids,
                          size_t* deleted = nullptr) {
    std::shared_ptr<DatasetEntryBase> entry = registry_.Find(name);
    if (!entry) return "unknown dataset: " + name;
    std::string err = executor_.RunBuild([&] {
      std::unique_lock<std::shared_mutex> write(entry->mu);
      return entry->DeleteIds(gids, deleted);
    });
    CountMutation(err);
    return err;
  }

  /// Runs `fn` as an executor task inside a worker group and returns its
  /// result. Serving front-ends use this for work that issues parallel
  /// scheduler tasks *outside* the engine (e.g. the `gen` verb's data
  /// generators): the executor bounds build concurrency and sizes the
  /// group, exactly as for artifact builds.
  template <typename F>
  auto RunExternal(F&& fn) -> decltype(fn()) {
    return executor_.RunBuild(std::forward<F>(fn));
  }

  /// Cumulative serving counters; cheap and safe to read while serving.
  EngineCounterSnapshot counters() const {
    EngineCounterSnapshot s;
    s.queries = counters_.queries.load(std::memory_order_relaxed);
    s.cache_hits = counters_.cache_hits.load(std::memory_order_relaxed);
    s.builds = counters_.builds.load(std::memory_order_relaxed);
    s.mutations = counters_.mutations.load(std::memory_order_relaxed);
    s.errors = counters_.errors.load(std::memory_order_relaxed);
    return s;
  }

  /// Snapshots dataset `name` (points + every cached artifact + manifest)
  /// into directory `dir`. Returns "" on success, else an error message;
  /// filesystem and format problems never throw past this call.
  /// Thread-safe. Runs as an executor task under the dataset's *shared*
  /// lock: saving is read-only, so cache-hit queries keep serving while
  /// the snapshot streams out, and the save overlaps other datasets'
  /// builds like any DAG task.
  std::string SaveDataset(const std::string& name, const std::string& dir) {
    std::shared_ptr<DatasetEntryBase> entry = registry_.Find(name);
    if (!entry) return "unknown dataset: " + name;
    std::string err = executor_.RunBuild([&]() -> std::string {
      std::shared_lock<std::shared_mutex> read(entry->mu);
      try {
        entry->SaveTo(dir);
      } catch (const SnapshotError& e) {
        return e.what();
      }
      return "";
    });
    if (err.empty()) StampSnapshot(*entry, dir);
    return err;
  }

  /// Warm-starts dataset `name` from a snapshot directory written by
  /// SaveDataset, registering (or atomically replacing) it with every
  /// saved artifact already cached — the kd-tree arena and kNN prefix
  /// matrix as zero-copy views of the mapped files. Returns "" on
  /// success, else an error message (corrupt, truncated, or
  /// version-mismatched snapshots are rejected with typed errors
  /// internally; they never abort). Thread-safe: loading happens off to
  /// the side and in-flight queries against a replaced dataset finish on
  /// the old entry. Runs as an executor task because restoring derived
  /// artifacts issues parallel work.
  std::string LoadDataset(const std::string& name, const std::string& dir) {
    std::string err = executor_.RunBuild(
        [&] { return registry_.TryLoadSnapshot(name, dir); });
    if (err.empty()) {
      if (std::shared_ptr<DatasetEntryBase> entry = registry_.Find(name)) {
        StampSnapshot(*entry, dir);
      }
    }
    return err;
  }

  /// Exports dataset `name` as flat rows for the router tier: live global
  /// ids in ascending order plus their coordinates (dim doubles per
  /// point). Returns "" on success, else an error message. Thread-safe.
  /// Runs under the *exclusive* lock — the dynamic backend's shard
  /// accessors lazily rebuild caches while exporting.
  std::string ExportDataset(const std::string& name, int* dim,
                            std::vector<uint32_t>* gids,
                            std::vector<double>* coords) {
    std::shared_ptr<DatasetEntryBase> entry = registry_.Find(name);
    if (!entry) return "unknown dataset: " + name;
    *dim = entry->dim();
    std::unique_lock<std::shared_mutex> write(entry->mu);
    entry->ExportLive(gids, coords);
    return "";
  }

  /// kNN rows of `count` external query points (flattened coords) against
  /// dataset `name`'s live points: row i = sorted *squared* distances to
  /// the k nearest, +inf-padded past the live count. Returns "" on
  /// success. Thread-safe; runs as an executor task (issues parallel
  /// scheduler work) under the exclusive lock.
  std::string KnnForQueries(const std::string& name, size_t k,
                            const std::vector<double>& coords, size_t count,
                            std::vector<double>* rows) {
    std::shared_ptr<DatasetEntryBase> entry = registry_.Find(name);
    if (!entry) return "unknown dataset: " + name;
    if (k == 0) return "k must be in [1, n]";
    if (coords.size() != count * entry->dim()) {
      return "query coordinate count does not match dim";
    }
    return executor_.RunBuild([&]() -> std::string {
      std::unique_lock<std::shared_mutex> write(entry->mu);
      try {
        *rows = entry->KnnForQueries(coords, count, k);
      } catch (const std::exception& e) {
        return e.what();
      }
      return "";
    });
  }

  /// Wires the slow-query log that receives one build-profiler record per
  /// cold artifact build (obs/slowlog.h). Call before serving starts; the
  /// engine never owns the log.
  void set_slowlog(obs::SlowLog* slowlog) { slowlog_ = slowlog; }

 private:
  /// Wire verb naming a query type in slow-log records; matches the
  /// protocol verbs of src/net/protocol.h.
  static const char* VerbName(QueryType type) {
    switch (type) {
      case QueryType::kEmst:
        return "emst";
      case QueryType::kSingleLinkage:
        return "slink";
      case QueryType::kHdbscan:
        return "hdbscan";
      case QueryType::kDbscanStarAt:
        return "dbscan";
      case QueryType::kReachability:
        return "reach";
      case QueryType::kStableClusters:
        return "clusters";
    }
    return "other";
  }

  void RecordBuildProfile(const EngineRequest& req, const EngineResponse& out,
                          const BuildAdmission& adm) {
    obs::SlowLog* log = slowlog_;
    if (log == nullptr) return;
    obs::SlowLogRecord rec;
    rec.kind = obs::SlowLogRecord::Kind::kBuild;
    rec.verb = VerbName(req.type);
    rec.dataset = req.dataset;
    for (const std::string& key : out.built) {
      if (!rec.artifact.empty()) rec.artifact += ',';
      rec.artifact += key;
    }
    rec.queue_us = adm.wait_us;
    rec.total_us = static_cast<uint64_t>(out.seconds * 1e6);
    rec.build_us =
        rec.total_us > rec.queue_us ? rec.total_us - rec.queue_us : 0;
    rec.group = adm.group;
    rec.cache_hit = false;
    rec.trace_id = obs::CurrentTraceId();
    log->RecordBuild(rec);
  }

  /// Records the on-disk size and wall-clock timestamp of the snapshot a
  /// dataset was just saved to (or loaded from) — the per-dataset
  /// snapshot_bytes / snapshot_age metrics read these.
  static void StampSnapshot(DatasetEntryBase& entry, const std::string& dir) {
    uint64_t bytes = 0;
    std::error_code ec;
    std::filesystem::recursive_directory_iterator it(dir, ec), end;
    if (!ec) {
      for (; it != end; it.increment(ec)) {
        if (ec) break;
        std::error_code fec;
        if (it->is_regular_file(fec) && !fec) {
          uintmax_t sz = it->file_size(fec);
          if (!fec) bytes += static_cast<uint64_t>(sz);
        }
      }
    }
    entry.snapshot_bytes.store(bytes, std::memory_order_relaxed);
    entry.snapshot_unix_ms.store(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count(),
        std::memory_order_relaxed);
  }

  void CountMutation(const std::string& err) {
    if (err.empty()) {
      counters_.mutations.fetch_add(1, std::memory_order_relaxed);
    } else {
      counters_.errors.fetch_add(1, std::memory_order_relaxed);
    }
  }

  struct Counters {
    std::atomic<uint64_t> queries{0};
    std::atomic<uint64_t> cache_hits{0};
    std::atomic<uint64_t> builds{0};
    std::atomic<uint64_t> mutations{0};
    std::atomic<uint64_t> errors{0};
  };

  DatasetRegistry registry_;
  mutable BuildExecutor executor_;
  Counters counters_;
  obs::SlowLog* slowlog_ = nullptr;
};

}  // namespace parhc
