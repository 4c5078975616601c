// The traced run's in-process layer timings: each public call into a
// module is timed from here, inside one bench span, at 1 worker and at
// nproc workers on the run's own inputs.
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <random>
#include <thread>

#include "bench.h"
#include "engine/artifact_util.h"
#include "obs/trace.h"
#include "parhc.h"
#include "util/stats.h"
#include "wire.h"

namespace perfbench {
namespace {

using namespace parhc;  // NOLINT — benchmark client only

/// Process CPU time sampled every millisecond on the trace clock, so CPU
/// can be charged to any interval — including the phase spans the library
/// records inside one call (phase:wspd / phase:kruskal).
class CpuCurve {
 public:
  CpuCurve()
      : th_([this] {
          while (!stop_.load()) {
            Sample();
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          Sample();
        }) {}
  ~CpuCurve() {
    stop_.store(true);
    th_.join();
  }
  CpuCurve(const CpuCurve&) = delete;
  CpuCurve& operator=(const CpuCurve&) = delete;

  /// CPU seconds the process used between two trace-clock instants.
  double CpuBetween(uint64_t a_ns, uint64_t b_ns) {
    Sample();
    std::lock_guard<std::mutex> lk(mu_);
    return At(b_ns) - At(a_ns);
  }

 private:
  void Sample() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    double cpu = static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
    uint64_t now = obs::NowNs();
    std::lock_guard<std::mutex> lk(mu_);
    samples_.emplace_back(now, cpu);
  }
  /// Linear interpolation of the sampled curve (caller holds mu_).
  double At(uint64_t t) const {
    auto it = std::lower_bound(
        samples_.begin(), samples_.end(), t,
        [](const std::pair<uint64_t, double>& s, uint64_t v) {
          return s.first < v;
        });
    if (it == samples_.begin()) return it->second;
    if (it == samples_.end()) return samples_.back().second;
    auto prev = it - 1;
    double f = static_cast<double>(t - prev->first) /
               static_cast<double>(it->first - prev->first);
    return prev->second + f * (it->second - prev->second);
  }

  std::mutex mu_;  ///< guards samples_
  std::vector<std::pair<uint64_t, double>> samples_;
  std::atomic<bool> stop_{false};
  std::thread th_;
};

/// Wall milliseconds of `fn`, inside a bench span; [begin, end] trace ns
/// are returned for CPU attribution.
template <typename Fn>
double TimedMs(const char* span, uint64_t* begin, uint64_t* end, Fn&& fn) {
  obs::Span s(span, "bench");
  *begin = obs::NowNs();
  fn();
  *end = obs::NowNs();
  return static_cast<double>(*end - *begin) / 1e6;
}

/// [begin, end] of every `name` span in a Chrome trace dump that lies
/// inside [lo, hi] on the trace clock.
std::vector<std::pair<uint64_t, uint64_t>> SpansIn(const std::string& dump,
                                                   const std::string& name,
                                                   uint64_t lo, uint64_t hi) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  const std::string key = "\"name\":\"" + name + "\"";
  for (size_t at = dump.find(key); at != std::string::npos;
       at = dump.find(key, at + 1)) {
    size_t ts = dump.find("\"ts\":", at);
    size_t dur = dump.find("\"dur\":", at);
    if (ts == std::string::npos || dur == std::string::npos) break;
    auto b = static_cast<uint64_t>(std::strtod(dump.c_str() + ts + 5, nullptr) * 1e3);
    auto d = static_cast<uint64_t>(std::strtod(dump.c_str() + dur + 6, nullptr) * 1e3);
    if (b >= lo && b + d <= hi) out.emplace_back(b, b + d);
  }
  return out;
}

struct Window {
  uint64_t begin = 0, end = 0;
};

/// One dimension's algorithm layers at one worker count.
struct PhaseTimes {
  double kdtree = 0, knn = 0, core = 0, wspd = 0, kruskal = 0;
  double emst_wspd = 0, emst_kruskal = 0, dseq = 0, dpar = 0, extract = 0;
  Window w_kdtree, w_knn, w_mst, w_dseq, w_dpar;
  std::vector<double> hdb_weights, emst_weights;
  AlgoCounterSnapshot work;
};

std::vector<double> Weights(const std::vector<WeightedEdge>& edges) {
  std::vector<double> w;
  for (const WeightedEdge& e : edges) w.push_back(e.w);
  std::sort(w.begin(), w.end());
  return w;
}

template <int D>
PhaseTimes TimePhases(const std::vector<Point<D>>& pts) {
  PhaseTimes t;
  const size_t n = pts.size();
  std::optional<KdTree<D>> tree;
  t.kdtree = TimedMs("layer:spatial.kdtree", &t.w_kdtree.begin,
                     &t.w_kdtree.end, [&] { tree.emplace(pts, 1); });
  std::vector<double> knn;
  t.knn = TimedMs("layer:spatial.knn", &t.w_knn.begin, &t.w_knn.end,
                  [&] { knn = AllKnnDistances(*tree, kMinPts); });
  std::vector<double> core(n);
  for (size_t i = 0; i < n; ++i) core[i] = knn[i * kMinPts + kMinPts - 1];

  PhaseBreakdown ph;
  std::vector<WeightedEdge> mst;
  {
    StatsEpoch epoch(StatsEpoch::kResetPeak);
    TimedMs("layer:hdbscan.mst", &t.w_mst.begin, &t.w_mst.end, [&] {
      mst = HdbscanMstOnTree(*tree, core, HdbscanVariant::kMemoGfk, &ph);
    });
    t.work = epoch.Delta();
  }
  t.core = ph.core_dist * 1e3;
  t.wspd = ph.wspd * 1e3;
  t.kruskal = ph.kruskal * 1e3;

  PhaseBreakdown eph;
  Window w;
  std::vector<WeightedEdge> emst;
  TimedMs("layer:emst.memogfk", &w.begin, &w.end,
          [&] { emst = EmstMemoGfkOnTree(*tree, &eph); });
  t.emst_wspd = eph.wspd * 1e3;
  t.emst_kruskal = eph.kruskal * 1e3;

  std::optional<Dendrogram> dseq, dpar;
  t.dseq = TimedMs("layer:dendrogram.seq", &t.w_dseq.begin, &t.w_dseq.end,
                   [&] { dseq.emplace(BuildDendrogramSequential(n, mst, 0)); });
  t.dpar = TimedMs("layer:dendrogram.par", &t.w_dpar.begin, &t.w_dpar.end,
                   [&] { dpar.emplace(BuildDendrogramParallel(n, mst, 0)); });
  t.extract = TimedMs("layer:dendrogram.extract", &w.begin, &w.end, [&] {
    ExtractStableClusters(*dseq, kMinClusterSize);
    ComputeReachability(*dseq);
  });
  t.hdb_weights = Weights(mst);
  t.emst_weights = Weights(emst);
  return t;
}

template <int D>
void TimeDim(const Options& opts, const std::vector<Point<D>>& pts,
             double served_cold_s, Metrics* out, Tally* tally) {
  const std::string dim = "." + std::to_string(D) + "d";
  SetNumWorkers(1);
  PhaseTimes w1 = TimePhases(pts);
  SetNumWorkers(opts.nproc);
  std::optional<CpuCurve> curve;
  curve.emplace();
  PhaseTimes wm = TimePhases(pts);

  tally->Check(w1.hdb_weights == wm.hdb_weights &&
                   wm.hdb_weights.size() + 1 == pts.size(),
               "hdbscan MST differs between 1 and nproc workers" + dim);
  tally->Check(w1.emst_weights == wm.emst_weights &&
                   wm.emst_weights.size() + 1 == pts.size(),
               "EMST differs between 1 and nproc workers" + dim);

  for (const auto& [tag, t] : {std::pair<const char*, const PhaseTimes*>{".w1", &w1},
                               {".wmax", &wm}}) {
    auto put = [&, tag = tag](const char* name, double v) {
      (*out)[std::string(name) + dim + tag] = {v, "ms"};
    };
    put("spatial.kdtree_ms", t->kdtree);
    put("spatial.knn_ms", t->knn);
    put("hdbscan.core_annotate_ms", t->core);
    put("hdbscan.wspd_ms", t->wspd);
    put("hdbscan.kruskal_ms", t->kruskal);
    put("emst.wspd_ms", t->emst_wspd);
    put("emst.kruskal_ms", t->emst_kruskal);
    put("dendrogram.seq_ms", t->dseq);
    put("dendrogram.par_ms", t->dpar);
    put("dendrogram.extract_ms", t->extract);
  }

  // CPU utilisation at nproc: whole calls, and the WSPD/Kruskal phase
  // spans the library recorded inside the MST call.
  const double workers = opts.nproc;
  auto util = [&](const std::vector<std::pair<uint64_t, uint64_t>>& spans) {
    double cpu = 0, wall = 0;
    for (const auto& [b, e] : spans) {
      cpu += curve->CpuBetween(b, e);
      wall += static_cast<double>(e - b) / 1e9;
    }
    return wall > 0 ? cpu / (wall * workers) : 0;
  };
  const std::string dump = obs::Tracer::Get().DumpJson();
  auto whole = [](const Window& w) {
    return std::vector<std::pair<uint64_t, uint64_t>>{{w.begin, w.end}};
  };
  auto cpu_put = [&](const char* phase, double v) {
    (*out)["parallel.cpu_util." + std::string(phase) + dim] = {v, "ratio"};
  };
  cpu_put("kdtree", util(whole(wm.w_kdtree)));
  cpu_put("knn", util(whole(wm.w_knn)));
  cpu_put("wspd", util(SpansIn(dump, "phase:wspd", wm.w_mst.begin, wm.w_mst.end)));
  cpu_put("kruskal",
          util(SpansIn(dump, "phase:kruskal", wm.w_mst.begin, wm.w_mst.end)));
  cpu_put("dendro_seq", util(whole(wm.w_dseq)));
  cpu_put("dendro_par", util(whole(wm.w_dpar)));
  curve.reset();

  auto speedup = [&](const char* phase, double one, double many) {
    (*out)["parallel.speedup_vs_1w." + std::string(phase) + dim] = {
        many > 0 ? one / many : 0, "x"};
  };
  speedup("kdtree", w1.kdtree, wm.kdtree);
  speedup("knn", w1.knn, wm.knn);
  speedup("wspd", w1.wspd, wm.wspd);
  speedup("kruskal", w1.kruskal, wm.kruskal);
  speedup("dendro_seq", w1.dseq, wm.dseq);
  speedup("dendro_par", w1.dpar, wm.dpar);

  (*out)["spatial.wspd_pairs_visited" + dim] = {
      static_cast<double>(wm.work.wspd_pairs_visited), "count"};
  (*out)["spatial.wspd_pairs_peak" + dim] = {
      static_cast<double>(wm.work.wspd_pairs_peak), "count"};
  (*out)["spatial.bccp_computed" + dim] = {
      static_cast<double>(wm.work.bccp_computed), "count"};
  (*out)["spatial.bccp_point_distances" + dim] = {
      static_cast<double>(wm.work.bccp_point_distances), "count"};

  // The engine's cold hdbscan on a fresh dataset, against the sum of the
  // algorithm calls it makes (the sequential dendrogram below
  // kParallelDendrogramWorkers) and against the served request.
  // Median of three fresh engines: one cold build varies by ~10 %.
  EngineRequest req;
  req.type = QueryType::kHdbscan;
  req.dataset = "cold";
  req.min_pts = kMinPts;
  std::vector<double> runs;
  for (int rep = 0; rep < 3; ++rep) {
    ClusteringEngine engine;
    engine.registry().Add("cold", pts);
    EngineResponse r;
    Window w;
    runs.push_back(TimedMs("layer:engine.run_cold", &w.begin, &w.end,
                           [&] { r = engine.Run(req); }));
    tally->Check(r.ok && Weights(*r.mst) == wm.hdb_weights,
                 "engine cold hdbscan != layer MST" + dim);
  }
  const double run_ms = Median(runs);
  double algo = wm.kdtree + wm.knn + wm.core + wm.wspd + wm.kruskal +
                (opts.nproc >= kParallelDendrogramWorkers ? wm.dpar : wm.dseq);
  (*out)["engine.run_cold_ms" + dim] = {run_ms, "ms"};
  (*out)["engine.overhead_ms" + dim] = {run_ms - algo, "ms"};
  (*out)["net.wire_overhead_ms" + dim] = {served_cold_s * 1e3 - run_ms, "ms"};
}

/// Dynamic layer: insert/delete batches and the refreshes after them, on
/// an in-process engine seeded like the served dynamic set.
void TimeDynamic(const Options& opts, const Inputs& in, Metrics* out,
                 Tally* tally) {
  constexpr int kRounds = 3;
  auto rows = [](const Point<2>* p, size_t count) {
    std::vector<std::vector<double>> r(count);
    for (size_t i = 0; i < count; ++i) r[i] = {p[i][0], p[i][1]};
    return r;
  };
  ClusteringEngine engine;
  engine.registry().AddDynamic("dyn", 2);
  tally->Check(engine.InsertBatch("dyn", rows(in.dyn_seed.data(), opts.n))
                   .empty(),
               "in-process dyn seed");
  EngineRequest emst;
  emst.type = QueryType::kEmst;
  emst.dataset = "dyn";
  EngineRequest hdb = emst;
  hdb.type = QueryType::kHdbscan;
  hdb.min_pts = kMinPts;
  tally->Check(engine.Run(emst).ok, "in-process dyn emst");

  const size_t batch = std::max<size_t>(1, opts.n / 100);
  const size_t dels = std::max<size_t>(1, opts.n / 200);
  std::vector<uint32_t> live(opts.n);
  for (uint32_t g = 0; g < opts.n; ++g) live[g] = g;
  std::mt19937_64 rng(opts.seed * 17 + 3);
  std::vector<double> ins_ms, del_ms, emst_ms, hdb_ms, bccp;
  Window w;
  for (int r = 0; r < kRounds; ++r) {
    std::vector<uint32_t> victims;
    for (size_t d = 0; d < dels; ++d) {
      size_t at = rng() % live.size();
      victims.push_back(live[at]);
      live[at] = live.back();
      live.pop_back();
    }
    auto batch_rows = rows(&in.dyn_stream[r * batch], batch);
    StatsEpoch epoch;
    uint32_t first = 0;
    size_t deleted = 0;
    bool ok = true;
    ins_ms.push_back(TimedMs("layer:dynamic.insert", &w.begin, &w.end, [&] {
      ok &= engine.InsertBatch("dyn", batch_rows, &first).empty();
    }));
    del_ms.push_back(TimedMs("layer:dynamic.delete", &w.begin, &w.end, [&] {
      ok &= engine.DeleteBatch("dyn", victims, &deleted).empty();
    }));
    emst_ms.push_back(TimedMs("layer:dynamic.emst_refresh", &w.begin, &w.end,
                              [&] { ok &= engine.Run(emst).ok; }));
    hdb_ms.push_back(TimedMs("layer:dynamic.hdbscan_refresh", &w.begin,
                             &w.end, [&] { ok &= engine.Run(hdb).ok; }));
    bccp.push_back(static_cast<double>(epoch.Delta().bccp_computed));
    for (size_t i = 0; i < batch; ++i) live.push_back(first + i);
    tally->Check(ok && deleted == dels, "in-process dyn round");
  }
  (*out)["dynamic.insert_ms"] = {Median(ins_ms), "ms"};
  (*out)["dynamic.delete_ms"] = {Median(del_ms), "ms"};
  (*out)["dynamic.bccp_per_batch"] = {Median(bccp), "count"};
  (*out)["dynamic.emst_refresh_ms"] = {Median(emst_ms), "ms"};
  (*out)["dynamic.hdbscan_refresh_ms"] = {Median(hdb_ms), "ms"};
}

}  // namespace

void TimeLayers(const Options& opts, const Inputs& in,
                const double served_cold_s[2], Metrics* out, Tally* tally) {
  obs::Tracer::Get().Enable();
  TimeDim(opts, in.pts2, served_cold_s[0], out, tally);
  TimeDim(opts, in.pts3[0], served_cold_s[1], out, tally);
  TimeDynamic(opts, in, out, tally);
  obs::Tracer::Get().Disable();
}

}  // namespace perfbench
