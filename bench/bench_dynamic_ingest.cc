// Batch-dynamic ingestion (src/dynamic/): amortized insert cost under
// incremental EMST maintenance versus full recomputation.
//
// Scenario: a base dataset of N points with a warm forest EMST, then a
// stream of insert batches of 1% of N each. Two strategies process the
// same stream:
//   incremental  the shard forest: each batch pays its own shard build +
//                shard EMST, one cross BCCP/WSPD pass per surviving shard,
//                and a Kruskal over the cached candidate edges — surviving
//                shard EMSTs are reused;
//   rebuild      the static path: a full kd-tree + MemoGFK EMST build over
//                all points after every batch (what PR 2's engine had to
//                do, since registry datasets were immutable).
// Each DynamicIngest benchmark runs both and reports secs_per_batch for
// the two strategies plus `speedup` (rebuild / incremental amortized
// cost). The acceptance target is >= 5x at N = 1M, 2D, 1% batches (see
// README "Dynamic datasets" for measured numbers).
//
// DynamicChurn adds deletes and HDBSCAN*: each step is a 1% insert batch
// plus a 0.5% delete batch, after which `emst` and `hdbscan 10` are
// answered — incrementally by the shard forest (seeded repair of the
// tombstoned shard EMSTs, the live-set tree for HDBSCAN*), or by a static
// EmstMemoGfk + HdbscanMst rebuild of the live points. `identical` is 1
// iff both edge sets equal the rebuild's after every step; `speedup` is
// informational (the gate is on `identical`).
//
// CI runs a small-N smoke via the bench_dynamic_smoke target, emitting
// BENCH_dynamic_ingest.json.
#include <numeric>
#include <random>

#include "bench_common.h"
#include "dynamic/artifacts.h"

namespace parhc_bench {
namespace {

constexpr int kBatches = 5;

template <int D>
std::vector<Point<D>> Gen(const std::string& kind, size_t n, uint64_t seed) {
  if (kind == "uniform") return UniformFill<D>(n, seed);
  return SeedSpreaderVarden<D>(n, seed);
}

/// Seconds per batch for the full-rebuild strategy over the stream.
template <int D>
double RebuildSecsPerBatch(const std::vector<Point<D>>& base,
                           const std::vector<std::vector<Point<D>>>& batches) {
  std::vector<Point<D>> all(base);
  Timer t;
  double total = 0;
  for (const auto& batch : batches) {
    all.insert(all.end(), batch.begin(), batch.end());
    t.Reset();
    auto mst = EmstMemoGfk(all);
    total += t.Seconds();
    benchmark::DoNotOptimize(mst.data());
  }
  return total / kBatches;
}

/// Seconds per batch for the incremental shard forest (the EMST is
/// re-answered after every insert), starting from a warm base EMST.
template <int D>
double IncrementalSecsPerBatch(
    const std::vector<Point<D>>& base,
    const std::vector<std::vector<Point<D>>>& batches) {
  DynamicArtifacts<D> dyn;
  dyn.InsertBatch(base);
  EngineRequest req;
  req.type = QueryType::kEmst;
  EngineResponse warm;
  PARHC_CHECK(dyn.Answer(req, /*allow_build=*/true, &warm) && warm.ok);
  Timer t;
  double total = 0;
  for (const auto& batch : batches) {
    t.Reset();
    dyn.InsertBatch(batch);
    EngineResponse r;
    PARHC_CHECK(dyn.Answer(req, /*allow_build=*/true, &r) && r.ok);
    total += t.Seconds();
    benchmark::DoNotOptimize(r.mst);
  }
  return total / kBatches;
}

template <int D>
void RunIngest(benchmark::State& st, const std::string& kind, size_t n,
               int workers) {
  SetNumWorkers(workers);
  std::vector<Point<D>> base = Gen<D>(kind, n, 1);
  size_t batch_n = std::max<size_t>(1, n / 100);
  std::vector<std::vector<Point<D>>> batches(kBatches);
  for (int b = 0; b < kBatches; ++b) {
    batches[b] = Gen<D>(kind, batch_n, 1000 + b);
  }
  for (auto _ : st) {
    double inc = IncrementalSecsPerBatch(base, batches);
    double rebuild = RebuildSecsPerBatch(base, batches);
    st.counters["incremental_secs_per_batch"] = inc;
    st.counters["rebuild_secs_per_batch"] = rebuild;
    st.counters["speedup"] = rebuild / inc;
  }
  st.counters["base_n"] = static_cast<double>(n);
  st.counters["batch_n"] = static_cast<double>(batch_n);
  st.counters["batches"] = kBatches;
  st.counters["workers"] = workers;
}

/// Answers `emst` and `hdbscan 10` from the shard forest.
template <int D>
void AnswerEmstAndHdbscan(DynamicArtifacts<D>& dyn, EngineResponse* emst,
                          EngineResponse* hdbscan) {
  EngineRequest req;
  req.type = QueryType::kEmst;
  PARHC_CHECK(dyn.Answer(req, /*allow_build=*/true, emst) && emst->ok);
  req.type = QueryType::kHdbscan;
  req.min_pts = 10;
  PARHC_CHECK(dyn.Answer(req, /*allow_build=*/true, hdbscan) && hdbscan->ok);
}

std::vector<WeightedEdge> SortedEdges(std::vector<WeightedEdge> edges) {
  std::sort(edges.begin(), edges.end());
  return edges;
}

template <int D>
void RunChurn(benchmark::State& st, const std::string& kind, size_t n,
              int workers) {
  SetNumWorkers(workers);
  std::vector<Point<D>> base = Gen<D>(kind, n, 1);
  size_t batch_n = std::max<size_t>(1, n / 100);
  size_t delete_n = std::max<size_t>(1, n / 200);
  for (auto _ : st) {
    DynamicArtifacts<D> dyn;
    dyn.InsertBatch(base);
    EngineResponse emst, hdbscan;
    AnswerEmstAndHdbscan(dyn, &emst, &hdbscan);  // warm
    std::vector<Point<D>> by_gid(base);
    std::vector<uint32_t> live(base.size());
    std::iota(live.begin(), live.end(), 0u);
    std::mt19937_64 rng(7);
    double incremental = 0, rebuild = 0;
    bool identical = true;
    for (int b = 0; b < kBatches; ++b) {
      std::vector<uint32_t> victims;
      for (size_t d = 0; d < delete_n; ++d) {
        size_t at = rng() % live.size();
        victims.push_back(live[at]);
        live[at] = live.back();
        live.pop_back();
      }
      std::vector<Point<D>> batch = Gen<D>(kind, batch_n, 1000 + b);
      for (size_t i = 0; i < batch.size(); ++i) {
        live.push_back(static_cast<uint32_t>(by_gid.size() + i));
      }
      by_gid.insert(by_gid.end(), batch.begin(), batch.end());
      Timer t;
      dyn.InsertBatch(std::move(batch));
      PARHC_CHECK(dyn.DeleteBatch(victims) == victims.size());
      AnswerEmstAndHdbscan(dyn, &emst, &hdbscan);
      incremental += t.Seconds();

      std::sort(live.begin(), live.end());
      std::vector<Point<D>> pts;
      pts.reserve(live.size());
      for (uint32_t g : live) pts.push_back(by_gid[g]);
      t.Reset();
      std::vector<WeightedEdge> emst_ref = EmstMemoGfk(pts);
      HdbscanMstResult hdbscan_ref = HdbscanMst(pts, 10);
      rebuild += t.Seconds();
      identical = identical && *emst.point_ids == live &&
                  SortedEdges(*emst.mst) == SortedEdges(emst_ref) &&
                  SortedEdges(*hdbscan.mst) == SortedEdges(hdbscan_ref.mst);
    }
    st.counters["incremental_secs_per_batch"] = incremental / kBatches;
    st.counters["rebuild_secs_per_batch"] = rebuild / kBatches;
    st.counters["speedup"] = rebuild / incremental;
    st.counters["identical"] = identical ? 1 : 0;
  }
  st.counters["base_n"] = static_cast<double>(n);
  st.counters["batch_n"] = static_cast<double>(batch_n);
  st.counters["delete_n"] = static_cast<double>(delete_n);
  st.counters["batches"] = kBatches;
  st.counters["workers"] = workers;
}

void RegisterAll() {
  size_t n = EnvN(100000);
  int maxt = EnvMaxThreads();
  benchmark::RegisterBenchmark(
      "DynamicIngest/2D-UniformFill",
      [=](benchmark::State& st) { RunIngest<2>(st, "uniform", n, maxt); })
      ->Unit(benchmark::kMillisecond)
      ->Iterations(EnvIters());
  benchmark::RegisterBenchmark(
      "DynamicIngest/3D-SS-varden",
      [=](benchmark::State& st) { RunIngest<3>(st, "varden", n, maxt); })
      ->Unit(benchmark::kMillisecond)
      ->Iterations(EnvIters());
  benchmark::RegisterBenchmark(
      "DynamicChurn/2D-SS-varden",
      [=](benchmark::State& st) { RunChurn<2>(st, "varden", n, maxt); })
      ->Unit(benchmark::kMillisecond)
      ->Iterations(EnvIters());
}

}  // namespace
}  // namespace parhc_bench

int main(int argc, char** argv) {
  parhc_bench::RegisterAll();
  benchmark::Initialize(&argc, argv);
  parhc_bench::AddMachineContext();
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
