// Observability layer unit tests: metrics registry rendering, latency
// histogram quantiles vs an exact reference, slow-query log semantics,
// the span tracer (including the Chrome trace_event JSON dump), and the
// StatsEpoch scoped-delta contract over util/stats.h's per-thread counter
// slots (exact sums under concurrency, work counts independent of the
// worker count).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "data/generators.h"
#include "emst/emst_memogfk.h"
#include "hdbscan/hdbscan_mst.h"
#include "net/stats.h"
#include "obs/metrics.h"
#include "obs/slowlog.h"
#include "obs/sources.h"
#include "obs/trace.h"
#include "obs/verb_counters.h"
#include "parallel/scheduler.h"
#include "util/stats.h"

namespace parhc {
namespace {

// --- LatencyHistogram vs exact reference ---------------------------------

// Exact nearest-rank quantile over the raw samples.
uint64_t ReferenceQuantile(std::vector<uint64_t> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  if (rank < 1) rank = 1;
  if (rank > samples.size()) rank = samples.size();
  return samples[rank - 1];
}

TEST(LatencyHistogramObs, CountAndSumAreExact) {
  net::LatencyHistogram h;
  uint64_t sum = 0;
  for (uint64_t v : {0ull, 1ull, 2ull, 3ull, 100ull, 1000000ull}) {
    h.Record(v);
    sum += v;
  }
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum_us(), sum);
}

TEST(LatencyHistogramObs, BucketBoundsArePowersOfTwo) {
  EXPECT_EQ(net::LatencyHistogram::BucketUpperUs(0), 0u);
  EXPECT_EQ(net::LatencyHistogram::BucketLowerUs(0), 0u);
  for (int b = 1; b < net::LatencyHistogram::kBuckets; ++b) {
    EXPECT_EQ(net::LatencyHistogram::BucketLowerUs(b), uint64_t{1} << (b - 1));
    EXPECT_EQ(net::LatencyHistogram::BucketUpperUs(b),
              (uint64_t{1} << b) - 1);
  }
}

// A sample that is alone in its bucket and sits exactly on the bucket's
// upper bound must be reported exactly (frac == 1 maps onto `hi`).
TEST(LatencyHistogramObs, ExactAtBucketUpperBound) {
  net::LatencyHistogram h;
  h.Record(0);
  h.Record(1);
  h.Record(3);
  h.Record(7);
  h.Record(1023);
  EXPECT_EQ(h.QuantileUs(1.0), 1023u);
  EXPECT_EQ(h.QuantileUs(0.2), 0u);
  EXPECT_EQ(h.QuantileUs(0.4), 1u);
  EXPECT_EQ(h.QuantileUs(0.6), 3u);
  EXPECT_EQ(h.QuantileUs(0.8), 7u);
}

// The interpolated quantile must land within the reference sample's
// bucket: error is bounded by one bucket width (the documented contract).
TEST(LatencyHistogramObs, QuantilesWithinOneBucketOfReference) {
  std::mt19937_64 rng(12345);
  std::lognormal_distribution<double> dist(6.0, 2.0);
  net::LatencyHistogram h;
  std::vector<uint64_t> samples;
  for (int i = 0; i < 20000; ++i) {
    uint64_t us = static_cast<uint64_t>(dist(rng));
    samples.push_back(us);
    h.Record(us);
  }
  for (double q : {0.0, 0.01, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    uint64_t ref = ReferenceQuantile(samples, q);
    uint64_t got = h.QuantileUs(q);
    // The reference sample lives in some bucket [lo, hi]; the estimate
    // must not leave it.
    int b = 0;
    uint64_t v = ref;
    while (v > 0 && b < net::LatencyHistogram::kBuckets - 1) {
      v >>= 1;
      ++b;
    }
    EXPECT_GE(got, net::LatencyHistogram::BucketLowerUs(b))
        << "q=" << q << " ref=" << ref;
    EXPECT_LE(got, net::LatencyHistogram::BucketUpperUs(b))
        << "q=" << q << " ref=" << ref;
  }
}

TEST(LatencyHistogramObs, MergeFromAddsCountsSumsAndBuckets) {
  net::LatencyHistogram a, b;
  a.Record(5);
  a.Record(100);
  b.Record(5);
  b.Record(7000);
  a.MergeFrom(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.sum_us(), 5u + 100u + 5u + 7000u);
  // Bucket for 5 (bit_width 3) now holds two samples.
  EXPECT_EQ(a.bucket_count(3), 2u);
  EXPECT_EQ(a.QuantileUs(1.0), net::LatencyHistogram::BucketUpperUs(13));
}

TEST(LatencyHistogramObs, EmptyHistogramQuantileIsZero) {
  net::LatencyHistogram h;
  EXPECT_EQ(h.QuantileUs(0.5), 0u);
  EXPECT_EQ(h.count(), 0u);
}

// --- Metrics registry rendering ------------------------------------------

TEST(MetricsRegistry, PrometheusTextSortsFamiliesAndKeepsSampleOrder) {
  obs::MetricsRegistry reg;
  reg.AddSource([](obs::MetricsBuilder& b) {
    b.Gauge("parhc_zeta", "Last family by name.", 2);
    b.Counter("parhc_alpha_total", "First family by name.", 41,
              {{"kind", "b"}});
    b.Counter("parhc_alpha_total", "First family by name.", 1,
              {{"kind", "a"}});
  });
  std::string text = reg.PrometheusText();
  std::string expected =
      "# HELP parhc_alpha_total First family by name.\n"
      "# TYPE parhc_alpha_total counter\n"
      "parhc_alpha_total{kind=\"b\"} 41\n"
      "parhc_alpha_total{kind=\"a\"} 1\n"
      "# HELP parhc_zeta Last family by name.\n"
      "# TYPE parhc_zeta gauge\n"
      "parhc_zeta 2\n";
  EXPECT_EQ(text, expected);
}

TEST(MetricsRegistry, HistogramRendersCumulativeBucketsSumCount) {
  obs::MetricsRegistry reg;
  reg.AddSource([](obs::MetricsBuilder& b) {
    b.Histogram("parhc_h_us", "A histogram.", {{1, 3}, {3, 5}}, 9.5, 5);
  });
  std::string text = reg.PrometheusText();
  std::string expected =
      "# HELP parhc_h_us A histogram.\n"
      "# TYPE parhc_h_us histogram\n"
      "parhc_h_us_bucket{le=\"1\"} 3\n"
      "parhc_h_us_bucket{le=\"3\"} 5\n"
      "parhc_h_us_bucket{le=\"+Inf\"} 5\n"
      "parhc_h_us_sum 9.5\n"
      "parhc_h_us_count 5\n";
  EXPECT_EQ(text, expected);
}

TEST(MetricsRegistry, SamplesMergeAcrossSources) {
  obs::MetricsRegistry reg;
  reg.AddSource([](obs::MetricsBuilder& b) {
    b.Gauge("parhc_g", "Shared family.", 1, {{"src", "one"}});
  });
  reg.AddSource([](obs::MetricsBuilder& b) {
    b.Gauge("parhc_g", "Shared family.", 2, {{"src", "two"}});
  });
  std::vector<obs::MetricFamily> fams = reg.Collect();
  ASSERT_EQ(fams.size(), 1u);
  EXPECT_EQ(fams[0].samples.size(), 2u);
}

TEST(MetricsRegistry, JsonIsWellFormedAndEscapes) {
  obs::MetricsRegistry reg;
  reg.AddSource([](obs::MetricsBuilder& b) {
    b.Gauge("parhc_g", "Says \"hi\".", 1.5, {{"name", "a\\b"}});
  });
  std::string json = reg.Json();
  EXPECT_NE(json.find("\"name\":\"parhc_g\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"gauge\""), std::string::npos);
  EXPECT_NE(json.find("Says \\\"hi\\\"."), std::string::npos);
  EXPECT_NE(json.find("a\\\\b"), std::string::npos);
  EXPECT_NE(json.find("\"value\":1.5"), std::string::npos);
  // Balanced braces/brackets (single line, no strings with braces here
  // beyond the escaped content checked above).
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(MetricsRegistry, FormatMetricValueIntegersHaveNoDecimalPoint) {
  EXPECT_EQ(obs::FormatMetricValue(42), "42");
  EXPECT_EQ(obs::FormatMetricValue(0), "0");
  EXPECT_EQ(obs::FormatMetricValue(-3), "-3");
  EXPECT_EQ(obs::FormatMetricValue(1.5), "1.5");
}

// --- Slow-query log -------------------------------------------------------

obs::SlowLogRecord QueryRec(uint64_t total_us, const char* verb = "hdbscan") {
  obs::SlowLogRecord r;
  r.verb = verb;
  r.dataset = "d";
  r.queue_us = 1;
  r.build_us = total_us - 1;
  r.total_us = total_us;
  return r;
}

TEST(SlowLog, ThresholdGatesQueriesNotBuilds) {
  obs::SlowLog log(/*capacity=*/8, /*threshold_us=*/1000);
  log.RecordQuery(QueryRec(999));
  EXPECT_EQ(log.size(), 0u);
  log.RecordQuery(QueryRec(1000));
  EXPECT_EQ(log.size(), 1u);
  obs::SlowLogRecord b;
  b.artifact = "mst@10";
  b.build_us = 5;
  b.total_us = 5;  // far below threshold, recorded anyway
  log.RecordBuild(b);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.Entries()[1].kind, obs::SlowLogRecord::Kind::kBuild);
  EXPECT_EQ(log.total_recorded(), 2u);
}

TEST(SlowLog, EvictsOldestAtCapacityAndKeepsOrder) {
  obs::SlowLog log(/*capacity=*/3, /*threshold_us=*/0);
  for (uint64_t i = 1; i <= 5; ++i) log.RecordQuery(QueryRec(i * 100));
  std::vector<obs::SlowLogRecord> e = log.Entries();
  ASSERT_EQ(e.size(), 3u);
  EXPECT_EQ(e[0].total_us, 300u);
  EXPECT_EQ(e[2].total_us, 500u);
  EXPECT_EQ(log.total_recorded(), 5u);  // monotone despite eviction
  log.Clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.total_recorded(), 5u);  // survives Clear
}

TEST(SlowLog, FormatIsOneStableLine) {
  obs::SlowLogRecord r;
  r.kind = obs::SlowLogRecord::Kind::kBuild;
  r.dataset = "geo";
  r.artifact = "tree,mst@10";
  r.queue_us = 12;
  r.build_us = 3400;
  r.total_us = 3412;
  r.group = 8;
  r.trace_id = 7;
  EXPECT_EQ(r.Format(),
            "slow kind=build verb=- dataset=geo artifact=tree,mst@10 "
            "queue_us=12 build_us=3400 total_us=3412 group=8 cache_hit=0 "
            "trace=7");
}

TEST(SlowLog, SetThresholdTakesEffect) {
  obs::SlowLog log;
  EXPECT_EQ(log.threshold_us(), 10000u);
  log.set_threshold_us(50);
  log.RecordQuery(QueryRec(60));
  EXPECT_EQ(log.size(), 1u);
}

// --- Tracer ---------------------------------------------------------------

// The tracer is process-global, so these tests serialize through gtest's
// single-threaded runner and clean up after themselves.
class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::Get().Clear();
    obs::Tracer::Get().Enable();
  }
  void TearDown() override {
    obs::Tracer::Get().Disable();
    obs::Tracer::Get().Clear();
  }
};

TEST_F(TracerTest, RecordedSpanAppearsInDump) {
  obs::Tracer& t = obs::Tracer::Get();
  uint64_t before = t.spans_recorded();
  t.RecordSpan("request:test", "net", 42, 1000, 5000);
  EXPECT_EQ(t.spans_recorded(), before + 1);
  std::string json = t.DumpJson();
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"request:test\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"net\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"trace\":42}"), std::string::npos);
  // 1000ns begin, 4000ns duration -> microsecond fixed point.
  EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":4.000"), std::string::npos);
}

TEST_F(TracerTest, DisabledRecordsNothing) {
  obs::Tracer& t = obs::Tracer::Get();
  t.Disable();
  uint64_t before = t.spans_recorded();
  { obs::Span s("request:ignored", "net"); }
  t.RecordSpan("request:ignored", "net", 1, 0, 1);
  EXPECT_EQ(t.spans_recorded(), before);
}

TEST_F(TracerTest, SpanUsesCurrentTraceContext) {
  obs::Tracer& t = obs::Tracer::Get();
  EXPECT_EQ(obs::CurrentTraceId(), 0u);
  {
    obs::TraceContext ctx(99);
    EXPECT_EQ(obs::CurrentTraceId(), 99u);
    {
      obs::TraceContext inner(7);
      EXPECT_EQ(obs::CurrentTraceId(), 7u);
    }
    EXPECT_EQ(obs::CurrentTraceId(), 99u);
    obs::Span s("phase:ctx", "algo");
  }
  EXPECT_EQ(obs::CurrentTraceId(), 0u);
  std::string json = t.DumpJson();
  EXPECT_NE(json.find("\"args\":{\"trace\":99}"), std::string::npos);
}

TEST_F(TracerTest, MintTraceIdIsNonzeroAndFresh) {
  obs::Tracer& t = obs::Tracer::Get();
  uint64_t a = t.MintTraceId();
  uint64_t b = t.MintTraceId();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

TEST_F(TracerTest, InternReturnsStablePointer) {
  obs::Tracer& t = obs::Tracer::Get();
  const char* a = t.Intern("build:mst@10");
  const char* b = t.Intern("build:mst@10");
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "build:mst@10");
  EXPECT_NE(t.Intern("build:mst@11"), a);
}

TEST_F(TracerTest, DumpJsonToFileWritesEventsAndCountsSpans) {
  obs::Tracer& t = obs::Tracer::Get();
  t.RecordSpan("request:a", "net", 1, 0, 10);
  t.RecordSpan("queue", "net", 1, 1, 2);
  std::string path = ::testing::TempDir() + "/obs_trace_dump.json";
  size_t spans = 0;
  ASSERT_TRUE(t.DumpJsonToFile(path, &spans));
  EXPECT_EQ(spans, 2u);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) content.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(content.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(content.find("\"name\":\"queue\""), std::string::npos);
}

TEST_F(TracerTest, DumpJsonToFileFailsOnBadPath) {
  EXPECT_FALSE(obs::Tracer::Get().DumpJsonToFile(
      "/nonexistent-dir-xyz/trace.json"));
}

TEST_F(TracerTest, ClearDropsSpansButKeepsRecordedTotal) {
  obs::Tracer& t = obs::Tracer::Get();
  t.RecordSpan("request:a", "net", 1, 0, 10);
  uint64_t recorded = t.spans_recorded();
  t.Clear();
  EXPECT_EQ(t.spans_recorded(), recorded);
  EXPECT_EQ(t.DumpJson().find("\"name\":\"request:a\""), std::string::npos);
}

TEST_F(TracerTest, ConcurrentRecordWhileDumpingIsSafe) {
  obs::Tracer& t = obs::Tracer::Get();
  std::atomic<bool> stop{false};
  std::thread recorder([&] {
    obs::TraceContext ctx(5);
    while (!stop.load(std::memory_order_relaxed)) {
      obs::Span s("phase:spin", "algo");
    }
  });
  for (int i = 0; i < 50; ++i) {
    std::string json = t.DumpJson();
    EXPECT_NE(json.find("traceEvents"), std::string::npos);
  }
  stop.store(true, std::memory_order_relaxed);
  recorder.join();
  EXPECT_GT(t.spans_recorded(), 0u);
}

// --- Obs metrics source ---------------------------------------------------

TEST(ObsMetricsSource, ExportsTracerAndSlowlogState) {
  obs::MetricsRegistry reg;
  obs::SlowLog log(/*capacity=*/4, /*threshold_us=*/123);
  obs::RegisterObsMetrics(reg, log);
  std::string text = reg.PrometheusText();
  EXPECT_NE(text.find("parhc_trace_enabled"), std::string::npos);
  EXPECT_NE(text.find("parhc_trace_spans_total"), std::string::npos);
  EXPECT_NE(text.find("parhc_slowlog_threshold_us 123\n"),
            std::string::npos);
}

// --- StatsEpoch -----------------------------------------------------------

TEST(StatsEpochObs, DeltaIsScopedToTheEpoch) {
  Stats::Add(Stats::kWspdPairsMaterialized, 10);
  StatsEpoch epoch;
  Stats::Add(Stats::kWspdPairsMaterialized, 7);
  Stats::Add(Stats::kBccpComputed, 3);
  AlgoCounterSnapshot d = epoch.Delta();
  EXPECT_EQ(d.wspd_pairs_materialized, 7u);
  EXPECT_EQ(d.bccp_computed, 3u);
  EXPECT_EQ(d.wspd_pairs_visited, 0u);
}

TEST(StatsEpochObs, ResetPeakZeroesOnlyTheHighWaterMark) {
  Stats& s = Stats::Get();
  s.RecordMaterialized(999);
  uint64_t mat_before = s.Snapshot().wspd_pairs_materialized;
  StatsEpoch epoch(StatsEpoch::kResetPeak);
  EXPECT_EQ(s.Snapshot().wspd_pairs_peak, 0u);
  EXPECT_EQ(s.Snapshot().wspd_pairs_materialized, mat_before);
  s.RecordMaterialized(42);
  s.RecordMaterialized(5);
  AlgoCounterSnapshot d = epoch.Delta();
  EXPECT_EQ(d.wspd_pairs_peak, 42u);  // high-water, not delta
  EXPECT_EQ(d.wspd_pairs_materialized, 47u);
}

// Adds from plain threads and from arena workers land in per-thread slots;
// the epoch delta must still be the exact sum. The second wave of threads
// reuses the slots the first wave freed on exit, so the counts the first
// wave left in them must survive.
TEST(StatsEpochObs, ConcurrentAddsSumExactly) {
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  constexpr size_t kLoop = 100000;
  StatsEpoch epoch;
  auto wave = [] {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([] {
        for (uint64_t i = 0; i < kPerThread; ++i) {
          Stats::Add(Stats::kWspdPairsVisited, 1);
          Stats::Add(Stats::kBccpPointDistances, 3);
        }
      });
    }
    return threads;
  };
  std::vector<std::thread> first = wave();
  TaskArena arena(4);
  arena.Execute([] {
    ParallelFor(0, kLoop, [](size_t i) {
      Stats::Add(Stats::kBccpComputed, 1);
      Stats::Add(Stats::kBccpPointDistances, i % 5);
    });
  });
  for (std::thread& t : first) t.join();
  std::vector<std::thread> second = wave();
  for (std::thread& t : second) t.join();

  AlgoCounterSnapshot d = epoch.Delta();
  const uint64_t plain = 2 * kThreads * kPerThread;
  EXPECT_EQ(d.wspd_pairs_visited, plain);
  EXPECT_EQ(d.bccp_computed, kLoop);
  EXPECT_EQ(d.bccp_point_distances, 3 * plain + 2 * kLoop);  // mean i%5 = 2
  EXPECT_EQ(d.wspd_pairs_materialized, 0u);
}

// Work counts of one HDBSCAN*-MemoGFK MST and one EMST over `pts`, run
// inside a `workers`-slot arena.
AlgoCounterSnapshot MstWork(const std::vector<Point<3>>& pts, int workers) {
  AlgoCounterSnapshot work;
  TaskArena arena(workers);
  arena.Execute([&] {
    KdTree<3> tree(pts, /*leaf_size=*/1);
    std::vector<double> core = CoreDistances(tree, 10);
    StatsEpoch epoch(StatsEpoch::kResetPeak);
    HdbscanMstOnTree(tree, core);
    EmstMemoGfkOnTree(tree);
    work = epoch.Delta();
  });
  return work;
}

// The counts describe the algorithm's work, not the schedule: a slot that
// dropped increments under contention would make the wide run count less.
TEST(StatsEpochObs, MstWorkCountsMatchAcrossWorkerCounts) {
  std::vector<Point<3>> pts = UniformFill<3>(20000, /*seed=*/7);
  AlgoCounterSnapshot one = MstWork(pts, 1);
  AlgoCounterSnapshot four = MstWork(pts, 4);
  EXPECT_GT(one.wspd_pairs_visited, 0u);
  EXPECT_GE(one.bccp_point_distances, one.bccp_computed);
  EXPECT_EQ(one.wspd_pairs_visited, four.wspd_pairs_visited);
  EXPECT_EQ(one.bccp_computed, four.bccp_computed);
  EXPECT_EQ(one.bccp_point_distances, four.bccp_point_distances);
  EXPECT_EQ(one.wspd_pairs_materialized, four.wspd_pairs_materialized);
  EXPECT_EQ(one.wspd_pairs_peak, four.wspd_pairs_peak);
}

// --- VerbCounters ---------------------------------------------------------

TEST(VerbCountersObs, IndexOfRoundTripsEveryVerb) {
  for (int i = 0; i < obs::VerbCounters::kNumVerbs; ++i) {
    EXPECT_EQ(obs::VerbCounters::IndexOf(obs::VerbCounters::kVerbs[i]), i)
        << obs::VerbCounters::kVerbs[i];
  }
  EXPECT_EQ(obs::VerbCounters::IndexOf("bogus"), obs::VerbCounters::kOther);
  EXPECT_EQ(obs::VerbCounters::IndexOf(""), obs::VerbCounters::kOther);
}

TEST(VerbCountersObs, SpanNamesParallelVerbTable) {
  for (int i = 0; i < obs::VerbCounters::kNumVerbs; ++i) {
    std::string expect =
        std::string("request:") + obs::VerbCounters::kVerbs[i];
    EXPECT_EQ(obs::VerbCounters::kRequestSpanNames[i], expect);
  }
}

TEST(VerbCountersObs, BumpAndTotalAgree) {
  obs::VerbCounters v;
  v.Bump("hdbscan");
  v.Bump("hdbscan");
  v.Bump("nonsense");
  v.BumpIndex(obs::VerbCounters::IndexOf("stats"));
  EXPECT_EQ(v.Count(obs::VerbCounters::IndexOf("hdbscan")), 2u);
  EXPECT_EQ(v.Count(obs::VerbCounters::kOther), 1u);
  EXPECT_EQ(v.Total(), 4u);
}

}  // namespace
}  // namespace parhc
