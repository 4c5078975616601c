// perfbench_client: the served end-to-end benchmark's client (README.md).
//
//   perfbench_client --workload <cold_build|warm_mix> --seed <s>
//       --seconds <t> --trace <0|1> --server <parhc_netserver>
//       --work-dir <dir> [--n <points>] [--commit <rev>]
//
// Prints one JSON line as the last line of stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1), and writes the same numbers plus the machine context to
// <work-dir>/record-<workload>-seed<s>-trace<t>.json. run.py builds the
// binaries and selects the metrics BENCHMARK.json declares.
#include <sys/prctl.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.h"
#include "geometry/distance.h"
#include "obs/trace.h"
#include "parallel/scheduler.h"
#include "wire.h"

namespace perfbench {
namespace {

constexpr int kClientNice = -10;

Options ParseArgs(int argc, char** argv) {
  Options o;
  unsigned hw = std::thread::hardware_concurrency();
  o.nproc = hw == 0 ? 1 : static_cast<int>(hw);
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      o.trace = v == "1";
    } else if (k == "--n") {
      o.n = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--server") {
      o.server_bin = v;
    } else if (k == "--work-dir") {
      o.work_dir = v;
    } else if (k == "--commit") {
      o.commit = v;
    } else {
      throw std::runtime_error("unknown flag " + k);
    }
  }
  if (o.workload != "cold_build" && o.workload != "warm_mix") {
    throw std::runtime_error("unknown workload '" + o.workload + "'");
  }
  if (o.server_bin.empty() || o.work_dir.empty() || o.n < 1000 ||
      !(o.seconds > 0)) {
    throw std::runtime_error("missing or invalid arguments");
  }
  return o;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 32) ? ' ' : c;
  }
  return out + "\"";
}

std::string MetricsJson(const Metrics& m) {
  std::string out = "{";
  for (const auto& [name, v] : m) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v.value);
    if (out.size() > 1) out += ", ";
    out += Quote(name) + ": {\"value\": " + buf +
           ", \"unit\": " + Quote(v.unit) + "}";
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  Options opts = ParseArgs(argc, argv);
  // The load generator shares the server's cores; above the server's
  // priority it is not queued behind busy server threads, as if it ran on
  // another machine. Threads inherit this, so set it before any start;
  // where it is not permitted the run goes on at normal priority.
  const bool raised = ::setpriority(PRIO_PROCESS, 0, kClientNice) == 0;
  // Open-loop reads are timed from when they were due; the default 50 us
  // timer slack would let the generator's wake-ups, and so every latency,
  // drift by up to that much.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  parhc::SetNumWorkers(opts.nproc);
  Tally tally;

  LogPhase("start");
  Inputs in = MakeInputs(opts.n, opts.seed);
  Metrics layers;
  Reference ref = BuildReference(in, &tally, opts.trace ? &layers : nullptr);
  LogPhase("in-process reference");
  ServedResult served = RunServed(opts, ref, &tally);
  for (const auto& [k, v] : served.layers) layers[k] = v;
  if (opts.trace) {
    TimeLayers(opts, in, served.cold_hdbscan_s, &layers, &tally);
    LogPhase("in-process layer timings");
    size_t spans = 0;
    bool ok = parhc::obs::Tracer::Get().DumpJsonToFile(
        opts.work_dir + "/layers_trace.json", &spans);
    tally.Check(ok && spans > 0, "client trace dump");
  }
  Metrics e2e = served.e2e;
  e2e["ok_ratio"] = {
      1.0 - static_cast<double>(tally.failed) /
                static_cast<double>(std::max<uint64_t>(1, tally.attempted)),
      "ratio"};
  if (opts.trace) {
    for (const auto& [k, v] : e2e) layers["traced." + k] = v;
  }
  Metrics& shown = opts.trace ? layers : e2e;
  bool finite = true;
  for (auto& [k, v] : shown) {
    if (!std::isfinite(v.value)) {
      finite = false;
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", k.c_str());
    }
  }
  bool correct = finite && tally.failed == 0;
  for (const std::string& f : tally.first_failures) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
  }

  char head[160];
  std::snprintf(head, sizeof head,
                "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": ",
                correct ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed));
  std::string result = head + MetricsJson(shown) + "}";

  const char* simd = parhc::simd::LevelName(parhc::simd::ActiveLevel());
  std::string record =
      "{\"context\": {\"workload\": " + Quote(opts.workload) +
      ", \"seed\": " + std::to_string(opts.seed) +
      ", \"seconds\": " + std::to_string(opts.seconds) +
      ", \"trace\": " + (opts.trace ? "1" : "0") +
      ", \"n\": " + std::to_string(opts.n) +
      ", \"nproc\": " + std::to_string(opts.nproc) +
      ", \"server_parallel\": " + std::to_string(opts.nproc) +
      ", \"server_workers\": " + std::to_string(opts.nproc) +
      ", \"simd_level\": " + Quote(simd) +
      ", \"cpu_features\": " +
      (parhc::simd::ActiveLevel() == parhc::simd::IsaLevel::kAvx2Fma ? "1"
                                                                     : "0") +
      ", \"commit\": " + Quote(opts.commit) +
      ", \"steal\": " + std::to_string(served.steal) +
      ", \"client_nice\": " + std::to_string(raised ? kClientNice : 0) +
      "}, \"result\": " + result +
      ", \"end_to_end\": " + MetricsJson(e2e) +
      ", \"per_layer\": " + MetricsJson(layers) + "}\n";
  std::ofstream(opts.work_dir + "/record-" + opts.workload + "-seed" +
                std::to_string(opts.seed) + "-trace" +
                (opts.trace ? "1" : "0") + ".json")
      << record;
  std::printf("%s\n", result.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
