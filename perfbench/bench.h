// Shared types of the served end-to-end benchmark (see README.md).
//
// The client is split by concern:
//   reference.cc  seeded inputs, and the in-process reference answers every
//                 served reply is checked against (ProtocolSession on the
//                 same points, one-shot HdbscanMst/EmstMemoGfk);
//   served.cc     set-up and the three served phases over loopback sockets
//                 against a spawned parhc_netserver;
//   layers.cc     the traced run's in-process per-layer timings;
//   wire.cc       sockets, frames and the server process;
//   main.cc       arguments, orchestration and the result line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "geometry/point.h"

namespace perfbench {

using parhc::Point;

/// minPts of every summary read, the first cold query and the warm set.
inline constexpr int kMinPts = 10;
/// minClusterSize of the `clusters` verb and kOpGetLabels kind 1.
inline constexpr int kMinClusterSize = 50;
/// The cold 2D minPts sweep; stays at or below kMinPts so knn@10 is reused.
inline constexpr int kSweep[] = {8, 6, 4};
/// Independent 3D uniform draws the cold pairs cycle through: the 3D EMST's
/// cost varies by up to 2x from one draw to the next (0.30 s against
/// 0.65 s at n = 100 000), so a run measuring a single draw would report
/// its seed more than the code.
inline constexpr int kCold3Draws = 5;

struct Options {
  std::string workload;     ///< cold_build | warm_mix
  uint64_t seed = 1;
  double seconds = 10;      ///< measured budget of the workload's own phase
  bool trace = false;
  size_t n = 100000;        ///< points per dataset
  int nproc = 4;            ///< client threads/connections cap, server --parallel
  std::string server_bin;   ///< parhc_netserver
  std::string work_dir;     ///< input files, dumps and result records
  std::string commit;       ///< source revision stamped into the record
};

/// Every input of a run, generated in the client from the seed.
struct Inputs {
  std::vector<Point<2>> pts2;        ///< 2D varden: cold 2D set and warm set
  /// 3D uniform: the cold 3D sets, kCold3Draws draws.
  std::vector<std::vector<Point<3>>> pts3;
  std::vector<Point<2>> dyn_seed;    ///< n points seeding the dynamic set
  std::vector<Point<2>> dyn_stream;  ///< insert stream, consumed in order
};

Inputs MakeInputs(size_t n, uint64_t seed);

/// Request/reply bookkeeping: every request the benchmark sends is attempted
/// once; a reply that is an error, differs from its reference, or never
/// arrives is failed. The first few failures are kept for the log.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> first_failures;

  /// Counts one request or comparison; returns ok.
  bool Check(bool ok, const std::string& what);
};

/// One named measurement, printed as {"value": v, "unit": u}.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// The cold query sequence of one fresh dataset (without the name, which
/// is the second token of every line).
struct ColdStep {
  std::string verb;  ///< text before the dataset name
  std::string args;  ///< text after it (may be empty)
};
std::vector<ColdStep> ColdSequence(int dim);
std::string Line(const ColdStep& step, const std::string& dataset);

/// Reference answers computed in-process on the same points. Dataset names
/// inside expected replies are "w" (the 2D points, also the served warm
/// set) and "c3" (the 3D points); served cold replies are compared after
/// renaming their fresh dataset (c2_k, c3_k) to these.
struct Reference {
  std::vector<std::string> cold2;  ///< replies to ColdSequence(2) on "w"
  /// Per 3D draw, replies to ColdSequence(3) on "c3".
  std::vector<std::vector<std::string>> cold3;
  /// Warm summary reads (hdbscan/emst/reach on "w") and their replies.
  std::vector<std::pair<std::string, std::string>> summary;
  /// Label requests: text lines or encoded kOpGetLabels frames, with the
  /// exact reply bytes (text line or kOpLabelsReply frame).
  std::vector<std::pair<std::string, std::string>> labels;
  /// Sorted edge weights of one-shot EmstMemoGfk (2D, first 3D draw).
  std::vector<double> emst2, emst3;
};

/// Builds the reference (and, when `layers` is non-null, times the warm
/// path's in-process layer calls on the same warm engine). Mismatches
/// between the engine and the one-shot library calls count in `tally`.
Reference BuildReference(const Inputs& in, Tally* tally, Metrics* layers);

/// Replaces the dataset token of a reply line ("ok <verb> <name> ..." or
/// "err <verb> <name>: ..."); other bytes untouched.
std::string RenameDataset(const std::string& reply, const std::string& to);

/// Sorted weights of an encoded kOpEdgesReply frame (false if malformed).
bool EdgeReplyWeights(const std::string& frame, std::vector<double>* w);

struct ServedResult {
  Metrics e2e;
  Metrics layers;            ///< stats/metrics-verb derived layer values
  double cold_hdbscan_s[2];  ///< median served cold hdbscan, 2D and 3D
  double steal = 0;          ///< hypervisor steal share over the phases
};

/// Runs the rounds of set-up and the three served phases, giving the
/// workload's own phase `opts.seconds`.
ServedResult RunServed(const Options& opts, const Reference& ref,
                       Tally* tally);

/// The traced run's in-process timings of the algorithm, engine and
/// dynamic layers at 1 and nproc workers.
void TimeLayers(const Options& opts, const Inputs& in,
                const double served_cold_s[2], Metrics* out, Tally* tally);

/// Logs to stderr the seconds since the previous LogPhase call.
void LogPhase(const char* what);

// ---- small statistics helpers ----

/// Linear-interpolated quantile q in [0,1] of `v` (copied and sorted).
double Quantile(std::vector<double> v, double q);
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

}  // namespace perfbench
