// Set-up and the three served phases against a spawned parhc_netserver.
//
// Every run serves all three request classes, so that every end-to-end
// metric is measured on every workload. The phases run interleaved, in
// kRounds rounds of set-up -> cold -> warm -> ingest, each round against a
// server process of its own, so each metric's samples are spread over the
// run and over several server processes, and its median survives a burst
// of machine noise. The workload's own phase (cold for cold_build, warm for
// warm_mix) gets the measured budget (--seconds, split over the rounds);
// the other phases run a fixed probe each round:
//   cold    one connection, closed loop: a fresh 2D/3D pair, ColdSequence
//   warm    3 summary connections driven from one thread (open loop beside
//           1 paced label connection, then closed loop with a pipelining
//           window)
//   ingest  writer (insert + delete batches) then reader (emst + hdbscan)
//           on a dynamic set, beside a paced bystander on the warm set
#include <poll.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "data/io.h"
#include "hdbscan/hdbscan_mst.h"
#include "emst/emst_memogfk.h"
#include "net/frame.h"
#include "wire.h"

namespace perfbench {
namespace {

using namespace parhc;  // NOLINT — benchmark client only

constexpr int kRounds = 5;
constexpr double kWarmRate = 4000;   ///< open-loop aggregate requests/s
constexpr int kSummaryConns = 3;
constexpr size_t kWindow = 8;        ///< closed-loop requests in flight/conn
/// Warm samples are taken per bin of this many seconds: the closed loop's
/// throughput and the open loop's median latency within each bin.
constexpr double kBinS = 0.1;
constexpr double kReplyTimeoutS = 30;  ///< open/closed-loop drain deadline
/// Insert + delete batches an ingest unit sends before its reads: several
/// batch samples per server for the price of one (~0.9 s) read.
constexpr int kBatchesPerRead = 3;
// The label and bystander connections are paced, closed-loop readers (one
// request at a time, at most this many per second) rather than saturating
// ones. The bystander is paced fast enough that the event loop never idles
// between its reads: at 2000/s about 1 % of them waited ~4 ms for a core
// behind the busy build workers, and whether a run crossed that 1 % set
// the p99.
constexpr double kLabelRate = 10;
constexpr double kBystanderRate = 10000;

std::string Fmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Fmt(const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

std::string Head(const std::string& s) {
  std::string h = s.substr(0, 120);
  for (char& c : h) {
    if (c == '\n' || static_cast<unsigned char>(c) < 32) c = ' ';
  }
  return h;
}

/// key=value fields of a `stats` reply.
std::map<std::string, double> ParseStats(const std::string& reply) {
  std::map<std::string, double> kv;
  std::istringstream ss(reply);
  std::string tok;
  while (ss >> tok) {
    size_t eq = tok.find('=');
    if (eq != std::string::npos) {
      kv[tok.substr(0, eq)] = std::strtod(tok.c_str() + eq + 1, nullptr);
    }
  }
  return kv;
}

/// Value of one Prometheus sample line `<family>{dataset="<name>"} <v>`.
double PromValue(const std::string& text, const std::string& family,
                 const std::string& dataset) {
  std::string key = family + "{dataset=\"" + dataset + "\"} ";
  size_t at = text.find(key);
  return at == std::string::npos
             ? -1
             : std::strtod(text.c_str() + at + key.size(), nullptr);
}

template <int D>
std::vector<double> Flatten(const Point<D>* pts, size_t count) {
  std::vector<double> out(count * D);
  for (size_t i = 0; i < count; ++i) {
    for (int d = 0; d < D; ++d) out[i * D + d] = pts[i][d];
  }
  return out;
}

/// Sleeps until `slot` (a NowSeconds instant) if it is still ahead; returns
/// the time the request is sent.
double PaceTo(double slot) {
  double now = NowSeconds();
  if (slot <= now) return now;
  std::this_thread::sleep_for(std::chrono::duration<double>(slot - now));
  return NowSeconds();
}

using Conns = std::vector<std::unique_ptr<Conn>>;

std::vector<pollfd> PollSet(const Conns& conns) {
  std::vector<pollfd> fds;
  for (const auto& c : conns) fds.push_back({c->fd(), POLLIN, 0});
  return fds;
}

/// Waits up to `timeout_s` until one of `fds` is readable or closed.
bool WaitReadable(std::vector<pollfd>* fds, double timeout_s) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(timeout_s);
  ts.tv_nsec = static_cast<long>((timeout_s - static_cast<double>(ts.tv_sec)) * 1e9);
  return ::ppoll(fds->data(), fds->size(), &ts, nullptr) > 0;
}

/// Runs `fn` on a thread and rethrows its exception on Join.
class Worker {
 public:
  template <typename Fn>
  explicit Worker(Fn fn)
      : th_([this, fn]() mutable {
          try {
            fn();
          } catch (...) {
            err_ = std::current_exception();
          }
        }) {}
  ~Worker() {
    if (th_.joinable()) th_.join();
  }
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  void Join() {
    th_.join();
    if (err_) std::rethrow_exception(err_);
  }

 private:
  std::exception_ptr err_;
  std::thread th_;
};

/// The samples one measurement unit produced, and the steal it ran under.
struct Unit {
  double steal = 0;
  std::vector<double> values;
};

/// Steal at or below which a unit counts as undisturbed.
constexpr double kQuietSteal = 0.02;

/// The units least disturbed by hypervisor steal: every unit at or below
/// kQuietSteal or the median unit's steal, so at least half always count.
std::vector<const Unit*> QuietUnits(const std::vector<Unit>& units) {
  std::vector<double> steal;
  for (const Unit& u : units) steal.push_back(u.steal);
  const double cut = std::max(kQuietSteal, Median(steal));
  std::vector<const Unit*> out;
  for (const Unit& u : units) {
    if (u.steal <= cut) out.push_back(&u);
  }
  return out;
}

/// Pooled samples of the quiet units.
std::vector<double> Quiet(const std::vector<Unit>& units) {
  std::vector<double> out;
  for (const Unit* u : QuietUnits(units)) {
    out.insert(out.end(), u->values.begin(), u->values.end());
  }
  return out;
}

/// Median over the quiet units of each unit's own q-quantile, so one
/// unit's scheduling hiccup cannot set a run's latency percentile alone.
double UnitQuantile(const std::vector<Unit>& units, double q) {
  std::vector<double> per_unit;
  for (const Unit* u : QuietUnits(units)) {
    per_unit.push_back(Quantile(u->values, q));
  }
  return Median(per_unit);
}


/// Sets `flag` when destroyed, so a paced side thread stops even when the
/// phase that owns it throws; declare it after that thread's Worker.
struct StopOnExit {
  std::atomic<bool>& flag;
  ~StopOnExit() { flag.store(true); }
};

class ServedRun {
 public:
  ServedRun(const Options& opts, const Reference& ref, Tally* tally)
      : opts_(opts), ref_(ref), tally_(tally),
        w_bin_(opts.work_dir + "/w.bin") {
    for (int d = 0; d < kCold3Draws; ++d) {
      c3_bins_.push_back(opts.work_dir + "/c3_" + std::to_string(d) + ".bin");
    }
  }

  ServedResult Run();

 private:
  /// Replaces the server with a fresh, loaded and warmed one and resets
  /// the client's model of the dynamic set; returns the timed seconds.
  double SetupOnce();
  /// Each unit returns its wall seconds.
  double ColdPair();
  /// Open loop, then closed loop, each over whole label cycles.
  double WarmUnit(int open_cycles, int closed_cycles);
  /// Summary reads due at kWarmRate from t_begin to t_stop, round robin
  /// over `conns`; each read's latency from its due time, in microseconds,
  /// goes to the kBinS bin it was due in.
  std::vector<std::vector<double>> OpenLoop(const Conns& conns,
                                            double t_begin, double t_stop);
  /// kWindow summary reads in flight on each of `conns` until t_stop;
  /// returns the replies per second of each kBinS bin.
  std::vector<double> ClosedLoop(const Conns& conns, double t_stop);
  /// kBatchesPerRead write batches, then the reads after them.
  void IngestUnit();
  void IngestFinalCheck();

  bool Check(bool ok, const std::string& what) {
    std::lock_guard<std::mutex> lk(tally_mu_);
    return tally_->Check(ok, what);
  }
  /// Builds the failure text only on a mismatch: the warm loops check
  /// hundreds of thousands of replies from one thread.
  bool Expect(const std::string& got, const std::string& want,
              const char* what) {
    const bool ok = got == want;
    return Check(ok, ok ? std::string()
                        : std::string(what) + ": got '" + Head(got) +
                              "' want '" + Head(want) + "'");
  }

  const Options& opts_;
  const Reference& ref_;
  Tally* tally_;
  std::mutex tally_mu_;  ///< guards tally_ across phase threads
  const std::string w_bin_;
  std::vector<std::string> c3_bins_;  ///< one per 3D draw

  std::unique_ptr<ServerProcess> server_;
  Inputs in_;
  /// Live model of the dynamic set: point by gid, and the live gids.
  std::vector<Point<2>> dyn_by_gid_;
  std::vector<uint32_t> dyn_live_;
  size_t stream_used_ = 0;
  std::mt19937_64 del_rng_;  ///< picks the gids each delete batch removes
  std::string last_hdbscan_;  ///< the last `hdbscan dyn` reply

  int pairs_ = 0;  ///< fresh cold pairs loaded so far
  std::vector<Unit> cold_hdb_[2], cold_emst_[2], sweep_;
  /// open_us_: each unit's open-loop latencies; open_p50_us_: their
  /// per-bin medians.
  std::vector<Unit> open_us_, open_p50_us_, labels_ms_, warm_qps_;
  std::vector<double> open_lag_us_;
  std::map<std::string, double> warm_delta_;  ///< `stats` deltas, warm units
  std::map<std::string, double> last_stats_;
  std::vector<Unit> batch_ms_, raw_ms_, bystander_us_;
};

double ServedRun::SetupOnce() {
  server_.reset();  // the previous repetition's server is not timed
  double t0 = NowSeconds();
  in_ = MakeInputs(opts_.n, opts_.seed);
  WritePointsBin(w_bin_, in_.pts2);
  for (int d = 0; d < kCold3Draws; ++d) WritePointsBin(c3_bins_[d], in_.pts3[d]);
  server_ = std::make_unique<ServerProcess>(opts_.server_bin, opts_.nproc,
                                            opts_.nproc);
  Conn c(server_->port());
  Expect(c.Call("load w bin " + w_bin_ + "\n"),
         Fmt("ok load w dim=2 n=%zu\n", opts_.n), "load w");
  std::vector<ColdStep> seq = ColdSequence(2);
  for (size_t i = 0; i < 4; ++i) {
    Expect(c.Call(Line(seq[i], "w")), ref_.cold2[i], "warm-up w");
  }
  Expect(c.Call("dyn dyn 2\n"), "ok dyn dyn dim=2\n", "dyn");
  const size_t quarter = opts_.n / 4;
  for (size_t first = 0; first < opts_.n; first += quarter) {
    size_t count = std::min(quarter, opts_.n - first);
    Expect(c.Call(InsertFrame("dyn", 2,
                              Flatten(&in_.dyn_seed[first], count))),
           Fmt("ok insert dyn n=%zu gids=[%zu,%zu)\n", count, first,
               first + count),
           "seed dyn");
  }
  std::string emst = c.Call("emst dyn\n");
  Check(StartsWith(emst, Fmt("ok emst dyn mst_edges=%zu ", opts_.n - 1)),
        "emst dyn: " + Head(emst));
  const double secs = NowSeconds() - t0;

  if (opts_.trace) Expect(c.Call("trace on\n"), "ok trace on\n", "trace");
  // Every server replays the same ingest sequence from the same state.
  dyn_by_gid_ = in_.dyn_seed;
  dyn_live_.resize(opts_.n);
  for (uint32_t g = 0; g < opts_.n; ++g) dyn_live_[g] = g;
  stream_used_ = 0;
  del_rng_.seed(opts_.seed * 31 + 7);
  return secs;
}

double ServedRun::ColdPair() {
  Conn c(server_->port());
  const double start = NowSeconds();
  const int k = pairs_++;
  for (int dim : {2, 3}) {
    const std::string name = Fmt("c%d_%d", dim, k);
    const int draw = k % kCold3Draws;
    const std::string& bin = dim == 2 ? w_bin_ : c3_bins_[draw];
    const std::vector<std::string>& want =
        dim == 2 ? ref_.cold2 : ref_.cold3[draw];
    const std::string ref_name = dim == 2 ? "w" : "c3";
    Expect(c.Call("load " + name + " bin " + bin + "\n"),
           Fmt("ok load %s dim=%d n=%zu\n", name.c_str(), dim, opts_.n),
           "load");
    std::vector<ColdStep> seq = ColdSequence(dim);
    StealMeter steal;
    double hdb = 0, emst = 0, sweep = 0;
    for (size_t i = 0; i < seq.size(); ++i) {
      double t0 = NowSeconds();
      std::string reply = c.Call(Line(seq[i], name));
      double secs = NowSeconds() - t0;
      Expect(RenameDataset(reply, ref_name), want[i], "cold");
      if (i == 0) hdb = secs;
      if (seq[i].verb == "emst") emst = secs;
      if (i > 3) sweep += secs;
    }
    const double s = steal.Fraction();
    cold_hdb_[dim - 2].push_back({s, {hdb}});
    cold_emst_[dim - 2].push_back({s, {emst}});
    if (dim == 2) sweep_.push_back({s, {sweep}});
    if (k == 0) {
      // Off the clock: the served EMST bit-matches one-shot EmstMemoGfk.
      std::vector<double> w;
      bool ok =
          EdgeReplyWeights(c.Call(NameFrame(net::kOpExportMst, name)), &w);
      Check(ok && w == (dim == 2 ? ref_.emst2 : ref_.emst3),
            "served emst " + name + " != one-shot EmstMemoGfk");
    }
    Expect(c.Call("drop " + name + "\n"), "ok drop " + name + "\n", "drop");
  }
  return NowSeconds() - start;
}

double ServedRun::WarmUnit(int open_cycles, int closed_cycles) {
  const uint16_t port = server_->port();
  const double start = NowSeconds();
  Conn control(port);
  auto before = ParseStats(control.Call("stats\n"));
  StealMeter steal;

  // The label requests run beside the open loop, where the event loop has
  // room for them: they measure label extraction, and every summary read
  // that arrives behind one waits for it. (Beside the closed loop they
  // would measure how the event loop splits its core between them.) Both
  // parts span whole label cycles, so every unit sees the same label mix.
  const size_t per_cycle = ref_.labels.size();
  const double cycle_s = static_cast<double>(per_cycle) / kLabelRate;
  const double t_open = NowSeconds() + 0.05;
  const double t_closed = t_open + open_cycles * cycle_s;
  const double t_end = t_closed + closed_cycles * cycle_s;

  std::vector<double> label_ms;
  Worker labels([&] {
    Conn c(port);
    for (size_t j = 0; j < open_cycles * per_cycle; ++j) {
      const auto& [req, want] = ref_.labels[j % per_cycle];
      double t0 = PaceTo(t_open + static_cast<double>(j) / kLabelRate);
      std::string reply = c.Call(req);
      label_ms.push_back((NowSeconds() - t0) * 1e3);
      Expect(reply, want, "labels");
    }
  });

  // This thread drives every summary connection, so the load generator is
  // one thread, not one per connection.
  Conns conns;
  for (int ci = 0; ci < kSummaryConns; ++ci) {
    conns.push_back(std::make_unique<Conn>(port));
  }
  std::vector<std::vector<double>> open_bins =
      OpenLoop(conns, t_open, t_closed);
  labels.Join();
  PaceTo(t_closed);
  std::vector<double> qps = ClosedLoop(conns, t_end);

  auto after = ParseStats(control.Call("stats\n"));
  const double s = steal.Fraction();
  Unit open{s, {}}, open_p50{s, {}};
  for (const std::vector<double>& bin : open_bins) {
    if (bin.empty()) continue;
    open.values.insert(open.values.end(), bin.begin(), bin.end());
    open_p50.values.push_back(Median(bin));
  }
  open_us_.push_back(std::move(open));
  open_p50_us_.push_back(std::move(open_p50));
  warm_qps_.push_back({s, std::move(qps)});
  // One sample per label cycle, its mean: a median over single requests
  // would fall between two label kinds and jump between them.
  Unit cycles{s, {}};
  for (size_t b = 0; b + per_cycle <= label_ms.size(); b += per_cycle) {
    double sum = 0;
    for (size_t j = b; j < b + per_cycle; ++j) sum += label_ms[j];
    cycles.values.push_back(sum / per_cycle);
  }
  labels_ms_.push_back(std::move(cycles));
  for (const auto& [k, v] : after) warm_delta_[k] += v - before[k];
  last_stats_ = after;
  return NowSeconds() - start;
}

std::vector<std::vector<double>> ServedRun::OpenLoop(const Conns& conns,
                                                     double t_begin,
                                                     double t_stop) {
  // Read i is due at t_begin + i / kWarmRate whether or not earlier
  // replies have arrived, and is timed from then.
  const auto& summary = ref_.summary;
  const size_t nc = conns.size();
  const auto total = static_cast<size_t>((t_stop - t_begin) * kWarmRate);
  auto due = [&](size_t i) {
    return t_begin + static_cast<double>(i) / kWarmRate;
  };
  std::vector<std::vector<double>> bins(
      std::max<size_t>(1, static_cast<size_t>(std::lround(
                              (t_stop - t_begin) / kBinS))));
  std::vector<std::deque<std::pair<size_t, size_t>>> inflight(nc);
  std::vector<pollfd> fds = PollSet(conns);
  size_t pending = 0;
  std::string msg;
  for (size_t i = 0; i < total || pending > 0;) {
    for (; i < total && due(i) <= NowSeconds(); ++i) {
      const size_t ci = i % nc, which = (i + i / nc) % summary.size();
      conns[ci]->Send(summary[which].first);
      open_lag_us_.push_back((NowSeconds() - due(i)) * 1e6);
      inflight[ci].emplace_back(i, which);
      ++pending;
    }
    if (i == total && NowSeconds() > t_stop + kReplyTimeoutS) {
      throw std::runtime_error("open-loop replies missing");
    }
    const double wait =
        i < total ? std::max(0.0, due(i) - NowSeconds()) : 1.0;
    if (!WaitReadable(&fds, wait)) continue;
    for (size_t ci = 0; ci < nc; ++ci) {
      if (fds[ci].revents == 0) continue;
      conns[ci]->ReadSome(0);
      while (conns[ci]->NextBuffered(&msg)) {
        if (inflight[ci].empty()) {
          throw std::runtime_error("open loop: reply without a request");
        }
        const auto [at, which] = inflight[ci].front();
        inflight[ci].pop_front();
        --pending;
        const auto b = static_cast<size_t>((due(at) - t_begin) / kBinS);
        bins[std::min(b, bins.size() - 1)].push_back(
            (NowSeconds() - due(at)) * 1e6);
        Expect(msg, summary[which].second, "open loop");
      }
    }
  }
  return bins;
}

std::vector<double> ServedRun::ClosedLoop(const Conns& conns,
                                          double t_stop) {
  // A connection's replies are checked as they arrive and its window is
  // refilled with one send.
  const auto& summary = ref_.summary;
  const size_t nc = conns.size();
  auto request = [&](size_t ci, size_t k) -> const auto& {
    return summary[(k + ci) % summary.size()];
  };
  std::vector<size_t> sent(nc, 0), got(nc, 0);
  for (size_t ci = 0; ci < nc; ++ci) {
    std::string batch;
    for (; sent[ci] < kWindow; ++sent[ci]) batch += request(ci, sent[ci]).first;
    conns[ci]->Send(batch);
  }
  const double t_begin = NowSeconds();
  const auto nbins = static_cast<size_t>((t_stop - t_begin) / kBinS);
  std::vector<double> bins(std::max<size_t>(1, nbins), 0.0);
  std::vector<pollfd> fds = PollSet(conns);
  size_t pending = nc * kWindow;
  std::string msg, refill;
  while (pending > 0) {
    if (!WaitReadable(&fds, 1.0)) {
      if (NowSeconds() > t_stop + kReplyTimeoutS) {
        throw std::runtime_error("closed-loop replies missing");
      }
      continue;
    }
    for (size_t ci = 0; ci < nc; ++ci) {
      if (fds[ci].revents == 0) continue;
      conns[ci]->ReadSome(0);
      refill.clear();
      while (conns[ci]->NextBuffered(&msg)) {
        Expect(msg, request(ci, got[ci]++).second, "closed loop");
        --pending;
        const double now = NowSeconds();
        if (now >= t_stop) continue;
        const auto b = static_cast<size_t>((now - t_begin) / kBinS);
        if (b < nbins) bins[b] += 1 / kBinS;
        refill += request(ci, sent[ci]++).first;
        ++pending;
      }
      if (!refill.empty()) conns[ci]->Send(refill);
    }
  }
  return bins;
}

void ServedRun::IngestUnit() {
  const uint16_t port = server_->port();
  const size_t batch = std::max<size_t>(1, opts_.n / 100);
  const size_t dels = std::max<size_t>(1, opts_.n / 200);

  std::atomic<bool> stop{false};
  std::vector<double> bystander;
  StealMeter unit_steal;
  Worker reads([&] {
    Conn c(port);
    const double t_first = NowSeconds();
    for (size_t j = 0; !stop.load(); ++j) {
      const auto& [req, want] = ref_.summary[j % ref_.summary.size()];
      double t0 = PaceTo(t_first + static_cast<double>(j) / kBystanderRate);
      std::string reply = c.Call(req);
      bystander.push_back((NowSeconds() - t0) * 1e6);
      Expect(reply, want, "bystander");
    }
  });
  StopOnExit stop_guard{stop};

  Conn writer(port), reader(port);
  StealMeter steal;
  std::vector<double> batch_ms;  // one per batch
  for (int b = 0; b < kBatchesPerRead; ++b) {
    std::vector<uint32_t> victims;
    for (size_t d = 0; d < dels; ++d) {
      size_t at = del_rng_() % dyn_live_.size();
      victims.push_back(dyn_live_[at]);
      dyn_live_[at] = dyn_live_.back();
      dyn_live_.pop_back();
    }
    std::string del = "delete dyn";
    for (uint32_t g : victims) del += " " + std::to_string(g);
    del += "\n";
    std::string ins =
        InsertFrame("dyn", 2, Flatten(&in_.dyn_stream[stream_used_], batch));
    const size_t first = dyn_by_gid_.size();

    double t0 = NowSeconds();
    std::string ins_reply = writer.Call(ins);
    std::string del_reply = writer.Call(del);
    batch_ms.push_back((NowSeconds() - t0) * 1e3);
    Expect(ins_reply,
           Fmt("ok insert dyn n=%zu gids=[%zu,%zu)\n", batch, first,
               first + batch),
           "insert");
    Expect(del_reply, Fmt("ok delete dyn deleted=%zu\n", dels), "delete");
    for (size_t i = 0; i < batch; ++i) {
      dyn_by_gid_.push_back(in_.dyn_stream[stream_used_ + i]);
      dyn_live_.push_back(static_cast<uint32_t>(first + i));
    }
    stream_used_ += batch;
  }
  const size_t live = dyn_live_.size();
  double t1 = NowSeconds();
  std::string emst = reader.Call("emst dyn\n");
  last_hdbscan_ = reader.Call(Fmt("hdbscan dyn %d\n", kMinPts));
  double t2 = NowSeconds();
  const double s = steal.Fraction();
  // One sample per unit, the mean batch: every server replays the same
  // batches, whose cost follows the shard merge cascade (the first costs
  // several times the next), so a median over single batches would pick
  // one cascade step and ignore the rest.
  double batch_sum = 0;
  for (double ms : batch_ms) batch_sum += ms;
  batch_ms_.push_back({s, {batch_sum / kBatchesPerRead}});
  raw_ms_.push_back({s, {(t2 - t1) * 1e3}});
  Check(StartsWith(emst, Fmt("ok emst dyn mst_edges=%zu ", live - 1)),
        "emst dyn: " + Head(emst));
  Check(StartsWith(last_hdbscan_,
                   Fmt("ok hdbscan dyn mst_edges=%zu ", live - 1)),
        "hdbscan dyn: " + Head(last_hdbscan_));
  stop.store(true);
  reads.Join();
  bystander_us_.push_back({unit_steal.Fraction(), std::move(bystander)});
}

void ServedRun::IngestFinalCheck() {
  Conn c(server_->port());
  // Off the clock: the served live set equals the client's model, and its
  // EMST bit-matches a from-scratch EmstMemoGfk over it.
  std::vector<uint32_t> live = dyn_live_;
  std::sort(live.begin(), live.end());
  std::vector<Point<2>> pts;
  pts.reserve(live.size());
  for (uint32_t g : live) pts.push_back(dyn_by_gid_[g]);

  std::string exported = c.Call(NameFrame(net::kOpExportPoints, "dyn"));
  std::string payload = exported.substr(
      std::min(exported.size(), net::kFrameHeaderBytes));
  net::PayloadReader rd(payload);
  bool same = static_cast<uint8_t>(exported[0]) == net::kFrameMagic &&
              rd.GetU16() == 2 && rd.GetU32() == live.size();
  for (size_t i = 0; same && i < live.size(); ++i) same = rd.GetU32() == live[i];
  for (size_t i = 0; same && i < live.size(); ++i) {
    same = rd.GetF64() == pts[i][0] && rd.GetF64() == pts[i][1];
  }
  Check(same && rd.ok(), "exported dyn points != client model");

  std::vector<double> served, oneshot;
  bool ok = EdgeReplyWeights(c.Call(NameFrame(net::kOpExportMst, "dyn")),
                             &served);
  for (const WeightedEdge& e : EmstMemoGfk(pts)) oneshot.push_back(e.w);
  std::sort(oneshot.begin(), oneshot.end());
  Check(ok && served == oneshot, "dyn emst != from-scratch EmstMemoGfk");

  double w = 0;
  for (const WeightedEdge& e : HdbscanMst(pts, kMinPts).mst) w += e.w;
  size_t at = last_hdbscan_.find("mst_weight=");
  double got = at == std::string::npos
                   ? -1
                   : std::strtod(last_hdbscan_.c_str() + at + 11, nullptr);
  Check(std::abs(got - w) <= 1e-5 * std::abs(w),
        Fmt("dyn hdbscan weight %.9g != one-shot %.9g", got, w));
}

ServedResult ServedRun::Run() {
  StealMeter run_steal;
  std::vector<Unit> setups;
  // The workload's own phase runs until its share of --seconds so far is
  // spent (at least one unit a round); the others run one probe unit.
  const std::string& w = opts_.workload;
  const double s = opts_.seconds;
  double own = 0;
  for (int r = 0; r < kRounds; ++r) {
    StealMeter steal;
    const double secs = SetupOnce();
    setups.push_back({steal.Fraction(), {secs}});
    const double target = s * (r + 1) / kRounds;
    if (w == "cold_build") {
      do own += ColdPair(); while (own < target);
    } else {
      ColdPair();
    }
    if (w == "warm_mix") {
      const double cycle_s = ref_.labels.size() / kLabelRate;
      int cycles = std::max(1, static_cast<int>((target - own) / 2 / cycle_s));
      own += WarmUnit(cycles, cycles);
    } else {
      WarmUnit(1, 1);
    }
    IngestUnit();
  }
  LogPhase("served rounds");
  IngestFinalCheck();
  LogPhase("ingest final check");

  ServedResult out;
  Metrics& layers = out.layers;
  Conn control(server_->port());
  auto delta = [&](const char* k) { return warm_delta_[k]; };
  double served = std::max(1.0, delta("served"));
  layers["net.inline_hit_ratio"] = {delta("inline_hits") / served, "ratio"};
  layers["engine.cache_hit_ratio"] = {
      delta("engine_cache_hits") / std::max(1.0, delta("engine_queries")),
      "ratio"};
  layers["net.server_p50_us"] = {last_stats_["p50_us"], "us"};
  layers["net.server_p99_us"] = {last_stats_["p99_us"], "us"};
  layers["net.bytes_out_per_req"] = {delta("bytes_out") / served, "bytes"};
  layers["net.shed"] = {last_stats_["shed"], "count"};
  layers["net.dropped"] = {last_stats_["dropped"], "count"};
  layers["net.open_loop_lag_us"] = {Quantile(open_lag_us_, 0.99), "us"};
  std::string metrics = control.CallUntil("metrics\n", "ok metrics");
  layers["dynamic.shards"] = {
      PromValue(metrics, "parhc_dataset_shards", "dyn"), "count"};
  layers["dynamic.tombstone_ratio"] = {
      PromValue(metrics, "parhc_dataset_tombstone_ratio", "dyn"), "ratio"};
  if (opts_.trace) {
    std::string path = opts_.work_dir + "/served_trace.json";
    std::string reply = control.Call("trace dump " + path + "\n");
    Check(StartsWith(reply, "ok trace dump "), "trace dump: " + Head(reply));
  }

  out.e2e["setup_s"] = {Median(Quiet(setups)), "s"};
  out.e2e["cold_hdbscan_2d_s"] = {Median(Quiet(cold_hdb_[0])), "s"};
  out.e2e["cold_hdbscan_3d_s"] = {Median(Quiet(cold_hdb_[1])), "s"};
  out.e2e["emst_2d_s"] = {Median(Quiet(cold_emst_[0])), "s"};
  out.e2e["emst_3d_s"] = {Median(Quiet(cold_emst_[1])), "s"};
  out.e2e["sweep_2d_s"] = {Median(Quiet(sweep_)), "s"};
  out.e2e["warm_p50_us"] = {Median(Quiet(open_p50_us_)), "us"};
  // Like the sub-millisecond p99s, which swing 2-5x between runs on a
  // shared 4-core VM, closed-loop throughput of the single-threaded event
  // loop moved by 1.5x with the host's state (ten-seed spreads of 0.23 and
  // 0.36, even with client and server confined to one core), beyond any
  // end-to-end bound; they are reported per layer, unbounded.
  layers["net.warm_qps"] = {Median(Quiet(warm_qps_)), "1/s"};
  layers["net.warm_p99_us"] = {UnitQuantile(open_us_, 0.99), "us"};
  layers["net.bystander_p99_us"] = {UnitQuantile(bystander_us_, 0.99), "us"};
  out.e2e["labels_ms"] = {Median(Quiet(labels_ms_)), "ms"};
  out.e2e["ingest_batch_ms"] = {Median(Quiet(batch_ms_)), "ms"};
  out.e2e["read_after_write_ms"] = {Median(Quiet(raw_ms_)), "ms"};
  out.e2e["peak_rss_mb"] = {server_->PeakRssMb(), "MB"};
  out.cold_hdbscan_s[0] = out.e2e["cold_hdbscan_2d_s"].value;
  out.cold_hdbscan_s[1] = out.e2e["cold_hdbscan_3d_s"].value;
  out.steal = run_steal.Fraction();
  server_->Stop();
  return out;
}

}  // namespace

ServedResult RunServed(const Options& opts, const Reference& ref,
                       Tally* tally) {
  ServedRun run(opts, ref, tally);
  return run.Run();
}

}  // namespace perfbench
