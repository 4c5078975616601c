// Router-tier benchmarks (src/cluster/): replica fan-out throughput and
// sharded-read correctness/cost against a single-node engine.
//
// RouterFanout/replicas:R — R in-process parhc_netserver workers behind
// one router front-end, all serving the same replicated warm dataset
// (gen fans out to every worker; reads go round-robin). A strict
// single-connection pass and a kClients pipelined pass hammer the router
// with warm `hdbscan` reads; every response must be byte-identical to
// the single-node protocol-core answer (`identical`, gated == 1 — the
// replicated path forwards worker replies verbatim, so no stripping is
// needed). `qps_multi` is gated monotone across replicas:1 -> replicas:2
// with 0.5 slack: a 1-core CI box cannot show real scaling (every hop is
// serialized), so the gate only rejects a collapse; the scaling claim
// applies on multi-core hardware (README "Multi-node serving").
//
// RouterShardedMerge/workers:2 — a sharded dataset split across two
// workers by the placement map; the router mirrors the points and runs
// HDBSCAN* and the EMST on the static artifact DAG over its mirror, and
// the answers are compared against a single-node engine over the union
// with built=/reused= tokens stripped (artifact cache keys legitimately
// differ across tiers; everything else must match byte-for-byte —
// `identical`, gated == 1). `dist_vs_single` (router cold-build wall
// over single-node cold-build wall) is informational: on one machine the
// router adds the mirror export round trips on top of the same compute,
// so it is expected to be > 1 there.
//
// CI runs a small-N smoke via bench_router_smoke, emitting
// BENCH_router_fanout.json for the bench-regression gate.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "cluster/router.h"
#include "net/protocol.h"
#include "net/server.h"

namespace parhc_bench {
namespace {

constexpr int kClients = 8;   ///< concurrent pipelined router connections
constexpr int kWindow = 32;   ///< pipelined requests in flight per conn
constexpr int kMinPts = 16;

/// Blocking loopback client with buffered line reads (same shape as
/// bench_server_throughput's; kept local — each bench binary stands
/// alone).
class Client {
 public:
  explicit Client(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    PARHC_CHECK_MSG(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0,
        "bench client connect failed");
  }
  ~Client() { ::close(fd_); }

  void Send(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off, 0);
      PARHC_CHECK_MSG(n > 0, "bench client send failed");
      off += static_cast<size_t>(n);
    }
  }

  std::string ReadLine() {
    for (;;) {
      size_t nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        std::string line = buf_.substr(pos_, nl + 1 - pos_);
        pos_ = nl + 1;
        if (pos_ >= 64 * 1024 || pos_ == buf_.size()) {
          buf_.erase(0, pos_);
          pos_ = 0;
        }
        return line;
      }
      char tmp[65536];
      ssize_t n = ::read(fd_, tmp, sizeof tmp);
      PARHC_CHECK_MSG(n > 0, "bench client read failed/eof");
      buf_.append(tmp, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
  size_t pos_ = 0;
};

/// Drops built=/reused= tokens: artifact-cache keys differ between the
/// router's merged pipeline and a single-node engine; every other byte
/// of the response must still match.
std::string StripArtifacts(const std::string& s) {
  std::string out, tok;
  auto flush = [&](char sep) {
    if (tok.rfind("built=", 0) != 0 && tok.rfind("reused=", 0) != 0 &&
        !tok.empty()) {
      if (!out.empty() && out.back() != '\n') out += ' ';
      out += tok;
    }
    if (sep == '\n') out += '\n';
    tok.clear();
  };
  for (char ch : s) {
    if (ch == ' ' || ch == '\n') {
      flush(ch);
    } else {
      tok += ch;
    }
  }
  if (!tok.empty()) flush('\0');
  return out;
}

/// One in-process parhc_netserver worker: engine + TCP front-end on an
/// ephemeral port, event loop on its own thread.
struct WorkerNode {
  ClusteringEngine engine;
  std::unique_ptr<net::NetServer> server;
  std::thread loop;

  WorkerNode() {
    net::NetServerOptions o;
    o.port = 0;
    o.workers = 2;
    o.max_queued = 1 << 16;
    o.max_pipelined = kWindow * 2;
    o.show_timing = false;  // responses compared byte-for-byte
    server = std::make_unique<net::NetServer>(engine, o);
    std::string err = server->Start();
    PARHC_CHECK_MSG(err.empty(), err.c_str());
    loop = std::thread([this] { server->Run(); });
  }
  ~WorkerNode() {
    server->Shutdown();
    loop.join();
  }
  std::string addr() const {
    return "127.0.0.1:" + std::to_string(server->port());
  }
};

/// One pipelined multi-client pass against the router front-end; every
/// reply compared against `expected`. Returns wall seconds.
double MultiClientPassSecs(uint16_t port, const std::string& query,
                          const std::string& expected, int per_client,
                          std::atomic<uint64_t>& mismatches) {
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  Timer t;
  for (int ci = 0; ci < kClients; ++ci) {
    threads.emplace_back([&] {
      Client c(port);
      int total = per_client;
      int prefill = std::min(kWindow, total);
      std::string burst;
      for (int w = 0; w < prefill; ++w) burst += query;
      c.Send(burst);
      int sent = prefill;
      for (int received = 0; received < total; ++received) {
        if (c.ReadLine() != expected) ++mismatches;
        int outstanding = sent - (received + 1);
        if (sent < total && outstanding <= kWindow / 2) {
          int batch = std::min(kWindow - outstanding, total - sent);
          c.Send(burst.substr(0, batch * query.size()));
          sent += batch;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  return t.Seconds();
}

void RunRouterFanout(benchmark::State& st, size_t n, int replicas) {
  SetNumWorkers(EnvMaxThreads());
  const std::string gen_line =
      "gen warm 2 varden " + std::to_string(n) + " 42\n";
  const std::string query = "hdbscan warm " + std::to_string(kMinPts) + "\n";
  const int single_queries = n >= 100000 ? 2000 : 400;
  const int multi_queries_per_client = n >= 100000 ? 1000 : 250;

  std::vector<std::unique_ptr<WorkerNode>> nodes;
  std::vector<std::string> addrs;
  for (int i = 0; i < replicas; ++i) {
    nodes.push_back(std::make_unique<WorkerNode>());
    addrs.push_back(nodes.back()->addr());
  }
  cluster::RouterOptions ropts;
  ropts.start_health_thread = false;  // all-healthy, deterministic rates
  cluster::Router router(addrs, ropts);
  std::string err = router.Start();
  PARHC_CHECK_MSG(err.empty(), err.c_str());
  cluster::RouterSessionFactory factory(router);
  net::NetServerOptions fopts;
  fopts.port = 0;
  fopts.workers = std::max(4, 2 * replicas);
  fopts.max_queued = 1 << 16;
  fopts.max_pipelined = kWindow * 2;
  fopts.show_timing = false;
  net::NetServer front(factory, fopts);
  err = front.Start();
  PARHC_CHECK_MSG(err.empty(), err.c_str());
  std::thread loop([&front] { front.Run(); });

  // Single-node reference: the warm REPL answer every routed response
  // must reproduce byte-for-byte.
  ClusteringEngine ref;
  net::ProtocolOptions popts;
  popts.show_timing = false;
  net::ProtocolSession repl(ref, popts);
  std::string gen_reply =
      repl.HandleLine(gen_line.substr(0, gen_line.size() - 1)).out;
  PARHC_CHECK_MSG(gen_reply.rfind("ok gen", 0) == 0, gen_reply.c_str());
  repl.HandleLine("hdbscan warm " + std::to_string(kMinPts));  // build
  const std::string expected =
      repl.HandleLine("hdbscan warm " + std::to_string(kMinPts)).out;
  PARHC_CHECK_MSG(expected.rfind("ok hdbscan", 0) == 0, expected.c_str());

  {
    // gen broadcasts to every worker; then one warm read per worker
    // (reads round-robin) builds each replica's artifacts, and a second
    // round checks the warm replies match the reference exactly.
    Client c(front.port());
    c.Send(gen_line);
    std::string routed_gen = c.ReadLine();
    PARHC_CHECK_MSG(routed_gen.rfind("ok gen", 0) == 0, routed_gen.c_str());
    for (int i = 0; i < replicas; ++i) {
      c.Send(query);
      c.ReadLine();  // cold: builds this replica's artifacts
    }
    for (int i = 0; i < replicas; ++i) {
      c.Send(query);
      PARHC_CHECK_MSG(c.ReadLine() == expected,
                      "warm routed reply differs from single-node");
    }
  }

  for (auto _ : st) {
    // ---- single: strict request/response over one connection ----
    std::atomic<uint64_t> mismatches{0};
    Timer t;
    {
      Client c(front.port());
      for (int i = 0; i < single_queries; ++i) {
        c.Send(query);
        if (c.ReadLine() != expected) ++mismatches;
      }
    }
    double single_secs = t.Seconds();

    // ---- multi: kClients pipelined connections (best of two) ----
    double multi_secs = 0;
    for (int rep = 0; rep < 2; ++rep) {
      double secs = MultiClientPassSecs(front.port(), query, expected,
                                        multi_queries_per_client, mismatches);
      if (rep == 0 || secs < multi_secs) multi_secs = secs;
    }

    double qps_single = single_queries / single_secs;
    double qps_multi =
        static_cast<double>(kClients) * multi_queries_per_client / multi_secs;
    st.counters["qps_single"] = qps_single;
    st.counters["qps_multi"] = qps_multi;
    st.counters["speedup"] = qps_multi / qps_single;
    st.counters["identical"] = mismatches.load() == 0 ? 1 : 0;
  }
  st.counters["n"] = static_cast<double>(n);
  st.counters["replicas"] = replicas;
  st.counters["clients"] = kClients;
  st.counters["cores"] =
      static_cast<double>(std::thread::hardware_concurrency());

  front.Shutdown();
  loop.join();
  router.Stop();
}

void RunRouterShardedMerge(benchmark::State& st, size_t n) {
  SetNumWorkers(EnvMaxThreads());
  const std::string seed = "geninsert s 2 varden " + std::to_string(n) + " 7";
  const std::string build = "hdbscan s " + std::to_string(kMinPts);

  std::vector<std::unique_ptr<WorkerNode>> nodes;
  std::vector<std::string> addrs;
  for (int i = 0; i < 2; ++i) {
    nodes.push_back(std::make_unique<WorkerNode>());
    addrs.push_back(nodes.back()->addr());
  }
  cluster::RouterOptions ropts;
  ropts.start_health_thread = false;
  cluster::Router router(addrs, ropts);
  std::string err = router.Start();
  PARHC_CHECK_MSG(err.empty(), err.c_str());
  net::ProtocolOptions popts;
  popts.show_timing = false;
  auto ask = [&](const std::string& line) {
    net::WireMessage msg;
    msg.text = line;
    return router.Handle(msg, popts).out;
  };

  // Single-node reference over the identical point set.
  ClusteringEngine ref;
  net::ProtocolSession repl(ref, popts);

  for (auto _ : st) {
    // Fresh dataset every iteration so both builds stay cold.
    ask("drop s");
    repl.HandleLine("drop s");
    std::string r = ask("dyn s 2");
    PARHC_CHECK_MSG(r.rfind("ok dyn", 0) == 0, r.c_str());
    r = ask(seed);
    PARHC_CHECK_MSG(r.rfind("ok geninsert", 0) == 0, r.c_str());
    r = repl.HandleLine("dyn s 2").out;
    PARHC_CHECK_MSG(r.rfind("ok dyn", 0) == 0, r.c_str());
    r = repl.HandleLine(seed).out;
    PARHC_CHECK_MSG(r.rfind("ok geninsert", 0) == 0, r.c_str());

    Timer t;
    std::string dist_hdbscan = ask(build);
    std::string dist_emst = ask("emst s");
    double dist_secs = t.Seconds();
    t.Reset();
    std::string single_hdbscan = repl.HandleLine(build).out;
    std::string single_emst = repl.HandleLine("emst s").out;
    double single_secs = t.Seconds();

    PARHC_CHECK_MSG(dist_hdbscan.rfind("ok hdbscan", 0) == 0,
                    dist_hdbscan.c_str());
    PARHC_CHECK_MSG(dist_emst.rfind("ok emst", 0) == 0, dist_emst.c_str());
    bool identical =
        StripArtifacts(dist_hdbscan) == StripArtifacts(single_hdbscan) &&
        StripArtifacts(dist_emst) == StripArtifacts(single_emst);
    st.counters["identical"] = identical ? 1 : 0;
    st.counters["dist_build_secs"] = dist_secs;
    st.counters["single_build_secs"] = single_secs;
    st.counters["dist_vs_single"] = dist_secs / single_secs;
  }
  st.counters["n"] = static_cast<double>(n);
  st.counters["workers"] = 2;
  st.counters["cores"] =
      static_cast<double>(std::thread::hardware_concurrency());
  router.Stop();
}

void RegisterAll() {
  size_t n = EnvN(20000);
  for (int replicas : {1, 2}) {
    std::string name =
        "RouterFanout/2D-SS-varden/replicas:" + std::to_string(replicas);
    benchmark::RegisterBenchmark(
        name.c_str(),
        [=](benchmark::State& st) { RunRouterFanout(st, n, replicas); })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(EnvIters())
        ->UseRealTime();
  }
  benchmark::RegisterBenchmark(
      "RouterShardedMerge/2D-SS-varden/workers:2",
      [=](benchmark::State& st) { RunRouterShardedMerge(st, n); })
      ->Unit(benchmark::kMillisecond)
      ->Iterations(EnvIters())
      ->UseRealTime();
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
