// parhc_router: the multi-node serving tier.
//
// Fronts N parhc_netserver workers with the same wire protocol the
// workers speak, so single-node clients work unchanged: replicated
// datasets (gen/load) fan reads out round-robin for throughput, sharded
// datasets (dyn/geninsert) answer EMST / HDBSCAN* reads on a per-epoch
// mirror of the workers' slices, bit-identically to a single-node engine
// over the union. See src/cluster/router.h and README "Multi-node
// serving".
//
// Usage: parhc_router --upstream HOST:PORT [--upstream HOST:PORT ...]
//   --port N        listen port (default 7078; 0 = ephemeral)
//   --bind ADDR     bind address (default 127.0.0.1)
//   --upstream A    one worker address; repeat per worker (required)
//   --fanout N      bound on concurrent upstream round trips per fan-out
//                   (default 0 = all workers at once)
//   --timeout-ms N  per-round-trip upstream I/O timeout (default 30000)
//   --health-ms N   health-check interval (default 1000)
//   --workers N     query worker threads (default 4)
//   --queue N       global queued-request bound before load-shed (1024)
//   --pipeline N    per-connection pipelining bound (128)
//   --idle-ms N     idle connection timeout, <=0 disables (300000)
//   --poll          force the poll(2) backend instead of epoll
//   --no-timing     omit the secs= field from query responses
//   --slow-us N     slow-query log threshold in microseconds (10000)
//   --trace         enable request tracing at startup
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cluster/router.h"
#include "net/server.h"
#include "parhc.h"

int main(int argc, char** argv) {
  using namespace parhc;
  net::NetServerOptions opts;
  opts.port = 7078;
  opts.install_signal_handlers = true;
  cluster::RouterOptions ropts;
  std::vector<std::string> upstreams;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--port") {
      opts.port = static_cast<uint16_t>(std::atoi(next("--port")));
    } else if (arg == "--bind") {
      opts.bind_addr = next("--bind");
    } else if (arg == "--upstream") {
      upstreams.push_back(next("--upstream"));
    } else if (arg == "--fanout") {
      ropts.fanout = static_cast<size_t>(std::atoll(next("--fanout")));
    } else if (arg == "--timeout-ms") {
      ropts.upstream_timeout_ms = std::atoi(next("--timeout-ms"));
    } else if (arg == "--health-ms") {
      ropts.health_interval_ms = std::atoi(next("--health-ms"));
    } else if (arg == "--workers") {
      opts.workers = std::atoi(next("--workers"));
    } else if (arg == "--queue") {
      opts.max_queued = static_cast<size_t>(std::atoll(next("--queue")));
    } else if (arg == "--pipeline") {
      opts.max_pipelined =
          static_cast<size_t>(std::atoll(next("--pipeline")));
    } else if (arg == "--idle-ms") {
      opts.idle_timeout_ms = std::atoi(next("--idle-ms"));
    } else if (arg == "--poll") {
      opts.use_poll = true;
    } else if (arg == "--no-timing") {
      opts.show_timing = false;
    } else if (arg == "--slow-us") {
      opts.slow_query_us =
          static_cast<uint64_t>(std::atoll(next("--slow-us")));
    } else if (arg == "--trace") {
      opts.trace = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  if (upstreams.empty()) {
    std::fprintf(stderr,
                 "parhc_router: need at least one --upstream HOST:PORT\n");
    return 2;
  }

  cluster::Router router(upstreams, ropts);
  std::string err = router.Start();
  if (!err.empty()) {
    std::fprintf(stderr, "parhc_router: %s\n", err.c_str());
    return 1;
  }
  cluster::RouterSessionFactory factory(router);
  net::NetServer server(factory, opts);
  err = server.Start();
  if (!err.empty()) {
    std::fprintf(stderr, "parhc_router: %s\n", err.c_str());
    return 1;
  }
  std::printf(
      "parhc_router listening on %s:%u proto=%d upstreams=%zu workers=%d\n",
      opts.bind_addr.c_str(), server.port(), net::kProtocolVersion,
      upstreams.size(), opts.workers);
  std::fflush(stdout);
  server.Run();  // returns after SIGINT/SIGTERM graceful drain
  router.Stop();
  std::printf("parhc_router drained, bye\n");
  return 0;
}
