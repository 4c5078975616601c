#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/frame.h"
#include "net/poller.h"
#include "net/protocol.h"
#include "net/scheduler.h"
#include "obs/sources.h"
#include "obs/trace.h"

namespace parhc {
namespace net {
namespace {

using Clock = std::chrono::steady_clock;

int SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return -1;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

// Signal → event-loop bridge: the handler may only touch async-signal-safe
// state, so it sets a flag and writes one byte to the wake pipe of the
// (single) server that installed handlers.
std::atomic<int> g_signal_wake_fd{-1};
volatile std::sig_atomic_t g_signal_stop = 0;

void OnStopSignal(int) {
  g_signal_stop = 1;
  int fd = g_signal_wake_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    char b = 's';
    [[maybe_unused]] ssize_t ignored = ::write(fd, &b, 1);
  }
}

/// Second token of a text request — the dataset argument for every verb
/// that takes one; "" for binary frames, unknown commands, and the
/// dataset-less verbs (help/list/stats/metrics/trace/slowlog). Only the
/// first two tokens are read: the event loop does not run the full parse.
std::string DatasetOf(const WireMessage& msg, int verb_idx) {
  using VC = obs::VerbCounters;
  if (msg.binary || verb_idx == VC::kOther) return "";
  std::string_view verb = VC::kVerbs[verb_idx];
  if (verb == "help" || verb == "list" || verb == "stats" ||
      verb == "metrics" || verb == "trace" || verb == "slowlog") {
    return "";
  }
  Tokenizer tok(msg.text);
  tok.Next();
  return std::string(tok.Next());
}

/// The built-in factory behind the engine-reference constructor: plain
/// ProtocolSessions over one engine.
class EngineSessionFactory final : public SessionFactory {
 public:
  explicit EngineSessionFactory(ClusteringEngine& engine) : engine_(engine) {}

  std::shared_ptr<SessionHandler> NewSession(
      const SessionContext& ctx) override {
    ProtocolOptions popts;
    popts.show_timing = ctx.show_timing;
    popts.stats_source = ctx.stats_source;
    popts.obs = ctx.obs;
    return std::make_shared<ProtocolSession>(engine_, popts);
  }

  ClusteringEngine* engine() override { return &engine_; }

 private:
  ClusteringEngine& engine_;
};

}  // namespace

struct NetServer::Impl {
  struct Conn {
    int fd = -1;
    uint64_t id = 0;
    FrameSplitter in{/*allow_binary=*/true};
    std::string out;
    std::shared_ptr<SessionHandler> session;  // outlives the conn: jobs
                                              // in flight hold a ref
    Clock::time_point last_active;
    uint64_t submitted = 0;
    uint64_t completed = 0;
    /// Peer closed its write side: no more bytes arrive, but everything
    /// already buffered (including a final line without '\n') is still
    /// parsed and answered.
    bool peer_eof = false;
    /// Discard all further input: quit verb, framing violation, or server
    /// drain. Unlike peer_eof, buffered bytes are dropped unparsed.
    bool stop_parsing = false;
    bool read_paused = false;   ///< per-conn flow control engaged
    bool want_write = false;    ///< EPOLLOUT armed
    bool flush_pending = false; ///< in DrainCompletions' touched set
  };

  std::unique_ptr<SessionFactory> owned_factory;  ///< engine-ctor only
  SessionFactory& factory;
  NetServerOptions opts;

  int listen_fd = -1;
  int wake_r = -1;
  int wake_w = -1;
  /// Reserve descriptor released to accept-and-close when the process is
  /// out of fds (EMFILE) — prevents a level-triggered accept busy-spin.
  int spare_fd = -1;
  std::unique_ptr<Poller> poller;
  std::unique_ptr<QueryScheduler> sched;

  std::unordered_map<int, std::unique_ptr<Conn>> conns;  // by fd
  std::unordered_map<uint64_t, Conn*> by_id;
  uint64_t next_conn_id = 1;
  bool draining = false;
  Clock::time_point drain_deadline;

  std::atomic<bool> stop_requested{false};

  std::mutex comp_mu;
  std::vector<std::pair<uint64_t, std::string>> completions;

  obs::Observability obs;     ///< metrics registry + slow-query log
  obs::VerbCounters verbs;    ///< per-verb request counters

  std::atomic<uint64_t> inline_served{0};
  std::atomic<uint64_t> conns_now{0};
  std::atomic<uint64_t> conns_total{0};
  std::atomic<uint64_t> dropped{0};
  std::atomic<uint64_t> proto_errors{0};
  std::atomic<uint64_t> idle_closed{0};
  std::atomic<uint64_t> bytes_in{0};
  std::atomic<uint64_t> bytes_out{0};

  Impl(std::unique_ptr<SessionFactory> owned, SessionFactory* external,
       NetServerOptions o)
      : owned_factory(std::move(owned)),
        factory(owned_factory ? *owned_factory : *external),
        opts(std::move(o)) {}

  ~Impl() {
    for (auto& [fd, conn] : conns) ::close(fd);
    conns.clear();
    by_id.clear();
    if (listen_fd >= 0) ::close(listen_fd);
    if (wake_r >= 0) ::close(wake_r);
    if (wake_w >= 0) ::close(wake_w);
    if (spare_fd >= 0) ::close(spare_fd);
  }

  void WakeLoop() {
    char b = 'w';
    [[maybe_unused]] ssize_t ignored = ::write(wake_w, &b, 1);
  }

  bool ReadEnabled(const Conn& c) const {
    return !c.peer_eof && !c.stop_parsing && !c.read_paused && !draining;
  }

  void UpdateInterest(Conn* c) {
    poller->Mod(c->fd, ReadEnabled(*c), c->want_write);
  }

  void Accept() {
    for (;;) {
      int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if ((errno == EMFILE || errno == ENFILE) && spare_fd >= 0) {
          // Out of descriptors with a connection still in the backlog:
          // level-triggered polling would otherwise report the listen fd
          // readable forever and spin the loop. Burn the reserve fd to
          // accept-and-close (the client sees a clean RST/EOF instead of
          // hanging), then re-arm the reserve.
          ::close(spare_fd);
          spare_fd = -1;
          int shed = ::accept(listen_fd, nullptr, nullptr);
          if (shed >= 0) ::close(shed);
          spare_fd = ::open("/dev/null", O_RDONLY);
          if (shed >= 0) continue;
        }
        return;  // EAGAIN or transient error
      }
      SetNonBlocking(fd);
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      auto conn = std::make_unique<Conn>();
      conn->fd = fd;
      conn->id = next_conn_id++;
      SessionContext ctx;
      ctx.show_timing = opts.show_timing;
      ctx.stats_source = owner;
      ctx.obs = &obs;
      conn->session = factory.NewSession(ctx);
      conn->last_active = Clock::now();
      by_id[conn->id] = conn.get();
      poller->Add(fd, /*readable=*/true, /*writable=*/false);
      conns[fd] = std::move(conn);
      conns_now.fetch_add(1, std::memory_order_relaxed);
      conns_total.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void Destroy(Conn* c) {
    int fd = c->fd;
    sched->CloseConn(c->id);
    poller->Del(fd);
    ::close(fd);
    by_id.erase(c->id);
    conns.erase(fd);  // frees c
    conns_now.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Closes the connection once no more input is coming (or wanted) and
  /// everything it asked for has been answered and flushed.
  void MaybeFinish(Conn* c) {
    if ((c->peer_eof || c->stop_parsing) &&
        c->completed == c->submitted && c->out.empty()) {
      Destroy(c);
    }
  }

  /// Parses buffered wire messages and submits them to the scheduler,
  /// honoring the per-connection pipelining bound. May destroy the
  /// connection (via the trailing FlushOut) — callers must re-look it up
  /// before touching it again.
  void ProcessParsed(Conn* c) {
    // Inline fast path budget: warm reads answered directly on the event
    // loop (no worker handoff; see TryHandleCachedQuery). Bounded per
    // call so a deep pipelined burst cannot stall accepts/other
    // connections for long; past the budget, requests take the normal
    // scheduler path, which also re-establishes the ordering barrier.
    int inline_budget = 256;
    while (!c->stop_parsing && !c->read_paused) {
      WireMessage msg;
      if (!c->in.Next(&msg)) break;
      // A router hop carries the client's trace id as a " trace=<id>"
      // line suffix; strip it before parsing so verbs/datasets/replies
      // are unchanged, and thread it through to the request span.
      uint64_t propagated = msg.binary ? 0 : ExtractTraceSuffix(&msg.text);
      if (!msg.binary && c->submitted == c->completed &&
          inline_budget > 0) {
        // Nothing of this connection is queued or in flight, so an
        // inline answer cannot overtake an earlier response.
        std::string reply;
        auto t0 = Clock::now();
        if (c->session->TryHandleInline(msg.text, &reply)) {
          --inline_budget;
          inline_served.fetch_add(1, std::memory_order_relaxed);
          auto t1 = Clock::now();
          uint64_t us = static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
                  .count());
          sched->RecordLatency(us);
          int vi = obs::VerbCounters::IndexOf(VerbOf(msg));
          verbs.BumpIndex(vi);
          obs::Tracer& tracer = obs::Tracer::Get();
          if (tracer.enabled()) {
            // No queue, no workers: the whole request is one span, reusing
            // the latency measurement's timestamps.
            tracer.RecordSpan(obs::VerbCounters::kRequestSpanNames[vi],
                              "net",
                              propagated ? propagated : tracer.MintTraceId(),
                              obs::ToTraceNs(t0), obs::ToTraceNs(t1));
          }
          if (us >= obs.slowlog.threshold_us()) {
            obs::SlowLogRecord rec;
            rec.verb = obs::VerbCounters::kVerbs[vi];
            rec.dataset = DatasetOf(msg, vi);
            rec.build_us = us;
            rec.total_us = us;
            rec.cache_hit = true;
            obs.slowlog.RecordQuery(std::move(rec));
          }
          c->last_active = t1;
          c->out += reply;
          continue;
        }
      }
      std::string verb = VerbOf(msg);
      if (!msg.binary && (verb == "quit" || verb == "exit")) {
        // The REPL's quit: stop parsing (rest of the input stream is
        // discarded), answer what is pending, close.
        c->stop_parsing = true;
        break;
      }
      auto session = c->session;  // keeps the session alive for the job
      auto m = std::make_shared<WireMessage>(std::move(msg));
      ++c->submitted;
      RequestTag tag;
      tag.verb = obs::VerbCounters::IndexOf(verb);
      tag.dataset = DatasetOf(*m, tag.verb);
      obs::Tracer& tracer = obs::Tracer::Get();
      if (propagated) {
        tag.trace_id = propagated;
      } else if (tracer.enabled()) {
        tag.trace_id = tracer.MintTraceId();
      }
      int verb_idx = tag.verb;
      size_t pending = sched->Submit(
          c->id, "err busy " + verb + "\n",
          [session, m, this, verb_idx] {
            std::string out = session->Handle(*m).out;
            // Bumped after the response exists so sum(per-verb) == served
            // at quiescence (asserted by ci/check_metrics.py); shed busy
            // replies never run this job and are counted by `shed` alone.
            verbs.BumpIndex(verb_idx);
            return out;
          },
          std::move(tag));
      if (pending >= opts.max_pipelined) c->read_paused = true;
    }
    if (!c->in.error().empty() && !c->stop_parsing) {
      proto_errors.fetch_add(1, std::memory_order_relaxed);
      c->out += "err protocol: " + c->in.error() + "\n";
      c->stop_parsing = true;  // answer what was already submitted, close
    }
    UpdateInterest(c);
    FlushOut(c);  // flushes any error line; MaybeFinish closes when drained
  }

  void OnReadable(Conn* c) {
    char buf[64 * 1024];
    for (;;) {
      ssize_t n = ::read(c->fd, buf, sizeof buf);
      if (n > 0) {
        bytes_in.fetch_add(static_cast<uint64_t>(n),
                           std::memory_order_relaxed);
        c->last_active = Clock::now();
        c->in.Feed(buf, static_cast<size_t>(n));
        if (static_cast<size_t>(n) < sizeof buf) break;
      } else if (n == 0) {
        // Peer EOF: a final line without '\n' still gets parsed and
        // answered (FlushEof), then the connection drains and closes.
        c->in.FlushEof();
        c->peer_eof = true;
        break;
      } else {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        Destroy(c);  // ECONNRESET and friends
        return;
      }
    }
    ProcessParsed(c);  // may destroy c
  }

  void FlushOut(Conn* c) {
    while (!c->out.empty()) {
      ssize_t n = ::send(c->fd, c->out.data(), c->out.size(), MSG_NOSIGNAL);
      if (n > 0) {
        bytes_out.fetch_add(static_cast<uint64_t>(n),
                            std::memory_order_relaxed);
        c->out.erase(0, static_cast<size_t>(n));
        // Write progress counts as activity: a peer that keeps reading
        // (however slowly) stays alive, one that stopped reading lets
        // last_active age until the idle reaper frees its buffer.
        c->last_active = Clock::now();
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        Destroy(c);
        return;
      }
    }
    bool want = !c->out.empty();
    if (want != c->want_write) {
      c->want_write = want;
      UpdateInterest(c);
    }
    MaybeFinish(c);
  }

  void DrainCompletions() {
    std::vector<std::pair<uint64_t, std::string>> batch;
    {
      std::lock_guard<std::mutex> lock(comp_mu);
      batch.swap(completions);
    }
    // Two passes: append every response to its connection's write buffer
    // first, then write each touched connection once — one send(2) per
    // connection per batch instead of per response.
    std::vector<uint64_t> touched;
    for (auto& [conn_id, bytes] : batch) {
      auto it = by_id.find(conn_id);
      if (it == by_id.end()) {
        dropped.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      Conn* c = it->second;
      ++c->completed;
      c->last_active = Clock::now();
      c->out += bytes;
      if (!c->flush_pending) {
        c->flush_pending = true;
        touched.push_back(conn_id);
      }
    }
    for (uint64_t conn_id : touched) {
      auto it = by_id.find(conn_id);
      if (it == by_id.end()) continue;
      Conn* c = it->second;
      c->flush_pending = false;
      // Flow control: resume reading once the backlog has half-drained.
      if (c->read_paused &&
          sched->PendingFor(conn_id) <= opts.max_pipelined / 2) {
        c->read_paused = false;
        ProcessParsed(c);  // re-arms interest, flushes, may destroy c
      } else {
        FlushOut(c);  // may destroy c
      }
    }
  }

  void DrainWakePipe() {
    char buf[256];
    while (::read(wake_r, buf, sizeof buf) > 0) {
    }
  }

  void CloseIdle() {
    if (opts.idle_timeout_ms <= 0) return;
    auto now = Clock::now();
    std::vector<Conn*> victims;
    for (auto& [fd, conn] : conns) {
      // Waiting on our own engine work is not idleness; waiting on a peer
      // that neither sends requests nor drains responses is — including a
      // stalled reader whose write buffer would otherwise pin memory
      // forever (FlushOut refreshes last_active on any write progress).
      bool quiescent = conn->completed == conn->submitted;
      if (quiescent &&
          now - conn->last_active >=
              std::chrono::milliseconds(opts.idle_timeout_ms)) {
        victims.push_back(conn.get());
      }
    }
    for (Conn* c : victims) {
      idle_closed.fetch_add(1, std::memory_order_relaxed);
      Destroy(c);
    }
  }

  int NextTimeoutMs() const {
    int timeout = 60000;
    if (draining) timeout = 50;
    if (opts.idle_timeout_ms > 0 && !conns.empty()) {
      auto now = Clock::now();
      for (const auto& [fd, conn] : conns) {
        auto deadline = conn->last_active +
                        std::chrono::milliseconds(opts.idle_timeout_ms);
        int ms = static_cast<int>(
            std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                  now)
                .count());
        timeout = std::min(timeout, std::max(ms, 0) + 10);
      }
    }
    return timeout;
  }

  void BeginDrain() {
    if (draining) return;
    draining = true;
    drain_deadline = Clock::now() +
                     std::chrono::milliseconds(
                         std::max(0, opts.drain_timeout_ms));
    if (listen_fd >= 0) {
      poller->Del(listen_fd);
      ::close(listen_fd);
      listen_fd = -1;
    }
    // Stop reading everywhere; unparsed bytes are discarded, everything
    // already submitted is answered and flushed.
    std::vector<Conn*> all;
    all.reserve(conns.size());
    for (auto& [fd, conn] : conns) all.push_back(conn.get());
    for (Conn* c : all) {
      c->stop_parsing = true;
      UpdateInterest(c);
      MaybeFinish(c);  // quiescent connections close right away
    }
  }

  NetServer* owner = nullptr;  // for the stats hook
};

NetServer::NetServer(ClusteringEngine& engine, NetServerOptions opts)
    : impl_(std::make_unique<Impl>(
          std::make_unique<EngineSessionFactory>(engine), nullptr,
          std::move(opts))) {
  impl_->owner = this;
}

NetServer::NetServer(SessionFactory& factory, NetServerOptions opts)
    : impl_(std::make_unique<Impl>(nullptr, &factory, std::move(opts))) {
  impl_->owner = this;
}

NetServer::~NetServer() {
  // Contract: Run() has returned (or Start was never called); the
  // scheduler is stopped in Run's epilogue, and Impl's destructor closes
  // any remaining fds.
  if (impl_->sched) impl_->sched->Stop();
}

std::string NetServer::Start() {
  Impl& im = *impl_;
  im.listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (im.listen_fd < 0) return "socket: " + std::string(strerror(errno));
  int one = 1;
  ::setsockopt(im.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(im.opts.port);
  if (::inet_pton(AF_INET, im.opts.bind_addr.c_str(), &addr.sin_addr) != 1) {
    return "bad bind address: " + im.opts.bind_addr;
  }
  if (::bind(im.listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof addr) != 0) {
    return "bind " + im.opts.bind_addr + ":" +
           std::to_string(im.opts.port) + ": " + strerror(errno);
  }
  if (::listen(im.listen_fd, SOMAXCONN) != 0) {
    return "listen: " + std::string(strerror(errno));
  }
  socklen_t len = sizeof addr;
  ::getsockname(im.listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  SetNonBlocking(im.listen_fd);

  im.spare_fd = ::open("/dev/null", O_RDONLY);

  int pipefd[2];
  if (::pipe(pipefd) != 0) return "pipe: " + std::string(strerror(errno));
  im.wake_r = pipefd[0];
  im.wake_w = pipefd[1];
  SetNonBlocking(im.wake_r);
  SetNonBlocking(im.wake_w);

  im.poller = Poller::Create(im.opts.use_poll);
  im.poller->Add(im.listen_fd, /*readable=*/true, /*writable=*/false);
  im.poller->Add(im.wake_r, /*readable=*/true, /*writable=*/false);

  QueryScheduler::Options sopts;
  sopts.workers = im.opts.workers;
  sopts.max_queued = im.opts.max_queued;
  sopts.slowlog = &im.obs.slowlog;
  Impl* imp = impl_.get();
  im.sched = std::make_unique<QueryScheduler>(
      sopts, [imp](uint64_t conn_id, uint64_t /*seq*/, std::string bytes,
                   bool /*shed*/) {
        // Coalesced wake-up: one pipe write per queue-empty→non-empty
        // transition, not per completion — under pipelined load the event
        // loop drains whole batches per wake (measurably: this and the
        // batched flush below are what push the 32-connection loopback
        // throughput past 10x a strict request/response client).
        bool wake;
        {
          std::lock_guard<std::mutex> lock(imp->comp_mu);
          wake = imp->completions.empty();
          imp->completions.emplace_back(conn_id, std::move(bytes));
        }
        if (wake) imp->WakeLoop();
      });

  // Observability wiring: threshold + tracer per options, the engine's
  // build profiler, and the metrics sources (all close over members of
  // Impl / the engine, which outlive every scrape).
  im.obs.slowlog.set_threshold_us(im.opts.slow_query_us);
  if (im.opts.trace) obs::Tracer::Get().Enable();
  if (ClusteringEngine* eng = im.factory.engine()) {
    eng->set_slowlog(&im.obs.slowlog);
    obs::RegisterEngineMetrics(im.obs.metrics, *eng);
  }
  obs::RegisterServerMetrics(im.obs.metrics, *this, &im.sched->latency(),
                             &im.verbs);
  obs::RegisterAlgorithmMetrics(im.obs.metrics);
  obs::RegisterObsMetrics(im.obs.metrics, im.obs.slowlog);
  im.factory.RegisterMetrics(im.obs);

  if (im.opts.install_signal_handlers) {
    g_signal_wake_fd.store(im.wake_w, std::memory_order_relaxed);
    struct sigaction sa{};
    sa.sa_handler = OnStopSignal;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
  }
  return "";
}

void NetServer::Run() {
  Impl& im = *impl_;
  std::vector<PollerEvent> events;
  for (;;) {
    events.clear();
    im.poller->Wait(im.NextTimeoutMs(), &events);

    if (im.stop_requested.load(std::memory_order_relaxed) ||
        (im.opts.install_signal_handlers && g_signal_stop)) {
      im.BeginDrain();
    }

    // Accepts first, connection I/O second: a fd freed by a Destroy in
    // the second pass can then only be reused by an accept in the *next*
    // iteration, so a stale event in this batch can never be misrouted to
    // a different connection.
    for (const PollerEvent& ev : events) {
      if (ev.fd == im.listen_fd && im.listen_fd >= 0 && ev.readable) {
        im.Accept();
      } else if (ev.fd == im.wake_r) {
        im.DrainWakePipe();
      }
    }
    for (const PollerEvent& ev : events) {
      if (ev.fd == im.wake_r ||
          (ev.fd == im.listen_fd && im.listen_fd >= 0)) {
        continue;
      }
      auto it = im.conns.find(ev.fd);
      if (it == im.conns.end()) continue;
      Impl::Conn* c = it->second.get();
      if (ev.error && !ev.readable && !ev.writable) {
        im.Destroy(c);
        continue;
      }
      if (ev.readable) {
        im.OnReadable(c);
        if (im.conns.count(ev.fd) == 0) continue;
      }
      if (ev.writable) im.FlushOut(c);
    }

    im.DrainCompletions();
    im.CloseIdle();

    if (im.draining) {
      // Finished connections close themselves in MaybeFinish; force the
      // stragglers at the deadline.
      if (im.conns.empty()) break;
      if (Clock::now() >= im.drain_deadline) {
        std::vector<Impl::Conn*> rest;
        for (auto& [fd, conn] : im.conns) rest.push_back(conn.get());
        for (Impl::Conn* c : rest) im.Destroy(c);
        break;
      }
    }
  }
  // A signal arriving from here on must not write into wake_w — the fd
  // is about to be closed and its number reused (the handler stays
  // installed but no-ops on -1).
  if (im.opts.install_signal_handlers) {
    g_signal_wake_fd.store(-1, std::memory_order_relaxed);
  }
  // Every connection is gone, so no completion can matter anymore; stop
  // the workers (any in-flight job finishes first inside Stop()).
  im.sched->Stop();
  {
    std::lock_guard<std::mutex> lock(im.comp_mu);
    im.dropped.fetch_add(im.completions.size(), std::memory_order_relaxed);
    im.completions.clear();
  }
}

void NetServer::Shutdown() {
  impl_->stop_requested.store(true, std::memory_order_relaxed);
  impl_->WakeLoop();
}

obs::Observability& NetServer::observability() { return impl_->obs; }

const obs::VerbCounters& NetServer::verb_counters() const {
  return impl_->verbs;
}

ServerStatsSnapshot NetServer::Stats() const {
  const Impl& im = *impl_;
  ServerStatsSnapshot s;
  s.connections_now = im.conns_now.load(std::memory_order_relaxed);
  s.connections_total = im.conns_total.load(std::memory_order_relaxed);
  s.dropped = im.dropped.load(std::memory_order_relaxed);
  s.protocol_errors = im.proto_errors.load(std::memory_order_relaxed);
  s.idle_closed = im.idle_closed.load(std::memory_order_relaxed);
  s.bytes_in = im.bytes_in.load(std::memory_order_relaxed);
  s.bytes_out = im.bytes_out.load(std::memory_order_relaxed);
  s.inline_hits = im.inline_served.load(std::memory_order_relaxed);
  if (im.sched) {
    s.served = im.sched->served() + s.inline_hits;
    s.shed = im.sched->shed();
    s.queued_now = im.sched->queued_now();
    s.inflight_now = im.sched->inflight_now();
    s.p50_us = im.sched->latency().QuantileUs(0.50);
    s.p99_us = im.sched->latency().QuantileUs(0.99);
  }
  return s;
}

}  // namespace net
}  // namespace parhc
