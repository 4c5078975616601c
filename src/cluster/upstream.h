// Router-side client connections to parhc_netserver workers.
//
// One Upstream wraps one TCP connection speaking the serving protocol
// (net/protocol.h text lines + net/frame.h binary frames) in strict
// request/reply lockstep: a per-upstream mutex serializes round trips, so
// any router thread may use any upstream. Connecting performs the `hello`
// handshake and refuses workers whose protocol version differs from
// net::kProtocolVersion, whose role is not "engine", or whose dim caps
// differ from this build's registry widths (net::ProtocolDims).
//
// Replies are framed with the same FrameSplitter the servers use: one
// round trip reads exactly one wire message (a text line or one binary
// frame). The router therefore only forwards verbs with single-line text
// replies — multi-line verbs (list, metrics, slowlog, help) are answered
// by the router itself.
//
// Failure semantics: any I/O error (connect refused, send/recv timeout,
// peer EOF, framing violation) marks the upstream unhealthy and closes the
// socket. UpstreamPool's health pass retries unhealthy upstreams with
// doubling backoff and reports recoveries so the router can re-seed
// datasets (see router.h).
//
// Tracing: every round trip runs under a "hop:<host>:<port>" span, and
// text requests carry the current trace id as a " trace=<id>" suffix, so a
// worker's request spans join the client's trace across the hop.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/frame.h"

namespace parhc {
namespace cluster {

/// Per-upstream monotonic counters (surfaced by the `cluster` verb and the
/// router's metrics source).
struct UpstreamCounters {
  std::atomic<uint64_t> requests{0};    ///< round trips attempted
  std::atomic<uint64_t> errors{0};      ///< round trips failed (I/O)
  std::atomic<uint64_t> reconnects{0};  ///< successful re-connects
  std::atomic<uint64_t> bytes_out{0};
  std::atomic<uint64_t> bytes_in{0};
};

class Upstream {
 public:
  /// `addr` is "host:port" with a numeric IPv4 host (the router's upstream
  /// flags and tests use loopback addresses).
  Upstream(std::string addr, int timeout_ms);
  ~Upstream();

  Upstream(const Upstream&) = delete;
  Upstream& operator=(const Upstream&) = delete;

  /// Connects and runs the `hello` handshake. Returns "" on success, else
  /// a diagnostic; the upstream is healthy afterwards.
  std::string Connect();
  void Close();

  bool healthy() const { return healthy_.load(std::memory_order_acquire); }
  const std::string& addr() const { return addr_; }

  /// One request/reply round trip. Appends " trace=<id>" to text requests
  /// when the calling thread carries a trace id. On success fills *reply
  /// (and *raw_reply with the exact bytes to forward — the text line with
  /// its '\n', or the re-encoded frame) and returns true. On I/O failure
  /// returns false and marks the upstream unhealthy.
  bool Roundtrip(const net::WireMessage& req, net::WireMessage* reply,
                 std::string* raw_reply);

  /// Text-line convenience wrapper; *reply_line gets the reply without its
  /// terminator.
  bool SendLine(const std::string& line, std::string* reply_line);

  UpstreamCounters& counters() { return counters_; }
  const UpstreamCounters& counters() const { return counters_; }

  /// Liveness probe for the health pass: a `hello` round trip, except that
  /// a busy upstream (round-trip mutex held by a request in flight) counts
  /// as alive without waiting. Returns false only on a failed probe.
  bool TryPing();

 private:
  bool RoundtripLocked(const net::WireMessage& req, net::WireMessage* reply,
                       std::string* raw_reply);
  bool WriteAll(const std::string& bytes);
  bool ReadReply(net::WireMessage* msg);
  void MarkDown();

  std::string addr_;
  std::string host_;
  uint16_t port_ = 0;
  int timeout_ms_;
  const char* hop_span_name_;  ///< interned "hop:<addr>", process-lifetime

  std::mutex mu_;  ///< serializes round trips (and connect/close)
  int fd_ = -1;
  std::unique_ptr<net::FrameSplitter> splitter_;
  std::atomic<bool> healthy_{false};
  UpstreamCounters counters_;
};

/// The router's set of worker connections: round-robin read selection,
/// bounded-concurrency fan-out, and the health/backoff loop body.
class UpstreamPool {
 public:
  /// `fanout` bounds concurrent upstream round trips per ForEach (0 = all
  /// upstreams at once).
  UpstreamPool(std::vector<std::string> addrs, int timeout_ms, size_t fanout);

  /// Connects every upstream; returns "" or the first failure (startup is
  /// strict — a router must begin with its full worker set).
  std::string ConnectAll();

  size_t size() const { return ups_.size(); }
  Upstream& at(size_t i) { return *ups_[i]; }
  const Upstream& at(size_t i) const { return *ups_[i]; }
  size_t HealthyCount() const;

  /// Next healthy upstream in round-robin order (replica read fan-out);
  /// null when none are healthy.
  Upstream* NextHealthy();

  /// Runs fn(worker_index, upstream) once per upstream, at most `fanout`
  /// concurrently (std::thread fan-out: upstream round trips block on
  /// socket I/O, so scheduler workers are the wrong vehicle). The calling
  /// thread's trace id is propagated into the fan-out threads. Blocks
  /// until every call returns.
  void ForEach(const std::function<void(size_t, Upstream&)>& fn);

  /// One health pass: pings healthy upstreams (skipping any that are busy
  /// serving — a held round-trip mutex proves liveness) and re-connects
  /// unhealthy ones whose backoff expired (100 ms doubling to 3.2 s).
  /// Returns the indices that just recovered so the router can re-seed
  /// them.
  std::vector<size_t> HealthPass(uint64_t now_ms);

 private:
  std::vector<std::unique_ptr<Upstream>> ups_;
  std::vector<uint64_t> next_retry_ms_;
  std::vector<uint64_t> backoff_ms_;
  std::atomic<size_t> rr_{0};
  size_t fanout_;
};

}  // namespace cluster
}  // namespace parhc
