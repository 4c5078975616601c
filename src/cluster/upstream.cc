#include "cluster/upstream.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>

#include "net/protocol.h"
#include "obs/trace.h"

namespace parhc {
namespace cluster {

namespace {

/// Splits "host:port"; returns false on a malformed address.
bool SplitAddr(const std::string& addr, std::string* host, uint16_t* port) {
  size_t colon = addr.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == addr.size()) {
    return false;
  }
  *host = addr.substr(0, colon);
  char* end = nullptr;
  long p = std::strtol(addr.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || p <= 0 || p > 65535) return false;
  *port = static_cast<uint16_t>(p);
  return true;
}

/// Non-blocking connect bounded by `timeout_ms`, then restores blocking
/// mode with SO_RCVTIMEO/SO_SNDTIMEO so every later send/recv is bounded
/// too. Returns the fd or -1.
int ConnectWithTimeout(const std::string& host, uint16_t port,
                       int timeout_ms) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1) return -1;
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return -1;
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa);
  if (rc != 0 && errno == EINPROGRESS) {
    pollfd pfd{fd, POLLOUT, 0};
    if (::poll(&pfd, 1, timeout_ms) != 1) {
      ::close(fd);
      return -1;
    }
    int err = 0;
    socklen_t len = sizeof err;
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return -1;
    }
  } else if (rc != 0) {
    ::close(fd);
    return -1;
  }
  int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

}  // namespace

Upstream::Upstream(std::string addr, int timeout_ms)
    : addr_(std::move(addr)),
      timeout_ms_(timeout_ms),
      hop_span_name_(obs::Tracer::Get().Intern("hop:" + addr_)) {
  SplitAddr(addr_, &host_, &port_);
}

Upstream::~Upstream() { Close(); }

std::string Upstream::Connect() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (host_.empty() || port_ == 0) return "malformed upstream address " + addr_;
  fd_ = ConnectWithTimeout(host_, port_, timeout_ms_);
  if (fd_ < 0) return "cannot connect to upstream " + addr_;
  splitter_.reset(new net::FrameSplitter(/*allow_binary=*/true));

  net::WireMessage req;
  req.text = "hello";
  net::WireMessage reply;
  if (!RoundtripLocked(req, &reply, nullptr)) {
    return "hello handshake with " + addr_ + " failed";
  }
  // "ok hello proto=<v> role=<role> dims=<d1,d2,...>"
  std::istringstream ss(reply.text);
  std::string ok, verb, proto_kv, role_kv, dims_kv;
  ss >> ok >> verb >> proto_kv >> role_kv >> dims_kv;
  if (ok != "ok" || verb != "hello" || proto_kv.rfind("proto=", 0) != 0 ||
      role_kv.rfind("role=", 0) != 0 || dims_kv.rfind("dims=", 0) != 0) {
    MarkDown();
    return "upstream " + addr_ + " sent a malformed hello reply: " +
           reply.text;
  }
  int proto = std::atoi(proto_kv.c_str() + 6);
  if (proto != net::kProtocolVersion) {
    MarkDown();
    return "upstream " + addr_ + " speaks protocol " + std::to_string(proto) +
           ", need " + std::to_string(net::kProtocolVersion);
  }
  std::string role = role_kv.substr(5);
  if (role != "engine") {
    MarkDown();
    return "upstream " + addr_ + " has role " + role + ", need engine";
  }
  std::string dims = dims_kv.substr(5);
  if (dims != net::ProtocolDims()) {
    MarkDown();
    return "upstream " + addr_ + " serves dims=" + dims + ", need dims=" +
           net::ProtocolDims();
  }
  healthy_.store(true, std::memory_order_release);
  return "";
}

void Upstream::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  MarkDown();
}

void Upstream::MarkDown() {
  healthy_.store(false, std::memory_order_release);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Upstream::WriteAll(const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                       MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  counters_.bytes_out.fetch_add(bytes.size(), std::memory_order_relaxed);
  return true;
}

bool Upstream::ReadReply(net::WireMessage* msg) {
  char buf[64 * 1024];
  while (true) {
    if (splitter_->Next(msg)) return true;
    if (!splitter_->error().empty()) return false;
    ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n <= 0) return false;  // EOF, timeout, or error
    counters_.bytes_in.fetch_add(static_cast<size_t>(n),
                                 std::memory_order_relaxed);
    splitter_->Feed(buf, static_cast<size_t>(n));
  }
}

bool Upstream::RoundtripLocked(const net::WireMessage& req,
                               net::WireMessage* reply,
                               std::string* raw_reply) {
  counters_.requests.fetch_add(1, std::memory_order_relaxed);
  if (fd_ < 0) {
    counters_.errors.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  obs::Span hop(hop_span_name_, "net");
  std::string wire;
  if (req.binary) {
    wire = net::EncodeFrame(req.opcode, req.payload);
  } else {
    wire = req.text;
    uint64_t trace_id = obs::CurrentTraceId();
    if (trace_id != 0) wire += " trace=" + std::to_string(trace_id);
    wire += '\n';
  }
  if (!WriteAll(wire) || !ReadReply(reply)) {
    counters_.errors.fetch_add(1, std::memory_order_relaxed);
    MarkDown();
    return false;
  }
  if (raw_reply != nullptr) {
    *raw_reply = reply->binary ? net::EncodeFrame(reply->opcode, reply->payload)
                               : reply->text + '\n';
  }
  return true;
}

bool Upstream::Roundtrip(const net::WireMessage& req, net::WireMessage* reply,
                         std::string* raw_reply) {
  std::lock_guard<std::mutex> lock(mu_);
  return RoundtripLocked(req, reply, raw_reply);
}

bool Upstream::SendLine(const std::string& line, std::string* reply_line) {
  net::WireMessage req;
  req.text = line;
  net::WireMessage reply;
  if (!Roundtrip(req, &reply, nullptr)) return false;
  *reply_line = reply.text;
  return true;
}

bool Upstream::TryPing() {
  std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
  if (!lock.owns_lock()) return true;  // request in flight: provably alive
  net::WireMessage req;
  req.text = "hello";
  net::WireMessage reply;
  return RoundtripLocked(req, &reply, nullptr);
}

UpstreamPool::UpstreamPool(std::vector<std::string> addrs, int timeout_ms,
                           size_t fanout)
    : fanout_(fanout) {
  for (auto& a : addrs) {
    ups_.emplace_back(new Upstream(std::move(a), timeout_ms));
  }
  next_retry_ms_.assign(ups_.size(), 0);
  backoff_ms_.assign(ups_.size(), 100);
}

std::string UpstreamPool::ConnectAll() {
  for (auto& up : ups_) {
    std::string err = up->Connect();
    if (!err.empty()) return err;
  }
  return "";
}

size_t UpstreamPool::HealthyCount() const {
  size_t n = 0;
  for (const auto& up : ups_) n += up->healthy() ? 1 : 0;
  return n;
}

Upstream* UpstreamPool::NextHealthy() {
  for (size_t i = 0; i < ups_.size(); ++i) {
    Upstream* up =
        ups_[rr_.fetch_add(1, std::memory_order_relaxed) % ups_.size()].get();
    if (up->healthy()) return up;
  }
  return nullptr;
}

void UpstreamPool::ForEach(const std::function<void(size_t, Upstream&)>& fn) {
  size_t n = ups_.size();
  if (n == 0) return;
  size_t threads = std::min(fanout_ == 0 ? n : fanout_, n);
  uint64_t trace_id = obs::CurrentTraceId();
  std::atomic<size_t> next{0};
  auto work = [&] {
    obs::TraceContext trace(trace_id);
    for (size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
      fn(i, *ups_[i]);
    }
  };
  if (threads <= 1) {
    work();
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (size_t t = 0; t + 1 < threads; ++t) pool.emplace_back(work);
  work();
  for (auto& t : pool) t.join();
}

std::vector<size_t> UpstreamPool::HealthPass(uint64_t now_ms) {
  std::vector<size_t> recovered;
  for (size_t i = 0; i < ups_.size(); ++i) {
    Upstream& up = *ups_[i];
    if (up.healthy()) {
      if (!up.TryPing()) {
        next_retry_ms_[i] = now_ms + backoff_ms_[i];
      }
      continue;
    }
    if (now_ms < next_retry_ms_[i]) continue;
    if (up.Connect().empty()) {
      up.counters().reconnects.fetch_add(1, std::memory_order_relaxed);
      backoff_ms_[i] = 100;
      recovered.push_back(i);
    } else {
      backoff_ms_[i] = std::min<uint64_t>(backoff_ms_[i] * 2, 3200);
      next_retry_ms_[i] = now_ms + backoff_ms_[i];
    }
  }
  return recovered;
}

}  // namespace cluster
}  // namespace parhc
