#include "wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "net/frame.h"

namespace perfbench {

using parhc::net::kFrameHeaderBytes;
using parhc::net::kFrameMagic;

Conn::Conn(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket failed");
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd_);
    throw std::runtime_error("connect to server failed");
  }
}

Conn::~Conn() { ::close(fd_); }

void Conn::Send(const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                       MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("send to server failed");
    off += static_cast<size_t>(n);
  }
}

bool Conn::NextBuffered(std::string* msg) {
  size_t avail = buf_.size() - pos_;
  if (avail == 0) return false;
  size_t len = 0;
  if (static_cast<uint8_t>(buf_[pos_]) == kFrameMagic) {
    if (avail < kFrameHeaderBytes) return false;
    uint32_t payload = 0;
    for (int i = 0; i < 4; ++i) {
      payload |= static_cast<uint32_t>(static_cast<uint8_t>(buf_[pos_ + 2 + i]))
                 << (8 * i);
    }
    len = kFrameHeaderBytes + payload;
    if (avail < len) return false;
  } else {
    size_t nl = buf_.find('\n', pos_);
    if (nl == std::string::npos) return false;
    len = nl + 1 - pos_;
  }
  msg->assign(buf_, pos_, len);
  pos_ += len;
  // Reclaim lazily: erasing per message would memmove the remainder.
  if (pos_ == buf_.size() || pos_ >= (1u << 20)) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  return true;
}

bool Conn::ReadSome(double timeout_s) {
  pollfd p{fd_, POLLIN, 0};
  timespec ts{};
  if (timeout_s > 0) {
    ts.tv_sec = static_cast<time_t>(timeout_s);
    ts.tv_nsec = static_cast<long>((timeout_s - ts.tv_sec) * 1e9);
  }
  int r = ::ppoll(&p, 1, timeout_s < 0 ? nullptr : &ts, nullptr);
  if (r < 0 && errno == EINTR) return false;
  if (r <= 0) return false;
  char tmp[1 << 16];
  ssize_t n = ::recv(fd_, tmp, sizeof tmp, 0);
  if (n < 0 && (errno == EINTR || errno == EAGAIN)) return false;
  if (n <= 0) throw std::runtime_error("server closed the connection");
  buf_.append(tmp, static_cast<size_t>(n));
  return true;
}

std::string Conn::Recv() {
  std::string msg;
  while (!NextBuffered(&msg)) ReadSome(-1);
  return msg;
}

bool Conn::TryRecv(std::string* msg, double timeout_s) {
  if (NextBuffered(msg)) return true;
  return ReadSome(timeout_s) && NextBuffered(msg);
}

std::string Conn::Call(const std::string& line) {
  Send(line);
  return Recv();
}

std::string Conn::CallUntil(const std::string& line,
                            const std::string& last_prefix) {
  Send(line);
  std::string all;
  for (;;) {
    std::string msg = Recv();
    all += msg;
    if (msg.compare(0, last_prefix.size(), last_prefix) == 0 ||
        msg.compare(0, 4, "err ") == 0) {
      return all;
    }
  }
}

ServerProcess::ServerProcess(const std::string& bin, int parallel,
                             int workers) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::string par = std::to_string(parallel);
  std::string wrk = std::to_string(workers);
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    ::setpriority(PRIO_PROCESS, 0, 0);  // the client may run above it
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    const char* argv[] = {bin.c_str(),   "--port",     "0",
                          "--parallel",  par.c_str(),  "--workers",
                          wrk.c_str(),   "--no-timing", nullptr};
    ::execv(bin.c_str(), const_cast<char* const*>(argv));
    ::_exit(127);
  }
  ::close(fds[1]);
  out_fd_ = fds[0];
  // Banner: "parhc_netserver listening on 127.0.0.1:<port> ...".
  std::string banner;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (banner.find('\n') == std::string::npos) {
    pollfd p{out_fd_, POLLIN, 0};
    if (std::chrono::steady_clock::now() > deadline ||
        ::poll(&p, 1, 1000) < 0) {
      break;
    }
    if (!(p.revents & (POLLIN | POLLHUP))) continue;
    char c;
    if (::read(out_fd_, &c, 1) != 1) break;
    banner += c;
  }
  size_t at = banner.find("127.0.0.1:");
  if (at != std::string::npos) {
    port_ = static_cast<uint16_t>(std::atoi(banner.c_str() + at + 10));
  }
  if (port_ == 0) {
    Stop();
    throw std::runtime_error("server did not start: " + banner);
  }
}

ServerProcess::~ServerProcess() { Stop(); }

void ServerProcess::Stop() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 200; ++i) {  // up to 20 s of graceful drain
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
    }
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
}

double ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

std::string InsertFrame(const std::string& name, int dim,
                        const std::vector<double>& coords) {
  std::string payload;
  parhc::net::PutU16(&payload, static_cast<uint16_t>(name.size()));
  payload += name;
  parhc::net::PutU16(&payload, static_cast<uint16_t>(dim));
  parhc::net::PutU32(&payload, static_cast<uint32_t>(coords.size() / dim));
  for (double v : coords) parhc::net::PutF64(&payload, v);
  return parhc::net::EncodeFrame(parhc::net::kOpInsertPoints, payload);
}

std::string NameFrame(uint8_t opcode, const std::string& name) {
  std::string payload;
  parhc::net::PutU16(&payload, static_cast<uint16_t>(name.size()));
  payload += name;
  return parhc::net::EncodeFrame(opcode, payload);
}

namespace {

/// Aggregate steal and total jiffies from the "cpu" line of /proc/stat.
void ReadCpuJiffies(uint64_t* steal, uint64_t* total) {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {};  // user nice system idle iowait irq softirq steal
  if (!(in >> cpu) || cpu != "cpu") return;
  for (uint64_t& x : v) in >> x;
  *steal = v[7];
  *total = 0;
  for (uint64_t x : v) *total += x;
}

}  // namespace

StealMeter::StealMeter() { ReadCpuJiffies(&steal0_, &total0_); }

double StealMeter::Fraction() const {
  uint64_t steal = steal0_, total = total0_;
  ReadCpuJiffies(&steal, &total);
  return total > total0_ ? static_cast<double>(steal - steal0_) /
                               static_cast<double>(total - total0_)
                         : 0.0;
}

void LogPhase(const char* what) {
  static double last = NowSeconds();
  double now = NowSeconds();
  std::fprintf(stderr, "perfbench: %-28s %6.2f s\n", what, now - last);
  last = now;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
