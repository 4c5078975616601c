// Loopback client connections and the spawned server process.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A blocking TCP connection to the server. Replies are read as whole wire
/// messages: a text line including its '\n', or a complete binary frame
/// (header + payload).
class Conn {
 public:
  explicit Conn(uint16_t port);
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void Send(const std::string& bytes);
  /// Next reply message; blocks. Throws if the server closes the
  /// connection.
  std::string Recv();
  /// Next reply if one is already buffered or readable within
  /// `timeout_s` (0 = poll once); false otherwise.
  bool TryRecv(std::string* msg, double timeout_s);
  /// Sends one request and waits for its reply.
  std::string Call(const std::string& line);
  /// Reads text lines until one starts with `last_prefix` (multi-line
  /// replies such as `metrics`); returns them all.
  std::string CallUntil(const std::string& line,
                        const std::string& last_prefix);

  /// The socket, so one thread can poll several connections.
  int fd() const { return fd_; }
  /// Takes the next complete reply already read, if there is one.
  bool NextBuffered(std::string* msg);
  /// Reads what arrives within `timeout_s` (< 0 blocks, 0 polls once);
  /// false if nothing did.
  bool ReadSome(double timeout_s);

 private:
  int fd_ = -1;
  std::string buf_;
  size_t pos_ = 0;
};

/// parhc_netserver as a child process on an ephemeral loopback port. The
/// destructor stops it (SIGTERM, graceful drain) and reaps it.
class ServerProcess {
 public:
  ServerProcess(const std::string& bin, int parallel, int workers);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }
  /// The process's resident-memory high-water mark (VmHWM), in MB.
  double PeakRssMb() const;
  /// Stops the server and waits for it; idempotent.
  void Stop();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
};

/// Encodes a kOpInsertPoints frame for `name` (rows of `dim` coordinates).
std::string InsertFrame(const std::string& name, int dim,
                        const std::vector<double>& coords);
/// Encodes a frame whose payload is just the dataset name (export verbs).
std::string NameFrame(uint8_t opcode, const std::string& name);

/// CPU time the hypervisor gave to other guests ("steal" in /proc/stat),
/// as a share of all CPU time since construction; 0 where /proc/stat is
/// unreadable. Samples taken under heavy steal measure the host, not the
/// code, so the served phases prefer the units that saw the least of it.
class StealMeter {
 public:
  StealMeter();
  double Fraction() const;

 private:
  uint64_t steal0_ = 0, total0_ = 0;
};
/// Seconds on a monotonic clock.
double NowSeconds();

}  // namespace perfbench
