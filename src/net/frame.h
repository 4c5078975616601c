// Wire framing for the serving layer: text lines + binary frames.
//
// The TCP server and the stdin REPL speak the same request language (see
// protocol.h). On the wire a request stream is a mix of two framings:
//
//  * Text: one request per line, terminated by '\n' (a trailing '\r' is
//    stripped, so CRLF clients work). The response to a text request is
//    one or more complete '\n'-terminated lines — byte-identical to what
//    the REPL prints for the same command.
//  * Binary: a length-prefixed frame for bulk point/label payloads, which
//    would be wasteful to shuttle as decimal text. A frame is
//
//        byte 0      magic 0x01 (SOH — never starts a text verb)
//        byte 1      opcode
//        bytes 2..5  u32 little-endian payload length
//        bytes 6..   payload
//
//    Frames and text lines may be freely interleaved on one connection;
//    the first byte of each message disambiguates. Payloads are capped at
//    kMaxFramePayload (64 MiB) and text lines at kMaxLineBytes (1 MiB);
//    violating either is a connection-fatal protocol error (the splitter
//    latches an error and the server closes the connection after sending
//    one final "err protocol ..." line).
//
// FrameSplitter is the incremental decoder both front-ends share: feed it
// raw bytes as they arrive (in arbitrary split-write chunks) and pull
// complete messages out. FlushEof() handles the stream's end: a final
// line *without* a trailing '\n' is emitted as a normal message rather
// than dropped, so "echo -n 'emst d' | parhc_server" still answers.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

namespace parhc {
namespace net {

inline constexpr uint8_t kFrameMagic = 0x01;
inline constexpr size_t kFrameHeaderBytes = 6;  // magic + opcode + u32 len
inline constexpr size_t kMaxFramePayload = 64u << 20;
inline constexpr size_t kMaxLineBytes = 1u << 20;

/// Binary opcodes. Client-to-server requests live below 0x80; server
/// replies at 0x80 and above.
enum FrameOpcode : uint8_t {
  /// Bulk point insert into a batch-dynamic dataset. Payload:
  ///   u16 name_len, name bytes, u16 dim, u32 count, count*dim f64 coords
  /// (all little-endian). Answered with the same text line the text
  /// `insert` verb prints.
  kOpInsertPoints = 0x10,
  /// Fetch a flat labeling as a binary payload. Payload:
  ///   u16 name_len, name bytes, u8 kind (0 = DBSCAN* at (minPts, eps),
  ///   1 = stable clusters at (minPts, minClusterSize)), u32 min_pts,
  ///   f64 eps (kind 0) | u64 min_cluster_size (kind 1).
  /// Answered with a kOpLabelsReply frame on success, else a text err
  /// line.
  kOpGetLabels = 0x11,
  /// Partial-artifact export for the router tier (src/cluster/): the
  /// dataset's live points. Payload: u16 name_len, name bytes. Answered
  /// with kOpPointsReply.
  kOpExportPoints = 0x12,
  /// A dataset's Euclidean MST edges, the `emst` verb's answer in binary.
  /// Payload: u16 name_len, name bytes. Answered with kOpEdgesReply;
  /// edge endpoints are gids (point indices for a static dataset).
  kOpExportMst = 0x13,
  /// kNN rows for arbitrary query points against a dataset's live points.
  /// Payload: u16 name_len, name bytes, u32 k, u16 dim, u32 count,
  /// count*dim f64 coords. Answered with kOpKnnReply.
  kOpKnnQuery = 0x14,
  /// Labels reply. Payload: u32 count, count * i32 labels in dense point
  /// order (for dynamic datasets dense index i is the i-th live global id
  /// in ascending order; -1 = noise).
  kOpLabelsReply = 0x91,
  /// Points reply. Payload: u16 dim, u32 count, count u32 gids
  /// (ascending), count*dim f64 coords in the same order.
  kOpPointsReply = 0x92,
  /// Edge-list reply. Payload: u32 count, count * {u32 u, u32 v, f64 w}
  /// with gid endpoints.
  kOpEdgesReply = 0x93,
  /// kNN reply. Payload: u32 count, u32 k, count*k f64 sorted squared
  /// distances (+inf-padded past the dataset size).
  kOpKnnReply = 0x94,
};

// ---- Little-endian scalar packing (the snapshot store already commits
// the repo to little-endian payloads; see store/format.h) ----

inline void PutU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>(v >> 8));
}

inline void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline void PutF64(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  PutU64(out, bits);
}

/// Bounds-checked little-endian reader over a payload. Any overrun sets
/// ok = false and every later Get returns 0.
class PayloadReader {
 public:
  explicit PayloadReader(const std::string& data) : data_(data) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return data_.size() - pos_; }

  uint8_t GetU8() { return static_cast<uint8_t>(Raw(1)); }
  uint16_t GetU16() { return static_cast<uint16_t>(Raw(2)); }
  uint32_t GetU32() { return static_cast<uint32_t>(Raw(4)); }
  uint64_t GetU64() { return Raw(8); }
  double GetF64() {
    uint64_t bits = Raw(8);
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string GetBytes(size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return {};
    }
    std::string out = data_.substr(pos_, n);
    pos_ += n;
    return out;
  }

 private:
  uint64_t Raw(size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return 0;
    }
    uint64_t v = 0;
    for (size_t i = 0; i < n; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += n;
    return v;
  }

  const std::string& data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// Encodes one complete binary frame (header + payload).
inline std::string EncodeFrame(uint8_t opcode, const std::string& payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  out.push_back(static_cast<char>(kFrameMagic));
  out.push_back(static_cast<char>(opcode));
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  out += payload;
  return out;
}

/// One decoded request: either a text line (without its terminator) or a
/// binary frame (opcode + payload).
struct WireMessage {
  bool binary = false;
  std::string text;     ///< text message body
  uint8_t opcode = 0;   ///< binary only
  std::string payload;  ///< binary only
};

/// Incremental stream decoder. Not thread-safe; one per connection.
class FrameSplitter {
 public:
  /// `allow_binary` = false gives pure text-line splitting (the stdin
  /// REPL), where a 0x01 byte is just line data like any other.
  /// `max_line_bytes` is the line-length cap (a remote-peer protection);
  /// the REPL lifts it to keep the pre-refactor getline behavior of
  /// accepting arbitrarily long batch lines.
  explicit FrameSplitter(bool allow_binary = true,
                         size_t max_line_bytes = kMaxLineBytes)
      : allow_binary_(allow_binary), max_line_bytes_(max_line_bytes) {}

  /// Appends raw stream bytes.
  void Feed(const char* data, size_t n) { buf_.append(data, n); }
  void Feed(const std::string& data) { buf_ += data; }

  /// Marks end of stream: a buffered final line without '\n' becomes one
  /// last message; a buffered incomplete binary frame is a protocol
  /// error.
  void FlushEof() { eof_ = true; }

  /// Extracts the next complete message into *msg. Returns false when no
  /// complete message is buffered (or the stream is in error).
  bool Next(WireMessage* msg) {
    if (!error_.empty()) return false;
    if (pos_ == buf_.size()) {
      Compact();
      return false;
    }
    bool ok = (allow_binary_ &&
               static_cast<uint8_t>(buf_[pos_]) == kFrameMagic)
                  ? NextFrame(msg)
                  : NextLine(msg);
    // Consumed bytes are tracked by pos_ and reclaimed lazily: erasing the
    // buffer front per message would memmove the whole remainder each
    // time (O(bytes^2) over a big pipelined read batch).
    if (pos_ >= kCompactBytes || pos_ == buf_.size()) Compact();
    return ok;
  }

  /// Non-empty once the stream has violated the framing rules; the
  /// connection should answer with one err line and close.
  const std::string& error() const { return error_; }

  size_t buffered_bytes() const { return buf_.size() - pos_; }

 private:
  static constexpr size_t kCompactBytes = 64 * 1024;

  void Compact() {
    if (pos_ == 0) return;
    buf_.erase(0, pos_);
    pos_ = 0;
  }

  size_t avail() const { return buf_.size() - pos_; }

  bool NextLine(WireMessage* msg) {
    size_t nl = buf_.find('\n', pos_);
    if (nl == std::string::npos) {
      if (avail() > max_line_bytes_) {
        error_ =
            "line exceeds " + std::to_string(max_line_bytes_) + " bytes";
        return false;
      }
      if (!eof_) return false;
      nl = buf_.size();  // final unterminated line
    } else if (nl - pos_ > max_line_bytes_) {
      error_ =
          "line exceeds " + std::to_string(max_line_bytes_) + " bytes";
      return false;
    }
    msg->binary = false;
    msg->opcode = 0;
    msg->payload.clear();
    msg->text.assign(buf_, pos_, nl - pos_);
    if (!msg->text.empty() && msg->text.back() == '\r') msg->text.pop_back();
    pos_ = (nl == buf_.size()) ? nl : nl + 1;
    return true;
  }

  bool NextFrame(WireMessage* msg) {
    if (avail() < kFrameHeaderBytes) {
      if (eof_) error_ = "truncated frame header at end of stream";
      return false;
    }
    uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<uint32_t>(static_cast<uint8_t>(buf_[pos_ + 2 + i]))
             << (8 * i);
    }
    if (len > kMaxFramePayload) {
      error_ = "frame payload " + std::to_string(len) + " exceeds " +
               std::to_string(kMaxFramePayload) + " bytes";
      return false;
    }
    if (avail() < kFrameHeaderBytes + len) {
      if (eof_) error_ = "truncated frame payload at end of stream";
      return false;
    }
    msg->binary = true;
    msg->text.clear();
    msg->opcode = static_cast<uint8_t>(buf_[pos_ + 1]);
    msg->payload.assign(buf_, pos_ + kFrameHeaderBytes, len);
    pos_ += kFrameHeaderBytes + len;
    return true;
  }

  std::string buf_;
  size_t pos_ = 0;  ///< consumed prefix of buf_
  std::string error_;
  bool allow_binary_;
  size_t max_line_bytes_;
  bool eof_ = false;
};

}  // namespace net
}  // namespace parhc
