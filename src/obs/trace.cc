#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <vector>

namespace parhc {
namespace obs {
namespace {

std::chrono::steady_clock::time_point TraceEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

/// Pins the epoch at load time: scheduler/server timestamps taken before
/// the first NowNs() call must not land before the epoch (a negative
/// duration would wrap the unsigned nanosecond count).
const std::chrono::steady_clock::time_point kEpochAnchor = TraceEpoch();

thread_local uint64_t t_current_trace = 0;

/// JSON string escaping for span names/categories (controlled inputs, but
/// artifact keys could in principle carry anything a dataset name does).
std::string JsonEscape(const char* s) {
  std::string out;
  for (; *s; ++s) {
    char ch = *s;
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out;
}

}  // namespace

uint64_t ToTraceNs(std::chrono::steady_clock::time_point tp) {
  int64_t ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(tp - TraceEpoch())
          .count();
  return ns > 0 ? static_cast<uint64_t>(ns) : 0;  // pre-epoch stamps clamp
}

uint64_t NowNs() { return ToTraceNs(std::chrono::steady_clock::now()); }

uint64_t CurrentTraceId() { return t_current_trace; }

TraceContext::TraceContext(uint64_t trace_id) : prev_(t_current_trace) {
  t_current_trace = trace_id;
}

TraceContext::~TraceContext() { t_current_trace = prev_; }

/// One recording thread's bounded span buffer. Slots are relaxed atomics
/// and `head` is released on publish, so concurrent dumps are
/// data-race-free; see the header for the torn-wrap caveat.
struct Tracer::Ring {
  struct Slot {
    std::atomic<const char*> name{nullptr};
    std::atomic<const char*> cat{nullptr};
    std::atomic<uint64_t> trace_id{0};
    std::atomic<uint64_t> begin_ns{0};
    std::atomic<uint64_t> dur_ns{0};
  };
  Slot slots[kRingCapacity];
  std::atomic<uint64_t> head{0};  ///< next write position (monotone)
  int tid = 0;                    ///< stable small id for the dump
};

namespace {

/// Ring registry: rings are owned here (shared_ptr) so a ring outlives its
/// thread — a dump after worker threads exited still sees their spans, and
/// everything stays reachable (no leak reports). The thread_local caches
/// the raw pointer for the recording fast path.
struct RingRegistry {
  std::mutex mu;
  std::vector<std::shared_ptr<Tracer::Ring>> rings;
};

RingRegistry& Rings() {
  static RingRegistry* r = new RingRegistry;  // never destroyed: recording
  return *r;                                  // threads may outlive statics
}

thread_local Tracer::Ring* t_ring = nullptr;

}  // namespace

Tracer::Ring* Tracer::ThisThreadRing() {
  if (t_ring == nullptr) {
    auto ring = std::make_shared<Ring>();
    RingRegistry& reg = Rings();
    std::lock_guard<std::mutex> lock(reg.mu);
    ring->tid = static_cast<int>(reg.rings.size()) + 1;
    reg.rings.push_back(ring);
    t_ring = ring.get();
  }
  return t_ring;
}

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer;  // never destroyed (see Rings())
  return *tracer;
}

void Tracer::RecordSpan(const char* name, const char* cat, uint64_t trace_id,
                        uint64_t begin_ns, uint64_t end_ns) {
  if (!enabled()) return;
  Ring* ring = ThisThreadRing();
  uint64_t h = ring->head.load(std::memory_order_relaxed);
  Ring::Slot& slot = ring->slots[h % kRingCapacity];
  slot.name.store(name, std::memory_order_relaxed);
  slot.cat.store(cat, std::memory_order_relaxed);
  slot.trace_id.store(trace_id, std::memory_order_relaxed);
  slot.begin_ns.store(begin_ns, std::memory_order_relaxed);
  slot.dur_ns.store(end_ns >= begin_ns ? end_ns - begin_ns : 0,
                    std::memory_order_relaxed);
  ring->head.store(h + 1, std::memory_order_release);
}

namespace {

struct InternTable {
  std::mutex mu;
  std::unordered_set<std::string> names;
};

InternTable& Interned() {
  static InternTable* table = new InternTable;  // never destroyed
  return *table;
}

}  // namespace

const char* Tracer::Intern(const std::string& name) {
  InternTable& t = Interned();
  std::lock_guard<std::mutex> lock(t.mu);
  return t.names.insert(name).first->c_str();
}

size_t Tracer::names_interned() const {
  InternTable& t = Interned();
  std::lock_guard<std::mutex> lock(t.mu);
  return t.names.size();
}

std::string Tracer::DumpJson() const {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    RingRegistry& reg = Rings();
    std::lock_guard<std::mutex> lock(reg.mu);
    rings = reg.rings;
  }
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  char buf[160];
  for (const auto& ring : rings) {
    uint64_t head = ring->head.load(std::memory_order_acquire);
    uint64_t kept = std::min<uint64_t>(head, kRingCapacity);
    for (uint64_t i = head - kept; i < head; ++i) {
      const Ring::Slot& slot = ring->slots[i % kRingCapacity];
      const char* name = slot.name.load(std::memory_order_relaxed);
      if (name == nullptr) continue;  // wrap raced with the writer
      const char* cat = slot.cat.load(std::memory_order_relaxed);
      uint64_t begin = slot.begin_ns.load(std::memory_order_relaxed);
      uint64_t dur = slot.dur_ns.load(std::memory_order_relaxed);
      uint64_t trace = slot.trace_id.load(std::memory_order_relaxed);
      if (!first) out += ',';
      first = false;
      out += "{\"name\":\"";
      out += JsonEscape(name);
      out += "\",\"cat\":\"";
      out += JsonEscape(cat != nullptr ? cat : "app");
      std::snprintf(buf, sizeof buf,
                    "\",\"ph\":\"X\",\"ts\":%llu.%03llu,\"dur\":%llu.%03llu,"
                    "\"pid\":1,\"tid\":%d,\"args\":{\"trace\":%llu}}",
                    static_cast<unsigned long long>(begin / 1000),
                    static_cast<unsigned long long>(begin % 1000),
                    static_cast<unsigned long long>(dur / 1000),
                    static_cast<unsigned long long>(dur % 1000), ring->tid,
                    static_cast<unsigned long long>(trace));
      out += buf;
    }
  }
  out += "]}";
  return out;
}

bool Tracer::DumpJsonToFile(const std::string& path,
                            size_t* spans_out) const {
  std::string json = DumpJson();
  if (spans_out != nullptr) {
    size_t n = 0;
    for (size_t pos = 0; (pos = json.find("\"ph\"", pos)) != std::string::npos;
         ++pos) {
      ++n;
    }
    *spans_out = n;
  }
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f.good()) return false;
  f.write(json.data(), static_cast<std::streamsize>(json.size()));
  f.flush();
  return f.good();
}

void Tracer::Clear() {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    RingRegistry& reg = Rings();
    std::lock_guard<std::mutex> lock(reg.mu);
    rings = reg.rings;
  }
  for (const auto& ring : rings) {
    uint64_t head = ring->head.load(std::memory_order_acquire);
    for (auto& slot : ring->slots) {
      slot.name.store(nullptr, std::memory_order_relaxed);
    }
    // Preserve the monotone recorded count; only the buffered spans go.
    ring->head.store(head, std::memory_order_release);
  }
}

uint64_t Tracer::spans_recorded() const {
  RingRegistry& reg = Rings();
  std::lock_guard<std::mutex> lock(reg.mu);
  uint64_t total = 0;
  for (const auto& ring : reg.rings) {
    total += ring->head.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t Tracer::spans_dropped() const {
  RingRegistry& reg = Rings();
  std::lock_guard<std::mutex> lock(reg.mu);
  uint64_t total = 0;
  for (const auto& ring : reg.rings) {
    uint64_t head = ring->head.load(std::memory_order_relaxed);
    if (head > kRingCapacity) total += head - kRingCapacity;
  }
  return total;
}

}  // namespace obs
}  // namespace parhc
