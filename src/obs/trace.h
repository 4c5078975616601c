// Request tracing: per-request trace IDs and bounded lock-free per-thread
// span ring buffers, dumped as Chrome trace_event JSON (loadable in
// chrome://tracing or https://ui.perfetto.dev).
//
// Design:
//  * One process-wide Tracer. Tracing is off by default; when off, a Span
//    costs one relaxed atomic load and records nothing — cheap enough to
//    leave compiled into every hot path (the `trace:on/off` rows of
//    bench_server_throughput measure the enabled cost end to end).
//  * Each recording thread owns a fixed-capacity ring of span slots. Every
//    slot field is a relaxed atomic and the ring head is published with a
//    release store, so a dump taken while other threads keep recording is
//    data-race-free (TSan-clean) without any lock on the recording path.
//    The ring overwrites oldest spans when full (spans_dropped counts
//    them); a span overwritten *during* a concurrent dump can surface as a
//    single torn record, which the monitoring use tolerates by design.
//  * Span names must be pointers with static storage duration: string
//    literals on hot paths, or strings interned once through
//    Tracer::Intern (used for dynamic artifact keys like "build:mst@16" —
//    builds are rare, so the intern mutex is off the request path).
//  * Trace IDs are minted at the front-end (TCP server / protocol session)
//    and threaded to worker threads via the thread-local TraceContext;
//    every span records the current thread's trace id, so a dump can be
//    filtered per request. All timestamps come from one steady-clock
//    epoch, so spans of one request nest by time containment across
//    threads.
//
// The span hierarchy the serving stack emits (see README "Observability"):
//   request:<verb>  (net)     front-end, minted at parse time
//     queue         (net)     scheduler wait, enqueue -> worker pickup
//     executor:admit (engine) build-slot admission wait
//     executor:run   (engine) worker-group execution
//       build:<artifact> (engine) one per artifact built
//         phase:<name>   (algo)   PhaseBreakdown phases (Figure 8)
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace parhc {
namespace obs {

/// Nanoseconds since the process-wide trace epoch (steady clock).
uint64_t NowNs();

/// Converts a steady_clock time point (e.g. a scheduler enqueue stamp)
/// into the same epoch NowNs uses.
uint64_t ToTraceNs(std::chrono::steady_clock::time_point tp);

class Tracer {
 public:
  static constexpr size_t kRingCapacity = 4096;  ///< spans kept per thread

  static Tracer& Get();

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Fresh nonzero request trace id.
  uint64_t MintTraceId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Records one complete span. `name` and `cat` must have static storage
  /// duration (literal or Intern result). Lock-free; callable from any
  /// thread. No-op when tracing is disabled.
  void RecordSpan(const char* name, const char* cat, uint64_t trace_id,
                  uint64_t begin_ns, uint64_t end_ns);

  /// Returns a stable pointer for a dynamic span name (mutex-protected
  /// insert-only table; keep off hot paths, and keep the set of names
  /// bounded — the table never shrinks).
  const char* Intern(const std::string& name);
  size_t names_interned() const;  ///< distinct Intern names, cumulative

  /// Chrome trace_event JSON of every buffered span:
  /// {"displayTimeUnit":"ns","traceEvents":[{"name":...,"cat":...,
  ///  "ph":"X","ts":<us>,"dur":<us>,"pid":1,"tid":<ring>,
  ///  "args":{"trace":<id>}}, ...]}
  std::string DumpJson() const;

  /// DumpJson straight to `path`; returns false on I/O failure. Sets
  /// *spans_out (if non-null) to the number of events written.
  bool DumpJsonToFile(const std::string& path,
                      size_t* spans_out = nullptr) const;

  /// Drops every buffered span (rings stay registered).
  void Clear();

  uint64_t spans_recorded() const;  ///< RecordSpan calls, cumulative
  uint64_t spans_dropped() const;   ///< of those, overwritten by ring wrap

  /// One thread's span buffer; defined (and only used) in trace.cc, public
  /// so the file-local ring registry there can own the instances.
  struct Ring;

 private:
  Tracer() = default;
  Ring* ThisThreadRing();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
};

/// The calling thread's current request trace id (0 = none).
uint64_t CurrentTraceId();

/// RAII: sets the calling thread's trace id for its scope (workers install
/// the request's id before running its work), restoring the previous one.
class TraceContext {
 public:
  explicit TraceContext(uint64_t trace_id);
  ~TraceContext();
  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

 private:
  uint64_t prev_;
};

/// RAII span over its scope, tagged with CurrentTraceId(). When tracing is
/// disabled the constructor is one relaxed load and the destructor one
/// branch (no clock reads, no stores).
class Span {
 public:
  explicit Span(const char* name, const char* cat = "app") {
    if (Tracer::Get().enabled()) {
      name_ = name;
      cat_ = cat;
      begin_ns_ = NowNs();
    }
  }
  ~Span() { End(); }

  /// Records the span now (idempotent); the destructor becomes a no-op.
  void End() {
    if (name_ != nullptr) {
      Tracer::Get().RecordSpan(name_, cat_, CurrentTraceId(), begin_ns_,
                               NowNs());
      name_ = nullptr;
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  const char* cat_ = nullptr;
  uint64_t begin_ns_ = 0;
};

}  // namespace obs
}  // namespace parhc
