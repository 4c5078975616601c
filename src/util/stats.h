// Global instrumentation counters.
//
// Used to reproduce the paper's memory claims (Section 5, "MemoGFK Memory
// Usage": up to 10x fewer materialized WSPD pairs) without relying on OS
// RSS, which is noisy.
//
// Hot-path contract: the traversal engine counts every node-pair visit and
// every BCCP call from every worker at once, so no traversal may write a
// shared cache line per visit. Each thread adds into a cache-line-aligned
// slot of its own (Stats::Add) and Snapshot() sums the slots. A thread
// claims its slot on its first add through a thread_local pointer — not
// Scheduler::MyId(), which is arena-relative and would put concurrent
// builds back on shared slots — and frees it when it exits; the counts stay
// behind for the slot's next owner to add to. Slots are relaxed atomics, so
// a process with more live threads than slots shares some of them without
// losing counts.
//
// Concurrency contract: every counter is *monotone* — there is deliberately
// no Reset(). Concurrent artifact builds under the engine's BuildExecutor
// all add to the same totals, so a global zeroing from one bench/test would
// race with (and corrupt) another build's accounting. Scoped measurement
// uses StatsEpoch instead: capture a baseline, run, read Delta(). The
// metrics registry (obs/sources.h) exports the raw monotone values, which
// Prometheus-style scrapers rate() over.
//
// The one non-monotone field is wspd_pairs_peak, one global high-water mark
// (deltas are meaningless for a max) raised once per materialized batch —
// once per MemoGFK round. StatsEpoch(kResetPeak) zeroes just that field for
// callers that own the whole process — the single-threaded bench tables and
// examples — and documents the exclusivity requirement; the serving stack
// never resets anything.
#pragma once

#include <atomic>
#include <cstdint>

namespace parhc {

/// Point-in-time copy of the counters (see StatsEpoch for scoped deltas).
struct AlgoCounterSnapshot {
  uint64_t wspd_pairs_materialized = 0;
  uint64_t wspd_pairs_peak = 0;
  uint64_t wspd_pairs_visited = 0;
  uint64_t bccp_computed = 0;
  uint64_t bccp_point_distances = 0;
};

/// Library-wide counters (all monotone; wspd_pairs_peak is a high-water
/// mark).
class Stats {
 public:
  /// The monotone counters, one per AlgoCounterSnapshot field.
  enum Counter {
    /// WSPD pairs materialized (stored in memory at once).
    kWspdPairsMaterialized,
    /// Node pairs visited during WSPD / MemoGFK tree traversals.
    kWspdPairsVisited,
    /// Exact BCCP / BCCP* computations performed.
    kBccpComputed,
    /// Point-distance evaluations inside BCCP computations.
    kBccpPointDistances,
    kNumCounters
  };

  static Stats& Get();

  /// Adds `n` to counter `c` in the calling thread's slot. Static, so the
  /// per-visit path is one thread_local load and one uncontended add.
  static void Add(Counter c, uint64_t n) {
    Slot* slot = tl_slot_ != nullptr ? tl_slot_ : ClaimSlot();
    slot->count[c].fetch_add(n, std::memory_order_relaxed);
  }

  /// Records one materialized batch of `pairs` WSPD pairs: counts them and
  /// raises the high-water mark.
  void RecordMaterialized(uint64_t pairs);

  /// Zeroes the high-water mark (StatsEpoch::kResetPeak).
  void ResetPeak() { peak_.store(0, std::memory_order_relaxed); }

  /// Sums every thread's slot. Monotone per reader: a later snapshot never
  /// reports less than an earlier one.
  AlgoCounterSnapshot Snapshot() const;

 private:
  /// Threads that can hold a slot of their own at once.
  static constexpr int kSlots = 256;

  struct alignas(64) Slot {
    std::atomic<uint64_t> count[kNumCounters] = {};
    std::atomic<bool> taken{false};
  };

  Stats() = default;
  static Slot* ClaimSlot();

  static inline thread_local Slot* tl_slot_ = nullptr;
  Slot slots_[kSlots];
  std::atomic<uint64_t> peak_{0};
};

/// RAII measurement epoch over the global counters: captures a baseline at
/// construction; Delta() is "what this scope's work added" for the
/// monotone counters. Safe under concurrent builds — nothing is zeroed.
///
/// wspd_pairs_peak cannot be scoped by subtraction; Delta() reports the
/// current global high-water. Callers that own the whole process (bench
/// tables, examples) pass kResetPeak to zero the mark at epoch start so
/// the reported peak is theirs alone — never do this while other builds
/// may run.
class StatsEpoch {
 public:
  enum Peak { kKeepPeak, kResetPeak };

  explicit StatsEpoch(Peak peak = kKeepPeak) {
    if (peak == kResetPeak) Stats::Get().ResetPeak();
    base_ = Stats::Get().Snapshot();
  }

  AlgoCounterSnapshot Delta() const {
    AlgoCounterSnapshot now = Stats::Get().Snapshot();
    AlgoCounterSnapshot d;
    d.wspd_pairs_materialized =
        now.wspd_pairs_materialized - base_.wspd_pairs_materialized;
    d.wspd_pairs_peak = now.wspd_pairs_peak;  // high-water, not a delta
    d.wspd_pairs_visited =
        now.wspd_pairs_visited - base_.wspd_pairs_visited;
    d.bccp_computed = now.bccp_computed - base_.bccp_computed;
    d.bccp_point_distances =
        now.bccp_point_distances - base_.bccp_point_distances;
    return d;
  }

 private:
  AlgoCounterSnapshot base_;
};

}  // namespace parhc
