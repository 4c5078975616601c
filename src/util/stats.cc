#include "util/stats.h"

#include "parallel/primitives.h"

namespace parhc {

namespace {

// Frees the thread's slot when the thread exits. The counts stay in the
// slot: they are part of the process totals, and the next owner adds on.
struct SlotLease {
  std::atomic<bool>* taken;
  ~SlotLease() { taken->store(false); }
};

}  // namespace

Stats& Stats::Get() {
  static Stats stats;
  return stats;
}

Stats::Slot* Stats::ClaimSlot() {
  static std::atomic<uint32_t> next{0};
  Slot* slots = Get().slots_;
  uint32_t start = next.fetch_add(1, std::memory_order_relaxed);
  // With every slot taken the thread shares one; the atomics keep it exact.
  Slot* slot = &slots[start % kSlots];
  for (uint32_t i = 0; i < kSlots; ++i) {
    Slot& s = slots[(start + i) % kSlots];
    bool free = false;
    if (!s.taken.load(std::memory_order_relaxed) &&
        s.taken.compare_exchange_strong(free, true)) {
      static thread_local SlotLease lease{&s.taken};
      slot = &s;
      break;
    }
  }
  tl_slot_ = slot;
  return slot;
}

void Stats::RecordMaterialized(uint64_t pairs) {
  Add(kWspdPairsMaterialized, pairs);
  WriteMax(&peak_, pairs);
}

AlgoCounterSnapshot Stats::Snapshot() const {
  uint64_t sum[kNumCounters] = {};
  for (const Slot& s : slots_) {
    for (int c = 0; c < kNumCounters; ++c) {
      sum[c] += s.count[c].load(std::memory_order_relaxed);
    }
  }
  AlgoCounterSnapshot snap;
  snap.wspd_pairs_materialized = sum[kWspdPairsMaterialized];
  snap.wspd_pairs_peak = peak_.load(std::memory_order_relaxed);
  snap.wspd_pairs_visited = sum[kWspdPairsVisited];
  snap.bccp_computed = sum[kBccpComputed];
  snap.bccp_point_distances = sum[kBccpPointDistances];
  return snap;
}

}  // namespace parhc
