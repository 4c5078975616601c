// Fork-join work-stealing scheduler with partitioned worker groups.
//
// This is the substrate standing in for the Cilk runtime used by the paper
// (Section 2.2): binary fork (`ParDo`), helping joins, and randomized work
// stealing from per-worker deques. The worker count is adjustable at runtime
// (`SetNumWorkers`) so the benchmark harness can sweep thread counts as in
// Figures 6/7/9 of the paper.
//
// Threading model (arena-based):
//  * `Scheduler::Get()` lazily creates a singleton with a shared pool of
//    P - 1 worker threads (P = total workers, `PARHC_WORKERS` env override),
//    exactly once however many threads make the first call; after that it
//    is one atomic load.
//  * Work always runs inside an *arena*: a group of `slots` logical workers
//    with its own steal deques. Stealing never crosses an arena boundary,
//    so `MyId()` / `NumWorkers()` are arena-relative and `ParallelFor`
//    grain selection — and therefore every per-worker-scratch algorithm —
//    behaves exactly like a dedicated scheduler of that size.
//  * `TaskArena(k)` carves a group of up to k workers out of the pool for
//    one caller (`Execute`), so several external threads can run parallel
//    builds concurrently, each inside its own group. This replaces the old
//    single-external-caller contract.
//  * A plain external caller (no arena) implicitly claims one slot of the
//    *root* arena (size P) for the duration of its outermost fork and
//    releases it on join — the classic one-caller fast path, now safe to
//    use from any number of threads at once (late callers that find the
//    root arena full simply run their forks inline).
//  * Pool threads scan the registered arenas for one with pending work and
//    a free slot, join it, steal until it runs dry, then move on.
//  * `ParDo(l, r)` pushes `r` onto the caller's deque and runs `l` inline.
//    On join, if `r` was stolen the caller helps by running other tasks
//    from its own arena.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "util/check.h"

namespace parhc {

namespace internal {

/// A unit of stealable work. Jobs live on the forking function's stack; the
/// fork does not return until the job completes, so this is safe.
struct JobBase {
  std::atomic<bool> done{false};
  virtual void Run() = 0;
  virtual ~JobBase() = default;
};

template <typename F>
struct Job final : JobBase {
  F* fn;
  explicit Job(F* f) : fn(f) {}
  void Run() override {
    (*fn)();
    done.store(true, std::memory_order_release);
  }
};

/// Test-and-set spinlock; protects one worker deque. Deque operations are a
/// few pointer moves, so a spinlock beats std::mutex at fork-join task rates.
class Spinlock {
 public:
  void lock() {
    while (flag_.test_and_set(std::memory_order_acquire)) {
#if defined(__x86_64__)
      __builtin_ia32_pause();
#else
      std::this_thread::yield();
#endif
    }
  }
  void unlock() { flag_.clear(std::memory_order_release); }

 private:
  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

/// Per-worker job deque. The owner pushes/pops at the bottom (LIFO); thieves
/// steal from the top (FIFO), which takes the oldest (largest) tasks first.
class WorkDeque {
 public:
  void Push(JobBase* job) {
    lock_.lock();
    jobs_.push_back(job);
    lock_.unlock();
  }

  /// Pops the bottom job iff it is `expected` (i.e. it was not stolen).
  bool PopBottomIf(JobBase* expected) {
    lock_.lock();
    bool ok = !jobs_.empty() && jobs_.back() == expected;
    if (ok) jobs_.pop_back();
    lock_.unlock();
    return ok;
  }

  JobBase* Steal() {
    lock_.lock();
    JobBase* job = nullptr;
    if (!jobs_.empty()) {
      job = jobs_.front();
      jobs_.pop_front();
    }
    lock_.unlock();
    return job;
  }

 private:
  Spinlock lock_;
  std::deque<JobBase*> jobs_;
};

/// One worker group: its own deque array, slot-claim table, and pending-work
/// hint. Stealing is confined to a single arena, which is what keeps
/// `ParallelFor` semantics (grain, MyId range, NumWorkers) bit-identical to
/// a dedicated scheduler of `slots` workers.
struct ArenaState {
  explicit ArenaState(int n)
      : slots(n), deques(static_cast<size_t>(n)),
        claimed(static_cast<size_t>(n), 0) {}

  /// Claims a free slot, or returns -1 when every slot is occupied.
  int AcquireSlot() {
    slot_lock.lock();
    for (int s = 0; s < slots; ++s) {
      if (!claimed[static_cast<size_t>(s)]) {
        claimed[static_cast<size_t>(s)] = 1;
        slot_lock.unlock();
        return s;
      }
    }
    slot_lock.unlock();
    return -1;
  }

  void ReleaseSlot(int s) {
    slot_lock.lock();
    claimed[static_cast<size_t>(s)] = 0;
    slot_lock.unlock();
  }

  const int slots;
  std::vector<WorkDeque> deques;
  std::atomic<int64_t> pending{0};  ///< hint: jobs pushed, not yet taken
  Spinlock slot_lock;
  std::vector<uint8_t> claimed;
};

}  // namespace internal

/// Work-stealing fork-join scheduler (singleton).
class Scheduler {
 public:
  /// Returns the global scheduler, creating it on first use with all
  /// hardware threads, or with `PARHC_WORKERS` workers when that
  /// environment variable is set to a positive integer.
  static Scheduler& Get();

  /// Destroys and recreates the global scheduler with `num_workers`
  /// workers. Aborts with a clear error if any external caller is inside a
  /// fork or any TaskArena is live: destroying the singleton under
  /// concurrent `ParallelFor` callers would leave them stealing from freed
  /// deques.
  static void Reset(int num_workers);

  /// Workers visible to the calling thread: the current arena's size, or
  /// the total pool size for a thread not inside any arena.
  int num_workers() const {
    internal::ArenaState* a = tl_arena;
    return a ? a->slots : total_workers_;
  }

  /// Total workers in the shared pool (the TaskArena size ceiling).
  int total_workers() const { return total_workers_; }

  /// Arena-relative worker id of the calling thread, in
  /// [0, num_workers()); threads outside any arena map to 0.
  int MyId() const {
    internal::ArenaState* a = tl_arena;
    return a ? tl_slot : 0;
  }

  /// Runs `l` and `r`, potentially in parallel, returning when both finish.
  template <typename L, typename R>
  void ParDo(L&& l, R&& r) {
    internal::ArenaState* a = tl_arena;
    if (a == nullptr) {
      // Plain external caller: claim a root-arena slot for the outermost
      // fork. A full root arena (many concurrent callers) degrades to
      // inline execution, which is always correct.
      a = root_.get();
      if (a->slots == 1) {
        l();
        r();
        return;
      }
      int slot = a->AcquireSlot();
      if (slot < 0) {
        l();
        r();
        return;
      }
      external_active_.fetch_add(1, std::memory_order_relaxed);
      tl_arena = a;
      tl_slot = slot;
      ParDoIn(*a, slot, l, r);
      tl_arena = nullptr;
      tl_slot = -1;
      a->ReleaseSlot(slot);
      external_active_.fetch_sub(1, std::memory_order_release);
      return;
    }
    if (a->slots == 1) {  // fast path: no stealing possible in this group
      l();
      r();
      return;
    }
    ParDoIn(*a, tl_slot, l, r);
  }

  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

 private:
  friend class TaskArena;

  explicit Scheduler(int num_workers);

  template <typename L, typename R>
  void ParDoIn(internal::ArenaState& a, int slot, L& l, R& r) {
    using Rf = std::remove_reference_t<R>;
    internal::Job<Rf> rjob(&r);
    a.deques[static_cast<size_t>(slot)].Push(&rjob);
    a.pending.fetch_add(1, std::memory_order_relaxed);
    pending_.fetch_add(1, std::memory_order_relaxed);
    WakeOne();
    l();
    if (a.deques[static_cast<size_t>(slot)].PopBottomIf(&rjob)) {
      a.pending.fetch_sub(1, std::memory_order_relaxed);
      pending_.fetch_sub(1, std::memory_order_relaxed);
      rjob.Run();
    } else {
      WaitFor(a, rjob);
    }
  }

  /// Registers a TaskArena's state so pool threads can join it.
  void RegisterArena(const std::shared_ptr<internal::ArenaState>& a);
  void UnregisterArena(const internal::ArenaState* a);

  void WorkerLoop(int id);
  /// Steals and runs one job from `a`'s deques; false when all were empty.
  bool RunOneIn(internal::ArenaState& a);
  void WaitFor(internal::ArenaState& a, internal::JobBase& job);
  void WakeOne();

  static thread_local internal::ArenaState* tl_arena;
  static thread_local int tl_slot;

  int total_workers_;
  std::shared_ptr<internal::ArenaState> root_;
  std::vector<std::thread> threads_;
  std::atomic<bool> shutdown_{false};
  std::atomic<int64_t> pending_{0};  ///< global pending hint (sleep gate)
  std::atomic<int> external_active_{0};
  std::atomic<int> live_arenas_{0};
  std::atomic<int> sleepers_{0};
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  mutable std::mutex arenas_mu_;
  std::vector<std::shared_ptr<internal::ArenaState>> arenas_;
  std::atomic<uint64_t> arenas_version_{0};
};

/// A partitioned worker group: up to `max_workers` of the shared pool
/// cooperate on work submitted through Execute, isolated from every other
/// group. Inside Execute, `NumWorkers()` returns the group size and
/// `MyId()` is group-relative, so parallel algorithms (grain selection,
/// per-worker scratch) behave exactly as on a dedicated `max_workers`-wide
/// scheduler — this is what keeps results bit-identical to the serialized
/// path. Each Execute call occupies one slot of the group; pool threads
/// fill the rest on demand. Destroy the arena only after Execute returns
/// (pool threads drain on their own).
class TaskArena {
 public:
  /// Creates a group of min(max_workers, total pool size) slots.
  explicit TaskArena(int max_workers);
  ~TaskArena();

  TaskArena(const TaskArena&) = delete;
  TaskArena& operator=(const TaskArena&) = delete;

  int size() const { return state_->slots; }

  /// Runs `fn` inside this group. May be called concurrently from up to
  /// `size()` threads; callers beyond that wait for a slot. Nested calls
  /// from inside another arena temporarily switch the thread's group.
  template <typename F>
  void Execute(F&& fn) {
    Scheduler& s = Scheduler::Get();
    internal::ArenaState* prev_arena = Scheduler::tl_arena;
    int prev_slot = Scheduler::tl_slot;
    int slot;
    while ((slot = state_->AcquireSlot()) < 0) std::this_thread::yield();
    s.external_active_.fetch_add(1, std::memory_order_relaxed);
    Scheduler::tl_arena = state_.get();
    Scheduler::tl_slot = slot;
    struct Restore {
      internal::ArenaState* prev_arena;
      int prev_slot;
      internal::ArenaState* mine;
      int my_slot;
      Scheduler* sched;
      ~Restore() {
        Scheduler::tl_arena = prev_arena;
        Scheduler::tl_slot = prev_slot;
        mine->ReleaseSlot(my_slot);
        sched->external_active_.fetch_sub(1, std::memory_order_release);
      }
    } restore{prev_arena, prev_slot, state_.get(), slot, &s};
    fn();
  }

 private:
  std::shared_ptr<internal::ArenaState> state_;
};

/// Returns the number of workers visible to the calling thread (its arena
/// size, or the total pool size outside any arena).
int NumWorkers();

/// Recreates the scheduler with `p` workers (benchmark thread sweeps).
void SetNumWorkers(int p);

/// Runs two closures, potentially in parallel.
template <typename L, typename R>
inline void ParDo(L&& l, R&& r) {
  Scheduler::Get().ParDo(std::forward<L>(l), std::forward<R>(r));
}

namespace internal {
template <typename F>
void ParallelForRec(size_t lo, size_t hi, F& f, size_t grain) {
  if (hi - lo <= grain) {
    for (size_t i = lo; i < hi; ++i) f(i);
    return;
  }
  size_t mid = lo + (hi - lo) / 2;
  Scheduler::Get().ParDo([&] { ParallelForRec(lo, mid, f, grain); },
                         [&] { ParallelForRec(mid, hi, f, grain); });
}
}  // namespace internal

/// Parallel loop over [lo, hi). `grain` is the largest chunk executed
/// sequentially; 0 selects an automatic grain of roughly (hi-lo)/(8p),
/// capped at 2048 for load balance on irregular bodies. p is the calling
/// thread's arena size, so the chunking — and any per-worker scratch keyed
/// on MyId — is deterministic per (range, group size).
template <typename F>
inline void ParallelFor(size_t lo, size_t hi, F&& f, size_t grain = 0) {
  if (hi <= lo) return;
  size_t n = hi - lo;
  Scheduler& s = Scheduler::Get();
  if (s.num_workers() == 1 || n == 1) {
    for (size_t i = lo; i < hi; ++i) f(i);
    return;
  }
  if (grain == 0) {
    // grain = clamp(n / (8p), 1, 2048): about 8 chunks per worker for load
    // balance on irregular bodies, capped so chunks stay cache-sized, with
    // a floor of 1 so tiny ranges on many workers still make progress.
    size_t target = n / (static_cast<size_t>(s.num_workers()) * 8);
    grain = std::clamp<size_t>(target, 1, 2048);
  }
  internal::ParallelForRec(lo, hi, f, grain);
}

}  // namespace parhc
