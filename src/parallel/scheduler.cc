#include "parallel/scheduler.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <mutex>

namespace parhc {

thread_local internal::ArenaState* Scheduler::tl_arena = nullptr;
thread_local int Scheduler::tl_slot = -1;

namespace {

/// Owns the process-wide scheduler (joined at exit, replaced by Reset).
std::unique_ptr<Scheduler>& GlobalSchedulerSlot() {
  static std::unique_ptr<Scheduler> slot;
  return slot;
}

/// The installed scheduler, read with one acquire load on every Get().
std::atomic<Scheduler*> g_current{nullptr};
std::once_flag g_default_once;

int DefaultWorkerCount() {
  if (const char* env = std::getenv("PARHC_WORKERS")) {
    int v = std::atoi(env);
    if (v >= 1) return v;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

Scheduler& Scheduler::Get() {
  Scheduler* s = g_current.load(std::memory_order_acquire);
  if (s != nullptr) return *s;
  // First use: threads that race here create the default scheduler once
  // (a Reset before any Get has already installed one).
  std::call_once(g_default_once, [] {
    if (g_current.load(std::memory_order_acquire) != nullptr) return;
    GlobalSchedulerSlot().reset(new Scheduler(DefaultWorkerCount()));
    g_current.store(GlobalSchedulerSlot().get(), std::memory_order_release);
  });
  return *g_current.load(std::memory_order_acquire);
}

void Scheduler::Reset(int num_workers) {
  PARHC_CHECK(num_workers >= 1);
  auto& slot = GlobalSchedulerSlot();
  if (slot) {
    PARHC_CHECK_MSG(
        slot->external_active_.load(std::memory_order_acquire) == 0,
        "Scheduler::Reset while parallel work is in flight (a thread is "
        "inside ParDo/ParallelFor or TaskArena::Execute)");
    PARHC_CHECK_MSG(slot->live_arenas_.load(std::memory_order_acquire) == 0,
                    "Scheduler::Reset while TaskArena objects are live");
  }
  slot.reset();  // join old workers before spawning new ones
  slot.reset(new Scheduler(num_workers));
  g_current.store(slot.get(), std::memory_order_release);
}

Scheduler::Scheduler(int num_workers)
    : total_workers_(num_workers),
      root_(std::make_shared<internal::ArenaState>(num_workers)) {
  arenas_.push_back(root_);
  arenas_version_.fetch_add(1, std::memory_order_release);
  threads_.reserve(static_cast<size_t>(total_workers_ - 1));
  for (int id = 1; id < total_workers_; ++id) {
    threads_.emplace_back([this, id] { WorkerLoop(id); });
  }
}

Scheduler::~Scheduler() {
  shutdown_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lk(sleep_mutex_);
    sleep_cv_.notify_all();
  }
  for (auto& t : threads_) t.join();
}

void Scheduler::RegisterArena(
    const std::shared_ptr<internal::ArenaState>& a) {
  {
    std::lock_guard<std::mutex> lk(arenas_mu_);
    arenas_.push_back(a);
  }
  live_arenas_.fetch_add(1, std::memory_order_relaxed);
  arenas_version_.fetch_add(1, std::memory_order_release);
}

void Scheduler::UnregisterArena(const internal::ArenaState* a) {
  {
    std::lock_guard<std::mutex> lk(arenas_mu_);
    for (size_t i = 0; i < arenas_.size(); ++i) {
      if (arenas_[i].get() == a) {
        arenas_.erase(arenas_.begin() + static_cast<ptrdiff_t>(i));
        break;
      }
    }
  }
  live_arenas_.fetch_sub(1, std::memory_order_release);
  arenas_version_.fetch_add(1, std::memory_order_release);
}

void Scheduler::WakeOne() {
  if (sleepers_.load(std::memory_order_relaxed) > 0) {
    std::lock_guard<std::mutex> lk(sleep_mutex_);
    sleep_cv_.notify_one();
  }
}

bool Scheduler::RunOneIn(internal::ArenaState& a) {
  // Scan the arena's deques starting from a pseudo-random victim; include
  // our own (oldest job first), which implements local helping on joins.
  static thread_local uint64_t rng =
      0x9e3779b97f4a7c15ull ^
      (std::hash<std::thread::id>{}(std::this_thread::get_id()) | 1);
  rng ^= rng << 13;
  rng ^= rng >> 7;
  rng ^= rng << 17;
  int n = a.slots;
  int start = static_cast<int>(rng % static_cast<uint64_t>(n));
  for (int k = 0; k < n; ++k) {
    int victim = start + k;
    if (victim >= n) victim -= n;
    internal::JobBase* job = a.deques[static_cast<size_t>(victim)].Steal();
    if (job != nullptr) {
      a.pending.fetch_sub(1, std::memory_order_relaxed);
      pending_.fetch_sub(1, std::memory_order_relaxed);
      job->Run();
      return true;
    }
  }
  return false;
}

void Scheduler::WaitFor(internal::ArenaState& a, internal::JobBase& job) {
  while (!job.done.load(std::memory_order_acquire)) {
    if (!RunOneIn(a)) {
#if defined(__x86_64__)
      __builtin_ia32_pause();
#else
      std::this_thread::yield();
#endif
    }
  }
}

void Scheduler::WorkerLoop(int /*id*/) {
  uint64_t seen_version = ~0ull;
  std::vector<std::shared_ptr<internal::ArenaState>> arenas;
  int idle_spins = 0;
  while (!shutdown_.load(std::memory_order_acquire)) {
    if (arenas_version_.load(std::memory_order_acquire) != seen_version) {
      std::lock_guard<std::mutex> lk(arenas_mu_);
      arenas = arenas_;
      seen_version = arenas_version_.load(std::memory_order_acquire);
    }
    bool ran = false;
    for (const auto& a : arenas) {
      if (a->pending.load(std::memory_order_relaxed) <= 0) continue;
      int slot = a->AcquireSlot();
      if (slot < 0) continue;  // group already fully staffed
      tl_arena = a.get();
      tl_slot = slot;
      // Stay in the group until it runs dry for a while: fork-join work
      // arrives in bursts, and bouncing between arenas thrashes slots.
      int dry = 0;
      while (!shutdown_.load(std::memory_order_acquire) && dry < 64) {
        if (RunOneIn(*a)) {
          dry = 0;
          ran = true;
        } else {
          ++dry;
#if defined(__x86_64__)
          __builtin_ia32_pause();
#else
          std::this_thread::yield();
#endif
        }
      }
      tl_arena = nullptr;
      tl_slot = -1;
      a->ReleaseSlot(slot);
    }
    if (ran) {
      idle_spins = 0;
      continue;
    }
    if (++idle_spins < 128) {
      std::this_thread::yield();
      continue;
    }
    // Park until new work is pushed or shutdown; timed wait guards against
    // missed wakeups (pending_ is a hint, not a precise count).
    std::unique_lock<std::mutex> lk(sleep_mutex_);
    if (pending_.load(std::memory_order_relaxed) == 0 &&
        !shutdown_.load(std::memory_order_acquire)) {
      sleepers_.fetch_add(1, std::memory_order_relaxed);
      sleep_cv_.wait_for(lk, std::chrono::milliseconds(1));
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
    }
    idle_spins = 0;
  }
}

TaskArena::TaskArena(int max_workers) {
  PARHC_CHECK(max_workers >= 1);
  Scheduler& s = Scheduler::Get();
  int slots = std::min(max_workers, s.total_workers());
  state_ = std::make_shared<internal::ArenaState>(slots);
  s.RegisterArena(state_);
}

TaskArena::~TaskArena() {
  Scheduler::Get().UnregisterArena(state_.get());
}

int NumWorkers() { return Scheduler::Get().num_workers(); }

void SetNumWorkers(int p) { Scheduler::Reset(p); }

}  // namespace parhc
