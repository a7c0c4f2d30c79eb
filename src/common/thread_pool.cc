#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <utility>

namespace utcq::common {

namespace {

// Which pool (if any) the current thread is a worker of, and its index
// there. Lets Submit route a worker's own submissions to its local queue,
// and makes nested ParallelFor calls cheap to detect.
thread_local ThreadPool* tls_pool = nullptr;
thread_local size_t tls_worker_index = 0;

/// std::thread::hardware_concurrency(), read once: glibc reads sysfs on
/// every call, which every ParallelFor would otherwise pay.
unsigned HardwareThreads() {
  static const unsigned hw = std::thread::hardware_concurrency();
  return hw;
}

}  // namespace

unsigned DefaultThreads() {
  const unsigned hw = HardwareThreads();
  return hw == 0 ? 1 : hw;
}

unsigned EffectiveThreads(size_t n, unsigned threads) {
  const unsigned hw = HardwareThreads();
  if (threads == 0) threads = hw == 0 ? 1 : hw;
  // Clamp explicit requests only when the hardware width is known: 0 means
  // "indeterminable", and flattening an explicit 8 to 1 there would
  // silently serialize a caller that knows its parallelism.
  if (hw != 0) threads = std::min(threads, hw);
  threads = static_cast<unsigned>(
      std::min<size_t>(threads, std::max<size_t>(n, 1)));
  return std::max(threads, 1u);
}

ThreadPool::ThreadPool(unsigned num_workers) {
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  tasks_submitted_ = &reg.GetCounter("pool.tasks");
  tasks_stolen_ = &reg.GetCounter("pool.steals");
  queue_depth_ = &reg.GetGauge("pool.queue_depth");
  queues_.reserve(num_workers);
  for (unsigned i = 0; i < num_workers; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(num_workers);
  for (unsigned i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lk(sleep_mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  tasks_submitted_->Increment();
  if (workers_.empty()) {
    task();  // no one else to run it; degrade to inline execution
    return;
  }
  // Count before publishing: a worker that wakes on pending_ > 0 but loses
  // the race to the push simply rescans — transient, and the reverse order
  // would let pending_ dip below zero.
  pending_.fetch_add(1, std::memory_order_release);
  queue_depth_->Add(1);
  if (tls_pool == this) {
    WorkerQueue& q = *queues_[tls_worker_index];
    MutexLock lk(q.mu);
    q.tasks.push_front(std::move(task));
  } else {
    MutexLock lk(global_mu_);
    global_.push_back(std::move(task));
  }
  {
    // Empty critical section: pairs with the wait-loop check in WorkerLoop
    // so a worker between "saw no work" and "asleep" cannot miss the wake.
    MutexLock lk(sleep_mu_);
  }
  cv_.NotifyOne();
}

bool ThreadPool::FindTask(std::function<void()>* out, size_t self) {
  if (self != kNotAWorker) {
    WorkerQueue& q = *queues_[self];
    MutexLock lk(q.mu);
    if (!q.tasks.empty()) {
      *out = std::move(q.tasks.front());
      q.tasks.pop_front();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      queue_depth_->Sub(1);
      return true;
    }
  }
  {
    MutexLock lk(global_mu_);
    if (!global_.empty()) {
      *out = std::move(global_.front());
      global_.pop_front();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      queue_depth_->Sub(1);
      return true;
    }
  }
  for (size_t i = 0; i < queues_.size(); ++i) {
    if (i == self) continue;
    WorkerQueue& q = *queues_[i];
    MutexLock lk(q.mu);
    if (!q.tasks.empty()) {
      *out = std::move(q.tasks.back());  // steal the victim's oldest work
      q.tasks.pop_back();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      queue_depth_->Sub(1);
      tasks_stolen_->Increment();
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerLoop(size_t self) {
  tls_pool = this;
  tls_worker_index = self;
  std::function<void()> task;
  for (;;) {
    if (FindTask(&task, self)) {
      task();
      task = nullptr;  // release captures before sleeping
      continue;
    }
    // A failed FindTask does not prove the queues drained: a Submit may
    // have landed since, so exit only once stop_ is latched with nothing
    // pending (the check after the wait loop).
    MutexLock lk(sleep_mu_);
    // Explicit wait loop (not a predicate lambda) so the stop_ reads sit
    // in a scope the thread-safety analysis can see sleep_mu_ held in.
    while (!stop_ && pending_.load(std::memory_order_acquire) == 0) {
      cv_.Wait(sleep_mu_);
    }
    if (stop_ && pending_.load(std::memory_order_acquire) == 0) return;
  }
}

struct ThreadPool::ForState {
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  // n and fn are deliberately unguarded: both are written once, before
  // the first helper task is published (Submit's queue push is the
  // release point), and never after — see DESIGN.md §13.
  size_t n = 0;
  const std::function<void(size_t)>* fn = nullptr;
  Mutex mu;
  CondVar cv;
};

void ThreadPool::DrainFor(ForState& s) {
  for (size_t i = s.next.fetch_add(1, std::memory_order_relaxed); i < s.n;
       i = s.next.fetch_add(1, std::memory_order_relaxed)) {
    // Claiming i < n proves the loop is unfinished, so the caller — who
    // owns `fn` — is still blocked in its completion wait: the pointer is
    // safe to chase. A helper task that starts after completion claims
    // i >= n and never touches it.
    (*s.fn)(i);
    if (s.done.fetch_add(1, std::memory_order_acq_rel) + 1 == s.n) {
      MutexLock lk(s.mu);
      s.cv.NotifyAll();
    }
  }
}

void ThreadPool::ParallelFor(size_t n, unsigned threads,
                             const std::function<void(size_t)>& fn) {
  threads = EffectiveThreads(n, threads);
  if (n <= 1 || threads <= 1 || workers_.empty()) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto state = std::make_shared<ForState>();
  state->n = n;
  state->fn = &fn;
  // The caller is participant #1; enlist at most the whole pool besides.
  const unsigned helpers =
      std::min(threads - 1, static_cast<unsigned>(workers_.size()));
  for (unsigned h = 0; h < helpers; ++h) {
    Submit([state] { DrainFor(*state); });
  }
  // Self-draining is what makes nesting deadlock-free: even if every
  // worker is busy (perhaps blocked in an outer ParallelFor), the loop
  // completes on the calling thread alone and the helper tasks become
  // no-ops whenever they eventually run.
  DrainFor(*state);
  MutexLock lk(state->mu);
  while (state->done.load(std::memory_order_acquire) < state->n) {
    state->cv.Wait(state->mu);
  }
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool(DefaultThreads() - 1);
  return pool;
}

void ParallelFor(size_t n, unsigned threads,
                 const std::function<void(size_t)>& fn) {
  ThreadPool::Shared().ParallelFor(n, threads, fn);
}

}  // namespace utcq::common
