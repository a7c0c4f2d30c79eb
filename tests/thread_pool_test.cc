// Behavioural pinning of the persistent work-stealing pool (DESIGN.md §12):
// exactly-once index coverage, nesting, zero-worker degradation, drain-
// before-join shutdown, and many external threads sharing one pool. The
// TSan CI job runs it under ThreadSanitizer.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace utcq::common {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  constexpr size_t kN = 5000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, 4, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, FreeParallelForRunsOnSharedPool) {
  constexpr size_t kN = 2000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(kN, 0, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, NestedParallelForCompletes) {
  // A worker running an outer task issues its own inner loop. The caller
  // of each loop participates in that loop, so this must terminate even
  // when every worker is already busy with outer tasks.
  ThreadPool pool(2);
  constexpr size_t kOuter = 16;
  constexpr size_t kInner = 64;
  std::atomic<size_t> total{0};
  pool.ParallelFor(kOuter, 4, [&](size_t) {
    pool.ParallelFor(kInner, 4, [&](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), kOuter * kInner);
}

TEST(ThreadPool, ZeroWorkerPoolRunsEverythingInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0u);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> ran{0};
  pool.Submit([&] {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ran.fetch_add(1);
  });
  EXPECT_EQ(ran.load(), 1);  // inline: done before Submit returned
  pool.ParallelFor(100, 8, [&](size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ran.fetch_add(1);
  });
  EXPECT_EQ(ran.load(), 101);
}

TEST(ThreadPool, DestructorDrainsSubmittedTasks) {
  // Everything submitted before destruction begins still runs: the dtor
  // drains, then joins.
  std::atomic<int> ran{0};
  constexpr int kTasks = 200;
  {
    ThreadPool pool(3);
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([&] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(ThreadPool, ManyExternalThreadsShareOnePool) {
  // The serving shape: concurrent batch executors all fanning out through
  // the same pool. Each caller participates in its own loop, so progress
  // never depends on a worker being free.
  ThreadPool pool(4);
  constexpr int kCallers = 6;
  constexpr size_t kN = 800;
  std::vector<std::atomic<size_t>> sums(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < 5; ++round) {
        pool.ParallelFor(kN, 3, [&](size_t i) {
          sums[c].fetch_add(i, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  constexpr size_t kWant = 5 * (kN * (kN - 1)) / 2;
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(sums[c].load(), kWant) << "caller " << c;
  }
}

TEST(ThreadPool, SubmitFromWorkerUsesOwnQueue) {
  // A task submitted from inside a worker lands on that worker's deque and
  // still runs (LIFO locally or stolen); the pool drains it by destruction.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    pool.ParallelFor(8, 3, [&](size_t) {
      pool.Submit([&] { ran.fetch_add(1, std::memory_order_relaxed); });
    });
  }
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, TaskSubmittedDuringDestructorDrainStillRuns) {
  // The dtor drains before joining, and a draining task may legally submit
  // a follow-up (it was "submitted before destruction" transitively — the
  // worker that runs it is still in its scavenging loop). Both generations
  // must have run by the time the dtor returns.
  std::atomic<int> first{0};
  std::atomic<int> followup{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&] {
        first.fetch_add(1, std::memory_order_relaxed);
        pool.Submit(
            [&] { followup.fetch_add(1, std::memory_order_relaxed); });
      });
    }
    // Destruction begins here, very likely while tasks are still queued.
  }
  EXPECT_EQ(first.load(), 50);
  EXPECT_EQ(followup.load(), 50);
}

TEST(ThreadPool, ReentrantSubmitChainFromWorkerCompletes) {
  // A task submitted from a worker may itself submit from that worker, and
  // so on: the chain lands on the worker's own deque (LIFO) and the whole
  // depth must drain before the dtor joins.
  constexpr int kDepth = 64;
  std::atomic<int> ran{0};
  {
    // Declared before the pool: the dtor drains tasks that call back into
    // chain, so chain must outlive the pool.
    std::function<void(ThreadPool&, int)> chain = [&](ThreadPool& pool,
                                                      int depth) {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (depth + 1 < kDepth) {
        pool.Submit([&chain, &pool, depth] { chain(pool, depth + 1); });
      }
    };
    ThreadPool pool(2);
    pool.Submit([&chain, &pool] { chain(pool, 0); });
  }
  EXPECT_EQ(ran.load(), kDepth);
}

TEST(ThreadPool, ZeroWorkerPoolHandlesReentrancyAndNesting) {
  // The inline degradation path must survive the same shapes the threaded
  // path does: re-entrant Submit (runs inline, depth-first) and nested
  // ParallelFor, all on the caller's thread.
  ThreadPool pool(0);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> ran{0};
  std::function<void(int)> chain = [&](int depth) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ran.fetch_add(1, std::memory_order_relaxed);
    if (depth + 1 < 16) {
      pool.Submit([&, depth] { chain(depth + 1); });
    }
  };
  pool.Submit([&] { chain(0); });
  EXPECT_EQ(ran.load(), 16);  // inline: whole chain done before return
  std::atomic<size_t> total{0};
  pool.ParallelFor(8, 4, [&](size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    pool.ParallelFor(8, 4, [&](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 64u);
}

TEST(ThreadPool, EffectiveThreadsNeverBelowOneAndClampsToN) {
  // Hardware width varies across hosts; only the host-independent clamps
  // are pinned here.
  EXPECT_EQ(EffectiveThreads(0, 8), 1u);
  EXPECT_EQ(EffectiveThreads(1, 8), 1u);
  EXPECT_LE(EffectiveThreads(3, 8), 3u);
  EXPECT_GE(EffectiveThreads(3, 8), 1u);
  EXPECT_GE(EffectiveThreads(100, 0), 1u);
}

}  // namespace
}  // namespace utcq::common
