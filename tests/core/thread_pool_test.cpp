#include "core/thread_pool.h"

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "core/error.h"

namespace emdpa {
namespace {

TEST(ThreadPool, SizeCountsTheCallingThread) {
  EXPECT_EQ(ThreadPool(1).size(), 1u);
  EXPECT_EQ(ThreadPool(4).size(), 4u);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  // Sweep begin/end/grain shapes: empty, single chunk, grain dividing the
  // range, grain not dividing it, grain zero (clamped to 1), grain larger
  // than the whole range.
  const struct {
    std::size_t begin, end, grain;
  } cases[] = {{0, 0, 1},   {0, 1, 1},    {0, 64, 8},  {3, 50, 7},
               {0, 100, 0}, {10, 20, 100}, {0, 1000, 1}};
  for (const auto& c : cases) {
    std::vector<std::atomic<int>> counts(c.end);
    for (auto& count : counts) count = 0;
    pool.parallel_for(c.begin, c.end, c.grain,
                      [&](std::size_t lo, std::size_t hi) {
                        ASSERT_LE(lo, hi);
                        for (std::size_t i = lo; i < hi; ++i) counts[i]++;
                      });
    for (std::size_t i = 0; i < c.end; ++i) {
      EXPECT_EQ(counts[i], i >= c.begin ? 1 : 0)
          << "index " << i << " of [" << c.begin << ", " << c.end
          << ") grain " << c.grain;
    }
  }
}

TEST(ThreadPool, ZeroLengthRangeNeverCallsBody) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, 1, [&](std::size_t, std::size_t) { called = true; });
  pool.parallel_for(7, 3, 1, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ExceptionsPropagateToCaller) {
  ThreadPool pool(4);
  auto boom = [&] {
    pool.parallel_for(0, 100, 1, [](std::size_t lo, std::size_t) {
      if (lo == 42) throw std::runtime_error("chunk 42 failed");
    });
  };
  EXPECT_THROW(boom(), std::runtime_error);

  // The pool survives the failed run.
  std::atomic<int> sum{0};
  pool.parallel_for(0, 10, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(16 * 16);
  for (auto& count : counts) count = 0;
  pool.parallel_for(0, 16, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      // Inner call from inside a chunk: must not deadlock, covers its whole
      // range serially on this worker.
      pool.parallel_for(0, 16, 4, [&](std::size_t jlo, std::size_t jhi) {
        for (std::size_t j = jlo; j < jhi; ++j) counts[i * 16 + j]++;
      });
    }
  });
  for (const auto& count : counts) EXPECT_EQ(count, 1);
}

TEST(ThreadPool, ParallelReduceIsOrderedAndThreadCountInvariant) {
  // Sum a float sequence whose result depends on accumulation order; the
  // ordered per-chunk fold must give bitwise-equal totals at any pool size.
  std::vector<float> values(10000);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = 1.0f / static_cast<float>(i + 1);
  }
  auto map = [&](std::size_t lo, std::size_t hi) {
    float s = 0.0f;
    for (std::size_t i = lo; i < hi; ++i) s += values[i];
    return s;
  };
  auto combine = [](float a, float b) { return a + b; };

  ThreadPool serial(1);
  ThreadPool wide(8);
  const float expect =
      serial.parallel_reduce(0, values.size(), 64, 0.0f, map, combine);
  for (int repeat = 0; repeat < 3; ++repeat) {
    const float got =
        wide.parallel_reduce(0, values.size(), 64, 0.0f, map, combine);
    EXPECT_EQ(expect, got);
  }
}

TEST(ThreadPool, DefaultThreadCountHonoursEnvironment) {
  setenv("EMDPA_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::default_thread_count(), 3u);
  EXPECT_EQ(ThreadPool(0).size(), 3u);

  setenv("EMDPA_THREADS", "not-a-number", 1);
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);

  setenv("EMDPA_THREADS", "-2", 1);
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);

  unsetenv("EMDPA_THREADS");
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
}

TEST(ThreadPool, GlobalPoolIsShared) {
  ThreadPool& a = ThreadPool::global();
  ThreadPool& b = ThreadPool::global();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.size(), 1u);
}

TEST(ThreadPool, ConfigureGlobalFailsOnceGlobalExists) {
  ThreadPool::global();
  EXPECT_FALSE(ThreadPool::configure_global(3));
}

TEST(ThreadPool, BackToBackShortRunsAreSafe) {
  // Regression for a use-after-free: the Task lives on parallel_for's stack,
  // and workers that grabbed the Task pointer could still touch it after the
  // caller (having seen all chunks complete) returned and destroyed it.
  // Tiny ranges maximise the window where a worker wakes up only to find
  // every chunk already claimed; run many in a row so a stale Task from run
  // k would be scribbled on during run k+1 (caught by ASan/TSan, and often
  // by the count checks below).
  ThreadPool pool(8);
  for (int run = 0; run < 2000; ++run) {
    std::atomic<int> count{0};
    pool.parallel_for(0, 2, 1,
                      [&](std::size_t lo, std::size_t hi) {
                        count += static_cast<int>(hi - lo);
                      });
    ASSERT_EQ(count, 2);
  }
}

// Address/thread sanitizers reserve terabytes of shadow address space, so an
// address-space limit cannot be applied under them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

TEST(ThreadPool, WorkerStartFailureThrowsInsteadOfTerminating) {
  if (kSanitized) GTEST_SKIP() << "address-space limit under a sanitizer";
  // 256 MiB of address space holds far fewer than 199 thread stacks, so a
  // worker fails to start part way.  The child reports how the constructor
  // ended; before the fix the joinable workers were destroyed and the child
  // died in std::terminate.
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    const rlimit limit{256u << 20, 256u << 20};
    if (setrlimit(RLIMIT_AS, &limit) != 0) _exit(2);
    try {
      ThreadPool pool(200);
      _exit(3);  // every worker started: the limit did not bite
    } catch (const RuntimeFailure&) {
      _exit(0);
    } catch (...) {
      _exit(4);
    }
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status)) << "child killed by signal "
                                 << WTERMSIG(status);
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace emdpa
