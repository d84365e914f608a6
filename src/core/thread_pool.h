// Reusable worker thread pool with a chunked parallel_for primitive.
//
// This is the host execution layer the device models ride on: the SoA host
// kernel splits atom rows over it, the Cell model runs its SPE workers on it,
// and the MTA model executes its "streams" on it.  Design constraints:
//
//  * Determinism.  parallel_for decomposes [begin, end) into fixed chunks of
//    `grain` indices; which thread runs a chunk is scheduling-dependent, but
//    the chunk boundaries are not.  Callers that write per-index (or
//    per-chunk, via parallel_reduce's ordered fold) get results that are
//    bit-identical run to run at any thread count.
//  * Exceptions propagate: the first exception thrown by any chunk is
//    rethrown on the calling thread after all chunks finish.
//  * Nested parallel_for calls (from inside a chunk body) run inline and
//    serially on the calling worker — no deadlock, same results.
//  * Thread count comes from the EMDPA_THREADS environment variable when set
//    (a positive integer), otherwise std::thread::hardware_concurrency().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace emdpa {

class ThreadPool {
 public:
  /// A pool of `n_threads` total execution contexts: the calling thread plus
  /// n_threads - 1 workers.  n_threads == 0 means default_thread_count().
  /// Throws RuntimeFailure, after joining the workers already started, when
  /// the system cannot start another thread.
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution contexts (callers of parallel_for participate, so a
  /// pool of size 1 has no worker threads and runs everything inline).
  std::size_t size() const { return workers_.size() + 1; }

  /// Cap on an EMDPA_THREADS request and on the CLI's --threads flags.
  static constexpr std::size_t kMaxThreads = 1024;

  /// Resolved default: EMDPA_THREADS if set to a positive integer (capped
  /// at kMaxThreads), else hardware_concurrency(), never less than 1.
  static std::size_t default_thread_count();

  /// Process-wide shared pool, created on first use with the default thread
  /// count.  Backends use this so one run reuses one set of threads.
  static ThreadPool& global();

  /// Fix the thread count global() will be created with (0 = default).  Must
  /// be called before the first global() use; returns false (and changes
  /// nothing) if the global pool already exists.  Unlike an EMDPA_THREADS
  /// setenv round-trip, a late call fails loudly instead of silently.
  static bool configure_global(std::size_t n_threads);

  /// Run body(chunk_begin, chunk_end) over [begin, end) split into chunks of
  /// at most max(grain, 1) indices.  Blocks until every chunk completed; the
  /// first exception thrown by a chunk is rethrown here.  Chunk boundaries
  /// depend only on (begin, end, grain), never on the thread count.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& body);

  /// Deterministic map/reduce: map(chunk_begin, chunk_end) -> T per chunk,
  /// folded left-to-right in chunk order (combine(acc, chunk_result)).  The
  /// fold order is fixed by the chunk decomposition, so floating-point
  /// reductions are bit-identical run to run at any thread count.
  template <typename T, typename Map, typename Combine>
  T parallel_reduce(std::size_t begin, std::size_t end, std::size_t grain,
                    T init, Map map, Combine combine) {
    if (end <= begin) return init;
    const std::size_t g = grain == 0 ? 1 : grain;
    const std::size_t n_chunks = (end - begin + g - 1) / g;
    std::vector<T> partials(n_chunks, init);
    parallel_for(0, n_chunks, 1, [&](std::size_t c0, std::size_t c1) {
      for (std::size_t k = c0; k < c1; ++k) {
        const std::size_t b = begin + k * g;
        const std::size_t e = b + g < end ? b + g : end;
        partials[k] = map(b, e);
      }
    });
    T acc = init;
    for (std::size_t k = 0; k < n_chunks; ++k) acc = combine(acc, partials[k]);
    return acc;
  }

 private:
  struct Task;

  void worker_loop();
  /// Wake every worker with the stop flag and join it.
  void stop_workers();
  static void work_on(Task& task);

  mutable std::mutex mutex_;
  std::condition_variable wake_cv_;   ///< workers wait here for a new task
  std::condition_variable done_cv_;   ///< parallel_for waits here for completion
  std::mutex run_mutex_;              ///< serialises concurrent parallel_for calls
  Task* current_ = nullptr;
  std::uint64_t epoch_ = 0;
  /// Workers currently holding a pointer to current_ (guarded by mutex_).
  /// parallel_for waits for this to drain before destroying its Task.
  std::size_t n_active_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace emdpa
