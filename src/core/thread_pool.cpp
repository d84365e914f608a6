#include "core/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "core/error.h"

namespace emdpa {

namespace {

// Set while a thread is executing chunks, so a nested parallel_for from a
// chunk body runs inline instead of deadlocking on the pool.
thread_local bool t_inside_chunk = false;

struct InsideChunkScope {
  bool previous = t_inside_chunk;
  InsideChunkScope() { t_inside_chunk = true; }
  ~InsideChunkScope() { t_inside_chunk = previous; }
};

// State for ThreadPool::configure_global / global().  0 means "use the
// default thread count"; the created flag flips permanently once global()
// has run so a late configure_global can fail instead of silently no-op.
std::atomic<std::size_t> g_global_threads{0};
std::atomic<bool> g_global_created{false};

}  // namespace

struct ThreadPool::Task {
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t grain = 1;
  std::size_t n_chunks = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{0};
  std::mutex error_mutex;
  std::exception_ptr error;
};

ThreadPool::ThreadPool(std::size_t n_threads) {
  std::size_t total = n_threads == 0 ? default_thread_count() : n_threads;
  total = std::max<std::size_t>(total, 1);
  try {
    workers_.reserve(total - 1);
    for (std::size_t i = 0; i + 1 < total; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (const std::exception& e) {
    // The destructor will not run for a half-built pool, and destroying a
    // joinable std::thread terminates the process: stop what started.
    stop_workers();
    throw RuntimeFailure("thread pool: could not start worker " +
                         std::to_string(workers_.size() + 1) + " of " +
                         std::to_string(total - 1) + ": " + e.what());
  }
}

ThreadPool::~ThreadPool() { stop_workers(); }

void ThreadPool::stop_workers() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::size_t ThreadPool::default_thread_count() {
  if (const char* env = std::getenv("EMDPA_THREADS")) {
    char* tail = nullptr;
    const long parsed = std::strtol(env, &tail, 10);
    if (tail != env && *tail == '\0' && parsed > 0) {
      return std::min<std::size_t>(parsed, kMaxThreads);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool& ThreadPool::global() {
  // The flag is raised before construction: a configure_global racing with
  // the first global() use reports failure rather than being half-applied.
  g_global_created.store(true, std::memory_order_release);
  static ThreadPool pool(g_global_threads.load(std::memory_order_acquire));
  return pool;
}

bool ThreadPool::configure_global(std::size_t n_threads) {
  if (g_global_created.load(std::memory_order_acquire)) return false;
  g_global_threads.store(n_threads, std::memory_order_release);
  return true;
}

void ThreadPool::work_on(Task& task) {
  InsideChunkScope scope;
  std::size_t k;
  while ((k = task.next.fetch_add(1, std::memory_order_relaxed)) <
         task.n_chunks) {
    const std::size_t chunk_begin = task.begin + k * task.grain;
    const std::size_t chunk_end =
        std::min(task.end, chunk_begin + task.grain);
    try {
      (*task.body)(chunk_begin, chunk_end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(task.error_mutex);
      if (!task.error) task.error = std::current_exception();
    }
    task.completed.fetch_add(1, std::memory_order_acq_rel);
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_epoch = 0;
  while (true) {
    Task* task = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_cv_.wait(lock, [&] {
        return stop_ || (current_ != nullptr && epoch_ != seen_epoch);
      });
      if (stop_) return;
      task = current_;
      seen_epoch = epoch_;
      // Registered under the same lock hold that read current_, so the
      // caller's done predicate (which also runs under mutex_) can never see
      // "all chunks done, nobody active" while this worker still holds a
      // pointer to the Task.  The Task lives on the caller's stack; the
      // caller must not return until this count drains back to zero.
      ++n_active_;
    }
    work_on(*task);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --n_active_;
    }
    done_cv_.notify_all();
  }
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (end <= begin) return;
  const std::size_t g = grain == 0 ? 1 : grain;
  const std::size_t n_chunks = (end - begin + g - 1) / g;

  // Serial path: no workers, a single chunk, or a nested call from inside a
  // running chunk.  Chunks execute in order on this thread; exceptions
  // propagate directly.
  if (workers_.empty() || n_chunks == 1 || t_inside_chunk) {
    InsideChunkScope scope;
    for (std::size_t k = 0; k < n_chunks; ++k) {
      const std::size_t chunk_begin = begin + k * g;
      body(chunk_begin, std::min(end, chunk_begin + g));
    }
    return;
  }

  std::lock_guard<std::mutex> run_lock(run_mutex_);
  Task task;
  task.body = &body;
  task.begin = begin;
  task.end = end;
  task.grain = g;
  task.n_chunks = n_chunks;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    current_ = &task;
    ++epoch_;
  }
  wake_cv_.notify_all();

  work_on(task);  // the calling thread participates

  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Wait until every chunk ran AND every worker that picked up the Task
    // pointer has dropped it (n_active_ back to zero) — only then is it safe
    // to destroy the stack-allocated Task.  Workers that wake after
    // current_ is cleared see no task and go back to sleep.
    done_cv_.wait(lock, [&] {
      return n_active_ == 0 &&
             task.completed.load(std::memory_order_acquire) == task.n_chunks;
    });
    current_ = nullptr;
  }
  if (task.error) std::rethrow_exception(task.error);
}

}  // namespace emdpa
