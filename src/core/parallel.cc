#include "core/parallel.h"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "core/logging.h"

namespace relgraph {

namespace {

/// Set while the current thread is a pool worker or is executing chunks of
/// a region: nested parallel calls run inline instead of re-entering the
/// pool.
thread_local bool tls_inline_parallel = false;

/// Marks the current thread inline for one scope, restoring the previous
/// mark on exit (a worker stays marked).
class InlineScope {
 public:
  InlineScope() : outer_(tls_inline_parallel) { tls_inline_parallel = true; }
  ~InlineScope() { tls_inline_parallel = outer_; }
  InlineScope(const InlineScope&) = delete;
  InlineScope& operator=(const InlineScope&) = delete;

 private:
  const bool outer_;
};

int NumThreadsFromEnv() {
  const char* env = std::getenv("RELGRAPH_NUM_THREADS");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != nullptr && *end == '\0' && v >= 1 && v <= 256) {
      return static_cast<int>(v);
    }
    RELGRAPH_LOG(Warning) << "ignoring invalid RELGRAPH_NUM_THREADS='"
                          << env << "' (want an integer in [1, 256])";
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

}  // namespace

/// One parallel region. Workers and the caller pull chunk indices from the
/// shared counter; `done` (guarded by `m`) both counts completions and
/// publishes the chunks' writes to the caller. Kept alive by shared_ptr so
/// a late-waking worker can never touch a recycled region.
struct Job {
  std::function<void(int64_t)> fn;
  int64_t num_chunks = 0;
  std::atomic<int64_t> next{0};
  std::mutex m;
  std::condition_variable done_cv;
  int64_t done = 0;
};

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable cv;
  std::shared_ptr<Job> job;  // active region, if any
  bool stop = false;
  std::vector<std::thread> workers;
  /// Held by the caller whose region owns the workers. A caller that finds
  /// it taken runs its own chunks inline rather than queueing behind it.
  std::mutex region_mu;
};

namespace {

/// Claims and runs chunks until the region is drained; returns how many
/// chunks this thread executed.
int64_t RunChunks(Job* job) {
  int64_t ran = 0;
  for (;;) {
    const int64_t c = job->next.fetch_add(1, std::memory_order_relaxed);
    if (c >= job->num_chunks) break;
    job->fn(c);
    ++ran;
  }
  return ran;
}

void FinishChunks(const std::shared_ptr<Job>& job, int64_t ran) {
  if (ran == 0) return;
  std::lock_guard<std::mutex> lk(job->m);
  job->done += ran;
  if (job->done == job->num_chunks) job->done_cv.notify_all();
}

}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : impl_(std::make_unique<Impl>()),
      num_threads_(num_threads < 1 ? 1 : num_threads) {
  Impl* impl = impl_.get();
  const int workers = num_threads_ - 1;
  impl->workers.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    impl->workers.emplace_back([impl] {
      tls_inline_parallel = true;
      std::unique_lock<std::mutex> lk(impl->mu);
      for (;;) {
        impl->cv.wait(lk, [impl] {
          return impl->stop ||
                 (impl->job != nullptr &&
                  impl->job->next.load(std::memory_order_relaxed) <
                      impl->job->num_chunks);
        });
        if (impl->stop) return;
        std::shared_ptr<Job> job = impl->job;
        lk.unlock();
        FinishChunks(job, RunChunks(job.get()));
        lk.lock();
      }
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->stop = true;
  }
  impl_->cv.notify_all();
  for (std::thread& t : impl_->workers) t.join();
}

bool ThreadPool::ParallelChunks(int64_t num_chunks,
                                const std::function<void(int64_t)>& fn) {
  if (num_chunks <= 0) return false;
  std::unique_lock<std::mutex> region(impl_->region_mu, std::defer_lock);
  if (num_chunks == 1 || tls_inline_parallel || impl_->workers.empty() ||
      !region.try_lock()) {
    // Inline: the chunks run in order on this thread, and so does any
    // region they open. Chunk boundaries are the caller's, so the results
    // are the ones the pool would have produced.
    InlineScope scope;
    for (int64_t c = 0; c < num_chunks; ++c) fn(c);
    return false;
  }
  auto job = std::make_shared<Job>();
  job->fn = fn;
  job->num_chunks = num_chunks;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->job = job;
  }
  impl_->cv.notify_all();
  int64_t ran = 0;
  {
    InlineScope scope;  // nested parallelism inside chunks -> inline
    ran = RunChunks(job.get());
  }
  {
    std::unique_lock<std::mutex> jl(job->m);
    job->done += ran;
    if (job->done == job->num_chunks) job->done_cv.notify_all();
    job->done_cv.wait(jl, [&job] { return job->done == job->num_chunks; });
  }
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    if (impl_->job == job) impl_->job = nullptr;
  }
  return true;
}

namespace {

std::mutex& GlobalPoolMutex() {
  static std::mutex mu;
  return mu;
}

/// The started pool, or null before first use. Written only under
/// GlobalPoolMutex(); read lock-free on every parallel call.
std::atomic<ThreadPool*> g_pool{nullptr};

}  // namespace

ThreadPool& ThreadPool::Global() {
  ThreadPool* pool = g_pool.load(std::memory_order_acquire);
  if (pool != nullptr) return *pool;
  std::lock_guard<std::mutex> lk(GlobalPoolMutex());
  pool = g_pool.load(std::memory_order_relaxed);
  if (pool == nullptr) {
    pool = new ThreadPool(NumThreadsFromEnv());
    g_pool.store(pool, std::memory_order_release);
  }
  return *pool;
}

void ThreadPool::SetNumThreadsForTesting(int n) {
  RELGRAPH_CHECK(n >= 1);
  std::lock_guard<std::mutex> lk(GlobalPoolMutex());
  delete g_pool.load(std::memory_order_relaxed);  // joins the old workers
  g_pool.store(new ThreadPool(n), std::memory_order_release);
}

int NumThreads() { return ThreadPool::Global().num_threads(); }

bool ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& body) {
  if (end <= begin) return false;
  if (grain < 1) grain = 1;
  const int64_t n = end - begin;
  const int64_t num_chunks = (n + grain - 1) / grain;
  if (num_chunks == 1) {
    body(begin, end);
    return false;
  }
  return ThreadPool::Global().ParallelChunks(num_chunks, [&](int64_t c) {
    const int64_t lo = begin + c * grain;
    const int64_t hi = lo + grain < end ? lo + grain : end;
    body(lo, hi);
  });
}

}  // namespace relgraph
