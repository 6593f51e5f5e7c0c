#ifndef RELGRAPH_CORE_PARALLEL_H_
#define RELGRAPH_CORE_PARALLEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace relgraph {

/// Deterministic shared thread-pool runtime.
///
/// All parallel hot paths in RelGraph (GEMM kernels, neighbor sampling,
/// training seed groups, serving seed slices) run on one lazily-started
/// global pool. The pool is sized by the `RELGRAPH_NUM_THREADS`
/// environment variable (default: `std::thread::hardware_concurrency()`,
/// value `1` = fully serial fallback with no worker threads).
///
/// Determinism contract: work is split into chunks whose boundaries depend
/// only on the problem size and the grain — never on the thread count —
/// and every combining step runs in chunk order on the calling thread.
/// Together with kernels that keep per-output accumulation order fixed,
/// this makes every result bit-identical at any parallelism level.
class ThreadPool {
 public:
  /// The shared global pool, started on first use.
  static ThreadPool& Global();

  /// Total threads applying work in a parallel region (workers + caller).
  int num_threads() const { return num_threads_; }

  /// Runs fn(chunk_idx) for every chunk in [0, num_chunks), distributing
  /// chunks over the workers; the calling thread participates. Blocks
  /// until all chunks completed. The pool runs one region at a time; the
  /// chunks run inline (serially, in order, on the calling thread) when
  /// there is a single chunk, when the pool is serial, when the caller is
  /// a worker or already inside a region's chunk, or when another caller's
  /// region holds the workers. Inline chunks never wait for the pool, and
  /// any region they open runs inline too. Returns true when the chunks
  /// were offered to the workers, false when they ran inline.
  bool ParallelChunks(int64_t num_chunks,
                      const std::function<void(int64_t)>& fn);

  /// Test-only: stops the pool and restarts it with `n` threads (n >= 1),
  /// overriding RELGRAPH_NUM_THREADS. Must not be called while parallel
  /// work is in flight. Lets one process compare thread counts directly.
  static void SetNumThreadsForTesting(int n);

  ~ThreadPool();

 private:
  explicit ThreadPool(int num_threads);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  struct Impl;
  std::unique_ptr<Impl> impl_;
  int num_threads_ = 1;
};

/// Thread count the global pool was (or will be) started with.
int NumThreads();

/// Splits [begin, end) into chunks of `grain` iterations (the last chunk
/// may be short) and runs body(chunk_begin, chunk_end) for each chunk on
/// the global pool. Chunks must be independent: each writes disjoint
/// outputs, so results are identical at any thread count. Runs inline when
/// the range fits a single chunk or ParallelChunks would; returns true when
/// the chunks were offered to the pool's workers.
bool ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& body);

/// Deterministic chunked reduction. The range is split into chunks of
/// `grain` exactly as ParallelFor does — boundaries depend only on
/// (end - begin, grain) — each chunk computes a partial with `chunk_fn`,
/// and the partials are folded left-to-right in chunk order with
/// `combine(acc, partial)` on the calling thread. The result is therefore
/// bit-identical at any thread count (though it may differ from a single
/// unchunked fold when floating-point rounding is involved; callers pick
/// the grain as part of their numeric contract).
template <typename T, typename ChunkFn, typename CombineFn>
T ParallelReduce(int64_t begin, int64_t end, int64_t grain, T init,
                 const ChunkFn& chunk_fn, const CombineFn& combine) {
  if (end <= begin) return init;
  if (grain < 1) grain = 1;
  const int64_t n = end - begin;
  const int64_t num_chunks = (n + grain - 1) / grain;
  if (num_chunks == 1) return combine(init, chunk_fn(begin, end));
  std::vector<T> partials(static_cast<size_t>(num_chunks));
  ThreadPool::Global().ParallelChunks(num_chunks, [&](int64_t c) {
    const int64_t lo = begin + c * grain;
    const int64_t hi = lo + grain < end ? lo + grain : end;
    partials[static_cast<size_t>(c)] = chunk_fn(lo, hi);
  });
  T acc = init;
  for (const T& p : partials) acc = combine(acc, p);
  return acc;
}

}  // namespace relgraph

#endif  // RELGRAPH_CORE_PARALLEL_H_
