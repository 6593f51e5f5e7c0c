#include "core/buffer_pool.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define RELGRAPH_POOL_POISON(ptr, n) ASAN_POISON_MEMORY_REGION(ptr, n)
#define RELGRAPH_POOL_UNPOISON(ptr, n) ASAN_UNPOISON_MEMORY_REGION(ptr, n)
#else
#define RELGRAPH_POOL_POISON(ptr, n) ((void)(ptr), (void)(n))
#define RELGRAPH_POOL_UNPOISON(ptr, n) ((void)(ptr), (void)(n))
#endif

namespace relgraph {

namespace {

// Smallest b with 2^b >= n (n >= 1).
int CeilLog2(size_t n) {
  int b = 0;
  while ((size_t{1} << b) < n) ++b;
  return b;
}

// Largest b with 2^b <= n (n >= 1).
int FloorLog2(size_t n) {
  int b = 0;
  while ((size_t{1} << (b + 1)) <= n) ++b;
  return b;
}

// The calling thread's home shard: threads are dealt shards round-robin
// on first use, so up to kNumShards threads never share one.
int HomeShard(int num_shards) {
  static std::atomic<int> next{0};
  thread_local const int shard =
      next.fetch_add(1, std::memory_order_relaxed) % num_shards;
  return shard;
}

}  // namespace

size_t FloatBufferPool::BinCap(int bin) {
  const size_t width_bytes = (size_t{1} << bin) * sizeof(float);
  const size_t by_budget = kBinBudgetBytes / width_bytes;
  if (by_budget < kMinPerBin) return kMinPerBin;
  if (by_budget > kMaxPerBin) return kMaxPerBin;
  return by_budget;
}

FloatBufferPool::FloatBufferPool() {
  const char* env = std::getenv("RELGRAPH_ARENA");
  enabled_ = !(env != nullptr && env[0] == '0' && env[1] == '\0');
}

FloatBufferPool& FloatBufferPool::Global() {
  static FloatBufferPool* pool = new FloatBufferPool();  // leaked on purpose
  return *pool;
}

std::vector<float> FloatBufferPool::Acquire(size_t n) {
  if (n == 0) return {};
  const int bin = CeilLog2(n);
  if (enabled_ && bin < kNumBins) {
    // Home shard first, then the others in a fixed rotation. Exact bin
    // only: everything in bin b has capacity in [2^b, 2^(b+1)), which
    // covers every request whose ceil-log2 class is b. Confining a class
    // to its own bin keeps classes from draining each other's buffers, so
    // one warm run seeds the pool for all later runs — the property the
    // steady-state zero-alloc tests pin down.
    const int home = HomeShard(kNumShards);
    for (int k = 0; k < kNumShards; ++k) {
      Shard& shard = shards_[(home + k) % kNumShards];
      if (shard.idle[bin].load(std::memory_order_relaxed) == 0) continue;
      std::lock_guard<std::mutex> lock(shard.mu);
      std::vector<std::vector<float>>& free = shard.bins[bin];
      if (free.empty()) continue;
      std::vector<float> buf = std::move(free.back());
      free.pop_back();
      shard.idle[bin].store(free.size(), std::memory_order_relaxed);
      shard.pool_hits.fetch_add(1, std::memory_order_relaxed);
      shard.pooled_bytes.fetch_sub(
          static_cast<int64_t>(buf.capacity() * sizeof(float)),
          std::memory_order_relaxed);
      RELGRAPH_POOL_UNPOISON(buf.data(), buf.capacity() * sizeof(float));
      return buf;
    }
  }
  heap_allocs_.fetch_add(1, std::memory_order_relaxed);
  if (std::getenv("RELGRAPH_ARENA_DEBUG") != nullptr) {
    std::fprintf(stderr, "[arena] heap alloc n=%zu bin=%d\n", n, bin);
  }
  std::vector<float> buf;
  // Reserve the full bin width so the buffer lands back in `bin` on
  // release and serves every future size in its class.
  buf.reserve(bin < kNumBins ? (size_t{1} << bin) : n);
  return buf;
}

void FloatBufferPool::Release(std::vector<float>&& buf) {
  const size_t cap = buf.capacity();
  if (cap == 0) return;
  if (enabled_) {
    const int bin = FloorLog2(cap);
    if (bin < kNumBins) {
      Shard& shard = shards_[HomeShard(kNumShards)];
      std::lock_guard<std::mutex> lock(shard.mu);
      if (shard.bins[bin].size() < BinCap(bin)) {
        RELGRAPH_POOL_POISON(buf.data(), cap * sizeof(float));
        shard.bins[bin].push_back(std::move(buf));
        shard.idle[bin].store(shard.bins[bin].size(),
                              std::memory_order_relaxed);
        shard.released.fetch_add(1, std::memory_order_relaxed);
        shard.pooled_bytes.fetch_add(
            static_cast<int64_t>(cap * sizeof(float)),
            std::memory_order_relaxed);
        return;
      }
    }
  }
  dropped_.fetch_add(1, std::memory_order_relaxed);
  if (std::getenv("RELGRAPH_ARENA_DEBUG") != nullptr) {
    std::fprintf(stderr, "[arena] drop cap=%zu\n", cap);
  }
  // buf destructs here, freeing the allocation.
}

FloatBufferPool::Stats FloatBufferPool::stats() const {
  Stats s;
  s.heap_allocs = heap_allocs_.load(std::memory_order_relaxed);
  s.dropped = dropped_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    s.pool_hits += shard.pool_hits.load(std::memory_order_relaxed);
    s.released += shard.released.load(std::memory_order_relaxed);
    s.pooled_bytes += shard.pooled_bytes.load(std::memory_order_relaxed);
  }
  return s;
}

void FloatBufferPool::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (int b = 0; b < kNumBins; ++b) {
      for (auto& buf : shard.bins[b]) {
        RELGRAPH_POOL_UNPOISON(buf.data(), buf.capacity() * sizeof(float));
        shard.pooled_bytes.fetch_sub(
            static_cast<int64_t>(buf.capacity() * sizeof(float)),
            std::memory_order_relaxed);
      }
      shard.bins[b].clear();
      shard.idle[b].store(0, std::memory_order_relaxed);
    }
  }
}

QuantBytesRegistry& QuantBytesRegistry::Global() {
  static QuantBytesRegistry* reg = new QuantBytesRegistry();  // leaked
  return *reg;
}

}  // namespace relgraph
