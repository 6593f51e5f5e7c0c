#ifndef RELGRAPH_CORE_BUFFER_POOL_H_
#define RELGRAPH_CORE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

namespace relgraph {

/// Recycling pool for `std::vector<float>` backing buffers.
///
/// Every `Tensor` acquires its storage here and returns it on destruction,
/// so a steady-state training batch or warm serving request performs zero
/// tensor heap allocations: the buffers of the previous batch's autograd
/// tape are recycled into the next one. Buffers are binned by
/// power-of-two capacity — `Acquire(n)` returns a vector whose capacity is
/// at least `n` (so per-batch shape jitter within a bin still hits), with
/// unspecified size and contents; callers `assign` into it.
///
/// Determinism: the pool only changes *where* a buffer's bytes live, never
/// what is written into them — every acquired buffer is fully overwritten
/// by its tensor's constructor — so results are bit-identical with the
/// pool on, off (`RELGRAPH_ARENA=0`), warm, or cold.
///
/// Thread safety: the pool is split into shards, each with its own mutex
/// and bins, and a thread acquires from and releases to its own shard
/// first. Training runs several autograd tapes at once (one per seed
/// group), each allocating and freeing thousands of small buffers; with a
/// single lock those threads serialized on the pool. An acquire that
/// finds its own shard's bin empty takes a buffer from another shard
/// before touching the heap, so the heap is hit only when no shard holds
/// a buffer of the class — the same warm-pool behaviour as one shared
/// pool.
///
/// Under AddressSanitizer the pool poisons buffers while they sit idle and
/// unpoisons them on acquisition, so a use-after-release (the classic bug
/// class recycling arenas hide) still faults instead of silently reading a
/// recycled batch.
class FloatBufferPool {
 public:
  /// Allocation observability for benchmarks and the zero-alloc tests.
  /// All counters are process-lifetime monotonic; diff them around a
  /// region to measure it.
  struct Stats {
    int64_t heap_allocs = 0;  ///< Acquire calls that hit the heap.
    int64_t pool_hits = 0;    ///< Acquire calls served from the pool.
    int64_t released = 0;     ///< buffers returned and kept for reuse
    int64_t dropped = 0;      ///< buffers freed (bin full or pool disabled)
    int64_t pooled_bytes = 0; ///< bytes of idle buffers currently pooled
  };

  /// The shared process-wide pool (never destroyed, so tensors with static
  /// storage duration can release safely at exit).
  static FloatBufferPool& Global();

  /// A vector with capacity >= n; size and contents are unspecified (the
  /// caller must assign/overwrite). n == 0 returns an empty vector without
  /// touching the pool.
  std::vector<float> Acquire(size_t n);

  /// Returns a buffer for reuse. Safe for any vector, including
  /// externally-allocated ones moved into tensors.
  void Release(std::vector<float>&& buf);

  Stats stats() const;

  /// True unless RELGRAPH_ARENA=0 disabled recycling at process start
  /// (allocation counting stays active either way).
  bool enabled() const { return enabled_; }

  /// Frees every pooled buffer (tests and memory-pressure hooks).
  void Clear();

 private:
  FloatBufferPool();

  // Buffers a shard's bin may retain before Release starts freeing
  // instead of pooling: each bin holds up to ~kBinBudgetBytes of idle
  // memory, clamped to [kMinPerBin, kMaxPerBin] buffers. Byte-based so the
  // sub-KB classes — a training tape floats hundreds of small weight /
  // gradient / optimizer-slot buffers at once — are retained in bulk,
  // while a few huge buffers already pin plenty of memory.
  static size_t BinCap(int bin);
  static constexpr size_t kBinBudgetBytes = size_t{8} << 20;
  static constexpr size_t kMinPerBin = 8;
  static constexpr size_t kMaxPerBin = 4096;
  static constexpr int kNumBins = 48;
  static constexpr int kNumShards = 8;

  /// One lock domain, cache-line aligned so shards never share a line.
  struct alignas(64) Shard {
    std::mutex mu;
    std::vector<std::vector<float>> bins[kNumBins];
    /// bins[b].size(), written under `mu`: lets an acquire skip a shard
    /// with nothing to give without taking its lock.
    std::atomic<size_t> idle[kNumBins] = {};
    // Written under `mu`; atomic so stats() can read without it.
    std::atomic<int64_t> pool_hits{0};
    std::atomic<int64_t> released{0};
    std::atomic<int64_t> pooled_bytes{0};
  };

  bool enabled_;
  Shard shards_[kNumShards];
  std::atomic<int64_t> heap_allocs_{0};
  std::atomic<int64_t> dropped_{0};
};

/// The low-precision storage dtypes the memory accountant distinguishes.
/// fp32 tensor storage is already covered by FloatBufferPool stats; these
/// counters track the payload bytes of quantized/bf16 representations
/// (node-feature matrices, packed int8 weights, encoded embedding-cache
/// entries) so footprint wins are observable, not asserted.
enum class QuantDtype : int { kInt8 = 0, kBf16 = 1 };

/// Process-wide per-dtype bytes-resident registry. Quantized containers
/// register their payload size on construction and deregister on
/// destruction via ScopedQuantBytes; `resident()` is therefore the exact
/// number of live low-precision payload bytes at any instant. All
/// counters are relaxed atomics — cheap enough to leave always-on.
class QuantBytesRegistry {
 public:
  static QuantBytesRegistry& Global();

  void Add(QuantDtype d, int64_t bytes) {
    resident_[static_cast<int>(d)].fetch_add(bytes,
                                             std::memory_order_relaxed);
  }
  void Sub(QuantDtype d, int64_t bytes) {
    resident_[static_cast<int>(d)].fetch_sub(bytes,
                                             std::memory_order_relaxed);
  }

  /// Live payload bytes of the given dtype.
  int64_t resident(QuantDtype d) const {
    return resident_[static_cast<int>(d)].load(std::memory_order_relaxed);
  }

  /// Live payload bytes across all low-precision dtypes.
  int64_t total_resident() const {
    int64_t total = 0;
    for (const auto& c : resident_) {
      total += c.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  QuantBytesRegistry() = default;
  std::atomic<int64_t> resident_[2]{};
};

/// RAII byte registration: holds `bytes` against one dtype's resident
/// counter for its lifetime. Movable (transfer of ownership), not
/// copyable; `Reset` re-registers after a payload is (re)built.
class ScopedQuantBytes {
 public:
  ScopedQuantBytes() = default;
  ScopedQuantBytes(QuantDtype d, int64_t bytes) : dtype_(d), bytes_(bytes) {
    if (bytes_ > 0) QuantBytesRegistry::Global().Add(dtype_, bytes_);
  }
  ~ScopedQuantBytes() { Release(); }
  ScopedQuantBytes(ScopedQuantBytes&& o) noexcept
      : dtype_(o.dtype_), bytes_(o.bytes_) {
    o.bytes_ = 0;
  }
  ScopedQuantBytes& operator=(ScopedQuantBytes&& o) noexcept {
    if (this != &o) {
      Release();
      dtype_ = o.dtype_;
      bytes_ = o.bytes_;
      o.bytes_ = 0;
    }
    return *this;
  }
  ScopedQuantBytes(const ScopedQuantBytes&) = delete;
  ScopedQuantBytes& operator=(const ScopedQuantBytes&) = delete;

  void Reset(QuantDtype d, int64_t bytes) {
    Release();
    dtype_ = d;
    bytes_ = bytes;
    if (bytes_ > 0) QuantBytesRegistry::Global().Add(dtype_, bytes_);
  }

  int64_t bytes() const { return bytes_; }

 private:
  void Release() {
    if (bytes_ > 0) QuantBytesRegistry::Global().Sub(dtype_, bytes_);
    bytes_ = 0;
  }
  QuantDtype dtype_ = QuantDtype::kInt8;
  int64_t bytes_ = 0;
};

}  // namespace relgraph

#endif  // RELGRAPH_CORE_BUFFER_POOL_H_
