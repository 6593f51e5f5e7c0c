#ifndef RELGRAPH_SERVE_SNAPSHOT_SHARDS_H_
#define RELGRAPH_SERVE_SNAPSHOT_SHARDS_H_

// Entity-hash sharding of serving cache state.
//
// The inference engine publishes its snapshot (graph + sampler + cutoff)
// epoch-style through one atomic shared_ptr; the caches below extend the
// same idea to the mutable cache state. Each cache is split into
// power-of-two shards selected by a mix of the entity id; every shard
// slot is an EpochPtr to an ordinary LruCache. Readers load the slot
// once and operate on that instance; an epoch swap publishes a fresh
// empty shard into the slot, and the retired shard drains naturally when
// the last in-flight reader drops its reference — no world-stopping write
// lock, no reader ever observes a half-cleared cache.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/logging.h"
#include "serve/lru_cache.h"

namespace relgraph {

/// A published pointer slot for epoch-style state swaps.
///
/// Readers copy the shared_ptr under a mutex whose critical section is a
/// single refcount bump — they never hold it while using the pointee —
/// and writers swap the pointer the same way, so a publication is one
/// pointer exchange and the retired instance drains by refcount.
/// `std::atomic<std::shared_ptr>` expresses this directly, but
/// libstdc++'s lock-bit implementation (`_Sp_atomic`) is opaque to
/// ThreadSanitizer — every load/exchange pair reports as a race on the
/// embedded pointer — and a clean TSan lane is worth more than shaving
/// an uncontended micro-mutex.
template <typename T>
class EpochPtr {
 public:
  EpochPtr() = default;
  explicit EpochPtr(std::shared_ptr<T> ptr) : ptr_(std::move(ptr)) {}

  std::shared_ptr<T> load() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ptr_;
  }

  void store(std::shared_ptr<T> ptr) {
    // The retired pointer is released outside the lock: dropping the last
    // reference destroys the old world, which must never run under the
    // slot mutex.
    std::shared_ptr<T> retired;
    {
      std::lock_guard<std::mutex> lock(mu_);
      retired = std::move(ptr_);
      ptr_ = std::move(ptr);
    }
  }

  /// Publishes `ptr` and returns the retired instance.
  std::shared_ptr<T> exchange(std::shared_ptr<T> ptr) {
    std::lock_guard<std::mutex> lock(mu_);
    ptr_.swap(ptr);
    return ptr;
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<T> ptr_;
};

/// Smallest power of two >= v (v in [1, 2^31]).
inline uint32_t RoundUpPow2(uint32_t v) {
  if (v <= 1) return 1;
  --v;
  v |= v >> 1;
  v |= v >> 2;
  v |= v >> 4;
  v |= v >> 8;
  v |= v >> 16;
  return v + 1;
}

/// Shard index of one entity id: a full-avalanche mix (so consecutive ids
/// spread across shards) masked to the power-of-two shard count. Pure —
/// the same id maps to the same shard on every call, which is what lets
/// the engine probe and fill without coordination.
inline uint32_t EntityShard(int64_t node, uint32_t num_shards) {
  uint64_t h = static_cast<uint64_t>(node);
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 33;
  return static_cast<uint32_t>(h) & (num_shards - 1);
}

/// An LruCache split into independently locked, independently swappable
/// shards.
///
/// Get/Put take the shard index (callers derive it from the entity id via
/// EntityShard) so one request touches exactly one shard mutex; versions
/// and dependencies pass through to the shard (see LruCache). Invalidate
/// applies a graph delta shard by shard, each under its own mutex, so
/// readers of other shards never wait on it. EpochSwap retires every
/// shard by publishing fresh empty ones; concurrent readers holding the
/// old shard finish against it and drop it — their late Puts land in a
/// cache nobody will ever read again. Hit/miss/eviction tallies survive
/// swaps: retired shards' counts fold into running totals.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class ShardedLruCache {
 public:
  using Shard = LruCache<Key, Value, Hash>;

  /// `capacity` is the total entry budget, divided evenly across
  /// `num_shards` (rounded up to a power of two; each shard holds at
  /// least one entry).
  ShardedLruCache(int64_t capacity, uint32_t num_shards)
      : num_shards_(RoundUpPow2(num_shards)),
        per_shard_capacity_(
            std::max<int64_t>(1, (capacity + num_shards_ - 1) /
                                     static_cast<int64_t>(num_shards_))),
        slots_(num_shards_) {
    RELGRAPH_CHECK(capacity > 0);
    for (auto& slot : slots_) {
      slot.store(std::make_shared<Shard>(per_shard_capacity_, 0));
    }
  }

  bool Get(uint32_t shard, const Key& key, Value* out, int64_t version) {
    return Pin(shard)->Get(key, out, version);
  }

  void Put(uint32_t shard, const Key& key, Value value, int64_t version,
           const std::vector<uint64_t>& deps) {
    Pin(shard)->Put(key, std::move(value), version, deps);
  }

  /// Invalidates, shard by shard, every entry that read a node in
  /// `touched`, and advances every shard to `version`. Returns the number
  /// of entries invalidated.
  int64_t Invalidate(const std::vector<uint64_t>& touched, int64_t version) {
    int64_t invalidated = 0;
    for (auto& slot : slots_) {
      invalidated += slot.load()->Invalidate(touched, version);
    }
    return invalidated;
  }

  /// Retires every shard: publishes fresh empty shards at `version` slot
  /// by slot and folds the retired shards' tallies into the running
  /// totals. Safe against concurrent readers (they drain on their pinned
  /// instances).
  void EpochSwap(int64_t version) {
    for (auto& slot : slots_) {
      auto fresh = std::make_shared<Shard>(per_shard_capacity_, version);
      std::shared_ptr<Shard> old = slot.exchange(std::move(fresh));
      retired_hits_.fetch_add(old->hits(), std::memory_order_relaxed);
      retired_misses_.fetch_add(old->misses(), std::memory_order_relaxed);
      retired_evictions_.fetch_add(old->evictions(),
                                   std::memory_order_relaxed);
    }
    swaps_.fetch_add(1, std::memory_order_relaxed);
  }

  uint32_t num_shards() const { return num_shards_; }
  int64_t capacity() const {
    return per_shard_capacity_ * static_cast<int64_t>(num_shards_);
  }
  int64_t swaps() const { return swaps_.load(std::memory_order_relaxed); }

  /// Live entries across current shards (retired shards excluded).
  int64_t size() const {
    int64_t total = 0;
    for (const auto& slot : slots_) {
      total += slot.load()->size();
    }
    return total;
  }

  int64_t hits() const { return Tally(&Shard::hits, retired_hits_); }
  int64_t misses() const { return Tally(&Shard::misses, retired_misses_); }
  int64_t evictions() const {
    return Tally(&Shard::evictions, retired_evictions_);
  }

 private:
  std::shared_ptr<Shard> Pin(uint32_t shard) const {
    RELGRAPH_CHECK(shard < num_shards_);
    return slots_[shard].load();
  }

  int64_t Tally(int64_t (Shard::*counter)() const,
                const std::atomic<int64_t>& retired) const {
    int64_t total = retired.load(std::memory_order_relaxed);
    for (const auto& slot : slots_) {
      total += (slot.load().get()->*counter)();
    }
    return total;
  }

  const uint32_t num_shards_;
  const int64_t per_shard_capacity_;
  std::vector<EpochPtr<Shard>> slots_;
  std::atomic<int64_t> retired_hits_{0};
  std::atomic<int64_t> retired_misses_{0};
  std::atomic<int64_t> retired_evictions_{0};
  std::atomic<int64_t> swaps_{0};
};

}  // namespace relgraph

#endif  // RELGRAPH_SERVE_SNAPSHOT_SHARDS_H_
