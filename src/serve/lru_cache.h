#ifndef RELGRAPH_SERVE_LRU_CACHE_H_
#define RELGRAPH_SERVE_LRU_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/logging.h"

namespace relgraph {

/// Thread-safe LRU cache with a fixed entry capacity, snapshot-versioned
/// entries and a reverse dependency index.
///
/// All operations take one mutex, so the cache is safe to share across
/// concurrently scoring threads; hit/miss tallies are exact. Values are
/// returned by copy — store a shared_ptr for large payloads (the serving
/// subgraph cache does) so a Get never copies the payload and an entry
/// evicted while a reader still uses it stays alive until the reader
/// drops it.
///
/// Versions and dependencies (the serving engine's delta invalidation):
/// the cache has applied every graph delta up to its current version V.
/// Each entry records the snapshot version it was computed on (`born`)
/// and the graph nodes it read (`deps`, opaque ids); the cache indexes
/// node -> dependent entries. Invalidate(touched, v) invalidates exactly
/// the entries that read a touched node and advances V to v, so every
/// entry still valid was valid at each version from its birth to V. A Get
/// at snapshot v therefore hits only a valid entry born at or before v,
/// and only when v <= V; a Put is kept only when its entry was computed at
/// V itself — an entry from an older snapshot may have read a node a delta
/// the cache already applied has changed, and none of its dependencies
/// were indexed when that delta arrived.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache {
 public:
  /// Birth version of an invalidated entry: newer than any snapshot, so
  /// no Get matches it.
  static constexpr int64_t kInvalidated = INT64_MAX;

  LruCache(int64_t capacity, int64_t version)
      : capacity_(capacity), version_(version) {
    RELGRAPH_CHECK(capacity > 0);
  }

  /// Copies the value cached under `key` into `*out` when the entry is
  /// valid at snapshot `version` (see the class comment), and marks it
  /// most recently used. Returns false (and leaves `*out` alone) on a
  /// miss.
  bool Get(const Key& key, Value* out, int64_t version) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end() || it->second->born > version ||
        version > version_) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    order_.splice(order_.begin(), order_, it->second);
    *out = it->second->value;
    hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Inserts or replaces the entry for `key`, computed at snapshot
  /// `version` from the distinct graph nodes `deps`, evicting the least
  /// recently used entry when at capacity. Dropped when `version` is not
  /// the cache's current version.
  void Put(const Key& key, Value value, int64_t version,
           const std::vector<uint64_t>& deps) {
    std::vector<DepLink> links(deps.size());
    for (size_t i = 0; i < deps.size(); ++i) links[i].node = deps[i];
    std::lock_guard<std::mutex> lock(mu_);
    if (version != version_) return;
    Erase(key);
    if (static_cast<int64_t>(order_.size()) >= capacity_) {
      Erase(order_.back().key);
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    order_.push_front(Entry{key, std::move(value), version, std::move(links)});
    Entry& entry = order_.front();
    for (DepLink& link : entry.deps) {
      link.entry = &entry;
      DepLink*& head = dependents_.FindOrInsert(link.node);
      link.next = head;
      if (head != nullptr) head->prev = &link;
      head = &link;
    }
    index_[key] = order_.begin();
  }

  /// Invalidates every entry that read a node in `touched` and advances
  /// the cache to `version`. Returns the number of entries invalidated.
  /// An invalidated entry only stops matching: it keeps its slot until
  /// the next Put of its key replaces it or LRU order evicts it, so a
  /// delta costs O(touched × dependents) pointer steps and frees nothing
  /// under the shard mutex.
  int64_t Invalidate(const std::vector<uint64_t>& touched, int64_t version) {
    std::lock_guard<std::mutex> lock(mu_);
    int64_t invalidated = 0;
    for (uint64_t node : touched) {
      for (DepLink* link = dependents_.Head(node); link != nullptr;
           link = link->next) {
        if (link->entry->born == kInvalidated) continue;
        link->entry->born = kInvalidated;
        ++invalidated;
      }
    }
    version_ = version;
    return invalidated;
  }

  /// Drops every entry (hit/miss tallies are preserved).
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    order_.clear();
    index_.clear();
    dependents_ = HeadTable();
  }

  /// Entries held, invalidated ones included.
  int64_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int64_t>(order_.size());
  }

  int64_t capacity() const { return capacity_; }
  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  int64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry;

  /// One (graph node, entry) record of the dependency index: a link in
  /// the node's intrusive list of dependent entries, owned by the entry.
  struct DepLink {
    uint64_t node = 0;
    Entry* entry = nullptr;
    DepLink* prev = nullptr;
    DepLink* next = nullptr;
  };

  struct Entry {
    Key key;
    Value value;
    int64_t born;
    std::vector<DepLink> deps;  ///< never resized once linked
  };

  /// Dependency id -> head of its list of dependent entries: open
  /// addressing with linear probing, at most half full, and backward-shift
  /// deletion, so an entry's ~15 inserts and erases cost no allocation and
  /// about one cache miss each. A slot is empty iff its head is null (a
  /// listed node always has a dependent).
  class HeadTable {
   public:
    /// The node's list head, or nullptr.
    DepLink* Head(uint64_t node) const {
      if (slots_.empty()) return nullptr;
      for (size_t i = Home(node);; i = (i + 1) & Mask()) {
        if (slots_[i].head == nullptr) return nullptr;
        if (slots_[i].node == node) return slots_[i].head;
      }
    }

    /// The node's head slot, inserted (null) when absent; valid until the
    /// next insert.
    DepLink*& FindOrInsert(uint64_t node) {
      if (2 * (used_ + 1) > slots_.size()) Grow();
      size_t i = Home(node);
      for (; slots_[i].head != nullptr; i = (i + 1) & Mask()) {
        if (slots_[i].node == node) return slots_[i].head;
      }
      ++used_;
      slots_[i].node = node;
      return slots_[i].head;
    }

    /// Removes the node's slot (it must be present).
    void Erase(uint64_t node) {
      size_t i = Home(node);
      while (slots_[i].node != node || slots_[i].head == nullptr) {
        i = (i + 1) & Mask();
      }
      // Shift later members of the probe run back over the hole, unless
      // their home lies cyclically within (hole, j].
      for (size_t j = (i + 1) & Mask(); slots_[j].head != nullptr;
           j = (j + 1) & Mask()) {
        const size_t home = Home(slots_[j].node);
        if (((j - home) & Mask()) >= ((j - i) & Mask())) {
          slots_[i] = slots_[j];
          i = j;
        }
      }
      slots_[i] = Slot{};
      --used_;
    }

   private:
    struct Slot {
      uint64_t node = 0;
      DepLink* head = nullptr;
    };

    size_t Mask() const { return slots_.size() - 1; }
    size_t Home(uint64_t node) const {
      node ^= node >> 33;
      node *= 0xFF51AFD7ED558CCDULL;
      node ^= node >> 33;
      return static_cast<size_t>(node) & Mask();
    }
    void Grow() {
      std::vector<Slot> old = std::move(slots_);
      slots_.assign(old.empty() ? 64 : 2 * old.size(), Slot{});
      for (const Slot& slot : old) {
        if (slot.head == nullptr) continue;
        size_t i = Home(slot.node);
        while (slots_[i].head != nullptr) i = (i + 1) & Mask();
        slots_[i] = slot;
      }
    }

    std::vector<Slot> slots_;  // size 0 or a power of two
    size_t used_ = 0;
  };

  /// Removes `key`'s entry (if any) and unlinks its dependency records in
  /// O(dependencies). Caller holds mu_.
  void Erase(const Key& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return;
    for (DepLink& link : it->second->deps) {
      if (link.next != nullptr) link.next->prev = link.prev;
      if (link.prev != nullptr) {
        link.prev->next = link.next;
      } else if (link.next != nullptr) {
        dependents_.FindOrInsert(link.node) = link.next;
      } else {
        dependents_.Erase(link.node);
      }
    }
    order_.erase(it->second);
    index_.erase(it);
  }

  const int64_t capacity_;
  mutable std::mutex mu_;
  int64_t version_;
  std::list<Entry> order_;  // front = most recently used
  std::unordered_map<Key, typename std::list<Entry>::iterator, Hash> index_;
  HeadTable dependents_;
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> evictions_{0};
};

}  // namespace relgraph

#endif  // RELGRAPH_SERVE_LRU_CACHE_H_
