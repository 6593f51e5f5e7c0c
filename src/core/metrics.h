#ifndef RELGRAPH_CORE_METRICS_H_
#define RELGRAPH_CORE_METRICS_H_

// Process-wide metrics registry: named monotonic counters, gauges, and
// fixed-bucket histograms.
//
// Design contract:
//  - thread-safe: values update with relaxed atomics, so concurrent
//    increments from the shared thread pool are exact (sums equal the
//    serial run); the registry mutex is taken only on first registration
//    and on dump;
//  - deterministic to read: dumps are name-sorted, numbers are formatted
//    with a fixed round-trippable format, and identical update sequences
//    produce byte-identical dumps;
//  - zero cost when off: compiling with -DRELGRAPH_NO_METRICS turns the
//    macros into nothing; otherwise the `RELGRAPH_METRICS` environment
//    variable (default on; "0"/"false"/"off" disables) gates every site
//    behind one relaxed atomic load, with no allocation and no registry
//    access while disabled.
//
// Instrumentation never draws from any Rng and never branches on data
// values, so enabling metrics cannot perturb bit-exact determinism of
// training, sampling, or kernels.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"

namespace relgraph {

/// Monotonically increasing event count. Add() is a relaxed atomic add, so
/// concurrent updates from any number of pool workers total exactly.
class Counter {
 public:
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void ResetForTesting() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-written instantaneous value (queue depths, sizes, rates).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void ResetForTesting() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: bucket upper bounds are set at registration and
/// never change; an implicit +inf bucket catches the overflow. Counts are
/// relaxed atomics; the sum accumulates via CAS (exact for integer-valued
/// observations, which is what the latency-in-us call sites record).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);
  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Count in bucket i (0..bounds.size(); the last is the +inf bucket).
  int64_t bucket_count(size_t i) const;
  const std::vector<double>& bounds() const { return bounds_; }
  void ResetForTesting();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<int64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Standard latency buckets in milliseconds for the batch/query histograms.
const std::vector<double>& LatencyBucketsMs();

/// Sub-millisecond-resolution latency buckets for online-serving
/// histograms, where a warm-cache request completes in microseconds and
/// the standard buckets would collapse everything into the first bin.
const std::vector<double>& FineLatencyBucketsMs();

/// Power-of-two row-count buckets for batch-size histograms (e.g. rows per
/// coalesced serving micro-batch).
const std::vector<double>& BatchRowBuckets();

/// The process-wide registry. Metric objects are created on first lookup
/// and live for the process lifetime, so call sites may cache the returned
/// pointers (ResetForTesting zeroes values but never invalidates
/// pointers).
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  /// `bounds` must be ascending; a histogram fetched again keeps the
  /// bounds it was first registered with.
  Histogram* GetHistogram(std::string_view name, std::vector<double> bounds);

  /// Name-sorted snapshot, one metric per line. `prefix` (optional)
  /// restricts the dump to metrics whose name starts with it.
  std::string DumpText(std::string_view prefix = {}) const;

  /// Name-sorted JSON snapshot:
  ///   {"counters": {...}, "gauges": {...},
  ///    "histograms": {name: {"count": c, "sum": s,
  ///                          "buckets": [{"le": b, "count": c}, ...]}}}
  /// The final bucket's "le" is the string "inf".
  std::string DumpJson(std::string_view prefix = {}) const;

  /// Zeroes every registered metric (pointers stay valid). Test-only.
  void ResetForTesting();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Runtime switch. Initialized once from the RELGRAPH_METRICS environment
/// variable (unset/1/true/on = enabled); SetMetricsEnabled overrides.
bool MetricsEnabled();
void SetMetricsEnabled(bool enabled);

/// Convenience dumps of the global registry.
std::string DumpMetricsText(std::string_view prefix = {});
std::string DumpMetricsJson(std::string_view prefix = {});

/// Atomically writes DumpMetricsJson() to `path` (crash-safe, like every
/// other durable artifact).
Status WriteMetricsJson(const std::string& path,
                        std::string_view prefix = {});

}  // namespace relgraph

// Counter site macro: one relaxed load when disabled, one cached-pointer
// atomic add when enabled. `name` must be a string literal (the cached
// static makes a dynamic name stick to its first value). `n` is evaluated
// exactly once, before the switch is read, in every build: an argument
// with a side effect runs the same whether metrics are on, off, or
// compiled out.
#ifdef RELGRAPH_NO_METRICS
#define RELGRAPH_COUNTER_ADD(name, n) \
  do {                                \
    (void)(n);                        \
  } while (0)
#else
#define RELGRAPH_COUNTER_ADD(name, n)                            \
  do {                                                           \
    const int64_t relgraph_counter_n_ = static_cast<int64_t>(n); \
    if (::relgraph::MetricsEnabled()) {                          \
      static ::relgraph::Counter* relgraph_counter_ =            \
          ::relgraph::MetricsRegistry::Global().GetCounter(      \
              name);                                             \
      relgraph_counter_->Add(relgraph_counter_n_);               \
    }                                                            \
  } while (0)
#endif

#define RELGRAPH_COUNTER_INC(name) RELGRAPH_COUNTER_ADD(name, 1)

#endif  // RELGRAPH_CORE_METRICS_H_
