#ifndef PERFBENCH_BENCH_WORKLOADS_H_
#define PERFBENCH_BENCH_WORKLOADS_H_

// The three workloads of the benchmark (see perfbench/README.md):
//
//   serve_cold   uniform reads over a world larger than the caches, four
//                closed-loop callers through the CoalescingScheduler
//   serve_live   Zipf reads the caches absorb, three direct callers
//   train_query  the declarative path: the churn query under GNN and GBDT,
//                a direct Fit, then serving the fitted model
//
// Every workload serves beside an open-loop writer streaming `orders`
// appends. Each run reports every end-to-end metric (untraced) or every
// per-layer metric (traced); a layer a workload bypasses reads 0.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench/stats.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for checkpoints and the trace dump.
  std::string work_dir = ".";
  /// Test-sized worlds and phases, for the helper tests' in-process smoke
  /// runs; the command line does not expose it.
  bool tiny = false;
};

struct RunOutput {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  MetricMap metrics;
  /// Sample counts, tail levels and ratio bases behind the metrics.
  std::vector<std::pair<std::string, double>> detail;
};

/// (name, unit) of every metric, in report order.
using MetricSpecs = std::vector<std::pair<std::string, std::string>>;
const MetricSpecs& EndToEndMetrics();
const MetricSpecs& PerLayerMetrics();

const std::vector<std::string>& WorkloadNames();

/// Runs one workload. A failed output check leaves `correct` false and
/// counts as a failed operation; set-up errors do the same.
RunOutput RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_WORKLOADS_H_
