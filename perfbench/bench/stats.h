#ifndef PERFBENCH_BENCH_STATS_H_
#define PERFBENCH_BENCH_STATS_H_

// Arithmetic shared by every workload: percentiles under the "at least ten
// samples beyond" rule, failure counting, rates, freshness, and the result
// line the benchmark prints. Header-only so the helper tests link nothing
// else.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Samples that must lie beyond a reported tail percentile.
inline constexpr int64_t kMinBeyond = 10;

/// Latency recorded for a failed or refused operation: it misses every
/// latency limit, so it sorts above any real sample.
inline constexpr double kFailedLatency = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile of `samples` at level q in (0, 1]. Sorts a copy.
/// Empty input gives 0.
inline double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  int64_t rank = static_cast<int64_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<int64_t>(rank, 1, static_cast<int64_t>(samples.size()));
  return samples[static_cast<size_t>(rank - 1)];
}

/// The highest whole-percent level, at most `max_q`, that leaves at least
/// kMinBeyond of `n` samples above its nearest-rank position. With too few
/// samples for any tail the median level 0.5 is returned.
inline double TailLevel(int64_t n, double max_q = 0.99) {
  if (n <= 2 * kMinBeyond) return 0.5;
  const double q = std::floor(100.0 * static_cast<double>(n - kMinBeyond) /
                              static_cast<double>(n)) /
                   100.0;
  return std::min(q, max_q);
}

/// Median plus the tail percentile the sample supports.
struct LatencySummary {
  int64_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_level = 0.5;
};

inline LatencySummary Summarize(const std::vector<double>& samples,
                                double max_q = 0.99) {
  LatencySummary s;
  s.n = static_cast<int64_t>(samples.size());
  s.p50 = Percentile(samples, 0.5);
  s.tail_level = TailLevel(s.n, max_q);
  s.tail = Percentile(samples, s.tail_level);
  return s;
}

/// Throughput and latency of a closed-loop phase, taken per fixed time
/// window and reported as the median over windows: a burst of outside
/// interference (a neighbour stealing the CPU) that spoils one window
/// moves none of the figures.
struct WindowSummary {
  int64_t windows = 0;
  double rate = 0.0;        ///< median over windows of work per second
  double p50 = 0.0;         ///< median over windows of the window median
  double tail = 0.0;        ///< median over windows of the window tail
  double tail_level = 0.5;  ///< tail level of the smallest window
  int64_t min_samples = 0;  ///< samples in the smallest window
};

/// Buckets each operation by its completion time `done_s` (seconds from
/// the phase start) into floor(duration_s / window_s) equal windows (at
/// least one; late finishers join the last) and summarizes each window's
/// `work` per second and `latency_ms`.
inline WindowSummary SummarizeWindows(const std::vector<double>& done_s,
                                      const std::vector<double>& latency_ms,
                                      const std::vector<double>& work,
                                      double duration_s, double window_s,
                                      double max_q = 0.99) {
  WindowSummary out;
  out.windows = std::max<int64_t>(
      1, static_cast<int64_t>(std::floor(duration_s / window_s)));
  const double len = duration_s / static_cast<double>(out.windows);
  std::vector<std::vector<double>> lat(static_cast<size_t>(out.windows));
  std::vector<double> done_work(static_cast<size_t>(out.windows), 0.0);
  for (size_t i = 0; i < done_s.size(); ++i) {
    const int64_t w = std::clamp<int64_t>(
        static_cast<int64_t>(std::floor(done_s[i] / len)), 0, out.windows - 1);
    lat[static_cast<size_t>(w)].push_back(latency_ms[i]);
    done_work[static_cast<size_t>(w)] += work[i];
  }
  out.min_samples = static_cast<int64_t>(done_s.size());
  for (const std::vector<double>& l : lat) {
    out.min_samples = std::min(out.min_samples, static_cast<int64_t>(l.size()));
  }
  // One level for every window: the one the smallest window supports.
  out.tail_level = TailLevel(out.min_samples, max_q);
  std::vector<double> rates, p50s, tails;
  for (int64_t w = 0; w < out.windows; ++w) {
    const std::vector<double>& l = lat[static_cast<size_t>(w)];
    rates.push_back(done_work[static_cast<size_t>(w)] / len);
    p50s.push_back(Percentile(l, 0.5));
    tails.push_back(Percentile(l, out.tail_level));
  }
  out.rate = Percentile(rates, 0.5);
  out.p50 = Percentile(p50s, 0.5);
  out.tail = Percentile(tails, 0.5);
  return out;
}

/// Share of attempted operations that succeeded; 1 when none were
/// attempted, so an idle phase never reads as broken. Failed requests,
/// appends, queries and output checks all count as failed operations.
inline double OkRate(int64_t attempted, int64_t failed) {
  return attempted <= 0 ? 1.0
                        : static_cast<double>(attempted - failed) /
                              static_cast<double>(attempted);
}

/// Freshness of one append: from when it was due to when it became
/// servable. A writer running late adds its lateness.
inline double FreshnessMs(double due_s, double servable_s) {
  return (servable_s - due_s) * 1e3;
}

/// How late an open-loop generator started an operation (never negative).
inline double LatenessMs(double due_s, double started_s) {
  return std::max(0.0, (started_s - due_s) * 1e3);
}

/// Due time of the k-th operation of an open loop at `rate_per_s`.
inline double DueSeconds(double start_s, int64_t k, double rate_per_s) {
  return start_s + static_cast<double>(k) / rate_per_s;
}

/// Division that reads 0 on an empty base (bypassed layers).
inline double Ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// One reported metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};

using MetricMap = std::map<std::string, Metric>;

/// JSON number with all its digits; non-finite values (a failed operation
/// in a percentile) become a large finite sentinel JSON can carry.
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 1e18;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// The result line: exactly correct / attempted / failed / metrics.
inline std::string ResultLine(bool correct, int64_t attempted, int64_t failed,
                              const MetricMap& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) json += ", ";
    first = false;
    json += JsonString(name) + ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return json + "}}";
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_STATS_H_
