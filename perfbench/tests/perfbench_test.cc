// Tests of the benchmark's own helpers: the percentile rule, per-window
// summaries, failure counting, rate and freshness arithmetic, the result
// line, the shared Zipf hot set, and a tiny-size smoke run of every
// workload checked against
// BENCHMARK.json.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/stats.h"
#include "bench/workloads.h"
#include "bench/world.h"

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 0.5), 50);
  EXPECT_EQ(Percentile(v, 0.99), 99);
  EXPECT_EQ(Percentile(v, 1.0), 100);
  EXPECT_EQ(Percentile({7.0}, 0.5), 7.0);
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
}

TEST(PercentileTest, TailLeavesTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(TailLevel(1000), 0.99);
  EXPECT_DOUBLE_EQ(TailLevel(100000), 0.99);
  EXPECT_DOUBLE_EQ(TailLevel(250), 0.96);
  EXPECT_DOUBLE_EQ(TailLevel(100), 0.90);
  EXPECT_DOUBLE_EQ(TailLevel(1000, 0.90), 0.90);
  EXPECT_DOUBLE_EQ(TailLevel(20), 0.5);  // no tail is supported
  for (int64_t n : {21, 37, 100, 250, 999, 1000, 5000}) {
    std::vector<double> v(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) v[static_cast<size_t>(i)] = static_cast<double>(i);
    const LatencySummary s = Summarize(v);
    const int64_t beyond = n - 1 - static_cast<int64_t>(s.tail);
    EXPECT_GE(beyond, kMinBeyond) << n;
    EXPECT_EQ(s.n, n);
  }
}

TEST(PercentileTest, FailuresMissEveryLimit) {
  std::vector<double> v(100, 1.0);
  for (int i = 0; i < 5; ++i) v[static_cast<size_t>(i)] = kFailedLatency;
  EXPECT_EQ(Summarize(v).tail, 1.0);  // p90: five failures sit beyond it
  for (int i = 0; i < 11; ++i) v[static_cast<size_t>(i)] = kFailedLatency;
  EXPECT_TRUE(std::isinf(Summarize(v).tail));
  EXPECT_EQ(Summarize(v).p50, 1.0);
}

TEST(WindowTest, MedianOverWindowsIgnoresOneSpoiledWindow) {
  // Four 1 s windows, 100 ops of 16 rows and 1 ms each, except that the
  // third window suffers a stall: 20 ops of 9 ms.
  std::vector<double> done, lat, work;
  for (int w = 0; w < 4; ++w) {
    const int n = w == 2 ? 20 : 100;
    for (int i = 0; i < n; ++i) {
      done.push_back(w + (i + 0.5) / n);
      lat.push_back(w == 2 ? 9.0 : 1.0);
      work.push_back(16.0);
    }
  }
  const WindowSummary s = SummarizeWindows(done, lat, work, 4.0, 1.0);
  EXPECT_EQ(s.windows, 4);
  EXPECT_DOUBLE_EQ(s.rate, 1600.0);
  EXPECT_DOUBLE_EQ(s.p50, 1.0);
  EXPECT_DOUBLE_EQ(s.tail, 1.0);
  EXPECT_EQ(s.min_samples, 20);
  EXPECT_DOUBLE_EQ(s.tail_level, 0.5);  // 20 samples support no tail
  // Late finishers join the last window; a short phase is one window.
  const WindowSummary one = SummarizeWindows({0.2, 1.4}, {2.0, 4.0},
                                             {1.0, 1.0}, 1.0, 1.0);
  EXPECT_EQ(one.windows, 1);
  EXPECT_DOUBLE_EQ(one.rate, 2.0);
}

TEST(FailureCountTest, OkRate) {
  EXPECT_DOUBLE_EQ(OkRate(4000, 400), 0.9);
  EXPECT_EQ(OkRate(7, 0), 1.0);
  EXPECT_EQ(OkRate(3, 3), 0.0);
  EXPECT_EQ(OkRate(0, 0), 1.0);  // nothing attempted is not a failure
}

TEST(FailureCountTest, FailedRequestsCarryNoRowsAndMissTheTail) {
  // A window whose failures exceed the share beyond its tail reads as
  // failed in the tail, and its failed requests add no throughput.
  std::vector<double> done, lat, work;
  for (int i = 0; i < 100; ++i) {
    const bool failed = i % 5 == 0;
    done.push_back((i + 0.5) / 100);
    lat.push_back(failed ? kFailedLatency : 1.0);
    work.push_back(failed ? 0.0 : 16.0);
  }
  const WindowSummary s = SummarizeWindows(done, lat, work, 1.0, 1.0, 0.9);
  EXPECT_DOUBLE_EQ(s.rate, 80 * 16.0);
  EXPECT_EQ(s.p50, 1.0);
  EXPECT_TRUE(std::isinf(s.tail));
}

TEST(ArithmeticTest, RatesAndFreshness) {
  EXPECT_DOUBLE_EQ(Ratio(3, 4), 0.75);
  EXPECT_EQ(Ratio(3, 0), 0.0);
  // Open loop at 20/s: op k is due at start + k / 20.
  EXPECT_DOUBLE_EQ(DueSeconds(100.0, 0, 20.0), 100.0);
  EXPECT_DOUBLE_EQ(DueSeconds(100.0, 5, 20.0), 100.25);
  // Due at 10.0, started 10.004 (late 4 ms), servable at 10.013.
  EXPECT_NEAR(LatenessMs(10.0, 10.004), 4.0, 1e-9);
  EXPECT_NEAR(FreshnessMs(10.0, 10.013), 13.0, 1e-9);
  EXPECT_EQ(LatenessMs(10.0, 9.5), 0.0);  // early start is not late
}

TEST(ResultLineTest, ExactKeysAndAllDigits) {
  MetricMap m;
  m["latency_ms"] = Metric{1.2034567890123, "ms"};
  m["inf_ms"] = Metric{kFailedLatency, "ms"};
  const std::string line = ResultLine(true, 1000, 2, m);
  EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": 1000, \"failed\": 2, "
                       "\"metrics\": {",
                       0),
            0u);
  EXPECT_NE(line.find("\"latency_ms\": {\"value\": 1.2034567890123, "
                      "\"unit\": \"ms\"}"),
            std::string::npos);
  EXPECT_NE(line.find("\"inf_ms\": {\"value\": 1e+18"), std::string::npos);
  EXPECT_EQ(line.back(), '}');
}

TEST(IdStreamTest, ZipfStreamsShareTheRankingsHotSet) {
  // Readers, priming, the writer and the probes draw with different seeds
  // but must agree on which ids are hot.
  std::vector<int64_t> ranking(1000);
  std::iota(ranking.begin(), ranking.end(), int64_t{0});
  Rng(9).Shuffle(&ranking);
  for (uint64_t seed : {1u, 2u, 77u}) {
    IdStream ids(IdStream::Kind::kZipf, ranking, seed);
    std::map<int64_t, int> counts;
    for (int i = 0; i < 5000; ++i) ++counts[ids.Next()];
    const auto hottest = std::max_element(
        counts.begin(), counts.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    EXPECT_EQ(hottest->first, ranking[0]) << seed;
  }
  const std::vector<int64_t> a =
      DistinctIds(IdStream::Kind::kZipf, ranking, 3, 50);
  const std::vector<int64_t> b =
      DistinctIds(IdStream::Kind::kZipf, ranking, 4, 50);
  const std::set<int64_t> hot_a(a.begin(), a.end());
  int shared = 0;
  for (int64_t id : b) shared += static_cast<int>(hot_a.count(id));
  // Two unrelated hot sets of 50 out of 1,000 would share ~2.5 ids.
  EXPECT_GT(shared, 10);
}

/// Metric names listed under `section` in BENCHMARK.json.
std::set<std::string> BenchmarkJsonNames(const std::string& section) {
  std::ifstream in(std::string(PERFBENCH_SOURCE_DIR) + "/../BENCHMARK.json");
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::set<std::string> names;
  size_t pos = text.find("\"" + section + "\"");
  if (pos == std::string::npos) return names;
  const size_t end = text.find(']', pos);
  const std::string key = "\"name\": \"";
  for (pos = text.find(key, pos); pos < end; pos = text.find(key, pos)) {
    pos += key.size();
    names.insert(text.substr(pos, text.find('"', pos) - pos));
  }
  return names;
}

std::set<std::string> Names(const MetricSpecs& specs) {
  std::set<std::string> names;
  for (const auto& [name, unit] : specs) names.insert(name);
  return names;
}

TEST(BenchmarkJsonTest, MetricTablesMatchIt) {
  EXPECT_EQ(Names(EndToEndMetrics()), BenchmarkJsonNames("end_to_end"));
  EXPECT_EQ(Names(PerLayerMetrics()), BenchmarkJsonNames("per_layer"));
  std::set<std::string> workloads(WorkloadNames().begin(), WorkloadNames().end());
  EXPECT_EQ(workloads, BenchmarkJsonNames("workloads"));
}

class SmokeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SmokeTest, TinyRunPassesChecksAndReportsEveryMetric) {
  for (bool trace : {false, true}) {
    RunOptions o;
    o.workload = GetParam();
    o.seed = 5;
    o.seconds = 1.0;
    o.trace = trace;
    o.tiny = true;
    o.work_dir = ::testing::TempDir();
    const RunOutput out = RunWorkload(o);
    EXPECT_TRUE(out.correct) << o.workload << " trace=" << trace;
    EXPECT_GE(out.attempted, 1);
    EXPECT_EQ(out.failed, 0);
    std::set<std::string> got;
    for (const auto& [name, m] : out.metrics) {
      got.insert(name);
      EXPECT_TRUE(std::isfinite(m.value)) << name;
      if (!trace) {
        EXPECT_GT(m.value, 0.0) << name;
      }
    }
    EXPECT_EQ(got, Names(trace ? PerLayerMetrics() : EndToEndMetrics()));
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, SmokeTest,
                         ::testing::Values("serve_cold", "serve_live",
                                           "train_query"));

}  // namespace
}  // namespace perfbench
