// Observability layer: metrics registry, trace spans, exporters, the log
// counter hook, and golden-file regression tests for every byte-stable
// dump.
//
// Golden files live in tests/golden/ (path baked in via
// RELGRAPH_GOLDEN_DIR). To regenerate after an intentional format change:
//   RELGRAPH_REGEN_GOLDENS=1 ctest -R observability
// or scripts/regen_goldens.sh, then review the diff.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "core/atomic_io.h"
#include "core/logging.h"
#include "core/metrics.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/trace.h"
#include "graph/hetero_graph.h"
#include "train/trainer.h"

namespace relgraph {
namespace {

// Pins the log level before the lazy env lookup runs, making the
// level-and-counter tests below deterministic no matter how the binary is
// invoked (ctest runs each test in a fresh process; this covers manual
// full-binary runs too).
const bool g_env_pinned = [] {
  setenv("RELGRAPH_LOG_LEVEL", "warning", 1);
  return true;
}();

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Compares `got` against the golden file, or rewrites the golden when
/// RELGRAPH_REGEN_GOLDENS is set.
void ExpectMatchesGolden(const std::string& got, const std::string& file) {
  const std::string path = std::string(RELGRAPH_GOLDEN_DIR) + "/" + file;
  if (std::getenv("RELGRAPH_REGEN_GOLDENS") != nullptr) {
    ASSERT_TRUE(AtomicWriteFile(path, got).ok()) << path;
    GTEST_SKIP() << "regenerated " << path;
  }
  ASSERT_TRUE(FileExists(path))
      << path << " missing; run scripts/regen_goldens.sh";
  EXPECT_EQ(got, ReadAll(path)) << "golden mismatch for " << file
                                << "; if intentional, run "
                                   "scripts/regen_goldens.sh and review";
}

// ----------------------------------------------------------- counters

TEST(MetricsTest, CounterConcurrentUpdatesAreExact) {
  Counter* c = MetricsRegistry::Global().GetCounter("test_concurrent_total");
  c->ResetForTesting();
  ThreadPool::SetNumThreadsForTesting(4);
  constexpr int64_t kN = 200000;
  ParallelFor(0, kN, 128, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) c->Add(1);
  });
  EXPECT_EQ(c->value(), kN);
  ParallelFor(0, kN, 64, [&](int64_t lo, int64_t hi) {
    c->Add(hi - lo);
  });
  EXPECT_EQ(c->value(), 2 * kN);
}

TEST(MetricsTest, CounterMacroRegistersAndCounts) {
  SetMetricsEnabled(true);
  Counter* c = MetricsRegistry::Global().GetCounter("test_macro_total");
  c->ResetForTesting();
  for (int i = 0; i < 5; ++i) RELGRAPH_COUNTER_INC("test_macro_total");
  RELGRAPH_COUNTER_ADD("test_macro_total", 10);
  EXPECT_EQ(c->value(), 15);
}

TEST(MetricsTest, CounterMacroArgumentRunsOnceWithMetricsOnAndOff) {
  // The argument is evaluated exactly once whatever the switch says, so a
  // call with a side effect inside the macro behaves the same in
  // instrumented and uninstrumented processes.
  SetMetricsEnabled(true);
  Counter* c = MetricsRegistry::Global().GetCounter("test_side_effect_total");
  c->ResetForTesting();
  int calls = 0;
  auto bump = [&calls] { return ++calls; };
  RELGRAPH_COUNTER_ADD("test_side_effect_total", bump());
  EXPECT_EQ(calls, 1);
  SetMetricsEnabled(false);
  RELGRAPH_COUNTER_ADD("test_side_effect_total", bump());
  SetMetricsEnabled(true);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(c->value(), 1);  // only the enabled call counted
}

TEST(MetricsTest, DisabledSwitchSuppressesMacroAndSpans) {
  SetMetricsEnabled(true);
  Counter* c = MetricsRegistry::Global().GetCounter("test_disabled_total");
  c->ResetForTesting();
  SetMetricsEnabled(false);
  RELGRAPH_COUNTER_INC("test_disabled_total");
  const size_t spans_before = TraceCollector::Global().size();
  { RELGRAPH_TRACE_SPAN("test/disabled"); }
  SetMetricsEnabled(true);
  EXPECT_EQ(c->value(), 0);
  EXPECT_EQ(TraceCollector::Global().size(), spans_before);
}

TEST(MetricsTest, GaugeHoldsLastWrite) {
  Gauge* g = MetricsRegistry::Global().GetGauge("test_depth");
  g->Set(3.5);
  g->Set(-1.25);
  EXPECT_DOUBLE_EQ(g->value(), -1.25);
}

// ---------------------------------------------------------- histograms

TEST(MetricsTest, HistogramConcurrentObservationsAreExact) {
  Histogram* h = MetricsRegistry::Global().GetHistogram(
      "test_hist_ms", {1.0, 2.0, 5.0, 10.0});
  h->ResetForTesting();
  ThreadPool::SetNumThreadsForTesting(4);
  constexpr int64_t kN = 50000;
  // Integer-valued observations: the CAS-accumulated sum is exact, so the
  // parallel total must equal the closed form.
  ParallelFor(0, kN, 97, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      h->Observe(static_cast<double>(i % 12));
    }
  });
  EXPECT_EQ(h->count(), kN);
  double want_sum = 0;
  int64_t want_buckets[5] = {0, 0, 0, 0, 0};
  for (int64_t i = 0; i < kN; ++i) {
    const double v = static_cast<double>(i % 12);
    want_sum += v;
    const int b = v <= 1 ? 0 : v <= 2 ? 1 : v <= 5 ? 2 : v <= 10 ? 3 : 4;
    ++want_buckets[b];
  }
  EXPECT_DOUBLE_EQ(h->sum(), want_sum);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(h->bucket_count(i), want_buckets[i]) << "bucket " << i;
  }
}

TEST(MetricsTest, HistogramBoundsAreInclusiveUpperEdges) {
  Histogram* h =
      MetricsRegistry::Global().GetHistogram("test_edges", {1.0, 2.0});
  h->ResetForTesting();
  h->Observe(1.0);   // le 1
  h->Observe(1.5);   // le 2
  h->Observe(2.0);   // le 2
  h->Observe(99.0);  // inf
  EXPECT_EQ(h->bucket_count(0), 1);
  EXPECT_EQ(h->bucket_count(1), 2);
  EXPECT_EQ(h->bucket_count(2), 1);
}

// -------------------------------------------------------------- spans

TEST(TraceTest, SpansNestViaThreadLocalParent) {
  SetMetricsEnabled(true);
  TraceCollector::Global().Reset();
  {
    RELGRAPH_TRACE_SPAN("outer");
    {
      RELGRAPH_TRACE_SPAN("inner");
      { RELGRAPH_TRACE_SPAN("leaf"); }
    }
    { RELGRAPH_TRACE_SPAN("sibling"); }
  }
  const auto spans = TraceCollector::Global().Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[2].name, "leaf");
  EXPECT_EQ(spans[2].parent, spans[1].id);
  EXPECT_EQ(spans[3].name, "sibling");
  EXPECT_EQ(spans[3].parent, spans[0].id);
  for (const auto& s : spans) {
    EXPECT_TRUE(s.closed) << s.name;
    EXPECT_GE(s.wall_us, 0.0);
  }
}

TEST(TraceTest, SpansNestAcrossPoolWorkers) {
  SetMetricsEnabled(true);
  TraceCollector::Global().Reset();
  ThreadPool::SetNumThreadsForTesting(4);
  {
    RELGRAPH_TRACE_SPAN("dispatch");
    const int64_t parent = TraceCollector::CurrentSpanId();
    ASSERT_GE(parent, 0);
    ThreadPool::Global().ParallelChunks(8, [parent](int64_t) {
      TraceSpan span("worker_chunk", parent);
      // A nested span inside the chunk hangs off the explicit-parent span
      // via the running thread's thread-local chain.
      RELGRAPH_TRACE_SPAN("worker_inner");
    });
  }
  const auto spans = TraceCollector::Global().Snapshot();
  ASSERT_EQ(spans.size(), 17u);  // dispatch + 8 * (chunk + inner)
  int chunks = 0, inners = 0;
  for (const auto& s : spans) {
    if (s.name == "worker_chunk") {
      EXPECT_EQ(s.parent, spans[0].id);
      ++chunks;
    } else if (s.name == "worker_inner") {
      ASSERT_GE(s.parent, 0);
      EXPECT_EQ(spans[static_cast<size_t>(s.parent)].name, "worker_chunk");
      ++inners;
    }
  }
  EXPECT_EQ(chunks, 8);
  EXPECT_EQ(inners, 8);
}

TEST(TraceTest, CapacityBoundDropsAndCounts) {
  SetMetricsEnabled(true);
  TraceCollector::Global().Reset();
  TraceCollector::Global().SetCapacityForTesting(2);
  Counter* dropped =
      MetricsRegistry::Global().GetCounter("trace_spans_dropped_total");
  const int64_t before = dropped->value();
  {
    RELGRAPH_TRACE_SPAN("kept_1");
    RELGRAPH_TRACE_SPAN("kept_2");
    RELGRAPH_TRACE_SPAN("dropped_3");
  }
  EXPECT_EQ(TraceCollector::Global().size(), 2u);
  EXPECT_EQ(dropped->value(), before + 1);
  TraceCollector::Global().SetCapacityForTesting(1 << 16);
  TraceCollector::Global().Reset();
}

// ------------------------------------------------------------ logging

TEST(LoggingTest, EnvOverrideSetsStartupLevel) {
  // g_env_pinned set RELGRAPH_LOG_LEVEL=warning before anything logged.
  EXPECT_EQ(GetLogLevel(), LogLevel::kWarning);
}

TEST(LoggingTest, WarningsRouteIntoCounter) {
  SetMetricsEnabled(true);
  Counter* c =
      MetricsRegistry::Global().GetCounter("log_warnings_total");
  const int64_t before = c->value();
  RELGRAPH_LOG(Info) << "below the warning threshold; not counted";
  EXPECT_EQ(c->value(), before);
  RELGRAPH_LOG(Warning) << "counted (expected test output)";
  EXPECT_EQ(c->value(), before + 1);
  RELGRAPH_LOG(Error) << "also counted (expected test output)";
  EXPECT_EQ(c->value(), before + 2);
}

TEST(LoggingTest, SuppressedWarningsAreNotCounted) {
  SetMetricsEnabled(true);
  Counter* c =
      MetricsRegistry::Global().GetCounter("log_warnings_total");
  SetLogLevel(LogLevel::kError);
  const int64_t before = c->value();
  RELGRAPH_LOG(Warning) << "filtered out; must not print or count";
  EXPECT_EQ(c->value(), before);
  SetLogLevel(LogLevel::kWarning);
}

// ------------------------------------------------------------- goldens

TEST(GoldenTest, MetricsJsonDumpIsByteStable) {
  SetMetricsEnabled(true);
  // A dedicated name prefix keeps this dump independent of every other
  // metric the process has touched.
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* requests = reg.GetCounter("golden_requests_total");
  Counter* errors = reg.GetCounter("golden_errors_total");
  Gauge* depth = reg.GetGauge("golden_queue_depth");
  Histogram* latency =
      reg.GetHistogram("golden_latency_ms", {0.5, 1.0, 5.0});
  requests->ResetForTesting();
  errors->ResetForTesting();
  latency->ResetForTesting();
  requests->Add(3);
  errors->Add(9007199254740993LL);  // > 2^53: exercises %.17g fallback
  depth->Set(2.5);
  latency->Observe(0.25);
  latency->Observe(3.0);
  latency->Observe(1000000.0);
  ExpectMatchesGolden(DumpMetricsJson("golden_"), "metrics.json");
  ExpectMatchesGolden(DumpMetricsText("golden_"), "metrics.txt");
}

TEST(GoldenTest, TraceJsonDumpIsByteStable) {
  SetMetricsEnabled(true);
  TraceCollector::Global().Reset();
  {
    RELGRAPH_TRACE_SPAN("query");
    {
      RELGRAPH_TRACE_SPAN("parse");
    }
    {
      RELGRAPH_TRACE_SPAN("train");
      RELGRAPH_TRACE_SPAN("epoch");
    }
  }
  { RELGRAPH_TRACE_SPAN("export"); }
  // include_timings=false zeroes every timing field, making the dump a
  // pure function of the span structure.
  ExpectMatchesGolden(DumpTraceJson(/*include_timings=*/false),
                      "trace.json");
  TraceCollector::Global().Reset();
}

// ----------------------------------------------- run_report.json golden

/// Minimal planted world (same shape as gnn_test's) for a fast 2-epoch
/// deterministic Fit.
struct OneHopWorld {
  HeteroGraph graph;
  TrainingTable table;
};

OneHopWorld MakeOneHopWorld(int64_t n_entities, int64_t n_items,
                            uint64_t seed) {
  OneHopWorld w;
  Rng rng(seed);
  NodeTypeId a = w.graph.AddNodeType("a", n_entities).value();
  NodeTypeId b = w.graph.AddNodeType("b", n_items).value();
  Tensor fa(n_entities, 3);
  for (int64_t i = 0; i < fa.numel(); ++i) {
    fa.data()[i] = static_cast<float>(rng.Normal(0, 1));
  }
  EXPECT_TRUE(w.graph.SetNodeFeatures(a, std::move(fa)).ok());
  Tensor fb(n_items, 2);
  std::vector<double> item_signal(static_cast<size_t>(n_items));
  for (int64_t i = 0; i < n_items; ++i) {
    item_signal[static_cast<size_t>(i)] = rng.Normal(0, 1);
    fb.at(i, 0) = static_cast<float>(item_signal[static_cast<size_t>(i)]);
    fb.at(i, 1) = static_cast<float>(rng.Normal(0, 1));
  }
  EXPECT_TRUE(w.graph.SetNodeFeatures(b, std::move(fb)).ok());
  std::vector<int64_t> src, dst;
  std::vector<Timestamp> times;
  w.table.kind = TaskKind::kBinaryClassification;
  w.table.entity_table = "a";
  for (int64_t i = 0; i < n_entities; ++i) {
    double mean = 0;
    for (int64_t d = 0; d < 5; ++d) {
      const int64_t item = static_cast<int64_t>(
          rng.UniformU64(static_cast<uint64_t>(n_items)));
      src.push_back(i);
      dst.push_back(item);
      times.push_back(Days(1));
      mean += item_signal[static_cast<size_t>(item)];
    }
    w.table.entity_rows.push_back(i);
    w.table.cutoffs.push_back(Days(100));
    w.table.labels.push_back(mean > 0 ? 1.0 : 0.0);
  }
  EXPECT_TRUE(w.graph.AddEdgeType("a__b", a, b, src, dst, times).ok());
  EXPECT_TRUE(w.graph.AddEdgeType("rev_a__b", b, a, dst, src, times).ok());
  return w;
}

/// Extracts the deterministic `"epochs": [...]` block; the surrounding
/// report carries wall-clock fields that cannot be golden.
std::string EpochsBlock(const std::string& report) {
  const size_t start = report.find("\"epochs\": [");
  EXPECT_NE(start, std::string::npos);
  const size_t end = report.find(']', start);
  EXPECT_NE(end, std::string::npos);
  return report.substr(start, end - start + 1) + "\n";
}

TEST(GoldenTest, RunReportEpochsAreByteStable) {
  SetMetricsEnabled(true);
  OneHopWorld w = MakeOneHopWorld(120, 20, 7);
  NodeTypeId a = w.graph.FindNodeType("a").value();
  Split split;
  split.train.resize(80);
  std::iota(split.train.begin(), split.train.end(), 0);
  split.val.resize(20);
  std::iota(split.val.begin(), split.val.end(), 80);

  TrainerConfig tc;
  tc.epochs = 2;
  tc.patience = 0;
  tc.seed = 42;
  tc.checkpoint_path = testing::TempDir() + "/golden_run.ckpt";
  std::remove(tc.checkpoint_path.c_str());
  GnnConfig gnn;
  gnn.hidden_dim = 16;
  gnn.num_layers = 1;
  SamplerOptions sopts;
  sopts.fanouts = {8};

  GnnNodePredictor trainer(&w.graph, a, TaskKind::kBinaryClassification, 2,
                           gnn, sopts, tc);
  ASSERT_TRUE(trainer.Fit(w.table, split).ok());

  const std::string report_path =
      tc.checkpoint_path + ".run_report.json";
  ASSERT_TRUE(FileExists(report_path)) << report_path;
  const std::string report = ReadAll(report_path);
  EXPECT_NE(report.find("\"seed\": 42"), std::string::npos);
  EXPECT_NE(report.find("\"epochs_completed\": 2"), std::string::npos);
  EXPECT_NE(report.find("\"fit_seconds\""), std::string::npos);
  ExpectMatchesGolden(EpochsBlock(report), "run_report_epochs.json");
}

// The run report must be identical whether or not metrics collection is
// enabled — instrumentation cannot perturb training.
TEST(GoldenTest, RunReportEpochsUnchangedWithMetricsDisabled) {
  SetMetricsEnabled(false);
  OneHopWorld w = MakeOneHopWorld(120, 20, 7);
  NodeTypeId a = w.graph.FindNodeType("a").value();
  Split split;
  split.train.resize(80);
  std::iota(split.train.begin(), split.train.end(), 0);
  split.val.resize(20);
  std::iota(split.val.begin(), split.val.end(), 80);

  TrainerConfig tc;
  tc.epochs = 2;
  tc.patience = 0;
  tc.seed = 42;
  tc.checkpoint_path = testing::TempDir() + "/golden_run_off.ckpt";
  std::remove(tc.checkpoint_path.c_str());
  GnnConfig gnn;
  gnn.hidden_dim = 16;
  gnn.num_layers = 1;
  SamplerOptions sopts;
  sopts.fanouts = {8};

  GnnNodePredictor trainer(&w.graph, a, TaskKind::kBinaryClassification, 2,
                           gnn, sopts, tc);
  ASSERT_TRUE(trainer.Fit(w.table, split).ok());
  SetMetricsEnabled(true);
  const std::string report =
      ReadAll(tc.checkpoint_path + ".run_report.json");
  ExpectMatchesGolden(EpochsBlock(report), "run_report_epochs.json");
}

// --------------------------------------------------------- exporters

TEST(ExporterTest, WriteMetricsJsonIsAtomicAndParsesStructurally) {
  SetMetricsEnabled(true);
  RELGRAPH_COUNTER_INC("test_export_total");
  const std::string path = testing::TempDir() + "/metrics_export.json";
  ASSERT_TRUE(WriteMetricsJson(path).ok());
  const std::string dump = ReadAll(path);
  EXPECT_EQ(dump.front(), '{');
  EXPECT_NE(dump.find("\"counters\""), std::string::npos);
  EXPECT_NE(dump.find("\"test_export_total\": 1"), std::string::npos);
  EXPECT_NE(dump.find("\"histograms\""), std::string::npos);
}

TEST(ExporterTest, DumpTextListsMetricsNameSorted) {
  SetMetricsEnabled(true);
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("test_sort_b_total")->ResetForTesting();
  reg.GetCounter("test_sort_a_total")->ResetForTesting();
  const std::string dump = DumpMetricsText("test_sort_");
  const size_t pos_a = dump.find("test_sort_a_total");
  const size_t pos_b = dump.find("test_sort_b_total");
  ASSERT_NE(pos_a, std::string::npos);
  ASSERT_NE(pos_b, std::string::npos);
  EXPECT_LT(pos_a, pos_b);
}

}  // namespace
}  // namespace relgraph
