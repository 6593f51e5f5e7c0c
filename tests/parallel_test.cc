#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/atomic_io.h"
#include "core/metrics.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "sampler/neighbor_sampler.h"
#include "tensor/optim.h"
#include "tensor/tensor.h"
#include "train/trainer.h"

namespace relgraph {
namespace {

/// Every test restores the pool to serial on exit so a failure cannot leak
/// an 8-thread pool into a neighboring test when the binary runs whole.
class ParallelTest : public testing::Test {
 protected:
  void TearDown() override { ThreadPool::SetNumThreadsForTesting(1); }
};

// ------------------------------------------------------------- pool core

using ThreadPoolTest = ParallelTest;

TEST_F(ThreadPoolTest, SetNumThreadsForTestingResizesPool) {
  ThreadPool::SetNumThreadsForTesting(3);
  EXPECT_EQ(NumThreads(), 3);
  ThreadPool::SetNumThreadsForTesting(1);
  EXPECT_EQ(NumThreads(), 1);
}

TEST_F(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadPool::SetNumThreadsForTesting(8);
  // Odd size and grain so the last chunk is short.
  const int64_t n = 1037;
  std::vector<std::atomic<int>> counts(static_cast<size_t>(n));
  ParallelFor(0, n, 16, [&](int64_t lo, int64_t hi) {
    ASSERT_LE(0, lo);
    ASSERT_LT(lo, hi);
    ASSERT_LE(hi, n);
    for (int64_t i = lo; i < hi; ++i) {
      counts[static_cast<size_t>(i)].fetch_add(1);
    }
  });
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(counts[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST_F(ThreadPoolTest, ParallelForHandlesEmptyAndSingleChunkRanges) {
  ThreadPool::SetNumThreadsForTesting(4);
  int calls = 0;
  ParallelFor(5, 5, 8, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(5, 9, 8, [&](int64_t lo, int64_t hi) {
    ++calls;
    EXPECT_EQ(lo, 5);
    EXPECT_EQ(hi, 9);
  });
  EXPECT_EQ(calls, 1);
}

TEST_F(ThreadPoolTest, ParallelReduceCombinesInChunkOrder) {
  // A non-commutative combine (string concatenation) exposes any reorder:
  // the transcript must list chunks left to right at every thread count.
  const auto chunk_fn = [](int64_t lo, int64_t hi) {
    return "[" + std::to_string(lo) + "," + std::to_string(hi) + ")";
  };
  const auto combine = [](std::string acc, const std::string& p) {
    return acc + p;
  };
  const std::string want = "[0,3)[3,6)[6,9)[9,10)";
  for (int t : {1, 2, 8}) {
    ThreadPool::SetNumThreadsForTesting(t);
    EXPECT_EQ(ParallelReduce<std::string>(0, 10, 3, "", chunk_fn, combine),
              want)
        << "threads=" << t;
  }
}

TEST_F(ThreadPoolTest, ParallelReduceFloatSumBitIdenticalAcrossThreads) {
  std::vector<double> xs(100001);
  Rng rng(3);
  for (double& x : xs) x = rng.Normal(0, 1);
  const auto sum_chunk = [&](int64_t lo, int64_t hi) {
    double s = 0;
    for (int64_t i = lo; i < hi; ++i) s += xs[static_cast<size_t>(i)];
    return s;
  };
  const auto add = [](double a, double b) { return a + b; };
  ThreadPool::SetNumThreadsForTesting(1);
  const double want = ParallelReduce<double>(
      0, static_cast<int64_t>(xs.size()), 4096, 0.0, sum_chunk, add);
  for (int t : {2, 5, 8}) {
    ThreadPool::SetNumThreadsForTesting(t);
    const double got = ParallelReduce<double>(
        0, static_cast<int64_t>(xs.size()), 4096, 0.0, sum_chunk, add);
    EXPECT_EQ(std::memcmp(&want, &got, sizeof want), 0) << "threads=" << t;
  }
}

TEST_F(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool::SetNumThreadsForTesting(4);
  const int64_t n = 64;
  std::vector<int64_t> row_sums(static_cast<size_t>(n), 0);
  ParallelFor(0, n, 4, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      // Inner region: must run inline on this worker, not re-enter the
      // pool (which would deadlock a fully-busy pool).
      ParallelFor(0, 100, 10, [&](int64_t jlo, int64_t jhi) {
        for (int64_t j = jlo; j < jhi; ++j) row_sums[static_cast<size_t>(i)] += j;
      });
    }
  });
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(row_sums[static_cast<size_t>(i)], 4950);
  }
}

TEST_F(ThreadPoolTest, ConcurrentRegionsDoNotQueue) {
  ThreadPool::SetNumThreadsForTesting(4);
  // Two callers each open a two-chunk region whose chunks wait, bounded,
  // for the other caller's region to have started. Were regions queued
  // behind one another, the first one's chunks could only time out.
  std::mutex mu;
  std::condition_variable cv;
  bool started[2] = {false, false};
  int saw_other[2] = {0, 0};
  auto caller = [&](int me) {
    ThreadPool::Global().ParallelChunks(2, [&](int64_t) {
      std::unique_lock<std::mutex> lk(mu);
      started[me] = true;
      cv.notify_all();
      if (cv.wait_for(lk, std::chrono::seconds(5),
                      [&] { return started[1 - me]; })) {
        ++saw_other[me];
      }
    });
  };
  std::thread a(caller, 0);
  std::thread b(caller, 1);
  a.join();
  b.join();
  EXPECT_EQ(saw_other[0], 2);
  EXPECT_EQ(saw_other[1], 2);
}

TEST_F(ThreadPoolTest, GemmRouteCountersReportWhereTheGemmRan) {
  const bool metrics_were_on = MetricsEnabled();
  SetMetricsEnabled(true);
  ThreadPool::SetNumThreadsForTesting(4);
  Counter* serial = MetricsRegistry::Global().GetCounter("gemm_serial_total");
  Counter* pooled =
      MetricsRegistry::Global().GetCounter("gemm_parallel_total");
  // (serial, pooled) counter deltas across `fn`.
  auto route = [&](const std::function<void()>& fn) {
    const int64_t s0 = serial->value();
    const int64_t p0 = pooled->value();
    fn();
    return std::make_pair(serial->value() - s0, pooled->value() - p0);
  };
  using Route = std::pair<int64_t, int64_t>;
  // 64^3 multiply-adds: above the serial threshold.
  const Tensor a = Tensor::Full(64, 64, 0.5f);
  const Tensor b = Tensor::Full(64, 64, 0.25f);
  const Tensor small = Tensor::Full(4, 4, 1.0f);
  EXPECT_EQ(route([&] { (void)MatMul(a, b); }), Route(0, 1));
  EXPECT_EQ(route([&] { (void)MatMul(small, small); }), Route(1, 0));
  // Inside a region each GEMM runs inline on its chunk's thread, however
  // large it is.
  EXPECT_EQ(route([&] {
              ThreadPool::Global().ParallelChunks(
                  4, [&](int64_t) { (void)MatMulBT(a, b); });
            }),
            Route(4, 0));
  // A serial pool runs everything on the calling thread.
  ThreadPool::SetNumThreadsForTesting(1);
  EXPECT_EQ(route([&] { (void)MatMulAT(a, b); }), Route(1, 0));
  SetMetricsEnabled(metrics_were_on);
}

// ------------------------------------------------------------ rng streams

TEST(RngStreamTest, ForkIsDeterministicAndDoesNotAdvanceParent) {
  Rng parent(123);
  const uint64_t before = Rng(parent).NextU64();  // copy: peek next draw
  Rng f1 = parent.Fork(7);
  Rng f2 = parent.Fork(7);
  Rng f3 = parent.Fork(8);
  EXPECT_EQ(f1.NextU64(), f2.NextU64());  // same stream, same sequence
  EXPECT_NE(f1.NextU64(), f3.NextU64());  // distinct streams diverge
  EXPECT_EQ(parent.NextU64(), before);    // parent stream untouched
}

TEST(RngStreamTest, SplitAdvancesParentExactlyOneDraw) {
  Rng a(55), b(55);
  (void)a.Split();
  (void)b.NextU64();
  EXPECT_EQ(a.NextU64(), b.NextU64());
}

// -------------------------------------------------- tensor kernel parity

using TensorParityTest = ParallelTest;

Tensor RandomTensor(int64_t rows, int64_t cols, uint64_t seed) {
  Tensor t(rows, cols);
  Rng rng(seed);
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.Normal(0, 1));
  }
  return t;
}

void ExpectBitEqual(const Tensor& want, const Tensor& got,
                    const std::string& what) {
  ASSERT_EQ(want.rows(), got.rows()) << what;
  ASSERT_EQ(want.cols(), got.cols()) << what;
  if (want.numel() == 0) return;
  EXPECT_EQ(std::memcmp(want.data(), got.data(),
                        static_cast<size_t>(want.numel()) * sizeof(float)),
            0)
      << what;
}

/// Runs `fn` serially, then at 2 and 8 threads, asserting the returned
/// tensor is bit-identical every time.
void ExpectSameBitsAcrossThreads(const std::function<Tensor()>& fn,
                                 const std::string& what) {
  ThreadPool::SetNumThreadsForTesting(1);
  const Tensor want = fn();
  for (int t : {2, 8}) {
    ThreadPool::SetNumThreadsForTesting(t);
    ExpectBitEqual(want, fn(), what + " threads=" + std::to_string(t));
  }
}

TEST_F(TensorParityTest, GemmKernelsMatchSerialAtOddSizes) {
  // (m, k, n) triples spanning the serial threshold and odd shapes that
  // exercise the register-blocking remainder rows and short last chunks.
  const int64_t shapes[][3] = {{1, 1, 1},   {3, 5, 7},     {17, 33, 9},
                               {64, 64, 64}, {65, 129, 33}, {129, 257, 65},
                               {130, 64, 1024 + 7}};
  for (const auto& s : shapes) {
    const Tensor a = RandomTensor(s[0], s[1], 11);
    const Tensor b = RandomTensor(s[1], s[2], 12);
    const Tensor bt = RandomTensor(s[2], s[1], 13);
    const Tensor at = RandomTensor(s[1], s[0], 14);
    const std::string dims = std::to_string(s[0]) + "x" +
                             std::to_string(s[1]) + "x" +
                             std::to_string(s[2]);
    ExpectSameBitsAcrossThreads([&] { return MatMul(a, b); },
                                "MatMul " + dims);
    ExpectSameBitsAcrossThreads([&] { return MatMulBT(a, bt); },
                                "MatMulBT " + dims);
    ExpectSameBitsAcrossThreads([&] { return MatMulAT(at, b); },
                                "MatMulAT " + dims);
    const PackedMatrix packed = PackForMatMul(b);
    ExpectSameBitsAcrossThreads([&] { return MatMulPacked(a, packed); },
                                "MatMulPacked " + dims);
    // Packing must be a pure relayout: same bits as the unpacked product.
    ThreadPool::SetNumThreadsForTesting(1);
    ExpectBitEqual(MatMul(a, b), MatMulPacked(a, packed),
                   "MatMulPacked vs MatMul " + dims);
  }
}

TEST_F(TensorParityTest, MatMulMatchesReferenceTripleLoop) {
  // The register-blocked kernel must equal the textbook kernel bit for bit
  // (identical per-element accumulation order), including rows that fall
  // into the <4 remainder path.
  const Tensor a = RandomTensor(7, 13, 21);
  const Tensor b = RandomTensor(13, 9, 22);
  Tensor want(7, 9);
  for (int64_t i = 0; i < 7; ++i) {
    for (int64_t p = 0; p < 13; ++p) {
      for (int64_t j = 0; j < 9; ++j) {
        want.data()[i * 9 + j] += a.at(i, p) * b.at(p, j);
      }
    }
  }
  ExpectBitEqual(want, MatMul(a, b), "MatMul vs reference");
}

TEST_F(TensorParityTest, ElementwiseAndReductionKernelsMatchSerial) {
  // Sizes straddling kElemSerial / kReduceGrain (1 << 15 elements).
  for (const int64_t rows : {3, 129, 301}) {
    for (const int64_t cols : {5, 257}) {
      const Tensor a = RandomTensor(rows, cols, 31);
      const Tensor b = RandomTensor(rows, cols, 32);
      const Tensor row = RandomTensor(1, cols, 33);
      const std::string dims =
          std::to_string(rows) + "x" + std::to_string(cols);
      ExpectSameBitsAcrossThreads([&] { return Sub(a, b); }, "Sub " + dims);
      ExpectSameBitsAcrossThreads([&] { return Mul(a, b); }, "Mul " + dims);
      ExpectSameBitsAcrossThreads([&] { return Add(a, b); }, "Add " + dims);
      ExpectSameBitsAcrossThreads(
          [&] {
            Tensor c = a;
            c.Scale(1.7f);
            return c;
          },
          "Scale " + dims);
      ExpectSameBitsAcrossThreads([&] { return a.Transposed(); },
                                  "Transposed " + dims);
      ExpectSameBitsAcrossThreads([&] { return AddRowBroadcast(a, row); },
                                  "AddRowBroadcast " + dims);
      ExpectSameBitsAcrossThreads([&] { return SumRows(a); },
                                  "SumRows " + dims);
      ExpectSameBitsAcrossThreads([&] { return SoftmaxRows(a); },
                                  "SoftmaxRows " + dims);
      std::vector<int64_t> gather;
      for (int64_t i = 0; i < rows * 2; ++i) gather.push_back(i % rows);
      ExpectSameBitsAcrossThreads([&] { return a.GatherRows(gather); },
                                  "GatherRows " + dims);
      // Scalar reductions: compare exact bits via float equality.
      ThreadPool::SetNumThreadsForTesting(1);
      const float sum1 = a.Sum();
      const float norm1 = a.Norm();
      const float absmax1 = a.AbsMax();
      for (int t : {2, 8}) {
        ThreadPool::SetNumThreadsForTesting(t);
        EXPECT_EQ(a.Sum(), sum1) << "Sum " << dims << " threads=" << t;
        EXPECT_EQ(a.Norm(), norm1) << "Norm " << dims << " threads=" << t;
        EXPECT_EQ(a.AbsMax(), absmax1)
            << "AbsMax " << dims << " threads=" << t;
      }
    }
  }
}

// ------------------------------------------------------- sampler parity

using SamplerParityTest = ParallelTest;

/// Mirrors the fault-tolerance fixture: bipartite a<->b graph with a
/// 1-hop-learnable binary label.
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

void ExpectSameSubgraph(const Subgraph& want, const Subgraph& got,
                        const std::string& what) {
  ASSERT_EQ(want.frontiers.size(), got.frontiers.size()) << what;
  for (size_t f = 0; f < want.frontiers.size(); ++f) {
    EXPECT_EQ(want.frontiers[f].nodes, got.frontiers[f].nodes)
        << what << " frontier " << f;
    EXPECT_EQ(want.frontiers[f].cutoffs, got.frontiers[f].cutoffs)
        << what << " frontier " << f;
  }
  ASSERT_EQ(want.blocks.size(), got.blocks.size()) << what;
  for (size_t k = 0; k < want.blocks.size(); ++k) {
    ASSERT_EQ(want.blocks[k].size(), got.blocks[k].size())
        << what << " layer " << k;
    for (size_t e = 0; e < want.blocks[k].size(); ++e) {
      EXPECT_EQ(want.blocks[k][e].edge_type, got.blocks[k][e].edge_type)
          << what << " layer " << k << " block " << e;
      EXPECT_EQ(want.blocks[k][e].target_local,
                got.blocks[k][e].target_local)
          << what << " layer " << k << " block " << e;
      EXPECT_EQ(want.blocks[k][e].source_local,
                got.blocks[k][e].source_local)
          << what << " layer " << k << " block " << e;
    }
  }
}

TEST_F(SamplerParityTest, MultiChunkSampleBitIdenticalAcrossThreadCounts) {
  OneHopWorld w = MakeOneHopWorld(300, 40, 17);
  NodeTypeId a = w.graph.FindNodeType("a").value();
  SamplerOptions opts;
  opts.fanouts = {6, 6};
  NeighborSampler sampler(&w.graph, opts);
  // 150 seeds > parallel_chunk_seeds (64) → three chunks, including a
  // short tail chunk.
  std::vector<int64_t> seeds;
  std::vector<Timestamp> cutoffs;
  for (int64_t i = 0; i < 150; ++i) {
    seeds.push_back(i % 300);
    cutoffs.push_back(Days(100));
  }
  ThreadPool::SetNumThreadsForTesting(1);
  Rng rng1(77);
  const Subgraph want = sampler.Sample(a, seeds, cutoffs, &rng1);
  const uint64_t rng_after = rng1.NextU64();
  for (int t : {2, 8}) {
    ThreadPool::SetNumThreadsForTesting(t);
    Rng rng(77);
    const Subgraph got = sampler.Sample(a, seeds, cutoffs, &rng);
    ExpectSameSubgraph(want, got, "threads=" + std::to_string(t));
    // The caller-visible RNG advances identically too.
    EXPECT_EQ(rng.NextU64(), rng_after) << "threads=" << t;
  }
}

TEST_F(SamplerParityTest, ChunkedSampleKeepsSeedOrderAndFanout) {
  OneHopWorld w = MakeOneHopWorld(300, 40, 19);
  NodeTypeId a = w.graph.FindNodeType("a").value();
  SamplerOptions opts;
  opts.fanouts = {4};
  NeighborSampler sampler(&w.graph, opts);
  std::vector<int64_t> seeds;
  std::vector<Timestamp> cutoffs;
  for (int64_t i = 0; i < 200; ++i) {
    seeds.push_back((i * 7) % 300);
    cutoffs.push_back(Days(100));
  }
  ThreadPool::SetNumThreadsForTesting(8);
  Rng rng(5);
  const Subgraph sg = sampler.Sample(a, seeds, cutoffs, &rng);
  // Frontier 0 is exactly the seed batch, in order, chunked or not.
  EXPECT_EQ(sg.frontiers[0].nodes[static_cast<size_t>(a)], seeds);
  // Each target draws at most fanout edges per chunk it appears in; with
  // 200 seeds over 4 chunks a repeated node can pool more, but the block
  // edge total is bounded by seeds * fanout per edge type.
  for (const auto& block : sg.blocks[0]) {
    EXPECT_LE(static_cast<int64_t>(block.target_local.size()), 200 * 4);
  }
}

// ------------------------------------------------------- trainer parity

using TrainerParityTest = ParallelTest;

TrainerConfig SmallTrainerConfig() {
  TrainerConfig tc;
  tc.epochs = 6;
  tc.lr = 0.02f;
  tc.seed = 42;
  tc.patience = 0;  // fixed-length runs: epoch trajectories are comparable
  return tc;
}

GnnConfig SmallGnnConfig() {
  GnnConfig gnn;
  gnn.hidden_dim = 16;
  gnn.num_layers = 1;
  return gnn;
}

SamplerOptions SmallSamplerOptions() {
  SamplerOptions sopts;
  sopts.fanouts = {8};
  return sopts;
}

std::vector<int64_t> Range(int64_t lo, int64_t hi) {
  std::vector<int64_t> r;
  for (int64_t i = lo; i < hi; ++i) r.push_back(i);
  return r;
}

Split SmallSplit() {
  Split split;
  split.train = Range(0, 200);
  split.val = Range(200, 250);
  split.test = Range(250, 300);
  return split;
}

TEST_F(TrainerParityTest, FitIsBitIdenticalAcrossThreadCounts) {
  OneHopWorld w = MakeOneHopWorld(300, 40, 101);
  NodeTypeId a = w.graph.FindNodeType("a").value();
  const Split split = SmallSplit();

  // Default batch_size 128 over 200 train rows → batches of 128 and 72,
  // cut into seed groups of TrainGroupSize(128) = 32: four and three
  // groups that sample, forward and backward at once, each into its own
  // gradient sink, summed in group order.
  ASSERT_EQ(TrainGroupSize(128), 32);
  std::vector<double> want_losses;
  std::vector<double> want_scores;
  for (int t : {1, 2, 4, 8}) {
    ThreadPool::SetNumThreadsForTesting(t);
    GnnNodePredictor p(&w.graph, a, TaskKind::kBinaryClassification, 2,
                       SmallGnnConfig(), SmallSamplerOptions(),
                       SmallTrainerConfig());
    ASSERT_TRUE(p.Fit(w.table, split).ok());
    const std::vector<double> losses = p.epoch_losses();
    const std::vector<double> scores = p.PredictScores(w.table, split.test);
    ASSERT_EQ(losses.size(), 6u);
    if (t == 1) {
      want_losses = losses;
      want_scores = scores;
      continue;
    }
    EXPECT_EQ(losses, want_losses) << "threads=" << t;
    EXPECT_EQ(scores, want_scores) << "threads=" << t;
  }
}

TEST_F(TrainerParityTest, CheckpointWrittenParallelResumesBitExactSerial) {
  OneHopWorld w = MakeOneHopWorld(300, 40, 103);
  NodeTypeId a = w.graph.FindNodeType("a").value();
  const Split split = SmallSplit();
  const std::string ckpt = testing::TempDir() + "/parallel_resume.ckpt";
  std::remove(ckpt.c_str());

  // Reference: uninterrupted serial run.
  ThreadPool::SetNumThreadsForTesting(1);
  GnnNodePredictor uninterrupted(&w.graph, a,
                                 TaskKind::kBinaryClassification, 2,
                                 SmallGnnConfig(), SmallSamplerOptions(),
                                 SmallTrainerConfig());
  ASSERT_TRUE(uninterrupted.Fit(w.table, split).ok());
  const std::vector<double> want_losses = uninterrupted.epoch_losses();
  const std::vector<double> want_scores =
      uninterrupted.PredictScores(w.table, split.test);

  for (int t : {2, 4, 8}) {
    // "Killed" run under t threads: dies after epoch 3, leaving only the
    // checkpoint behind.
    std::remove(ckpt.c_str());
    ThreadPool::SetNumThreadsForTesting(t);
    TrainerConfig tc_killed = SmallTrainerConfig();
    tc_killed.epochs = 3;
    tc_killed.checkpoint_path = ckpt;
    {
      GnnNodePredictor killed(&w.graph, a, TaskKind::kBinaryClassification,
                              2, SmallGnnConfig(), SmallSamplerOptions(),
                              tc_killed);
      ASSERT_TRUE(killed.Fit(w.table, split).ok());
    }
    ASSERT_TRUE(FileExists(ckpt));

    // Resume under a single thread; the run must land exactly where the
    // uninterrupted serial run did.
    ThreadPool::SetNumThreadsForTesting(1);
    TrainerConfig tc_resume = SmallTrainerConfig();
    tc_resume.checkpoint_path = ckpt;
    tc_resume.resume = true;
    GnnNodePredictor resumed(&w.graph, a, TaskKind::kBinaryClassification,
                             2, SmallGnnConfig(), SmallSamplerOptions(),
                             tc_resume);
    ASSERT_TRUE(resumed.Fit(w.table, split).ok());
    EXPECT_EQ(resumed.resumed_from_epoch(), 3);
    const std::vector<double>& got_losses = resumed.epoch_losses();
    ASSERT_EQ(got_losses.size(), 3u);  // epochs 3..5 ran after the resume
    for (size_t e = 0; e < got_losses.size(); ++e) {
      EXPECT_EQ(got_losses[e], want_losses[e + 3])
          << "epoch " << e + 3 << ", killed at threads=" << t;
    }
    EXPECT_EQ(resumed.PredictScores(w.table, split.test), want_scores)
        << "killed at threads=" << t;
  }
  std::remove(ckpt.c_str());
}

// --------------------------------------------------- optimizer parity

TEST_F(ParallelTest, AdamAndClipBitIdenticalAcrossThreadCounts) {
  // Three parameters over 3 * 9000 elements: the flat index space spans
  // several optimizer chunks, and chunk boundaries fall inside tensors.
  auto run = [] {
    std::vector<VarPtr> params;
    for (uint64_t i = 0; i < 3; ++i) {
      Rng rng(80 + i);
      Tensor w(90, 100);
      Tensor g(90, 100);
      for (int64_t j = 0; j < w.numel(); ++j) {
        w.data()[j] = static_cast<float>(rng.Normal(0, 1));
        g.data()[j] = static_cast<float>(rng.Normal(0, 1));
      }
      params.push_back(ag::Param(w));
      params.back()->grad() = g;
    }
    Adam opt(params, 0.01f, 0.9f, 0.999f, 1e-8f, 1e-4f);
    std::vector<float> norms;
    for (int step = 0; step < 3; ++step) {
      norms.push_back(opt.ClipGradNorm(5.0f));
      opt.Step();
    }
    std::vector<Tensor> out;
    for (const VarPtr& p : params) out.push_back(p->value());
    for (const VarPtr& p : params) out.push_back(p->grad());
    return std::make_pair(norms, out);
  };
  ThreadPool::SetNumThreadsForTesting(1);
  const auto want = run();
  for (int t : {2, 4, 8}) {
    ThreadPool::SetNumThreadsForTesting(t);
    const auto got = run();
    EXPECT_EQ(got.first, want.first) << "threads=" << t;
    for (size_t i = 0; i < want.second.size(); ++i) {
      EXPECT_EQ(std::memcmp(got.second[i].data(), want.second[i].data(),
                            static_cast<size_t>(want.second[i].numel()) *
                                sizeof(float)),
                0)
          << "tensor " << i << ", threads=" << t;
    }
  }
}

}  // namespace
}  // namespace relgraph
