#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "core/atomic_io.h"
#include "core/fault_injection.h"
#include "tensor/init.h"
#include "tensor/serialize.h"
#include "train/trainer.h"

namespace relgraph {
namespace {

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Every test starts and ends with a disarmed injector, so a failing test
/// cannot leak armed faults into its neighbors.
class FaultTest : public testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }
};

// ------------------------------------------------------------ injector

using FaultInjectorTest = FaultTest;

TEST_F(FaultInjectorTest, FiresByHitCount) {
  FaultInjector& fi = FaultInjector::Global();
  fi.Arm(FaultSite::kNanLoss, /*skip=*/2, /*times=*/2);
  EXPECT_FALSE(fi.ShouldFire(FaultSite::kNanLoss));
  EXPECT_FALSE(fi.ShouldFire(FaultSite::kNanLoss));
  EXPECT_TRUE(fi.ShouldFire(FaultSite::kNanLoss));
  EXPECT_TRUE(fi.ShouldFire(FaultSite::kNanLoss));
  EXPECT_FALSE(fi.ShouldFire(FaultSite::kNanLoss));
  EXPECT_EQ(fi.hits(FaultSite::kNanLoss), 5);
  EXPECT_EQ(fi.fired(FaultSite::kNanLoss), 2);
}

TEST_F(FaultInjectorTest, DisarmedSitesNeverFireOrCount) {
  FaultInjector& fi = FaultInjector::Global();
  EXPECT_FALSE(fi.ShouldFire(FaultSite::kNanGradient));
  EXPECT_EQ(fi.hits(FaultSite::kNanGradient), 0);
  fi.Arm(FaultSite::kNanGradient, 0, /*times=*/-1);
  EXPECT_TRUE(fi.ShouldFire(FaultSite::kNanGradient));
  fi.Disarm(FaultSite::kNanGradient);
  EXPECT_FALSE(fi.ShouldFire(FaultSite::kNanGradient));
}

TEST_F(FaultInjectorTest, SiteNamesAreStable) {
  EXPECT_STREQ(FaultSiteName(FaultSite::kAtomicWriteRename),
               "atomic_write_rename");
  EXPECT_STREQ(FaultSiteName(FaultSite::kNanLoss), "nan_loss");
}

// ------------------------------------------------------------ atomic IO

using AtomicWriteTest = FaultTest;

TEST_F(AtomicWriteTest, WritesAndReplaces) {
  const std::string path = TempPath("atomic_basic.txt");
  ASSERT_TRUE(AtomicWriteFile(path, "first").ok());
  EXPECT_EQ(ReadWholeFile(path), "first");
  ASSERT_TRUE(AtomicWriteFile(path, "second, longer payload").ok());
  EXPECT_EQ(ReadWholeFile(path), "second, longer payload");
  EXPECT_FALSE(FileExists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST_F(AtomicWriteTest, OpenFaultReturnsIoError) {
  FaultInjector::Global().Arm(FaultSite::kAtomicWriteOpen);
  const std::string path = TempPath("atomic_openfail.txt");
  Status st = AtomicWriteFile(path, "payload");
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_FALSE(FileExists(path));
}

TEST_F(AtomicWriteTest, RenameFaultLeavesPreviousFileIntact) {
  const std::string path = TempPath("atomic_renamefail.txt");
  ASSERT_TRUE(AtomicWriteFile(path, "good version").ok());
  FaultInjector::Global().Arm(FaultSite::kAtomicWriteRename);
  Status st = AtomicWriteFile(path, "doomed version");
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  // The previous contents survive and no temp file is left behind.
  EXPECT_EQ(ReadWholeFile(path), "good version");
  EXPECT_FALSE(FileExists(path + ".tmp"));
  std::remove(path.c_str());
}

// ---------------------------------------------------- bundle corruption

using BundleCorruptionTest = FaultTest;

std::vector<Tensor> SmallBundleTensors() {
  Rng rng(5);
  std::vector<Tensor> tensors;
  tensors.push_back(NormalInit(4, 3, 1.0f, &rng));
  tensors.push_back(NormalInit(2, 6, 1.0f, &rng));
  return tensors;
}

TEST_F(BundleCorruptionTest, TornWriteFailsCleanlyOnLoad) {
  const std::string path = TempPath("bundle_torn.bin");
  // A torn write models a crash where the rename landed but only half the
  // payload reached disk.
  FaultInjector::Global().Arm(FaultSite::kAtomicWriteShort);
  ASSERT_TRUE(SaveTensorBundle(path, SmallBundleTensors(), {1.0, 2.0}).ok());
  auto r = LoadTensorBundle(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  std::remove(path.c_str());
}

TEST_F(BundleCorruptionTest, EveryTruncationPointFailsCleanly) {
  const std::string path = TempPath("bundle_trunc.bin");
  ASSERT_TRUE(SaveTensorBundle(path, SmallBundleTensors(), {3.0}).ok());
  const std::string full = ReadWholeFile(path);
  ASSERT_GT(full.size(), 16u);
  // Cut the bundle at a spread of offsets (header, scalar block, tensor
  // headers, mid-payload): the loader must return a clean error each time.
  for (size_t cut : {0ul, 3ul, 11ul, 19ul, 27ul, full.size() / 2,
                     full.size() - 1}) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(cut));
    out.close();
    auto r = LoadTensorBundle(path);
    ASSERT_FALSE(r.ok()) << "truncation at " << cut << " parsed";
    EXPECT_EQ(r.status().code(), StatusCode::kParseError)
        << "truncation at " << cut;
  }
  std::remove(path.c_str());
}

TEST_F(BundleCorruptionTest, GarbledCountsRejectedWithoutHugeAllocation) {
  const std::string path = TempPath("bundle_garbled.bin");
  ASSERT_TRUE(SaveTensorBundle(path, SmallBundleTensors(), {}).ok());
  std::string bytes = ReadWholeFile(path);
  // Overwrite the tensor-count field (bytes 4..11) with a huge value.
  for (size_t i = 4; i < 12; ++i) bytes[i] = static_cast<char>(0x7f);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  auto r = LoadTensorBundle(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  std::remove(path.c_str());
}

// ------------------------------------------------- trainer fixtures

std::vector<int64_t> Range(int64_t lo, int64_t hi) {
  std::vector<int64_t> out(static_cast<size_t>(hi - lo));
  std::iota(out.begin(), out.end(), lo);
  return out;
}

/// Same planted 1-hop world as gnn_test: entity label is the sign of the
/// mean planted item scalar over its 5 links.
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

TrainerConfig SmallTrainerConfig() {
  TrainerConfig tc;
  tc.epochs = 8;
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

Split SmallSplit() {
  Split split;
  split.train = Range(0, 200);
  split.val = Range(200, 250);
  split.test = Range(250, 300);
  return split;
}

// ------------------------------------------------- checkpoint + resume

using TrainerCheckpointTest = FaultTest;

TEST_F(TrainerCheckpointTest, KilledAndResumedRunMatchesUninterrupted) {
  OneHopWorld w = MakeOneHopWorld(300, 40, 101);
  NodeTypeId a = w.graph.FindNodeType("a").value();
  const Split split = SmallSplit();
  const std::string ckpt = TempPath("resume_match.ckpt");
  std::remove(ckpt.c_str());

  // Reference: one uninterrupted 8-epoch run.
  GnnNodePredictor uninterrupted(&w.graph, a,
                                 TaskKind::kBinaryClassification, 2,
                                 SmallGnnConfig(), SmallSamplerOptions(),
                                 SmallTrainerConfig());
  ASSERT_TRUE(uninterrupted.Fit(w.table, split).ok());
  const double want_auc = uninterrupted.Evaluate(w.table, split.test);
  const std::vector<double> want_scores =
      uninterrupted.PredictScores(w.table, split.test);

  // "Killed" run: the process dies after epoch 4; only the checkpoint file
  // survives.
  TrainerConfig tc_killed = SmallTrainerConfig();
  tc_killed.epochs = 4;
  tc_killed.checkpoint_path = ckpt;
  {
    GnnNodePredictor killed(&w.graph, a, TaskKind::kBinaryClassification, 2,
                            SmallGnnConfig(), SmallSamplerOptions(),
                            tc_killed);
    ASSERT_TRUE(killed.Fit(w.table, split).ok());
  }
  ASSERT_TRUE(FileExists(ckpt));

  // Resume in a brand-new process (fresh predictor, different init draws
  // do not matter: the checkpoint overwrites parameters and RNG state).
  TrainerConfig tc_resume = SmallTrainerConfig();
  tc_resume.checkpoint_path = ckpt;
  tc_resume.resume = true;
  GnnNodePredictor resumed(&w.graph, a, TaskKind::kBinaryClassification, 2,
                           SmallGnnConfig(), SmallSamplerOptions(),
                           tc_resume);
  ASSERT_TRUE(resumed.Fit(w.table, split).ok());
  EXPECT_EQ(resumed.resumed_from_epoch(), 4);

  // Bit-exact replay: parameters, optimizer slots and the RNG stream are
  // all restored, so the resumed run is indistinguishable from the
  // uninterrupted one.
  const std::vector<double> got_scores =
      resumed.PredictScores(w.table, split.test);
  ASSERT_EQ(got_scores.size(), want_scores.size());
  for (size_t i = 0; i < want_scores.size(); ++i) {
    EXPECT_NEAR(got_scores[i], want_scores[i], 1e-12) << "score " << i;
  }
  EXPECT_NEAR(resumed.Evaluate(w.table, split.test), want_auc, 1e-12);
  std::remove(ckpt.c_str());
}

TEST_F(TrainerCheckpointTest, MissingCheckpointMeansFreshRun) {
  OneHopWorld w = MakeOneHopWorld(300, 40, 103);
  NodeTypeId a = w.graph.FindNodeType("a").value();
  TrainerConfig tc = SmallTrainerConfig();
  tc.epochs = 2;
  tc.checkpoint_path = TempPath("never_written.ckpt");
  tc.resume = true;
  std::remove(tc.checkpoint_path.c_str());
  GnnNodePredictor p(&w.graph, a, TaskKind::kBinaryClassification, 2,
                     SmallGnnConfig(), SmallSamplerOptions(), tc);
  ASSERT_TRUE(p.Fit(w.table, SmallSplit()).ok());
  EXPECT_EQ(p.resumed_from_epoch(), -1);
  EXPECT_TRUE(FileExists(tc.checkpoint_path));
  std::remove(tc.checkpoint_path.c_str());
}

TEST_F(TrainerCheckpointTest, ArchitectureMismatchRejected) {
  OneHopWorld w = MakeOneHopWorld(300, 40, 105);
  NodeTypeId a = w.graph.FindNodeType("a").value();
  const std::string ckpt = TempPath("arch_mismatch.ckpt");
  TrainerConfig tc = SmallTrainerConfig();
  tc.epochs = 1;
  tc.checkpoint_path = ckpt;
  {
    GnnNodePredictor p(&w.graph, a, TaskKind::kBinaryClassification, 2,
                       SmallGnnConfig(), SmallSamplerOptions(), tc);
    ASSERT_TRUE(p.Fit(w.table, SmallSplit()).ok());
  }
  GnnConfig wider = SmallGnnConfig();
  wider.hidden_dim = 32;
  tc.resume = true;
  GnnNodePredictor other(&w.graph, a, TaskKind::kBinaryClassification, 2,
                         wider, SmallSamplerOptions(), tc);
  Status st = other.Fit(w.table, SmallSplit());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  std::remove(ckpt.c_str());
}

TEST_F(TrainerCheckpointTest, CorruptCheckpointFailsCleanly) {
  OneHopWorld w = MakeOneHopWorld(300, 40, 107);
  NodeTypeId a = w.graph.FindNodeType("a").value();
  const std::string ckpt = TempPath("corrupt.ckpt");
  {
    std::ofstream out(ckpt, std::ios::binary);
    out << "this is not a tensor bundle";
  }
  TrainerConfig tc = SmallTrainerConfig();
  tc.checkpoint_path = ckpt;
  tc.resume = true;
  GnnNodePredictor p(&w.graph, a, TaskKind::kBinaryClassification, 2,
                     SmallGnnConfig(), SmallSamplerOptions(), tc);
  Status st = p.Fit(w.table, SmallSplit());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  std::remove(ckpt.c_str());
}

TEST_F(TrainerCheckpointTest, CheckpointWriteFaultSurfacesAsStatus) {
  OneHopWorld w = MakeOneHopWorld(300, 40, 109);
  NodeTypeId a = w.graph.FindNodeType("a").value();
  TrainerConfig tc = SmallTrainerConfig();
  tc.epochs = 2;
  tc.checkpoint_path = TempPath("write_fault.ckpt");
  std::remove(tc.checkpoint_path.c_str());
  FaultInjector::Global().Arm(FaultSite::kAtomicWriteOpen, 0, /*times=*/-1);
  GnnNodePredictor p(&w.graph, a, TaskKind::kBinaryClassification, 2,
                     SmallGnnConfig(), SmallSamplerOptions(), tc);
  Status st = p.Fit(w.table, SmallSplit());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_FALSE(FileExists(tc.checkpoint_path));
}

// ---------------------------------------------- divergence recovery

using DivergenceTest = FaultTest;

TEST_F(DivergenceTest, NanLossRollsBackAndStillConverges) {
  OneHopWorld w = MakeOneHopWorld(300, 40, 111);
  NodeTypeId a = w.graph.FindNodeType("a").value();
  const Split split = SmallSplit();
  TrainerConfig tc = SmallTrainerConfig();
  tc.epochs = 10;
  // Poison one batch loss a few batches into the run.
  FaultInjector::Global().Arm(FaultSite::kNanLoss, /*skip=*/3, /*times=*/1);
  GnnNodePredictor p(&w.graph, a, TaskKind::kBinaryClassification, 2,
                     SmallGnnConfig(), SmallSamplerOptions(), tc);
  ASSERT_TRUE(p.Fit(w.table, split).ok());
  EXPECT_EQ(p.divergence_episodes(), 1);
  EXPECT_EQ(FaultInjector::Global().fired(FaultSite::kNanLoss), 1);
  EXPECT_GT(p.Evaluate(w.table, split.test), 0.8)
      << "one NaN episode must not wreck training";
}

TEST_F(DivergenceTest, NanGradientRollsBack) {
  OneHopWorld w = MakeOneHopWorld(300, 40, 113);
  NodeTypeId a = w.graph.FindNodeType("a").value();
  TrainerConfig tc = SmallTrainerConfig();
  tc.epochs = 4;
  FaultInjector::Global().Arm(FaultSite::kNanGradient, /*skip=*/1,
                              /*times=*/1);
  GnnNodePredictor p(&w.graph, a, TaskKind::kBinaryClassification, 2,
                     SmallGnnConfig(), SmallSamplerOptions(), tc);
  ASSERT_TRUE(p.Fit(w.table, SmallSplit()).ok());
  EXPECT_EQ(p.divergence_episodes(), 1);
  // The final parameters must be finite everywhere.
  for (double s : p.PredictScores(w.table, SmallSplit().test)) {
    EXPECT_TRUE(std::isfinite(s));
  }
}

TEST_F(DivergenceTest, GroupedStepRollbackIsExactWhereverTheFaultFires) {
  // 200 train rows at batch 128: two batches per epoch, cut into four and
  // three seed groups (TrainGroupSize(128) = 32) that backward into their
  // own sinks. The fault sites fire on the summed loss and gradient, once
  // per batch, and a rollback restores the epoch boundary whole: faulting
  // either batch of epoch 1, through either site, must leave the same run.
  ASSERT_EQ(TrainGroupSize(128), 32);
  OneHopWorld w = MakeOneHopWorld(300, 40, 119);
  NodeTypeId a = w.graph.FindNodeType("a").value();
  TrainerConfig tc = SmallTrainerConfig();
  tc.epochs = 4;
  std::vector<double> want;
  for (FaultSite site : {FaultSite::kNanLoss, FaultSite::kNanGradient}) {
    for (int64_t skip : {2, 3}) {  // epoch 1's first or second batch
      FaultInjector::Global().Reset();
      FaultInjector::Global().Arm(site, skip, /*times=*/1);
      GnnNodePredictor p(&w.graph, a, TaskKind::kBinaryClassification, 2,
                         SmallGnnConfig(), SmallSamplerOptions(), tc);
      ASSERT_TRUE(p.Fit(w.table, SmallSplit()).ok());
      const std::string label = std::string(FaultSiteName(site)) +
                                " at batch " + std::to_string(skip);
      EXPECT_EQ(p.divergence_episodes(), 1) << label;
      EXPECT_EQ(FaultInjector::Global().fired(site), 1) << label;
      // One check per batch, never per group: 4 epochs x 2 batches, plus
      // the batches of the rolled-back attempt.
      EXPECT_EQ(FaultInjector::Global().hits(site), 8 + (skip - 2) + 1)
          << label;
      ASSERT_EQ(p.epoch_losses().size(), 4u) << label;
      if (want.empty()) {
        want = p.epoch_losses();
      } else {
        EXPECT_EQ(p.epoch_losses(), want) << label;
      }
    }
  }
}

TEST_F(DivergenceTest, PersistentNanExhaustsRetriesWithDescriptiveError) {
  OneHopWorld w = MakeOneHopWorld(300, 40, 115);
  NodeTypeId a = w.graph.FindNodeType("a").value();
  TrainerConfig tc = SmallTrainerConfig();
  tc.max_divergence_retries = 2;
  FaultInjector::Global().Arm(FaultSite::kNanLoss, 0, /*times=*/-1);
  GnnNodePredictor p(&w.graph, a, TaskKind::kBinaryClassification, 2,
                     SmallGnnConfig(), SmallSamplerOptions(), tc);
  Status st = p.Fit(w.table, SmallSplit());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(st.message().find("diverged"), std::string::npos);
  EXPECT_EQ(p.divergence_episodes(), 3);  // initial + 2 retries
}

TEST_F(DivergenceTest, EpisodesAtDifferentPointsBothRecover) {
  OneHopWorld w = MakeOneHopWorld(300, 40, 117);
  NodeTypeId a = w.graph.FindNodeType("a").value();
  TrainerConfig tc = SmallTrainerConfig();
  tc.epochs = 6;
  tc.max_divergence_retries = 5;
  FaultInjector::Global().Arm(FaultSite::kNanLoss, /*skip=*/2, /*times=*/1);
  GnnNodePredictor p(&w.graph, a, TaskKind::kBinaryClassification, 2,
                     SmallGnnConfig(), SmallSamplerOptions(), tc);
  ASSERT_TRUE(p.Fit(w.table, SmallSplit()).ok());
  FaultInjector::Global().Arm(FaultSite::kNanLoss, /*skip=*/1, /*times=*/1);
  GnnNodePredictor q(&w.graph, a, TaskKind::kBinaryClassification, 2,
                     SmallGnnConfig(), SmallSamplerOptions(), tc);
  ASSERT_TRUE(q.Fit(w.table, SmallSplit()).ok());
  EXPECT_EQ(q.divergence_episodes(), 1);
}

}  // namespace
}  // namespace relgraph
