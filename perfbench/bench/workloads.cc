#include "bench/workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>

#include "baselines/feature_aggregator.h"
#include "baselines/gbdt.h"
#include "bench/world.h"
#include "core/buffer_pool.h"
#include "core/metrics.h"
#include "core/parallel.h"
#include "core/timer.h"
#include "core/trace.h"
#include "gnn/heads.h"
#include "tensor/autograd.h"
#include "tensor/optim.h"
#include "tensor/serialize.h"

namespace perfbench {

namespace {

using SteadyClock = std::chrono::steady_clock;

constexpr const char* kGnnQuery =
    "PREDICT COUNT(orders) = 0 OVER NEXT 28 DAYS FOR EACH users USING GNN "
    "WITH epochs=2, hidden=32, fanout=8, patience=0, policy=recent";
constexpr const char* kGbdtQuery =
    "PREDICT COUNT(orders) = 0 OVER NEXT 28 DAYS FOR EACH users USING GBDT "
    "WITH hops=2";
/// Epochs of the direct Fit, matching the GNN query's WITH epochs=2.
constexpr int64_t kFitEpochs = 2;

/// Blocks train_query's set-ups are split into across its query phase.
constexpr int kSetupBlocks = 10;

/// Responses per caller kept for the bit-identity check.
constexpr size_t kKeptPerCaller = 8;

double Now() {
  return std::chrono::duration<double>(SteadyClock::now().time_since_epoch())
      .count();
}

SteadyClock::time_point AtSeconds(double s) {
  return SteadyClock::time_point(std::chrono::duration_cast<SteadyClock::duration>(
      std::chrono::duration<double>(s)));
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

int64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->value();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Sizes SizesFor(const std::string& workload, bool tiny) {
  Sizes s;
  if (workload == "train_query") {
    s.users = 2000;
    s.products = 200;
    // A set-up here takes ~30 ms, so many are cheap (see RunTrainQuery).
    s.setups = 100;
  }
  if (tiny) {
    s.users = 300;
    s.products = 40;
    s.setups = 1;
    s.fit_train_rows = 256;
    s.fit_eval_rows = 256;
    s.prime_ids = 128;
    s.probe_ids = 32;
    s.replay_ids = 64;
    s.train_steps = 3;
  }
  return s;
}

/// Writes one metric, taking its unit from the spec tables.
class Recorder {
 public:
  explicit Recorder(RunOutput* out) : out_(out) {}

  void Put(const std::string& name, double value) {
    for (const MetricSpecs* specs : {&EndToEndMetrics(), &PerLayerMetrics()}) {
      for (const auto& [n, unit] : *specs) {
        if (n == name) {
          out_->metrics[name] = Metric{value, unit};
          return;
        }
      }
    }
    std::fprintf(stderr, "internal: metric %s has no spec\n", name.c_str());
    out_->correct = false;
  }

  void Detail(const std::string& name, double value) {
    out_->detail.emplace_back(name, value);
  }

  /// Median and tail of `samples` as `p50_name` / `tail_name`, with the
  /// sample count and tail level in the detail record.
  void Latency(const std::string& p50_name, const std::string& tail_name,
               const std::vector<double>& samples, double max_q = 0.99) {
    const LatencySummary s = Summarize(samples, max_q);
    Put(p50_name, s.p50);
    Put(tail_name, s.tail);
    Detail(tail_name + ".samples", static_cast<double>(s.n));
    Detail(tail_name + ".level", s.tail_level);
  }

  void Check(bool ok, const char* what) {
    ++out_->attempted;
    if (!ok) {
      ++out_->failed;
      out_->correct = false;
      std::fprintf(stderr, "CHECK FAILED: %s\n", what);
    }
  }

  void Ops(int64_t attempted, int64_t failed) {
    out_->attempted += attempted;
    out_->failed += failed;
  }

 private:
  RunOutput* out_;
};

// ---- serving phases ------------------------------------------------------

struct ServeSpec {
  IdStream::Kind ids = IdStream::Kind::kUniform;
  int callers = 1;
  bool scheduler = false;
  /// Open-loop append batches per second beside the readers.
  double writer_rate = 0.0;
};

/// Append batches per second of the serving workloads' writer: about half
/// of what one core sustains at 20,000 users (Apply + ApplyDelta take
/// ~25 ms there beside the readers), enough appends for a steady p90.
constexpr double kWriterRate = 20.0;

/// Level reported in the p99 roles (score_p99_ms, fresh_p99_ms). On the
/// 4-vCPU VM the benchmark was defined on, p99 moved by 20-30% between
/// runs of a 10 s workload, so those roles report p90 instead.
constexpr double kTailLevel = 0.90;

/// train_query's writer: Apply takes ~1 ms on its 2,000-user world, and its
/// shorter serving phase still needs ~100 appends for a p90.
constexpr double kTrainWriterRate = 50.0;

struct Serving {
  World* world = nullptr;
  InferenceEngine* engine = nullptr;
  CoalescingScheduler* scheduler = nullptr;
  OrderAppender* appender = nullptr;
  /// Responses answered at this snapshot version are kept for the
  /// bit-identity check (up to the phase's keep count per caller).
  int64_t keep_version = 0;
};

struct Kept {
  std::vector<int64_t> ids;
  std::vector<double> scores;
};

struct PhaseStats {
  /// Per request, in completion order per caller: latency (failures read
  /// kFailedLatency), completion time from the phase start, rows answered.
  std::vector<double> latency_ms;
  std::vector<double> done_s;
  std::vector<double> rows;
  std::vector<double> queue_wait_ms;
  int64_t requests = 0;
  int64_t failed = 0;
  int64_t rows_ok = 0;
  double seconds = 0.0;  ///< the phase's scheduled length
  std::vector<Kept> kept;

  std::vector<double> fresh_ms;  ///< failures read kFailedLatency
  std::vector<double> late_ms;
  std::vector<double> apply_ms;
  std::vector<double> delta_ms;
  int64_t appends = 0;
  int64_t append_failed = 0;

  void Merge(PhaseStats&& o) {
    auto cat = [](std::vector<double>* a, const std::vector<double>& b) {
      a->insert(a->end(), b.begin(), b.end());
    };
    cat(&latency_ms, o.latency_ms);
    cat(&done_s, o.done_s);
    cat(&rows, o.rows);
    cat(&queue_wait_ms, o.queue_wait_ms);
    requests += o.requests;
    failed += o.failed;
    rows_ok += o.rows_ok;
    for (Kept& k : o.kept) kept.push_back(std::move(k));
    cat(&fresh_ms, o.fresh_ms);
    cat(&late_ms, o.late_ms);
    cat(&apply_ms, o.apply_ms);
    cat(&delta_ms, o.delta_ms);
    appends += o.appends;
    append_failed += o.append_failed;
  }
};

void RecordAppend(const AppendTiming& t, double due_s, double started_s,
                  double done_s, PhaseStats* s) {
  ++s->appends;
  s->late_ms.push_back(LatenessMs(due_s, started_s));
  if (!t.ok) {
    ++s->append_failed;
    s->fresh_ms.push_back(kFailedLatency);
    return;
  }
  s->fresh_ms.push_back(FreshnessMs(due_s, done_s));
  s->apply_ms.push_back(t.apply_ms);
  s->delta_ms.push_back(t.delta_ms);
}

/// Closed-loop readers and the open-loop writer for `seconds`.
PhaseStats RunPhase(const Serving& sv, const ServeSpec& spec, double seconds,
                    uint64_t seed, size_t keep_per_caller) {
  std::vector<PhaseStats> per(static_cast<size_t>(spec.callers));
  PhaseStats writes;
  const double start = Now();
  const double end = start + seconds;
  std::vector<std::thread> threads;
  for (int c = 0; c < spec.callers; ++c) {
    threads.emplace_back([&, c] {
      PhaseStats& s = per[static_cast<size_t>(c)];
      IdStream ids(spec.ids, sv.world->popularity,
                   seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(c));
      while (Now() < end) {
        ScoreRequest request;
        request.entity_ids = ids.Request();
        const double t0 = Now();
        Result<ScoreResponse> response = [&] {
          TraceSpan span("bench/serve.score");
          return sv.scheduler != nullptr
                     ? sv.scheduler->Score(request)
                     : sv.engine->ScoreWithOptions(request);
        }();
        const double done = Now();
        ++s.requests;
        s.done_s.push_back(done - start);
        if (!response.ok() || response.value().degraded) {
          ++s.failed;
          s.latency_ms.push_back(kFailedLatency);
          s.rows.push_back(0.0);
          continue;
        }
        s.latency_ms.push_back((done - t0) * 1e3);
        s.rows.push_back(static_cast<double>(request.entity_ids.size()));
        s.queue_wait_ms.push_back(response.value().queue_wait_ms);
        s.rows_ok += static_cast<int64_t>(request.entity_ids.size());
        if (s.kept.size() < keep_per_caller &&
            response.value().snapshot_version == sv.keep_version) {
          s.kept.push_back({request.entity_ids, response.value().scores});
        }
      }
    });
  }
  threads.emplace_back([&] {
    // The first period is write-free, so the first responses of every
    // caller come from the initial epoch (see Serving::keep_version).
    for (int64_t k = 1;; ++k) {
      const double due = DueSeconds(start, k, spec.writer_rate);
      if (due >= end) break;
      const AppendBatch batch = sv.appender->Next();
      std::this_thread::sleep_until(AtSeconds(due));
      const double started = Now();
      const AppendTiming t = ApplyAndPublish(
          sv.world->stream.get(), sv.engine, sv.world->now_cutoff, batch);
      RecordAppend(t, due, started, Now(), &writes);
    }
  });
  for (std::thread& t : threads) t.join();
  PhaseStats total;
  total.seconds = seconds;
  for (PhaseStats& s : per) total.Merge(std::move(s));
  total.Merge(std::move(writes));
  return total;
}

/// Reads of a phase summarized per one-second window.
WindowSummary ScoreWindows(const PhaseStats& s) {
  return SummarizeWindows(s.done_s, s.latency_ms, s.rows, s.seconds, 1.0,
                          kTailLevel);
}

/// The end-to-end read and freshness metrics of a phase.
void PutServing(Recorder* rec, const PhaseStats& s) {
  const WindowSummary w = ScoreWindows(s);
  rec->Put("score_rows_per_s", w.rate);
  rec->Put("score_p50_ms", w.p50);
  rec->Put("score_p99_ms", w.tail);
  rec->Detail("score.samples", static_cast<double>(s.latency_ms.size()));
  rec->Detail("score.windows", static_cast<double>(w.windows));
  rec->Detail("score.min_window_samples", static_cast<double>(w.min_samples));
  rec->Detail("score_p99_ms.level", w.tail_level);
  rec->Latency("fresh_p50_ms", "fresh_p99_ms", s.fresh_ms, kTailLevel);
  rec->Detail("writer_late_ms.p50", Percentile(s.late_ms, 0.5));
  rec->Detail("writer_late_ms.max", Percentile(s.late_ms, 1.0));
}

/// Every kept concurrent response must equal a single-caller, caches-off
/// engine's answer on the same epoch, bit for bit.
bool CheckKept(const World& world, std::shared_ptr<const HeteroGraph> epoch,
               const std::string& checkpoint, const std::vector<Kept>& kept) {
  auto reference = MakeEngine(world, checkpoint, CachesOff(), std::move(epoch));
  if (!reference.ok()) return false;
  for (const Kept& k : kept) {
    auto scores = reference.value()->Score(k.ids);
    if (!scores.ok() || !ScoresIdentical(scores.value(), k.scores)) {
      return false;
    }
  }
  return true;
}

/// Share of warm embedding entries that still hit after a delta: warm the
/// probe, publish one append batch, re-probe, count hits. Readers are idle.
double DeltaSurvivedFrac(const Serving& sv, const std::vector<int64_t>& probe,
                         int64_t batches, PhaseStats* appends) {
  int64_t hits = 0;
  int64_t probed = 0;
  for (int64_t b = 0; b < batches; ++b) {
    if (!sv.engine->Score(probe).ok()) return 0.0;
    const AppendBatch batch = sv.appender->Next();
    const double start = Now();
    const AppendTiming t = ApplyAndPublish(
        sv.world->stream.get(), sv.engine, sv.world->now_cutoff, batch);
    RecordAppend(t, start, start, Now(), appends);
    const int64_t before = sv.engine->stats().embedding_hits;
    if (!sv.engine->Score(probe).ok()) return 0.0;
    hits += sv.engine->stats().embedding_hits - before;
    probed += static_cast<int64_t>(probe.size());
  }
  return Ratio(static_cast<double>(hits), static_cast<double>(probed));
}

// ---- stage replays (traced runs) -----------------------------------------

struct ServeStages {
  std::vector<double> seed_us;
  std::vector<double> concat_us;
  std::vector<double> forward_us;
  std::vector<double> head_us;
  double nodes_per_seed = 0.0;
  double coverage = 0.0;
};

/// Replays the cold serving path outside the engine with its public
/// pieces, one micro-batch at a time, next to a single-caller cold Score
/// of the same ids.
Result<ServeStages> ReplayServeStages(const World& world,
                                      const std::string& checkpoint,
                                      const std::vector<int64_t>& ids) {
  RELGRAPH_ASSIGN_OR_RETURN(std::unique_ptr<InferenceEngine> engine,
                            MakeEngine(world, checkpoint, CachesOff()));
  const std::shared_ptr<const HeteroGraph> graph = world.stream->graph();
  Rng rng(1);
  HeteroSageModel model(graph.get(), ModelConfig(), &rng);
  ScalarHead head(ModelConfig().hidden_dim, &rng);
  RELGRAPH_ASSIGN_OR_RETURN(TensorBundle bundle, LoadTensorBundle(checkpoint));
  AssignParameterValues({&model, &head}, bundle.tensors);
  const NeighborSampler sampler(graph.get(), SamplerConfig());
  const size_t micro_batch =
      static_cast<size_t>(engine->serve_options().micro_batch_size);

  ServeStages st;
  double score_us = 0.0;
  double stage_us = 0.0;
  int64_t nodes = 0;
  for (size_t g = 0; g < ids.size(); g += micro_batch) {
    const std::vector<int64_t> group(
        ids.begin() + static_cast<std::ptrdiff_t>(g),
        ids.begin() + static_cast<std::ptrdiff_t>(std::min(ids.size(), g + micro_batch)));
    Timer timer;
    {
      TraceSpan span("bench/serve.cold_score");
      RELGRAPH_RETURN_IF_ERROR(engine->Score(group).status());
    }
    score_us += timer.Seconds() * 1e6;

    std::vector<Subgraph> parts;
    parts.reserve(group.size());
    for (int64_t id : group) {
      timer = Timer();
      {
        TraceSpan span("bench/sampler.serve_seed");
        parts.push_back(sampler.SampleForServing(
            world.users, id, world.now_cutoff, engine->serving_salt()));
      }
      st.seed_us.push_back(timer.Seconds() * 1e6);
      stage_us += st.seed_us.back();
      for (const auto& typed : parts.back().frontiers.back().nodes) {
        nodes += static_cast<int64_t>(typed.size());
      }
    }
    std::vector<const Subgraph*> ptrs;
    for (const Subgraph& p : parts) ptrs.push_back(&p);
    timer = Timer();
    Subgraph merged = [&] {
      TraceSpan span("bench/sampler.concat");
      return ConcatSubgraphs(graph.get(), ptrs);
    }();
    st.concat_us.push_back(timer.Seconds() * 1e6);
    timer = Timer();
    VarPtr emb = [&] {
      TraceSpan span("bench/gnn.serve_forward");
      return model.ForwardOn(graph.get(), merged, world.users, &rng,
                             /*training=*/false);
    }();
    st.forward_us.push_back(timer.Seconds() * 1e6);
    timer = Timer();
    {
      TraceSpan span("bench/gnn.head");
      VarPtr out = head.Forward(emb);
    }
    st.head_us.push_back(timer.Seconds() * 1e6);
    stage_us += st.concat_us.back() + st.forward_us.back() + st.head_us.back();
  }
  st.nodes_per_seed =
      Ratio(static_cast<double>(nodes), static_cast<double>(ids.size()));
  st.coverage = Ratio(stage_us, score_us);
  return st;
}

struct TrainStages {
  std::vector<double> sample_ms;
  std::vector<double> forward_ms;
  std::vector<double> backward_ms;
  std::vector<double> optim_ms;
};

/// Replays training steps through the public pieces of one Fit step:
/// sample a batch, forward + loss, backward, clip + Adam.
TrainStages ReplayTrainSteps(const World& world, int64_t steps,
                             uint64_t seed) {
  const std::shared_ptr<const HeteroGraph> graph = world.stream->graph();
  Rng rng(seed);
  HeteroSageModel model(graph.get(), ModelConfig(), &rng);
  ScalarHead head(ModelConfig().hidden_dim, &rng);
  std::vector<VarPtr> params = model.Parameters();
  for (const VarPtr& p : head.Parameters()) params.push_back(p);
  const TrainerConfig tc;
  Adam opt(params, tc.lr, 0.9f, 0.999f, 1e-8f, tc.weight_decay);
  const NeighborSampler sampler(graph.get(), SamplerConfig());
  const std::vector<int64_t>& train = world.split.train;

  TrainStages st;
  for (int64_t s = 0; s < steps; ++s) {
    const int64_t n = std::min<int64_t>(tc.batch_size,
                                        static_cast<int64_t>(train.size()));
    std::vector<int64_t> seeds;
    std::vector<Timestamp> cutoffs;
    Tensor targets(n, 1);
    for (int64_t i = 0; i < n; ++i) {
      const size_t row = static_cast<size_t>(
          train[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(train.size()) - 1))]);
      seeds.push_back(world.table.entity_rows[row]);
      cutoffs.push_back(world.table.cutoffs[row]);
      targets.at(i, 0) = static_cast<float>(world.table.labels[row]);
    }
    Timer timer;
    Subgraph sg = [&] {
      TraceSpan span("bench/sampler.train_batch");
      return sampler.Sample(world.users, seeds, cutoffs, &rng);
    }();
    st.sample_ms.push_back(timer.Millis());
    timer = Timer();
    VarPtr loss = [&] {
      TraceSpan span("bench/train.step_forward");
      opt.ZeroGrad();
      VarPtr out = head.Forward(model.Forward(sg, world.users, &rng, true));
      return ag::BinaryCrossEntropyWithLogits(out, targets);
    }();
    st.forward_ms.push_back(timer.Millis());
    timer = Timer();
    {
      TraceSpan span("bench/train.step_backward");
      Backward(loss);
    }
    st.backward_ms.push_back(timer.Millis());
    timer = Timer();
    {
      TraceSpan span("bench/train.step_optim");
      opt.ClipGradNorm(tc.clip_norm);
      opt.Step();
    }
    st.optim_ms.push_back(timer.Millis());
  }
  return st;
}

// ---- per-layer snapshots -------------------------------------------------

/// Process counters read at construction (GEMM counters move only while
/// metrics are on).
struct Counters {
  double gemm_flops = static_cast<double>(CounterValue("gemm_flops_total"));
  double gemm_parallel =
      static_cast<double>(CounterValue("gemm_parallel_total"));
  double gemm_serial = static_cast<double>(CounterValue("gemm_serial_total"));
  double heap_allocs =
      static_cast<double>(FloatBufferPool::Global().stats().heap_allocs);
};

struct GemmCounts {
  double flops = 0.0;
  double parallel = 0.0;
  double serial = 0.0;
};

/// GEMM work since `before` was read.
GemmCounts GemmSince(const Counters& before) {
  const Counters now;
  return {now.gemm_flops - before.gemm_flops,
          now.gemm_parallel - before.gemm_parallel,
          now.gemm_serial - before.gemm_serial};
}

void PutGemm(Recorder* rec, const GemmCounts& gemm, double rows) {
  const double dispatches = gemm.parallel + gemm.serial;
  rec->Put("tensor.gemm_flops_per_row", Ratio(gemm.flops, rows));
  rec->Put("tensor.gemm_parallel_frac", Ratio(gemm.parallel, dispatches));
  rec->Detail("tensor.gemm_rows", rows);
  rec->Detail("tensor.gemm_dispatches", dispatches);
}

/// Median of the src-emitted spans named `name` (ms).
double SpanMedianMs(const std::string& name) {
  std::vector<double> ms;
  for (const TraceSpanRecord& r : TraceCollector::Global().Snapshot()) {
    if (r.closed && r.name == name) ms.push_back(r.wall_us / 1e3);
  }
  return Median(ms);
}

struct SetupTimes {
  std::vector<double> setup_s;
  std::vector<double> fit_epoch_s;
  std::vector<double> build_ms;
  std::vector<double> label_ms;
  std::vector<double> compile_ms;
};

void PutSetupLayers(Recorder* rec, const SetupTimes& t) {
  rec->Put("db2graph.build_ms", Median(t.build_ms));
  rec->Put("pq.label_build_ms", Median(t.label_ms));
  rec->Put("pq.compile_ms", Median(t.compile_ms));
  rec->Detail("setup.repetitions", static_cast<double>(t.setup_s.size()));
}

void PutAppendLayers(Recorder* rec, const PhaseStats& appends,
                     const World& world) {
  rec->Latency("db2graph.apply_ms.p50", "db2graph.apply_ms.p99",
               appends.apply_ms, kTailLevel);
  rec->Latency("serve.apply_delta_ms.p50", "serve.apply_delta_ms.p99",
               appends.delta_ms, kTailLevel);
  rec->Put("bench.writer_late_p99_ms",
           Summarize(appends.late_ms).tail);
  rec->Put("graph.max_segments",
           static_cast<double>(MaxSegments(*world.stream->graph())));
}

void PutReplayLayers(Recorder* rec, const World& world,
                     const std::string& checkpoint, int64_t replay_ids,
                     uint64_t seed, int64_t train_steps) {
  const std::vector<int64_t> ids =
      DistinctIds(IdStream::Kind::kUniform, world.popularity, seed ^ 0x51,
                  replay_ids);
  auto serve = ReplayServeStages(world, checkpoint, ids);
  rec->Check(serve.ok(), "serving stage replay");
  if (serve.ok()) {
    const ServeStages& s = serve.value();
    rec->Put("sampler.serve_seed_us", Median(s.seed_us));
    rec->Put("sampler.nodes_per_seed", s.nodes_per_seed);
    rec->Put("sampler.concat_us", Median(s.concat_us));
    rec->Put("gnn.serve_forward_us", Median(s.forward_us));
    rec->Put("gnn.head_us", Median(s.head_us));
    rec->Put("serve.stage_coverage", s.coverage);
    rec->Detail("sampler.serve_seed_us.samples",
                static_cast<double>(s.seed_us.size()));
    rec->Detail("gnn.serve_forward_us.samples",
                static_cast<double>(s.forward_us.size()));
  }
  const TrainStages t = ReplayTrainSteps(world, train_steps, seed ^ 0x77);
  rec->Put("sampler.train_batch_ms", Median(t.sample_ms));
  rec->Put("train.step_forward_ms", Median(t.forward_ms));
  rec->Put("train.step_backward_ms", Median(t.backward_ms));
  rec->Put("train.step_optim_ms", Median(t.optim_ms));
  rec->Detail("train.step_samples", static_cast<double>(t.forward_ms.size()));
}

// ---- the serving phase ----------------------------------------------------

/// Ids warmed, and rounds, of the delta-survival probe.
constexpr int64_t kSurvivalProbeIds = 64;
constexpr int64_t kSurvivalRounds = 16;

struct ServeResult {
  PhaseStats reads;        ///< the measured phase (the traced half if traced)
  PhaseStats untraced;     ///< traced runs: the untraced first half
  GemmCounts traced_gemm;  ///< traced runs: GEMM work of the traced half
};

/// The serving phase every workload ends with: the readers and the
/// open-loop writer for `seconds` (traced runs: the first half untraced,
/// the second traced), the output checks, and the serving-layer metrics.
ServeResult ServeAndMeasure(const RunOptions& o, const Sizes& sz,
                            const ServeSpec& spec, World* world,
                            InferenceEngine* engine,
                            CoalescingScheduler* scheduler,
                            const std::string& ckpt_path, double seconds,
                            Recorder* rec);

// ---- serve_cold / serve_live ---------------------------------------------

void RunServe(const RunOptions& o, const ServeSpec& spec, Recorder* rec) {
  const Sizes sz = SizesFor(o.workload, o.tiny);
  const std::string ckpt_path = o.work_dir + "/" + o.workload + ".ckpt";

  // Set-up, repeated: datagen, graph, checkpoint training, engine (and
  // scheduler), cache priming. The last one serves.
  SetupTimes times;
  std::unique_ptr<CoalescingScheduler> scheduler;
  std::unique_ptr<InferenceEngine> engine;
  std::unique_ptr<World> world;
  Checkpoint ckpt;
  const uint64_t datagen_seed = DatagenSeed(sz, o.seed);
  for (int r = 0; r < sz.setups; ++r) {
    const bool last = r + 1 == sz.setups;
    scheduler.reset();
    engine.reset();
    world.reset();
    Timer timer;
    auto w = MakeWorld(sz, datagen_seed);
    rec->Check(w.ok(), "world set-up");
    if (!w.ok()) return;
    world = std::make_unique<World>(std::move(w).value());
    // The served model's test AUC is scored once, outside the timing.
    auto c = TrainCheckpoint(
        *world, Strided(world->split.train, sz.fit_train_rows),
        Strided(world->split.val, sz.fit_eval_rows),
        last ? Strided(world->split.test, sz.fit_eval_rows)
             : std::vector<int64_t>{},
        1, ckpt_path);
    rec->Check(c.ok(), "checkpoint training");
    if (!c.ok()) return;
    ckpt = c.value();
    auto e = MakeEngine(*world, ckpt_path);
    rec->Check(e.ok(), "engine construction");
    if (!e.ok()) return;
    engine = std::move(e).value();
    if (spec.scheduler) {
      scheduler = std::make_unique<CoalescingScheduler>(engine.get());
    }
    const Status primed = engine->WarmUp(DistinctIds(
        spec.ids, world->popularity, o.seed ^ 0xA11CE, sz.prime_ids));
    rec->Check(primed.ok(), "cache priming");
    times.setup_s.push_back(timer.Seconds() - ckpt.auc_s);
    times.fit_epoch_s.push_back(ckpt.fit_s / static_cast<double>(ckpt.epochs));
    std::fprintf(stderr,
                 "set-up %d: %.3f s (datagen %.1f ms, graph %.1f ms, labels "
                 "%.1f ms, fit %.1f ms)\n",
                 r, times.setup_s.back(), world->datagen_ms, world->build_ms,
                 world->label_ms, ckpt.fit_s * 1e3);
    times.build_ms.push_back(world->build_ms);
    times.label_ms.push_back(world->label_ms);
    times.compile_ms.push_back(world->compile_ms);
  }
  rec->Check(std::isfinite(ckpt.test_auc), "served model AUC");

  const ServeResult served = ServeAndMeasure(o, sz, spec, world.get(),
                                             engine.get(), scheduler.get(),
                                             ckpt_path, o.seconds, rec);
  if (o.trace) {
    PutGemm(rec, served.traced_gemm,
            static_cast<double>(served.reads.rows_ok));
    rec->Put("core.trace_overhead_frac",
             Ratio(ScoreWindows(served.untraced).rate,
                   ScoreWindows(served.reads).rate) -
                 1.0);
    rec->Put("train.prefetch_stalls", static_cast<double>(ckpt.prefetch_stalls));
    PutSetupLayers(rec, times);
    // The declarative queries do not run here.
    rec->Put("pq.query_gnn_s", 0.0);
    rec->Put("pq.query_gbdt_s", 0.0);
    rec->Put("pq.test_auc_gbdt", 0.0);
    rec->Put("baselines.features_ms", 0.0);
    rec->Put("baselines.gbdt_fit_ms", 0.0);
  } else {
    rec->Put("setup_s", Median(times.setup_s));
    rec->Put("fit_epoch_s", Median(times.fit_epoch_s));
    rec->Put("test_auc_gnn", ckpt.test_auc);
    PutServing(rec, served.reads);
  }
}

ServeResult ServeAndMeasure(const RunOptions& o, const Sizes& sz,
                            const ServeSpec& spec, World* world,
                            InferenceEngine* engine,
                            CoalescingScheduler* scheduler,
                            const std::string& ckpt_path, double seconds,
                            Recorder* rec) {
  OrderAppender appender(*world, o.seed ^ 0xB0B);
  const std::shared_ptr<const HeteroGraph> first_epoch = world->stream->graph();
  Serving sv{world, engine, scheduler, &appender,
             engine->snapshot_version()};

  ServeResult out;
  PhaseStats& reads = out.reads;
  // Traced runs: engine, scheduler and process counters around the traced
  // half, read before anything else runs.
  ServeStats s0, s1;
  CoalesceStats c0, c1;
  double heap_allocs = 0.0;
  if (o.trace) {
    SetMetricsEnabled(false);
    out.untraced = RunPhase(sv, spec, seconds / 2, o.seed, kKeptPerCaller);
    SetMetricsEnabled(true);
    s0 = engine->stats();
    if (scheduler) c0 = scheduler->stats();
    const Counters start;
    reads = RunPhase(sv, spec, seconds / 2, o.seed + 1, 0);
    out.traced_gemm = GemmSince(start);
    heap_allocs = Counters().heap_allocs - start.heap_allocs;
    s1 = engine->stats();
    if (scheduler) c1 = scheduler->stats();
  } else {
    reads = RunPhase(sv, spec, seconds, o.seed, kKeptPerCaller);
  }
  const PhaseStats& untraced = out.untraced;
  rec->Ops(reads.requests + reads.appends + untraced.requests + untraced.appends,
           reads.failed + reads.append_failed + untraced.failed +
               untraced.append_failed);
  const std::vector<Kept>& kept = o.trace ? untraced.kept : reads.kept;
  rec->Check(!kept.empty() && CheckKept(*world, first_epoch, ckpt_path, kept),
             "concurrent scores equal a single-caller caches-off engine");

  if (o.trace) {
    const double emb = static_cast<double>(
        (s1.embedding_hits - s0.embedding_hits) +
        (s1.embedding_misses - s0.embedding_misses));
    const double sub = static_cast<double>(
        (s1.subgraph_hits - s0.subgraph_hits) +
        (s1.subgraph_misses - s0.subgraph_misses));
    rec->Put("serve.embedding_hit_rate",
             Ratio(static_cast<double>(s1.embedding_hits - s0.embedding_hits), emb));
    rec->Put("serve.subgraph_hit_rate",
             Ratio(static_cast<double>(s1.subgraph_hits - s0.subgraph_hits), sub));
    rec->Put("serve.cache_lookups", emb);
    rec->Put("serve.shard_swaps",
             static_cast<double>(s1.shard_swaps - s0.shard_swaps));
    const double batches = static_cast<double>(c1.batches - c0.batches);
    rec->Put("serve.coalesce_rate",
             Ratio(static_cast<double>(c1.coalesced_requests - c0.coalesced_requests),
                   static_cast<double>(c1.requests - c0.requests)));
    rec->Put("serve.coalesce_dedup_rate",
             Ratio(static_cast<double>(c1.dedup_rows - c0.dedup_rows),
                   static_cast<double>(c1.rows_submitted - c0.rows_submitted)));
    rec->Put("serve.coalesce_rows_per_batch",
             Ratio(static_cast<double>(c1.rows_executed - c0.rows_executed), batches));
    rec->Put("serve.coalesce_batches", batches);
    rec->Put("serve.queue_wait_ms.p50", Median(reads.queue_wait_ms));
    rec->Put("serve.batch_exec_ms.p50", SpanMedianMs("serve/score_coalesced"));
    rec->Put("core.arena_heap_allocs", heap_allocs);
    rec->Put("bench.score_samples", static_cast<double>(reads.latency_ms.size()));
    rec->Put("bench.fresh_samples", static_cast<double>(reads.fresh_ms.size()));
    PutAppendLayers(rec, reads, *world);
    PutReplayLayers(rec, *world, ckpt_path, sz.replay_ids, o.seed,
                    sz.train_steps);
    PhaseStats probe_appends;
    const std::vector<int64_t> probe =
        DistinctIds(spec.ids, world->popularity, o.seed ^ 0xFEED,
                    kSurvivalProbeIds);
    rec->Put("serve.delta_survived_frac",
             DeltaSurvivedFrac(sv, probe, kSurvivalRounds, &probe_appends));
    rec->Ops(probe_appends.appends, probe_appends.append_failed);
  }

  const std::vector<int64_t> probe =
      DistinctIds(spec.ids, world->popularity, o.seed ^ 0xC0FFEE,
                  sz.probe_ids);
  rec->Check(CheckFinalEpoch(*world, engine, ckpt_path, probe),
             "final epoch equals a rebuild and a cold engine on it");
  return out;
}

// ---- train_query -----------------------------------------------------------

struct QueryRuns {
  std::vector<double> gnn_s;
  std::vector<double> gbdt_s;
  std::vector<double> fit_epoch_s;
  double gnn_auc = 0.0;
  double gbdt_auc = 0.0;
  int64_t prefetch_stalls = 0;
  int64_t fit_examples = 0;  ///< epochs x train rows across the Fits
  GemmCounts fit_gemm;       ///< GEMM work of the direct Fits
};

/// The GBDT query once, then the GNN query and a direct Fit (saved as the
/// serving checkpoint) until `budget_s` would be exceeded; at least once.
/// `between_rounds` runs after the GBDT query and after every round.
void RunQueries(PredictiveQueryEngine* qe, const World& world,
                const std::string& ckpt_path, double budget_s, bool with_gbdt,
                const std::function<void()>& between_rounds, QueryRuns* runs,
                Recorder* rec) {
  const double start = Now();
  if (with_gbdt) {
    Timer timer;
    auto r = [&] {
      TraceSpan span("bench/pq.query_gbdt");
      return qe->Execute(kGbdtQuery);
    }();
    runs->gbdt_s.push_back(timer.Seconds());
    rec->Check(r.ok() && std::isfinite(r.value().test_metric), "GBDT query");
    if (r.ok()) runs->gbdt_auc = r.value().test_metric;
    between_rounds();
  }
  double last = 0.0;
  while (runs->gnn_s.empty() || Now() - start + last <= budget_s) {
    const double t0 = Now();
    Timer timer;
    auto r = [&] {
      TraceSpan span("bench/pq.query_gnn");
      return qe->Execute(kGnnQuery);
    }();
    runs->gnn_s.push_back(timer.Seconds());
    rec->Check(r.ok() && std::isfinite(r.value().test_metric), "GNN query");
    if (r.ok()) runs->gnn_auc = r.value().test_metric;
    const Counters before;
    auto c = [&] {
      TraceSpan span("bench/train.fit");
      return TrainCheckpoint(world, world.split.train, world.split.val, {},
                             kFitEpochs, ckpt_path);
    }();
    const GemmCounts gemm = GemmSince(before);
    rec->Check(c.ok(), "direct Fit");
    if (c.ok()) {
      runs->fit_epoch_s.push_back(c.value().fit_s / kFitEpochs);
      runs->prefetch_stalls += c.value().prefetch_stalls;
      runs->fit_examples += kFitEpochs * c.value().train_examples;
      runs->fit_gemm.flops += gemm.flops;
      runs->fit_gemm.parallel += gemm.parallel;
      runs->fit_gemm.serial += gemm.serial;
    }
    between_rounds();
    last = Now() - t0;
  }
}

void RunTrainQuery(const RunOptions& o, Recorder* rec) {
  const Sizes sz = SizesFor(o.workload, o.tiny);
  const std::string ckpt_path = o.work_dir + "/" + o.workload + ".ckpt";

  // One set-up: datagen, graph, labels, query engine with its graph. The
  // first world and engine are kept for the queries; later set-ups are
  // timed and dropped (teardown untimed).
  SetupTimes times;
  std::unique_ptr<World> world;
  std::unique_ptr<PredictiveQueryEngine> qe;
  const uint64_t datagen_seed = DatagenSeed(sz, o.seed);
  auto set_up = [&] {
    Timer timer;
    auto w = MakeWorld(sz, datagen_seed);
    rec->Check(w.ok(), "world set-up");
    if (!w.ok()) return;
    auto new_world = std::make_unique<World>(std::move(w).value());
    auto new_qe = std::make_unique<PredictiveQueryEngine>(new_world->db.get());
    rec->Check(new_qe->Graph().ok(), "query engine graph");
    times.setup_s.push_back(timer.Seconds());
    times.build_ms.push_back(new_world->build_ms);
    times.label_ms.push_back(new_world->label_ms);
    times.compile_ms.push_back(new_world->compile_ms);
    if (!world) {
      world = std::move(new_world);
      qe = std::move(new_qe);
    }
  };
  // A set-up takes ~30 ms here, while the host's slow spells last seconds,
  // so the set-ups are spread over the query phase in blocks, one before
  // it and one after each query round, rather than timed back to back.
  const int per_block = (sz.setups + kSetupBlocks - 1) / kSetupBlocks;
  int setups_done = 0;
  auto setup_block = [&] {
    for (int i = 0; i < per_block && setups_done < sz.setups; ++i) {
      set_up();
      ++setups_done;
    }
  };
  setup_block();
  if (!world) return;

  // Queries get half the run, serving the fitted model the other half.
  const double query_budget = 0.5 * o.seconds;
  const double serve_seconds = 0.5 * o.seconds;
  QueryRuns runs;
  QueryRuns untraced;
  if (o.trace) {
    SetMetricsEnabled(false);
    RunQueries(qe.get(), *world, ckpt_path, 0.0, false, [] {}, &untraced,
               rec);
    SetMetricsEnabled(true);
  }
  RunQueries(qe.get(), *world, ckpt_path, query_budget, true, setup_block,
             &runs, rec);
  while (setups_done < sz.setups) setup_block();
  if (o.trace) {
    PutGemm(rec, runs.fit_gemm, static_cast<double>(runs.fit_examples));
    rec->Put("core.trace_overhead_frac",
             Ratio(Median(runs.fit_epoch_s), Median(untraced.fit_epoch_s)) - 1.0);
    rec->Put("pq.query_gnn_s", Median(runs.gnn_s));
    rec->Put("pq.query_gbdt_s", Median(runs.gbdt_s));
    rec->Put("pq.test_auc_gbdt", runs.gbdt_auc);
    rec->Put("train.prefetch_stalls", static_cast<double>(runs.prefetch_stalls));

    FeatureAggregatorOptions agg;
    agg.max_hops = 2;
    agg.recency_features = true;
    Timer timer;
    auto features = [&]() -> Result<Tensor> {
      TraceSpan span("bench/baselines.features");
      RELGRAPH_ASSIGN_OR_RETURN(FeatureAggregator fa,
                                FeatureAggregator::Build(*world->db, "users", agg));
      return fa.Compute(world->table.entity_rows, world->table.cutoffs);
    }();
    rec->Put("baselines.features_ms", timer.Millis());
    rec->Check(features.ok(), "feature aggregation");
    if (features.ok()) {
      GbdtModel gbdt;
      timer = Timer();
      Status fit = [&] {
        TraceSpan span("bench/baselines.gbdt_fit");
        return gbdt.Fit(features.value(), world->table.labels,
                        TaskKind::kBinaryClassification, world->split.train,
                        world->split.val, 2);
      }();
      rec->Put("baselines.gbdt_fit_ms", timer.Millis());
      rec->Check(fit.ok(), "GBDT fit");
    }
  }

  // Serve the fitted model beside the writer: every user once per sweep,
  // caches off, so each request is a full sample + forward (batch scoring
  // after training).
  auto e = MakeEngine(*world, ckpt_path, CachesOff());
  rec->Check(e.ok(), "serving engine");
  if (!e.ok()) return;
  std::unique_ptr<InferenceEngine> engine = std::move(e).value();
  const ServeResult served = ServeAndMeasure(
      o, sz, ServeSpec{IdStream::Kind::kSweep, 1, false, kTrainWriterRate},
      world.get(), engine.get(), nullptr, ckpt_path, serve_seconds, rec);

  if (o.trace) {
    PutSetupLayers(rec, times);
  } else {
    rec->Put("setup_s", Median(times.setup_s));
    rec->Put("fit_epoch_s", Median(runs.fit_epoch_s));
    rec->Put("test_auc_gnn", runs.gnn_auc);
    PutServing(rec, served.reads);
    rec->Detail("pq.query_gnn_s", Median(runs.gnn_s));
    rec->Detail("pq.query_gbdt_s", Median(runs.gbdt_s));
    rec->Detail("pq.test_auc_gbdt", runs.gbdt_auc);
  }
}

}  // namespace

const MetricSpecs& EndToEndMetrics() {
  static const MetricSpecs specs = {
      {"setup_s", "s"},
      {"ok_rate", "ratio"},
      {"rss_peak_mb", "MB"},
      {"score_rows_per_s", "rows/s"},
      {"score_p50_ms", "ms"},
      {"score_p99_ms", "ms"},
      {"fresh_p50_ms", "ms"},
      {"fresh_p99_ms", "ms"},
      {"fit_epoch_s", "s"},
      {"test_auc_gnn", "auc"},
  };
  return specs;
}

const MetricSpecs& PerLayerMetrics() {
  static const MetricSpecs specs = {
      {"serve.embedding_hit_rate", "ratio"},
      {"serve.subgraph_hit_rate", "ratio"},
      {"serve.cache_lookups", "count"},
      {"serve.delta_survived_frac", "ratio"},
      {"serve.apply_delta_ms.p50", "ms"},
      {"serve.apply_delta_ms.p99", "ms"},
      {"serve.shard_swaps", "count"},
      {"serve.coalesce_rate", "ratio"},
      {"serve.coalesce_dedup_rate", "ratio"},
      {"serve.coalesce_rows_per_batch", "rows"},
      {"serve.coalesce_batches", "count"},
      {"serve.queue_wait_ms.p50", "ms"},
      {"serve.batch_exec_ms.p50", "ms"},
      {"serve.stage_coverage", "ratio"},
      {"db2graph.build_ms", "ms"},
      {"db2graph.apply_ms.p50", "ms"},
      {"db2graph.apply_ms.p99", "ms"},
      {"graph.max_segments", "count"},
      {"sampler.serve_seed_us", "us"},
      {"sampler.nodes_per_seed", "nodes"},
      {"sampler.concat_us", "us"},
      {"sampler.train_batch_ms", "ms"},
      {"gnn.serve_forward_us", "us"},
      {"gnn.head_us", "us"},
      {"tensor.gemm_flops_per_row", "flop/row"},
      {"tensor.gemm_parallel_frac", "ratio"},
      {"train.step_forward_ms", "ms"},
      {"train.step_backward_ms", "ms"},
      {"train.step_optim_ms", "ms"},
      {"train.prefetch_stalls", "count"},
      {"pq.label_build_ms", "ms"},
      {"pq.compile_ms", "ms"},
      {"pq.query_gnn_s", "s"},
      {"pq.query_gbdt_s", "s"},
      {"pq.test_auc_gbdt", "auc"},
      {"baselines.features_ms", "ms"},
      {"baselines.gbdt_fit_ms", "ms"},
      {"core.pool_threads", "threads"},
      {"core.arena_heap_allocs", "count"},
      {"core.trace_overhead_frac", "ratio"},
      {"bench.writer_late_p99_ms", "ms"},
      {"bench.score_samples", "count"},
      {"bench.fresh_samples", "count"},
  };
  return specs;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"serve_cold", "serve_live",
                                                 "train_query"};
  return names;
}

RunOutput RunWorkload(const RunOptions& o) {
  RunOutput out;
  Recorder rec(&out);
  SetMetricsEnabled(o.trace);
  if (o.workload == "serve_cold") {
    RunServe(o, ServeSpec{IdStream::Kind::kUniform, 4, true, kWriterRate},
             &rec);
  } else if (o.workload == "serve_live") {
    RunServe(o, ServeSpec{IdStream::Kind::kZipf, 3, false, kWriterRate}, &rec);
  } else if (o.workload == "train_query") {
    RunTrainQuery(o, &rec);
  } else {
    rec.Check(false, "unknown workload");
  }
  if (o.trace) {
    rec.Put("core.pool_threads", static_cast<double>(NumThreads()));
  } else {
    rec.Put("ok_rate", OkRate(out.attempted, out.failed));
    rec.Put("rss_peak_mb", PeakRssMb());
  }
  // A run cut short by a failed set-up still reports every metric.
  for (const auto& [name, unit] : o.trace ? PerLayerMetrics() : EndToEndMetrics()) {
    if (out.metrics.count(name) == 0) {
      if (out.correct) {
        std::fprintf(stderr, "internal: metric %s was not measured\n",
                     name.c_str());
        out.correct = false;
      }
      out.metrics[name] = Metric{0.0, unit};
    }
  }
  if (o.trace) {
    const std::string stem =
        o.work_dir + "/trace-" + o.workload + "-" + std::to_string(o.seed);
    if (!WriteTraceJson(stem + ".json").ok() ||
        !WriteMetricsJson(stem + ".metrics.json").ok()) {
      std::fprintf(stderr, "could not write the trace dump under %s\n",
                   o.work_dir.c_str());
    }
  }
  return out;
}

}  // namespace perfbench
