#include "serve/inference_engine.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <unordered_map>

#include "core/fault_injection.h"
#include "core/logging.h"
#include "core/metrics.h"
#include "core/parallel.h"
#include "core/timer.h"
#include "core/trace.h"
#include "tensor/serialize.h"

namespace relgraph {

namespace {

// One observation per Score call; runs after the scores are computed so
// instrumentation can never perturb them.
inline void NoteScore(double millis) {
#ifndef RELGRAPH_NO_METRICS
  if (!MetricsEnabled()) return;
  static Histogram* latency = MetricsRegistry::Global().GetHistogram(
      "serve_score_latency_ms", FineLatencyBucketsMs());
  latency->Observe(millis);
#else
  (void)millis;
#endif
}

inline void NoteQueueWait(double millis) {
#ifndef RELGRAPH_NO_METRICS
  if (!MetricsEnabled()) return;
  static Histogram* wait = MetricsRegistry::Global().GetHistogram(
      "serve_queue_wait_ms", FineLatencyBucketsMs());
  wait->Observe(millis);
#else
  (void)millis;
#endif
}

inline void NoteStaleness(double seconds) {
#ifndef RELGRAPH_NO_METRICS
  if (!MetricsEnabled()) return;
  static Gauge* staleness =
      MetricsRegistry::Global().GetGauge("serve_snapshot_staleness_s");
  staleness->Set(seconds);
#else
  (void)seconds;
#endif
}

inline void NoteShardSwap(double millis) {
#ifndef RELGRAPH_NO_METRICS
  if (!MetricsEnabled()) return;
  static Histogram* swap = MetricsRegistry::Global().GetHistogram(
      "serve_shard_swap_ms", FineLatencyBucketsMs());
  swap->Observe(millis);
#else
  (void)millis;
#endif
}

inline void NoteBytesPerNode(double bytes) {
#ifndef RELGRAPH_NO_METRICS
  if (!MetricsEnabled()) return;
  static Gauge* gauge =
      MetricsRegistry::Global().GetGauge("serve_bytes_per_node");
  gauge->Set(bytes);
#else
  (void)bytes;
#endif
}

// One graph node as an opaque dependency id for the caches' reverse index.
// Node ids are dense per type and far below 2^48.
uint64_t DependencyId(NodeTypeId type, int64_t node) {
  return (static_cast<uint64_t>(type) << 48) | static_cast<uint64_t>(node);
}

// Every node a cached result read: the deepest frontier holds the whole
// subgraph (each frontier is a prefix of the next), and the forward reads
// exactly those nodes' features, times and degrees.
std::vector<uint64_t> Dependencies(const Subgraph& sg) {
  std::vector<uint64_t> deps;
  if (sg.frontiers.empty()) return deps;
  const Subgraph::Frontier& deepest = sg.frontiers.back();
  for (size_t t = 0; t < deepest.nodes.size(); ++t) {
    for (int64_t node : deepest.nodes[t]) {
      deps.push_back(DependencyId(static_cast<NodeTypeId>(t), node));
    }
  }
  std::sort(deps.begin(), deps.end());
  deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
  return deps;
}

// Snapshot feature residency per node — refreshed at every snapshot
// publication and health probe so the gauge tracks quantization savings.
double SnapshotBytesPerNode(const HeteroGraph* graph) {
  const int64_t nodes = graph->TotalNodes();
  if (nodes == 0) return 0.0;
  return static_cast<double>(graph->FeatureBytes()) /
         static_cast<double>(nodes);
}

// RELGRAPH_PRECISION beats the configured (options or plan) precision, so
// CI lanes and operators can flip a serving binary to bf16/int8 without a
// code or config change. An invalid value is loudly ignored rather than
// fatal, mirroring RELGRAPH_FAULTS.
Precision ResolvePrecision(Precision configured) {
  const char* env = std::getenv("RELGRAPH_PRECISION");
  if (env == nullptr || *env == '\0') return configured;
  Result<Precision> parsed = ParsePrecision(env);
  if (!parsed.ok()) {
    RELGRAPH_LOG(Error) << "ignoring invalid RELGRAPH_PRECISION='" << env
                        << "' (want fp32 | bf16 | int8)";
    return configured;
  }
  if (parsed.value() != configured) {
    RELGRAPH_LOG(Info) << "serving precision overridden by "
                       << "RELGRAPH_PRECISION: "
                       << PrecisionName(configured) << " -> "
                       << PrecisionName(parsed.value());
  }
  return parsed.value();
}

// Once per process, on the first engine construction: arm fault sites from
// RELGRAPH_FAULTS so unmodified serving binaries can join a chaos run with
// one env var. A malformed spec is loudly ignored rather than fatal — a
// typo'd chaos config must never take down a server that would otherwise
// run clean.
void ArmChaosFromEnvOnce() {
  static const bool armed = [] {
    auto result = FaultInjector::Global().ArmFromEnv();
    if (!result.ok()) {
      RELGRAPH_LOG(Error) << "ignoring malformed RELGRAPH_FAULTS: "
                          << result.status().ToString();
      return false;
    }
    if (result.value() > 0) {
      RELGRAPH_LOG(Info) << "chaos: armed " << result.value()
                         << " fault site(s) from RELGRAPH_FAULTS";
    }
    return result.value() > 0;
  }();
  (void)armed;
}

}  // namespace

const char* DegradeModeName(DegradeMode mode) {
  switch (mode) {
    case DegradeMode::kFailFast:
      return "fail_fast";
    case DegradeMode::kStaleSnapshot:
      return "stale_snapshot";
    case DegradeMode::kCacheOnly:
      return "cache_only";
  }
  return "unknown";
}

const char* ServeStateName(ServeState state) {
  switch (state) {
    case ServeState::kServing:
      return "serving";
    case ServeState::kDegraded:
      return "degraded";
  }
  return "unknown";
}

const char* DegradeReasonName(DegradeReason reason) {
  switch (reason) {
    case DegradeReason::kNone:
      return "none";
    case DegradeReason::kDeadline:
      return "deadline";
    case DegradeReason::kBreakerOpen:
      return "breaker_open";
    case DegradeReason::kDependencyFault:
      return "dependency_fault";
  }
  return "unknown";
}

InferenceEngine::InferenceEngine(std::shared_ptr<const HeteroGraph> graph,
                                 NodeTypeId entity_type, TaskKind kind,
                                 int64_t num_classes, const GnnConfig& gnn,
                                 const SamplerOptions& sampler_options,
                                 Timestamp now_cutoff,
                                 const ServeOptions& serve)
    : entity_type_(entity_type),
      kind_(kind),
      num_classes_(num_classes),
      gnn_(gnn),
      sampler_options_(sampler_options),
      serve_(serve),
      salt_(serve.seed ^ OptionsFingerprint(sampler_options)),
      clock_(serve.clock != nullptr ? serve.clock : Clock::Real()),
      num_shards_(RoundUpPow2(static_cast<uint32_t>(
          std::max<int64_t>(1, serve.cache_shards)))),
      subgraph_cache_(serve.subgraph_cache_capacity, num_shards_),
      embedding_cache_(serve.embedding_cache_capacity, num_shards_) {
  ArmChaosFromEnvOnce();
  serve_.precision = ResolvePrecision(serve_.precision);
  RELGRAPH_CHECK(graph != nullptr);
  RELGRAPH_CHECK(kind_ != TaskKind::kRanking)
      << "InferenceEngine serves node-level (scalar) tasks only";
  RELGRAPH_CHECK(static_cast<int64_t>(sampler_options_.fanouts.size()) ==
                 gnn_.num_layers)
      << "sampler depth must match GNN layers";
  RELGRAPH_CHECK(serve_.micro_batch_size > 0);
  RELGRAPH_CHECK(serve_.breaker_threshold >= 1);
  RELGRAPH_CHECK(serve_.max_queue >= 0);
  if (serve_.max_inflight > 0) {
    gate_ = std::make_unique<AdmissionGate>(serve_.max_inflight,
                                            serve_.max_queue, clock_);
  }
  last_advance_success_ns_.store(clock_->NowNanos(),
                                 std::memory_order_relaxed);
  auto snap = std::make_shared<EngineSnapshot>();
  snap->graph = graph;
  snap->sampler =
      std::make_unique<NeighborSampler>(graph.get(), sampler_options_);
  snap->now_cutoff = now_cutoff;
  snapshot_.store(std::shared_ptr<const EngineSnapshot>(std::move(snap)));
  // Weight init is placeholder (epoch 0, never scores) — LoadCheckpoint
  // publishes a fresh state.
  auto state = std::make_shared<ModelState>();
  Rng init_rng(serve_.seed);
  state->model =
      std::make_unique<HeteroSageModel>(graph.get(), gnn_, &init_rng);
  if (kind_ == TaskKind::kMulticlassClassification) {
    state->cls_head = std::make_unique<ClassificationHead>(
        gnn_.hidden_dim, num_classes_, &init_rng);
  } else {
    state->scalar_head =
        std::make_unique<ScalarHead>(gnn_.hidden_dim, &init_rng);
  }
  model_.store(std::shared_ptr<const ModelState>(std::move(state)));
  NoteBytesPerNode(SnapshotBytesPerNode(graph.get()));
}

InferenceEngine::InferenceEngine(const ServePlan& plan,
                                 const ServeOptions& serve)
    : InferenceEngine(plan.graph, plan.entity_type, plan.kind,
                      plan.num_classes, plan.gnn, plan.sampler,
                      plan.now_cutoff, [&] {
                        ServeOptions s = serve;
                        s.seed = plan.seed;
                        s.precision = plan.precision;
                        return s;
                      }()) {}

Status InferenceEngine::LoadCheckpoint(const std::string& path) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (FaultInjector::Global().ShouldFire(FaultSite::kServeCheckpointLoad)) {
    Status st = Status::IoError(
        "injected checkpoint load fault (site serve_checkpoint_load): " +
        path);
    SetLastError(st);
    return st;
  }
  RELGRAPH_ASSIGN_OR_RETURN(TensorBundle bundle, LoadTensorBundle(path));
  // Build the replacement off to the side against the current snapshot's
  // graph (layouts are identical across snapshots by the advance
  // contract); in-flight forwards keep the previously published weights.
  const std::shared_ptr<const EngineSnapshot> snap = PinSnapshot();
  const std::shared_ptr<const ModelState> prev = PinModel();
  auto next = std::make_shared<ModelState>();
  Rng init_rng(serve_.seed);
  next->model =
      std::make_unique<HeteroSageModel>(snap->graph.get(), gnn_, &init_rng);
  if (kind_ == TaskKind::kMulticlassClassification) {
    next->cls_head = std::make_unique<ClassificationHead>(
        gnn_.hidden_dim, num_classes_, &init_rng);
  } else {
    next->scalar_head =
        std::make_unique<ScalarHead>(gnn_.hidden_dim, &init_rng);
  }
  const std::vector<Tensor> current =
      ParameterValues({next->model.get(), next->head()});
  if (bundle.tensors.size() != current.size()) {
    return Status::InvalidArgument(
        "checkpoint has " + std::to_string(bundle.tensors.size()) +
        " tensors, serving model has " + std::to_string(current.size()) +
        " (architecture mismatch?)");
  }
  for (size_t i = 0; i < current.size(); ++i) {
    if (!bundle.tensors[i].SameShape(current[i])) {
      return Status::InvalidArgument("checkpoint tensor " +
                                     std::to_string(i) + " shape mismatch");
    }
  }
  if (bundle.scalars.size() != 3) {
    return Status::InvalidArgument("checkpoint scalar block malformed");
  }
  // Low-precision modes quantize the weights (per-column max-abs scales);
  // one NaN or inf would poison a whole column's scale, so reject the
  // checkpoint up front with a precise location instead of serving
  // garbage. fp32 mode keeps the historical behavior (no scan).
  if (serve_.precision != Precision::kFp32) {
    for (size_t i = 0; i < bundle.tensors.size(); ++i) {
      const Tensor& t = bundle.tensors[i];
      const float* d = t.data();
      for (int64_t j = 0; j < t.numel(); ++j) {
        if (!std::isfinite(d[j])) {
          return Status::InvalidArgument(
              "checkpoint tensor " + std::to_string(i) +
              " has a non-finite value at flat index " + std::to_string(j) +
              "; " + PrecisionName(serve_.precision) +
              " serving requires finite weights");
        }
      }
    }
  }
  AssignParameterValues({next->model.get(), next->head()}, bundle.tensors);
  next->label_mean = bundle.scalars[0];
  next->label_std = bundle.scalars[1];
  next->epoch = prev->epoch + 1;
  model_.store(std::shared_ptr<const ModelState>(std::move(next)));
  // Cached embeddings were produced by the previous weights; their keys
  // carry the old epoch (so they can never be served again) and the
  // epoch swap reclaims the memory. Subgraphs depend only on the sampler
  // and survive a weight swap.
  embedding_cache_.EpochSwap(snap->version);
  return Status::OK();
}

bool InferenceEngine::TryGetCachedSubgraph(
    const EngineSnapshot& snap, int64_t node,
    std::shared_ptr<const Subgraph>* out) {
  if (!serve_.enable_subgraph_cache) {
    RELGRAPH_COUNTER_INC("serve_subgraph_cache_misses_total");
    return false;
  }
  if (subgraph_cache_.Get(EntityShard(node, num_shards_), node, out,
                          snap.version)) {
    RELGRAPH_COUNTER_INC("serve_subgraph_cache_hits_total");
    return true;
  }
  RELGRAPH_COUNTER_INC("serve_subgraph_cache_misses_total");
  return false;
}

Result<std::shared_ptr<const Subgraph>> InferenceEngine::SampleSubgraph(
    const EngineSnapshot& snap, int64_t node, const Deadline& deadline) {
  RELGRAPH_ASSIGN_OR_RETURN(
      Subgraph sg, snap.sampler->SampleForServing(
                       entity_type_, node, snap.now_cutoff, salt_, deadline));
  auto sp = std::make_shared<const Subgraph>(std::move(sg));
  if (serve_.enable_subgraph_cache) {
    subgraph_cache_.Put(EntityShard(node, num_shards_), node, sp,
                        snap.version, Dependencies(*sp));
  }
  return sp;
}

Tensor InferenceEngine::EmbedParts(const EngineSnapshot& snap,
                                   const ModelState& model,
                                   const std::vector<const Subgraph*>& parts) {
  // Per-seed subgraphs (cached or freshly sampled) concatenate
  // block-diagonally; the encoder forward is then per-row bit-identical
  // to running each seed alone, so batch composition never leaks into a
  // seed's embedding. The forward reads features from the pinned
  // snapshot's graph, never from the (possibly fresher) published one.
  const Subgraph sg = ConcatSubgraphs(snap.graph.get(), parts);
  VarPtr emb = model.model->ForwardOn(snap.graph.get(), sg, entity_type_,
                                      /*rng=*/nullptr, /*training=*/false,
                                      serve_.precision);
  RELGRAPH_CHECK(emb->rows() == static_cast<int64_t>(parts.size()));
  return emb->value();
}

Result<ScoreResponse> InferenceEngine::ScoreOnSnapshot(
    const EngineSnapshot& snap, const ModelState& model,
    const std::vector<int64_t>& entity_ids, const Deadline& deadline,
    double queue_wait_ms, InvalidIdPolicy policy, bool traffic) {
  // Judged on the pinned model, not the published one: a request that
  // pinned the placeholder just before the first load must not score it.
  if (model.epoch == 0) {
    return Status::FailedPrecondition(
        "no checkpoint loaded; call LoadCheckpoint before Score");
  }
  const ServeState state = this->state();
  const bool breaker_open = state == ServeState::kDegraded;
  const DegradeMode mode = serve_.degrade_mode;

  if (breaker_open && mode == DegradeMode::kFailFast) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    RELGRAPH_COUNTER_INC("serve_shed_total");
    return Status::Overloaded(
        "circuit breaker open (consecutive snapshot-advance failures); "
        "engine configured fail_fast");
  }
  if (deadline.expired()) {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    RELGRAPH_COUNTER_INC("serve_deadline_exceeded_total");
    return Status::DeadlineExceeded("deadline expired before scoring began");
  }

  ScoreResponse resp;
  resp.mode = mode;
  resp.state = state;
  resp.snapshot_version = snap.version;
  resp.staleness_s = StalenessSeconds();
  resp.queue_wait_ms = queue_wait_ms;

  const int64_t n = static_cast<int64_t>(entity_ids.size());
  if (n == 0) return resp;

  const int64_t num_entities = snap.graph->num_nodes(entity_type_);
  resp.row_flags.assign(static_cast<size_t>(n), kRowResolved);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t id = entity_ids[static_cast<size_t>(i)];
    if (id < 0 || id >= num_entities) {
      if (policy == InvalidIdPolicy::kReject) {
        return Status::InvalidArgument(
            "entity id " + std::to_string(id) + " out of range [0, " +
            std::to_string(num_entities) + ")");
      }
      resp.row_flags[static_cast<size_t>(i)] = kRowInvalid;
      ++resp.rows_invalid;
    }
  }

  Timer timer;
  const int64_t hidden = gnn_.hidden_dim;
  Tensor emb = Tensor::Zeros(n, hidden);
  // Under an open breaker in cache-only mode, fresh sampling is forbidden:
  // only embedding-cache hits and live-version subgraph-cache hits resolve.
  const bool cache_only = breaker_open && mode == DegradeMode::kCacheOnly;
  bool deadline_nan = false;  // some rows unresolved by deadline expiry

  // Probe the embedding cache; collect distinct uncached ids (a duplicate
  // id in one request is computed once — its embedding is a pure function
  // of the id, so every position gets the identical row).
  std::vector<int64_t> pending;
  std::unordered_map<int64_t, std::vector<int64_t>> rows_of;
  for (int64_t i = 0; i < n; ++i) {
    if (resp.row_flags[static_cast<size_t>(i)] != kRowResolved) continue;
    const int64_t id = entity_ids[static_cast<size_t>(i)];
    if (serve_.enable_embedding_cache) {
      std::shared_ptr<const EncodedEmbedding> row;
      if (embedding_cache_.Get(EntityShard(id, num_shards_),
                               EmbeddingKey{id, model.epoch}, &row,
                               snap.version)) {
        RELGRAPH_COUNTER_INC("serve_embedding_cache_hits_total");
        row->Decode(&emb.at(i, 0));
        continue;
      }
      RELGRAPH_COUNTER_INC("serve_embedding_cache_misses_total");
    }
    auto [it, inserted] = rows_of.try_emplace(id);
    if (inserted) pending.push_back(id);
    it->second.push_back(i);
  }

  // Marks every request row of a pending id as policy-NaN.
  auto degrade_id = [&](int64_t id) {
    for (int64_t i : rows_of.at(id)) {
      resp.row_flags[static_cast<size_t>(i)] = kRowDegraded;
    }
  };

  // Uncached ids run in contiguous seed slices, one micro-batch each, and
  // the slices spread over the pool: a request of many ids keeps every
  // core busy, while one of a few ids is a single slice that runs inline.
  // The floor keeps slices from shrinking below what pays for a pool
  // handoff. A finite deadline is judged by clock reads inside the slices,
  // so such a request runs them in order on this thread with slice
  // boundaries independent of the pool size: its expiry pattern stays a
  // function of the clock alone.
  constexpr int64_t kMinSliceSeeds = 8;
  const int64_t num_pending = static_cast<int64_t>(pending.size());
  const int64_t lanes = deadline.is_infinite() ? NumThreads() : 1;
  const int64_t slice_size = std::min<int64_t>(
      serve_.micro_batch_size,
      std::max<int64_t>(kMinSliceSeeds, (num_pending + lanes - 1) / lanes));
  const int64_t num_slices = (num_pending + slice_size - 1) / slice_size;

  // Serial pre-pass in pending order: subgraph-cache probe, cache-only
  // refusal, and both fault sites, so their hit sequences stay a pure
  // function of the request. Each pending id ends up with a cached
  // subgraph, a fresh sample to take, or no row at all.
  enum class Source : uint8_t { kCached, kSample, kDropped };
  std::vector<Source> source(pending.size(), Source::kDropped);
  std::vector<std::shared_ptr<const Subgraph>> held(pending.size());
  for (int64_t s = 0; s < num_slices; ++s) {
    const size_t begin = static_cast<size_t>(s * slice_size);
    const size_t end =
        std::min(pending.size(), begin + static_cast<size_t>(slice_size));
    bool any = false;
    for (size_t k = begin; k < end; ++k) {
      const int64_t id = pending[k];
      if (TryGetCachedSubgraph(snap, id, &held[k])) {
        source[k] = Source::kCached;
      } else if (cache_only) {
        degrade_id(id);
      } else if (FaultInjector::Global().ShouldFire(FaultSite::kServeSample)) {
        if (mode == DegradeMode::kFailFast) {
          return Status::Internal(
              "injected sampler fault (site serve_sample) for entity " +
              std::to_string(id));
        }
        degrade_id(id);
      } else {
        source[k] = Source::kSample;
      }
      any = any || source[k] != Source::kDropped;
    }
    if (any && FaultInjector::Global().ShouldFire(FaultSite::kServeAlloc)) {
      if (mode == DegradeMode::kFailFast) {
        return Status::Internal(
            "injected allocation fault (site serve_alloc)");
      }
      for (size_t k = begin; k < end; ++k) {
        if (source[k] == Source::kDropped) continue;
        degrade_id(pending[k]);
        source[k] = Source::kDropped;
      }
    }
  }

  // One slice: sample what the pre-pass left to sample, run the batched
  // forward, and canonicalize, use and cache every row. A slice writes
  // only its own ids' rows and flags and its own outcome. The deadline is
  // re-checked before the slice and inside every fresh sample; under
  // fail_fast expiry fails the slice, under the degrade modes it NaNs the
  // slice's unresolved remainder and serves what is already paid for.
  struct SliceOutcome {
    Status status;
    bool deadline_nan = false;
  };
  std::vector<SliceOutcome> outcomes(static_cast<size_t>(num_slices));
  auto run_slice = [&](int64_t s) {
    SliceOutcome& out = outcomes[static_cast<size_t>(s)];
    const size_t begin = static_cast<size_t>(s * slice_size);
    const size_t end =
        std::min(pending.size(), begin + static_cast<size_t>(slice_size));
    if (deadline.expired()) {
      if (mode == DegradeMode::kFailFast) {
        out.status = Status::DeadlineExceeded(
            "deadline expired before micro-batch " + std::to_string(s));
        return;
      }
      for (size_t k = begin; k < end; ++k) degrade_id(pending[k]);
      out.deadline_nan = true;
      return;
    }
    std::vector<const Subgraph*> parts;
    std::vector<int64_t> batch_ids;
    for (size_t k = begin; k < end; ++k) {
      if (source[k] == Source::kSample) {
        Result<std::shared_ptr<const Subgraph>> sampled =
            SampleSubgraph(snap, pending[k], deadline);
        if (!sampled.ok()) {  // deadline expired mid-sample
          if (mode == DegradeMode::kFailFast) {
            out.status = sampled.status();
            return;
          }
          for (; k < end; ++k) degrade_id(pending[k]);
          out.deadline_nan = true;
          break;
        }
        held[k] = std::move(sampled).value();
      } else if (source[k] == Source::kDropped) {
        continue;
      }
      parts.push_back(held[k].get());
      batch_ids.push_back(pending[k]);
    }
    if (batch_ids.empty()) return;

    const Tensor batch_emb = EmbedParts(snap, model, parts);
    for (size_t j = 0; j < batch_ids.size(); ++j) {
      const int64_t id = batch_ids[j];
      const float* src = batch_emb.data() + static_cast<int64_t>(j) * hidden;
      // Canonicalize every fresh row through its storage encoding before
      // BOTH use and caching: a later cache hit decodes the identical
      // bytes this request saw, so scores stay bit-identical with caches
      // on, off, or partially warm at any precision. fp32 encodes
      // losslessly, keeping that mode byte-equal to the historical path.
      EncodedEmbedding enc =
          EncodedEmbedding::Encode(src, hidden, serve_.precision);
      for (int64_t i : rows_of.at(id)) {
        enc.Decode(&emb.at(i, 0));
      }
      if (serve_.enable_embedding_cache) {
        embedding_cache_.Put(
            EntityShard(id, num_shards_), EmbeddingKey{id, model.epoch},
            std::make_shared<const EncodedEmbedding>(std::move(enc)),
            snap.version, Dependencies(*parts[j]));
      }
    }
  };
  if (deadline.is_infinite()) {
    ThreadPool::Global().ParallelChunks(num_slices, run_slice);
  } else {
    for (int64_t s = 0; s < num_slices; ++s) run_slice(s);
  }
  // Merge in slice order: the first failure wins.
  for (const SliceOutcome& out : outcomes) {
    if (!out.status.ok()) {
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      RELGRAPH_COUNTER_INC("serve_deadline_exceeded_total");
      return out.status;
    }
    deadline_nan = deadline_nan || out.deadline_nan;
  }

  if (deadline.expired() && mode == DegradeMode::kFailFast) {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    RELGRAPH_COUNTER_INC("serve_deadline_exceeded_total");
    return Status::DeadlineExceeded("deadline expired before head forward");
  }

  // One head forward over the assembled embeddings; the head MLP is
  // row-wise, so each score is still a pure per-entity function.
  // Unresolved rows hold zero embeddings here and are overwritten with
  // NaN below — they can never influence a resolved row.
  VarPtr out =
      model.cls_head
          ? model.cls_head->ForwardWithPrecision(ag::Constant(emb),
                                                 serve_.precision)
          : model.scalar_head->ForwardWithPrecision(ag::Constant(emb),
                                                    serve_.precision);
  resp.scores.reserve(static_cast<size_t>(n));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int64_t r = 0; r < n; ++r) {
    if (resp.row_flags[static_cast<size_t>(r)] != kRowResolved) {
      resp.scores.push_back(nan);
      if (resp.row_flags[static_cast<size_t>(r)] == kRowDegraded) {
        ++resp.rows_degraded;
      }
      continue;
    }
    switch (kind_) {
      case TaskKind::kBinaryClassification:
        resp.scores.push_back(1.0 /
                              (1.0 + std::exp(-out->value().at(r, 0))));
        break;
      case TaskKind::kRegression:
        resp.scores.push_back(out->value().at(r, 0) * model.label_std +
                              model.label_mean);
        break;
      case TaskKind::kMulticlassClassification: {
        int64_t arg = 0;
        for (int64_t c = 1; c < out->cols(); ++c) {
          if (out->value().at(r, c) > out->value().at(r, arg)) arg = c;
        }
        resp.scores.push_back(static_cast<double>(arg));
        break;
      }
      case TaskKind::kRanking:
        break;
    }
  }
  resp.rows_resolved = n - resp.rows_degraded - resp.rows_invalid;
  resp.degraded = breaker_open || resp.rows_degraded > 0;
  if (resp.degraded) {
    resp.reason = breaker_open      ? DegradeReason::kBreakerOpen
                  : deadline_nan    ? DegradeReason::kDeadline
                                    : DegradeReason::kDependencyFault;
    degraded_answers_.fetch_add(1, std::memory_order_relaxed);
    RELGRAPH_COUNTER_INC("serve_degraded_answers_total");
    RELGRAPH_COUNTER_ADD("serve_degraded_rows_total", resp.rows_degraded);
  }
  if (traffic) {
    requests_.fetch_add(1, std::memory_order_relaxed);
    entities_scored_.fetch_add(n, std::memory_order_relaxed);
    RELGRAPH_COUNTER_INC("serve_requests_total");
    RELGRAPH_COUNTER_ADD("serve_entities_scored_total", n);
  }
  NoteScore(timer.Millis());
  NoteStaleness(resp.staleness_s);
  return resp;
}

Result<ScoreResponse> InferenceEngine::ScoreGated(
    const std::vector<int64_t>& entity_ids, const Deadline& deadline,
    InvalidIdPolicy policy, bool traffic) {
  AdmissionTicket ticket(traffic ? gate_.get() : nullptr, deadline);
  if (!ticket.admitted()) {
    if (ticket.outcome() == AdmissionGate::Outcome::kShedQueueFull) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      RELGRAPH_COUNTER_INC("serve_shed_total");
      return Status::Overloaded(
          "admission queue full (max_inflight=" +
          std::to_string(serve_.max_inflight) +
          ", max_queue=" + std::to_string(serve_.max_queue) + ")");
    }
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    RELGRAPH_COUNTER_INC("serve_deadline_exceeded_total");
    return Status::DeadlineExceeded("deadline expired in admission queue");
  }
  if (traffic) {
    RELGRAPH_COUNTER_INC("serve_admitted_total");
    if (gate_ != nullptr) NoteQueueWait(ticket.queue_wait_ms());
  }
  // Pin the published world: two pointer copies, no reader lock. A writer
  // publishing mid-request never perturbs this request — it finishes on
  // its pinned snapshot and the retired state drains by refcount.
  const std::shared_ptr<const EngineSnapshot> snap = PinSnapshot();
  const std::shared_ptr<const ModelState> model = PinModel();
  return ScoreOnSnapshot(*snap, *model, entity_ids, deadline,
                         ticket.queue_wait_ms(), policy, traffic);
  // snap/model release before ~ticket returns the gate slot.
}

Result<std::vector<double>> InferenceEngine::Score(
    const std::vector<int64_t>& entity_ids) {
  RELGRAPH_TRACE_SPAN("serve/score");
  RELGRAPH_ASSIGN_OR_RETURN(
      ScoreResponse resp,
      ScoreGated(entity_ids, Deadline(), InvalidIdPolicy::kReject,
                 /*traffic=*/true));
  return std::move(resp.scores);
}

Result<ScoreResponse> InferenceEngine::ScoreWithOptions(
    const ScoreRequest& request) {
  RELGRAPH_TRACE_SPAN("serve/score");
  return ScoreGated(request.entity_ids, request.deadline,
                    request.invalid_id_policy, /*traffic=*/true);
}

Status InferenceEngine::WarmUp(const std::vector<int64_t>& entity_ids) {
  RELGRAPH_TRACE_SPAN("serve/warmup");
  RELGRAPH_COUNTER_ADD("serve_warmup_entities_total",
                       static_cast<int64_t>(entity_ids.size()));
  return ScoreGated(entity_ids, Deadline(), InvalidIdPolicy::kReject,
                    /*traffic=*/false)
      .status();
}

Status InferenceEngine::ValidateSnapshot(const EngineSnapshot& current,
                                         const HeteroGraph* graph) const {
  if (graph == nullptr) {
    return Status::InvalidArgument("ApplyDelta: null graph");
  }
  const HeteroGraph* base = current.graph.get();
  if (graph->num_node_types() != base->num_node_types() ||
      graph->num_edge_types() != base->num_edge_types()) {
    return Status::InvalidArgument(
        "ApplyDelta: snapshot layout mismatch (type counts)");
  }
  for (EdgeTypeId e = 0; e < graph->num_edge_types(); ++e) {
    if (graph->edge_src_type(e) != base->edge_src_type(e) ||
        graph->edge_dst_type(e) != base->edge_dst_type(e)) {
      return Status::InvalidArgument(
          "ApplyDelta: snapshot layout mismatch (edge endpoints)");
    }
  }
  for (int32_t t = 0; t < graph->num_node_types(); ++t) {
    if (graph->feature_dim(t) != base->feature_dim(t)) {
      return Status::InvalidArgument(
          "ApplyDelta: snapshot layout mismatch (feature widths)");
    }
  }
  return Status::OK();
}

void InferenceEngine::InvalidateCaches(int64_t new_version,
                                       const GraphDelta& delta,
                                       bool precise) {
  Timer timer;
  if (precise) {
    // New nodes (>= first_new_node) cannot appear in any cached entry, so
    // only the touched nodes can invalidate one.
    std::vector<uint64_t> touched;
    touched.reserve(static_cast<size_t>(delta.TotalTouched()));
    for (size_t t = 0; t < delta.touched.size(); ++t) {
      for (int64_t node : delta.touched[t]) {
        touched.push_back(DependencyId(static_cast<NodeTypeId>(t), node));
      }
    }
    const int64_t subgraphs = subgraph_cache_.Invalidate(touched, new_version);
    const int64_t embeddings =
        embedding_cache_.Invalidate(touched, new_version);
    RELGRAPH_COUNTER_ADD("serve_delta_invalidated_subgraphs_total",
                         subgraphs);
    RELGRAPH_COUNTER_ADD("serve_delta_invalidated_embeddings_total",
                         embeddings);
  } else {
    subgraph_cache_.EpochSwap(new_version);
    embedding_cache_.EpochSwap(new_version);
    RELGRAPH_COUNTER_INC("serve_shard_swaps_total");
  }
  NoteShardSwap(timer.Millis());
}

Status InferenceEngine::ApplyDelta(std::shared_ptr<const HeteroGraph> graph,
                                   Timestamp now_cutoff,
                                   const GraphDelta& delta) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  const std::shared_ptr<const EngineSnapshot> current = PinSnapshot();
  Status st = ValidateSnapshot(*current, graph.get());
  // The poison site fires after validation and before ANY mutation, so an
  // injected failure exercises exactly the atomicity contract: the
  // previous snapshot stays fully published and servable, and the failure
  // counts toward the breaker.
  if (st.ok() &&
      FaultInjector::Global().ShouldFire(FaultSite::kServeSnapshotAdvance)) {
    st = Status::Internal(
        "injected snapshot poison (site serve_snapshot_advance)");
  }
  if (!st.ok()) {
    RecordAdvanceFailure(st);
    return st;
  }
  // Build the complete replacement off to the side, then publish with one
  // pointer swap. Readers pinned to the old snapshot finish against it;
  // new requests see the new world immediately.
  auto next = std::make_shared<EngineSnapshot>();
  next->graph = std::move(graph);
  next->sampler =
      std::make_unique<NeighborSampler>(next->graph.get(), sampler_options_);
  next->now_cutoff = now_cutoff;
  next->version = current->version + 1;

  const bool same_cutoff = now_cutoff == current->now_cutoff;
  // The delta only licenses precise invalidation when it describes the
  // change from THIS engine's current snapshot: its per-type base counts
  // must match the graph being replaced. A caller that skipped an epoch
  // (say, after a failed publish) and passes only the newest delta would
  // otherwise keep entries the missed delta invalidated — fall back to
  // wholesale invalidation instead of serving stale cache state.
  bool chain_intact =
      delta.first_new_node.size() ==
      static_cast<size_t>(current->graph->num_node_types());
  for (NodeTypeId t = 0; chain_intact && t < current->graph->num_node_types();
       ++t) {
    chain_intact = delta.first_new_node[t] == current->graph->num_nodes(t);
  }
  // A moved cutoff changes every per-seed sampling stream, and a broken
  // chain (an empty delta always breaks it) hides what changed: then
  // nothing is provably reusable. Either way the caches reach the new
  // version BEFORE it is published, so its first reader already sees the
  // warm survivors, and a reader still pinned to the old snapshot can no
  // longer add entries.
  InvalidateCaches(next->version, delta, same_cutoff && chain_intact);
  snapshot_.store(std::shared_ptr<const EngineSnapshot>(std::move(next)));
  advance_failures_.store(0, std::memory_order_relaxed);
  state_.store(static_cast<int>(ServeState::kServing),
               std::memory_order_relaxed);
  last_advance_success_ns_.store(clock_->NowNanos(),
                                 std::memory_order_relaxed);
  SetLastError(Status::OK());
  RELGRAPH_COUNTER_INC("serve_snapshot_advances_total");
  NoteStaleness(0.0);
  NoteBytesPerNode(SnapshotBytesPerNode(PinSnapshot()->graph.get()));
  return Status::OK();
}

void InferenceEngine::RecordAdvanceFailure(const Status& status) {
  const int64_t failures =
      advance_failures_.fetch_add(1, std::memory_order_relaxed) + 1;
  RELGRAPH_COUNTER_INC("serve_snapshot_advance_failures_total");
  SetLastError(status);
  if (failures >= serve_.breaker_threshold &&
      state_.load(std::memory_order_relaxed) !=
          static_cast<int>(ServeState::kDegraded)) {
    state_.store(static_cast<int>(ServeState::kDegraded),
                 std::memory_order_relaxed);
    RELGRAPH_COUNTER_INC("serve_breaker_open_total");
  }
}

void InferenceEngine::SetLastError(const Status& status) {
  std::lock_guard<std::mutex> lock(health_mu_);
  last_error_ = status.ok() ? std::string() : status.ToString();
}

ServeHealth InferenceEngine::HealthStatus() const {
  ServeHealth h;
  h.state = state();
  h.loaded = loaded();
  h.consecutive_advance_failures =
      advance_failures_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    h.last_error = last_error_;
  }
  h.staleness_s = StalenessSeconds();
  if (gate_ != nullptr) {
    h.inflight = gate_->inflight();
    h.queued = gate_->queued();
  }
  h.cache_shards = static_cast<int64_t>(num_shards_);
  h.precision = serve_.precision;
  h.bytes_per_node = SnapshotBytesPerNode(PinSnapshot()->graph.get());
  NoteStaleness(h.staleness_s);
  NoteBytesPerNode(h.bytes_per_node);
  return h;
}

ServeStats InferenceEngine::stats() const {
  ServeStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.entities_scored = entities_scored_.load(std::memory_order_relaxed);
  s.subgraph_hits = subgraph_cache_.hits();
  s.subgraph_misses = subgraph_cache_.misses();
  s.embedding_hits = embedding_cache_.hits();
  s.embedding_misses = embedding_cache_.misses();
  s.shed = shed_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  s.degraded_answers = degraded_answers_.load(std::memory_order_relaxed);
  s.shard_swaps = embedding_cache_.swaps();
  return s;
}

}  // namespace relgraph
