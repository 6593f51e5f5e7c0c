#ifndef RELGRAPH_SAMPLER_NEIGHBOR_SAMPLER_H_
#define RELGRAPH_SAMPLER_NEIGHBOR_SAMPLER_H_

#include <vector>

#include "core/deadline.h"
#include "core/rng.h"
#include "core/status.h"
#include "sampler/subgraph.h"

namespace relgraph {

/// How neighbors are chosen when the (time-valid) neighborhood exceeds the
/// fanout.
enum class SamplePolicy {
  kUniform,     ///< uniform without replacement
  kMostRecent,  ///< keep the neighbors with the latest pre-cutoff edge time
};

/// Configuration of the layered temporal neighbor sampler.
struct SamplerOptions {
  /// Neighbors sampled per node per edge type, one entry per GNN layer
  /// (outermost first). Its length defines the sampling depth.
  std::vector<int64_t> fanouts = {10, 10};

  /// When true (the default and the correct setting), only edges with
  /// timestamp strictly before the seed's cutoff are traversed; static
  /// edges always pass. Setting this false reproduces the "temporal
  /// leakage" failure mode benchmarked in Fig. 5.
  bool temporal = true;

  SamplePolicy policy = SamplePolicy::kUniform;

  /// Seeds per parallel sampling chunk. Each chunk samples independently
  /// under its own RNG stream forked from the batch RNG, and the chunk
  /// subgraphs merge deterministically in chunk order, so the result
  /// depends on this value but never on the thread count. Part of the
  /// sampling semantics — change it only together with recorded results.
  int64_t parallel_chunk_seeds = 64;
};

/// Layer-wise temporal neighbor sampler over a HeteroGraph.
///
/// For each seed (node, cutoff) it expands `fanouts.size()` hops; at each
/// hop every frontier node samples up to `fanouts[k]` neighbors per edge
/// type among edges dated strictly before the seed's cutoff. The result is
/// a `Subgraph` ready for bottom-up heterogeneous message passing.
class NeighborSampler {
 public:
  NeighborSampler(const HeteroGraph* graph, SamplerOptions options);

  /// Samples a subgraph for seeds of the given type; `cutoffs` must be
  /// aligned with `seeds` (use the database's max time + 1 for "now").
  ///
  /// Batches larger than `parallel_chunk_seeds` are split into fixed-size
  /// chunks sampled concurrently on the global thread pool, each under an
  /// independent RNG stream forked from `rng` (which advances by exactly
  /// one draw per call), then merged in chunk order. Results are
  /// bit-identical at any thread count.
  Subgraph Sample(NodeTypeId seed_type, const std::vector<int64_t>& seeds,
                  const std::vector<Timestamp>& cutoffs, Rng* rng) const;

  const SamplerOptions& options() const { return options_; }
  int64_t num_layers() const {
    return static_cast<int64_t>(options_.fanouts.size());
  }

  /// Toggles temporal filtering after construction (used by the leakage
  /// ablation to evaluate a leakily-trained model under honest sampling).
  void set_temporal(bool temporal) { options_.temporal = temporal; }

  /// Samples the ego-subgraph of ONE seed for online serving.
  ///
  /// The result is a pure function of (salt, node, cutoff, options): the
  /// RNG stream is derived from those values alone, never from call order
  /// or batch composition. That is what makes per-seed subgraphs cacheable
  /// — a cached subgraph and a freshly sampled one are bit-identical, and
  /// concatenating per-seed subgraphs (ConcatSubgraphs) yields the same
  /// per-seed scores at any micro-batch composition. Callers fold the
  /// fanout/policy fingerprint (OptionsFingerprint) into `salt` so distinct
  /// sampler configurations get distinct streams.
  Subgraph SampleForServing(NodeTypeId seed_type, int64_t node,
                            Timestamp cutoff, uint64_t salt) const;

  /// Deadline-aware serving sample: bit-identical to the overload above
  /// whenever the deadline holds through the sample. The deadline is
  /// checked before each hop; on expiry the partial subgraph is discarded
  /// and `Status::DeadlineExceeded` returned — a late answer is refused,
  /// never approximated, so deadlines can never change a served score.
  Result<Subgraph> SampleForServing(NodeTypeId seed_type, int64_t node,
                                    Timestamp cutoff, uint64_t salt,
                                    const Deadline& deadline) const;

 private:
  /// The serial sampling kernel: one chunk of seeds, one RNG stream.
  /// Frontier dedup runs on a flat open-addressing table in a per-thread
  /// scratch that is reused across calls, so a warm thread allocates only
  /// the returned subgraph. When `deadline` is non-null it is checked
  /// before each hop; on expiry `*deadline_expired` is set and the
  /// (incomplete) subgraph returned — callers must discard it.
  Subgraph SampleChunk(NodeTypeId seed_type,
                       const std::vector<int64_t>& seeds,
                       const std::vector<Timestamp>& cutoffs, Rng* rng,
                       const Deadline* deadline = nullptr,
                       bool* deadline_expired = nullptr) const;

  const HeteroGraph* graph_;
  SamplerOptions options_;
};

/// Splits [0, n) into shuffled batches of at most `batch_size` indices.
std::vector<std::vector<int64_t>> MakeBatches(int64_t n, int64_t batch_size,
                                              Rng* rng);

/// Stable fingerprint of the sampling semantics (fanouts, temporal flag,
/// policy). Two option sets with equal fingerprints sample identically per
/// seed. `parallel_chunk_seeds` is deliberately excluded: the serving path
/// samples each seed serially, so chunking never affects its output.
uint64_t OptionsFingerprint(const SamplerOptions& options);

/// Stream fingerprint of one serving-time seed: the exact splitmix-derived
/// key `SampleForServing` seeds its RNG from, as a pure function of
/// (salt, node, cutoff). Two seeds with equal fingerprints sample (and
/// therefore score) bit-identically, which is what lets the serving layer
/// dedup seed work ACROSS concurrent requests: the coalescing scheduler
/// keys its cross-request dedup map on this value, so two clients asking
/// about the same entity at the same cutoff sample and forward once.
/// Callers fold OptionsFingerprint into `salt` (the engine already does)
/// so distinct sampler configurations keep distinct streams.
uint64_t ServingSeedFingerprint(uint64_t salt, int64_t node,
                                Timestamp cutoff);

/// Block-diagonal concatenation of independently sampled subgraphs, with NO
/// cross-part dedup — unlike the training-path chunk merge, a node reached
/// by several parts keeps one copy per part, so each part's aggregation
/// pools exactly its own sampled edges and per-seed outputs are independent
/// of what else is in the batch (the property the serving caches rely on).
/// Rebuilds the self-prefix invariant: merged frontier k+1 = merged
/// frontier k, then each part's new nodes in part order, indices remapped.
/// All parts must come from samplers with equal depth over `graph`.
Subgraph ConcatSubgraphs(const HeteroGraph* graph,
                         const std::vector<Subgraph>& parts);

/// Pointer-span variant — the serving path concatenates cached subgraphs
/// without copying them.
Subgraph ConcatSubgraphs(const HeteroGraph* graph,
                         const std::vector<const Subgraph*>& parts);

}  // namespace relgraph

#endif  // RELGRAPH_SAMPLER_NEIGHBOR_SAMPLER_H_
