#include "sampler/neighbor_sampler.h"

#include <algorithm>
#include <utility>

#include "core/logging.h"
#include "core/metrics.h"
#include "core/parallel.h"

namespace relgraph {

namespace {

// One shot of counters per Sample() call; never touches the Rng and runs
// after the subgraph is fully built, so sampling results are unaffected.
inline void NoteSample(const Subgraph& sg, int64_t num_seeds,
                       int64_t num_chunks) {
#ifndef RELGRAPH_NO_METRICS
  if (!MetricsEnabled()) return;
  static Counter* samples =
      MetricsRegistry::Global().GetCounter("sampler_samples_total");
  static Counter* seeds =
      MetricsRegistry::Global().GetCounter("sampler_seeds_total");
  static Counter* chunks =
      MetricsRegistry::Global().GetCounter("sampler_chunks_total");
  static Counter* nodes =
      MetricsRegistry::Global().GetCounter("sampler_frontier_nodes_total");
  static Counter* edges =
      MetricsRegistry::Global().GetCounter("sampler_block_edges_total");
  samples->Add(1);
  seeds->Add(num_seeds);
  chunks->Add(num_chunks);
  nodes->Add(sg.TotalFrontierNodes());
  edges->Add(sg.TotalBlockEdges());
#else
  (void)sg;
  (void)num_seeds;
  (void)num_chunks;
#endif
}

// splitmix64 finalizer — full-avalanche 64-bit mix for seed derivation.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Frontier dedup index keyed by (node type, node, cutoff): the same node
/// sampled under the same cutoff is one computation, while distinct
/// cutoffs stay distinct (their valid neighborhoods differ). Open
/// addressing with linear probing over one flat slot array; every slot
/// carries the generation it was written in, so Reset forgets all keys in
/// O(1) and a table reused across calls neither clears nor allocates once
/// it has grown to its working size.
class NodeCutTable {
 public:
  /// Forgets every key. Must precede the first Intern.
  void Reset() {
    size_ = 0;
    if (++gen_ == 0) {  // the stamp wrapped: clear once, start over
      for (Slot& s : slots_) s.gen = 0;
      gen_ = 1;
    }
  }

  /// The value stored under the key; a new key stores `value` first.
  /// `*inserted` tells which.
  int64_t Intern(NodeTypeId type, int64_t node, Timestamp cutoff,
                 int64_t value, bool* inserted) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t i = Hash(type, node, cutoff) & mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.gen != gen_) {
        s = Slot{node, cutoff, value, type, gen_};
        ++size_;
        *inserted = true;
        return value;
      }
      if (s.node == node && s.cutoff == cutoff && s.type == type) {
        *inserted = false;
        return s.value;
      }
    }
  }

  /// Frees the slots if one large batch grew them past kMaxRetainedSlots,
  /// so an idle thread holds a bounded table.
  void Trim() {
    if (slots_.size() > kMaxRetainedSlots) slots_ = {};
  }

 private:
  struct Slot {
    int64_t node = 0;
    Timestamp cutoff = 0;
    int64_t value = 0;
    NodeTypeId type = 0;
    uint32_t gen = 0;  // live iff equal to the table's gen_
  };

  static constexpr size_t kMinSlots = 64;
  static constexpr size_t kMaxRetainedSlots = size_t{1} << 15;  // 1 MiB

  static size_t Hash(NodeTypeId type, int64_t node, Timestamp cutoff) {
    return static_cast<size_t>(
        Mix64(static_cast<uint64_t>(node) ^
              Mix64(static_cast<uint64_t>(cutoff) ^
                    (static_cast<uint64_t>(type) << 48))));
  }

  /// Doubles the slot array (load factor <= 1/2) and re-inserts the live
  /// keys.
  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max(kMinSlots, 2 * old.size()), Slot{});
    const size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.gen != gen_) continue;
      size_t i = Hash(s.type, s.node, s.cutoff) & mask;
      while (slots_[i].gen == gen_) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  uint32_t gen_ = 0;
};

/// Where every part's nodes of one frontier landed in the merged frontier,
/// in one flat array: at(c, t)[i] is the merged position of part c's i-th
/// node of type t.
class PartIndexMap {
 public:
  void Reset(const std::vector<const Subgraph*>& parts, size_t level,
             int32_t num_types) {
    num_types_ = static_cast<size_t>(num_types);
    offsets_.resize(parts.size() * num_types_ + 1);
    offsets_[0] = 0;
    size_t k = 0;
    for (const Subgraph* p : parts) {
      for (size_t t = 0; t < num_types_; ++t, ++k) {
        offsets_[k + 1] = offsets_[k] + p->frontiers[level].nodes[t].size();
      }
    }
    pos_.resize(offsets_.back());
  }

  int64_t* at(size_t part, NodeTypeId type) {
    return pos_.data() +
           offsets_[part * num_types_ + static_cast<size_t>(type)];
  }

  /// Frees the arrays if they grew past `max_entries`.
  void Trim(size_t max_entries) {
    if (pos_.capacity() > max_entries) *this = PartIndexMap();
  }

 private:
  size_t num_types_ = 0;
  std::vector<size_t> offsets_;
  std::vector<int64_t> pos_;
};

/// Working memory of the sampling kernel and the part merge, reused across
/// calls on a thread so that steady-state sampling allocates only its
/// output.
struct SamplerScratch {
  NodeCutTable table;
  std::vector<int64_t> cand_dst;
  std::vector<Timestamp> cand_time;
  std::vector<int64_t> reservoir;
  PartIndexMap cur_map;
  PartIndexMap next_map;
  bool in_use = false;

  /// Bounds what an idle thread retains after an outsized call.
  void Trim() {
    constexpr size_t kMaxRetained = size_t{1} << 14;
    table.Trim();
    cur_map.Trim(kMaxRetained);
    next_map.Trim(kMaxRetained);
    if (cand_dst.capacity() > kMaxRetained) {
      cand_dst = {};
      cand_time = {};
      reservoir = {};
    }
  }
};

/// This thread's scratch for the duration of one kernel call. The kernel
/// and the merge never call each other, so a call never finds the scratch
/// taken; the check keeps it that way.
class ScratchLease {
 public:
  ScratchLease() {
    thread_local SamplerScratch tls;
    RELGRAPH_CHECK(!tls.in_use) << "sampler scratch re-entered";
    tls.in_use = true;
    scratch_ = &tls;
  }
  ~ScratchLease() {
    scratch_->Trim();
    scratch_->in_use = false;
  }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  SamplerScratch& operator*() { return *scratch_; }

 private:
  SamplerScratch* scratch_;
};

Subgraph EmptySubgraph(int32_t num_types, int64_t layers) {
  Subgraph sg;
  sg.frontiers.resize(static_cast<size_t>(layers) + 1);
  sg.blocks.resize(static_cast<size_t>(layers));
  for (auto& f : sg.frontiers) {
    f.nodes.resize(static_cast<size_t>(num_types));
    f.cutoffs.resize(static_cast<size_t>(num_types));
  }
  return sg;
}

/// Merges independently sampled parts in part order. Frontier 0 is plain
/// concatenation. Merged frontier k+1 starts as a copy of merged frontier
/// k (the self-prefix invariant), then each part's nodes new at that level
/// follow in part order. With `dedup`, a (node, cutoff) already present in
/// the merged frontier collapses to its first occurrence, so its
/// aggregation pools every part's sampled edges (the training chunk
/// merge); without, every part keeps its own copy and aggregates only its
/// own edges (the serving concatenation). Each layer has one merged block
/// per edge type, edges in part order with indices remapped.
Subgraph MergeParts(const HeteroGraph* graph,
                    const std::vector<const Subgraph*>& parts, bool dedup) {
  const int32_t num_types = graph->num_node_types();
  const int64_t layers = static_cast<int64_t>(parts[0]->blocks.size());
  const size_t num_parts = parts.size();
  ScratchLease lease;
  SamplerScratch& scratch = *lease;
  PartIndexMap& map = scratch.cur_map;
  PartIndexMap& next_map = scratch.next_map;
  NodeCutTable& table = scratch.table;

  Subgraph sg = EmptySubgraph(num_types, layers);
  // The dedup index holds exactly the merged current frontier: merged
  // frontier k+1 begins with merged frontier k at the same positions, so
  // it carries over from level to level without a rebuild.
  table.Reset();
  map.Reset(parts, 0, num_types);
  for (size_t c = 0; c < num_parts; ++c) {
    for (int32_t t = 0; t < num_types; ++t) {
      auto& merged_nodes = sg.frontiers[0].nodes[static_cast<size_t>(t)];
      auto& merged_cuts = sg.frontiers[0].cutoffs[static_cast<size_t>(t)];
      const auto& part_nodes =
          parts[c]->frontiers[0].nodes[static_cast<size_t>(t)];
      const auto& part_cuts =
          parts[c]->frontiers[0].cutoffs[static_cast<size_t>(t)];
      int64_t* m = map.at(c, t);
      for (size_t i = 0; i < part_nodes.size(); ++i) {
        m[i] = static_cast<int64_t>(merged_nodes.size());
        if (dedup) {
          bool inserted;
          table.Intern(t, part_nodes[i], part_cuts[i], m[i], &inserted);
        }
        merged_nodes.push_back(part_nodes[i]);
        merged_cuts.push_back(part_cuts[i]);
      }
    }
  }

  for (int64_t l = 0; l < layers; ++l) {
    const auto& cur = sg.frontiers[static_cast<size_t>(l)];
    auto& next = sg.frontiers[static_cast<size_t>(l) + 1];
    next.nodes = cur.nodes;
    next.cutoffs = cur.cutoffs;
    next_map.Reset(parts, static_cast<size_t>(l) + 1, num_types);
    for (size_t c = 0; c < num_parts; ++c) {
      const Subgraph& part = *parts[c];
      for (int32_t t = 0; t < num_types; ++t) {
        const auto& part_nodes =
            part.frontiers[static_cast<size_t>(l) + 1]
                .nodes[static_cast<size_t>(t)];
        const auto& part_cuts =
            part.frontiers[static_cast<size_t>(l) + 1]
                .cutoffs[static_cast<size_t>(t)];
        // The part's next frontier starts with its current frontier, whose
        // merged positions are already known.
        const size_t prefix = part.frontiers[static_cast<size_t>(l)]
                                  .nodes[static_cast<size_t>(t)]
                                  .size();
        const int64_t* prev = map.at(c, t);
        int64_t* m = next_map.at(c, t);
        std::copy(prev, prev + prefix, m);
        auto& merged_nodes = next.nodes[static_cast<size_t>(t)];
        auto& merged_cuts = next.cutoffs[static_cast<size_t>(t)];
        for (size_t i = prefix; i < part_nodes.size(); ++i) {
          bool inserted = true;
          m[i] = static_cast<int64_t>(merged_nodes.size());
          if (dedup) {
            m[i] = table.Intern(t, part_nodes[i], part_cuts[i], m[i],
                                &inserted);
          }
          if (inserted) {
            merged_nodes.push_back(part_nodes[i]);
            merged_cuts.push_back(part_cuts[i]);
          }
        }
      }
    }
    for (EdgeTypeId e = 0; e < graph->num_edge_types(); ++e) {
      const NodeTypeId tgt_type = graph->edge_src_type(e);
      const NodeTypeId src_type = graph->edge_dst_type(e);
      size_t num_edges = 0;
      for (const Subgraph* part : parts) {
        for (const auto& b : part->blocks[static_cast<size_t>(l)]) {
          if (b.edge_type == e) num_edges += b.target_local.size();
        }
      }
      if (num_edges == 0) continue;
      Subgraph::Block merged;
      merged.edge_type = e;
      merged.target_local.reserve(num_edges);
      merged.source_local.reserve(num_edges);
      for (size_t c = 0; c < num_parts; ++c) {
        for (const auto& b : parts[c]->blocks[static_cast<size_t>(l)]) {
          if (b.edge_type != e) continue;
          const int64_t* tgt_map = map.at(c, tgt_type);
          const int64_t* src_map = next_map.at(c, src_type);
          for (size_t k = 0; k < b.target_local.size(); ++k) {
            merged.target_local.push_back(
                tgt_map[static_cast<size_t>(b.target_local[k])]);
            merged.source_local.push_back(
                src_map[static_cast<size_t>(b.source_local[k])]);
          }
        }
      }
      sg.blocks[static_cast<size_t>(l)].push_back(std::move(merged));
    }
    std::swap(map, next_map);
  }
  return sg;
}

}  // namespace

int64_t Subgraph::TotalFrontierNodes() const {
  int64_t total = 0;
  for (const auto& f : frontiers) {
    for (const auto& nodes : f.nodes) {
      total += static_cast<int64_t>(nodes.size());
    }
  }
  return total;
}

int64_t Subgraph::TotalBlockEdges() const {
  int64_t total = 0;
  for (const auto& layer : blocks) {
    for (const auto& b : layer) {
      total += static_cast<int64_t>(b.target_local.size());
    }
  }
  return total;
}

NeighborSampler::NeighborSampler(const HeteroGraph* graph,
                                 SamplerOptions options)
    : graph_(graph), options_(std::move(options)) {
  RELGRAPH_CHECK(graph_ != nullptr);
  RELGRAPH_CHECK(!options_.fanouts.empty());
  for (int64_t f : options_.fanouts) RELGRAPH_CHECK(f > 0);
}

Subgraph NeighborSampler::Sample(NodeTypeId seed_type,
                                 const std::vector<int64_t>& seeds,
                                 const std::vector<Timestamp>& cutoffs,
                                 Rng* rng) const {
  RELGRAPH_CHECK(seeds.size() == cutoffs.size());
  // The parent RNG advances exactly once per Sample call; every chunk
  // stream is forked from the advanced state and the chunk index, so the
  // sampled subgraph is a pure function of (parent state, seeds, options)
  // and never of the thread count.
  Rng batch_rng = rng->Split();
  const int64_t n = static_cast<int64_t>(seeds.size());
  const int64_t chunk =
      std::max<int64_t>(1, options_.parallel_chunk_seeds);
  const int64_t num_chunks = n <= chunk ? 1 : (n + chunk - 1) / chunk;
  if (num_chunks <= 1) {
    Rng chunk_rng = batch_rng.Fork(0);
    Subgraph sg = SampleChunk(seed_type, seeds, cutoffs, &chunk_rng);
    NoteSample(sg, n, 1);
    return sg;
  }
  std::vector<Subgraph> parts(static_cast<size_t>(num_chunks));
  ParallelFor(0, num_chunks, 1, [&](int64_t c0, int64_t c1) {
    for (int64_t c = c0; c < c1; ++c) {
      Rng chunk_rng = batch_rng.Fork(static_cast<uint64_t>(c));
      const int64_t lo = c * chunk;
      const int64_t hi = std::min(n, lo + chunk);
      const std::vector<int64_t> chunk_seeds(seeds.begin() + lo,
                                             seeds.begin() + hi);
      const std::vector<Timestamp> chunk_cutoffs(cutoffs.begin() + lo,
                                                 cutoffs.begin() + hi);
      parts[static_cast<size_t>(c)] =
          SampleChunk(seed_type, chunk_seeds, chunk_cutoffs, &chunk_rng);
    }
  });
  std::vector<const Subgraph*> ptrs;
  ptrs.reserve(parts.size());
  for (const auto& p : parts) ptrs.push_back(&p);
  Subgraph sg = MergeParts(graph_, ptrs, /*dedup=*/true);
  NoteSample(sg, n, num_chunks);
  return sg;
}

uint64_t ServingSeedFingerprint(uint64_t salt, int64_t node,
                                Timestamp cutoff) {
  uint64_t seed = Mix64(salt ^ Mix64(static_cast<uint64_t>(node)));
  return Mix64(seed ^ Mix64(static_cast<uint64_t>(cutoff)));
}

Subgraph NeighborSampler::SampleForServing(NodeTypeId seed_type,
                                           int64_t node, Timestamp cutoff,
                                           uint64_t salt) const {
  // Stream derived from (salt, node, cutoff) only: equal inputs replay the
  // exact draw sequence, so a recomputed subgraph is bit-identical to a
  // cached one regardless of request order or batch composition.
  Rng rng(ServingSeedFingerprint(salt, node, cutoff));
  const std::vector<int64_t> seeds = {node};
  const std::vector<Timestamp> cutoffs = {cutoff};
  Subgraph sg = SampleChunk(seed_type, seeds, cutoffs, &rng);
  NoteSample(sg, 1, 1);
  return sg;
}

Result<Subgraph> NeighborSampler::SampleForServing(
    NodeTypeId seed_type, int64_t node, Timestamp cutoff, uint64_t salt,
    const Deadline& deadline) const {
  if (deadline.expired()) {
    return Status::DeadlineExceeded("deadline expired before sampling");
  }
  // Same stream derivation as the deadline-free overload: the deadline
  // gates whether a subgraph is produced, never which subgraph.
  Rng rng(ServingSeedFingerprint(salt, node, cutoff));
  const std::vector<int64_t> seeds = {node};
  const std::vector<Timestamp> cutoffs = {cutoff};
  bool expired = false;
  Subgraph sg =
      SampleChunk(seed_type, seeds, cutoffs, &rng, &deadline, &expired);
  if (expired) {
    return Status::DeadlineExceeded("deadline expired during sampling");
  }
  NoteSample(sg, 1, 1);
  return sg;
}

uint64_t OptionsFingerprint(const SamplerOptions& options) {
  uint64_t h = Mix64(static_cast<uint64_t>(options.fanouts.size()));
  for (int64_t f : options.fanouts) {
    h = Mix64(h ^ Mix64(static_cast<uint64_t>(f)));
  }
  h = Mix64(h ^ (options.temporal ? 0x5851F42D4C957F2DULL : 0));
  h = Mix64(h ^ Mix64(static_cast<uint64_t>(options.policy)));
  return h;
}

Subgraph NeighborSampler::SampleChunk(NodeTypeId seed_type,
                                      const std::vector<int64_t>& seeds,
                                      const std::vector<Timestamp>& cutoffs,
                                      Rng* rng, const Deadline* deadline,
                                      bool* deadline_expired) const {
  const int64_t layers = num_layers();
  Subgraph sg = EmptySubgraph(graph_->num_node_types(), layers);

  // Frontier 0 = seeds verbatim (duplicates allowed: they are the batch).
  sg.frontiers[0].nodes[static_cast<size_t>(seed_type)] = seeds;
  sg.frontiers[0].cutoffs[static_cast<size_t>(seed_type)] = cutoffs;

  ScratchLease lease;
  SamplerScratch& scratch = *lease;
  // The dedup index holds exactly the current frontier: frontier k+1
  // begins with frontier k at the same positions, so the index carries
  // over from hop to hop and each hop only adds its new nodes. A repeated
  // seed resolves to its first position.
  NodeCutTable& table = scratch.table;
  table.Reset();
  bool inserted;
  for (size_t i = 0; i < seeds.size(); ++i) {
    table.Intern(seed_type, seeds[i], cutoffs[i], static_cast<int64_t>(i),
                 &inserted);
  }
  // Per-node candidate arrays, gathered across CSR segments in segment
  // order (base slab first, then append tails): the collected sequence is
  // exactly the single-span neighbor order of a bulk-built graph, so
  // segmentation is invisible to the draw sequence and the selection —
  // the incremental-vs-rebuild bit-equality contract.
  std::vector<int64_t>& cand_dst = scratch.cand_dst;
  std::vector<Timestamp>& cand_time = scratch.cand_time;
  std::vector<int64_t>& reservoir = scratch.reservoir;
  // Accumulated locally and flushed once per chunk: truncation counting
  // must not put an atomic op on the per-neighbor hot path.
  int64_t truncations = 0;
  for (int64_t layer = 0; layer < layers; ++layer) {
    // Per-hop budget check: refuse to start a hop past the deadline (the
    // caller discards the partial result, so no draw divergence leaks).
    if (deadline != nullptr && deadline->expired()) {
      *deadline_expired = true;
      return sg;
    }
    const auto& cur = sg.frontiers[static_cast<size_t>(layer)];
    auto& next = sg.frontiers[static_cast<size_t>(layer) + 1];
    // Self-prefix invariant: next frontier starts as a copy of the current.
    next.nodes = cur.nodes;
    next.cutoffs = cur.cutoffs;

    const int64_t fanout = options_.fanouts[static_cast<size_t>(layer)];
    auto& layer_blocks = sg.blocks[static_cast<size_t>(layer)];
    for (EdgeTypeId e = 0; e < graph_->num_edge_types(); ++e) {
      const NodeTypeId agg_type = graph_->edge_src_type(e);
      const NodeTypeId nbr_type = graph_->edge_dst_type(e);
      const auto& agg_nodes = cur.nodes[static_cast<size_t>(agg_type)];
      if (agg_nodes.empty()) continue;
      auto& nbr_nodes = next.nodes[static_cast<size_t>(nbr_type)];
      auto& nbr_cutoffs = next.cutoffs[static_cast<size_t>(nbr_type)];
      Subgraph::Block block;
      block.edge_type = e;
      const int32_t num_segs = graph_->num_segments(e);
      for (size_t vi = 0; vi < agg_nodes.size(); ++vi) {
        const int64_t v = agg_nodes[vi];
        const Timestamp cutoff =
            cur.cutoffs[static_cast<size_t>(agg_type)][vi];
        // Collect time-valid neighbors across segments (canonical order).
        cand_dst.clear();
        cand_time.clear();
        for (int32_t s = 0; s < num_segs; ++s) {
          const int64_t* dst;
          const Timestamp* times;
          int64_t count;
          graph_->SegmentNeighbors(e, s, v, &dst, &times, &count);
          for (int64_t i = 0; i < count; ++i) {
            if (options_.temporal && times[i] != kNoTimestamp &&
                times[i] >= cutoff) {
              continue;
            }
            cand_dst.push_back(dst[i]);
            cand_time.push_back(times[i]);
          }
        }
        reservoir.resize(cand_dst.size());
        for (size_t i = 0; i < reservoir.size(); ++i) {
          reservoir[i] = static_cast<int64_t>(i);
        }
        if (static_cast<int64_t>(reservoir.size()) > fanout) {
          ++truncations;
          if (options_.policy == SamplePolicy::kMostRecent) {
            const std::vector<Timestamp>& times = cand_time;
            std::nth_element(
                reservoir.begin(), reservoir.begin() + fanout,
                reservoir.end(), [&times](int64_t a, int64_t b) {
                  return times[static_cast<size_t>(a)] >
                         times[static_cast<size_t>(b)];
                });
            reservoir.resize(static_cast<size_t>(fanout));
          } else {
            // Uniform without replacement via partial Fisher-Yates.
            for (int64_t i = 0; i < fanout; ++i) {
              const int64_t j =
                  i + static_cast<int64_t>(rng->UniformU64(
                          static_cast<uint64_t>(
                              static_cast<int64_t>(reservoir.size()) - i)));
              std::swap(reservoir[static_cast<size_t>(i)],
                        reservoir[static_cast<size_t>(j)]);
            }
            reservoir.resize(static_cast<size_t>(fanout));
          }
        }
        for (int64_t pos : reservoir) {
          const int64_t u = cand_dst[static_cast<size_t>(pos)];
          const int64_t u_local =
              table.Intern(nbr_type, u, cutoff,
                           static_cast<int64_t>(nbr_nodes.size()), &inserted);
          if (inserted) {
            nbr_nodes.push_back(u);
            nbr_cutoffs.push_back(cutoff);
          }
          block.target_local.push_back(static_cast<int64_t>(vi));
          block.source_local.push_back(u_local);
        }
      }
      if (!block.target_local.empty()) {
        layer_blocks.push_back(std::move(block));
      }
    }
  }
  if (truncations > 0) {
    RELGRAPH_COUNTER_ADD("sampler_fanout_truncations_total", truncations);
  }
  return sg;
}

Subgraph ConcatSubgraphs(const HeteroGraph* graph,
                         const std::vector<Subgraph>& parts) {
  std::vector<const Subgraph*> ptrs;
  ptrs.reserve(parts.size());
  for (const auto& p : parts) ptrs.push_back(&p);
  return ConcatSubgraphs(graph, ptrs);
}

Subgraph ConcatSubgraphs(const HeteroGraph* graph,
                         const std::vector<const Subgraph*>& parts) {
  RELGRAPH_CHECK(graph != nullptr);
  RELGRAPH_CHECK(!parts.empty());
  const size_t layers = parts[0]->blocks.size();
  for (const auto* p : parts) {
    RELGRAPH_CHECK(p != nullptr);
    RELGRAPH_CHECK(p->blocks.size() == layers);
  }
  return MergeParts(graph, parts, /*dedup=*/false);
}

std::vector<std::vector<int64_t>> MakeBatches(int64_t n, int64_t batch_size,
                                              Rng* rng) {
  RELGRAPH_CHECK(batch_size > 0);
  std::vector<int64_t> order(static_cast<size_t>(std::max<int64_t>(n, 0)));
  for (int64_t i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
  if (rng != nullptr) rng->Shuffle(&order);
  std::vector<std::vector<int64_t>> batches;
  for (int64_t start = 0; start < n; start += batch_size) {
    const int64_t end = std::min(n, start + batch_size);
    batches.emplace_back(order.begin() + start, order.begin() + end);
  }
  return batches;
}

}  // namespace relgraph
