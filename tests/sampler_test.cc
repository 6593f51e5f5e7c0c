#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/parallel.h"
#include "datagen/ecommerce.h"
#include "db2graph/graph_builder.h"
#include "sampler/negative_sampler.h"
#include "sampler/neighbor_sampler.h"

namespace relgraph {
namespace {

/// A tiny hand-built temporal graph:
///   2 users, 5 orders; user0 -> orders {0@10, 1@20, 2@30}, user1 -> {3@15,
///   4@25}. Edges both directions.
HeteroGraph MakeToyGraph() {
  HeteroGraph g;
  NodeTypeId users = g.AddNodeType("users", 2).value();
  NodeTypeId orders = g.AddNodeType("orders", 5).value();
  EXPECT_TRUE(g.SetNodeFeatures(users, Tensor::Ones(2, 3)).ok());
  EXPECT_TRUE(g.SetNodeFeatures(orders, Tensor::Ones(5, 2)).ok());
  EXPECT_TRUE(g.SetNodeTimes(orders, {10, 20, 30, 15, 25}).ok());
  std::vector<int64_t> src = {0, 1, 2, 3, 4};
  std::vector<int64_t> dst = {0, 0, 0, 1, 1};
  std::vector<Timestamp> times = {10, 20, 30, 15, 25};
  EXPECT_TRUE(g.AddEdgeType("orders__user", orders, users, src, dst, times)
                  .ok());
  EXPECT_TRUE(
      g.AddEdgeType("rev_orders__user", users, orders, dst, src, times)
          .ok());
  return g;
}

TEST(NeighborSamplerTest, SeedsAreFrontierZero) {
  HeteroGraph g = MakeToyGraph();
  SamplerOptions opts;
  opts.fanouts = {10};
  NeighborSampler sampler(&g, opts);
  Rng rng(1);
  NodeTypeId users = g.FindNodeType("users").value();
  Subgraph sg = sampler.Sample(users, {0, 1}, {100, 100}, &rng);
  ASSERT_EQ(sg.frontiers.size(), 2u);
  EXPECT_EQ(sg.frontiers[0].nodes[users], (std::vector<int64_t>{0, 1}));
}

TEST(NeighborSamplerTest, SelfPrefixInvariantHolds) {
  HeteroGraph g = MakeToyGraph();
  SamplerOptions opts;
  opts.fanouts = {2, 2};
  NeighborSampler sampler(&g, opts);
  Rng rng(2);
  NodeTypeId users = g.FindNodeType("users").value();
  Subgraph sg = sampler.Sample(users, {0}, {100}, &rng);
  for (size_t k = 0; k + 1 < sg.frontiers.size(); ++k) {
    for (size_t t = 0; t < sg.frontiers[k].nodes.size(); ++t) {
      const auto& cur = sg.frontiers[k].nodes[t];
      const auto& next = sg.frontiers[k + 1].nodes[t];
      ASSERT_GE(next.size(), cur.size());
      for (size_t i = 0; i < cur.size(); ++i) {
        EXPECT_EQ(next[i], cur[i]) << "layer " << k << " type " << t;
      }
    }
  }
}

TEST(NeighborSamplerTest, TemporalCutoffExcludesFutureEdges) {
  HeteroGraph g = MakeToyGraph();
  SamplerOptions opts;
  opts.fanouts = {10};
  NeighborSampler sampler(&g, opts);
  Rng rng(3);
  NodeTypeId users = g.FindNodeType("users").value();
  NodeTypeId orders = g.FindNodeType("orders").value();
  // Cutoff 21: user0 may only see orders 0@10 and 1@20, not 2@30.
  Subgraph sg = sampler.Sample(users, {0}, {21}, &rng);
  std::set<int64_t> got(sg.frontiers[1].nodes[orders].begin(),
                        sg.frontiers[1].nodes[orders].end());
  EXPECT_EQ(got, (std::set<int64_t>{0, 1}));
  // Cutoff exactly at an edge time excludes it (strict <).
  Subgraph sg2 = sampler.Sample(users, {0}, {20}, &rng);
  std::set<int64_t> got2(sg2.frontiers[1].nodes[orders].begin(),
                         sg2.frontiers[1].nodes[orders].end());
  EXPECT_EQ(got2, (std::set<int64_t>{0}));
}

TEST(NeighborSamplerTest, NonTemporalSeesEverything) {
  HeteroGraph g = MakeToyGraph();
  SamplerOptions opts;
  opts.fanouts = {10};
  opts.temporal = false;
  NeighborSampler sampler(&g, opts);
  Rng rng(4);
  NodeTypeId users = g.FindNodeType("users").value();
  NodeTypeId orders = g.FindNodeType("orders").value();
  Subgraph sg = sampler.Sample(users, {0}, {0}, &rng);
  EXPECT_EQ(sg.frontiers[1].nodes[orders].size(), 3u);
}

TEST(NeighborSamplerTest, FanoutBoundsSampledNeighbors) {
  HeteroGraph g = MakeToyGraph();
  SamplerOptions opts;
  opts.fanouts = {2};
  NeighborSampler sampler(&g, opts);
  Rng rng(5);
  NodeTypeId users = g.FindNodeType("users").value();
  NodeTypeId orders = g.FindNodeType("orders").value();
  Subgraph sg = sampler.Sample(users, {0}, {100}, &rng);
  EXPECT_EQ(sg.frontiers[1].nodes[orders].size(), 2u);
}

TEST(NeighborSamplerTest, MostRecentPolicyKeepsLatest) {
  HeteroGraph g = MakeToyGraph();
  SamplerOptions opts;
  opts.fanouts = {2};
  opts.policy = SamplePolicy::kMostRecent;
  NeighborSampler sampler(&g, opts);
  Rng rng(6);
  NodeTypeId users = g.FindNodeType("users").value();
  NodeTypeId orders = g.FindNodeType("orders").value();
  Subgraph sg = sampler.Sample(users, {0}, {100}, &rng);
  std::set<int64_t> got(sg.frontiers[1].nodes[orders].begin(),
                        sg.frontiers[1].nodes[orders].end());
  // Latest two of {0@10, 1@20, 2@30} are 1 and 2.
  EXPECT_EQ(got, (std::set<int64_t>{1, 2}));
}

TEST(NeighborSamplerTest, BlocksReferenceValidLocalIndices) {
  ECommerceConfig cfg;
  cfg.num_users = 60;
  cfg.num_products = 20;
  cfg.num_categories = 4;
  cfg.horizon_days = 60;
  Database db = MakeECommerceDb(cfg);
  auto dbg = BuildDbGraph(db).value();
  SamplerOptions opts;
  opts.fanouts = {4, 4};
  NeighborSampler sampler(&dbg.graph, opts);
  Rng rng(7);
  NodeTypeId users = dbg.graph.FindNodeType("users").value();
  std::vector<int64_t> seeds = {0, 5, 10, 15};
  std::vector<Timestamp> cutoffs(4, Days(50));
  Subgraph sg = sampler.Sample(users, seeds, cutoffs, &rng);
  ASSERT_EQ(sg.blocks.size(), 2u);
  for (size_t k = 0; k < sg.blocks.size(); ++k) {
    for (const auto& b : sg.blocks[k]) {
      const NodeTypeId tgt_type = dbg.graph.edge_src_type(b.edge_type);
      const NodeTypeId src_type = dbg.graph.edge_dst_type(b.edge_type);
      const int64_t n_tgt = static_cast<int64_t>(
          sg.frontiers[k].nodes[tgt_type].size());
      const int64_t n_src = static_cast<int64_t>(
          sg.frontiers[k + 1].nodes[src_type].size());
      ASSERT_EQ(b.target_local.size(), b.source_local.size());
      for (size_t i = 0; i < b.target_local.size(); ++i) {
        EXPECT_GE(b.target_local[i], 0);
        EXPECT_LT(b.target_local[i], n_tgt);
        EXPECT_GE(b.source_local[i], 0);
        EXPECT_LT(b.source_local[i], n_src);
      }
    }
  }
  EXPECT_GT(sg.TotalBlockEdges(), 0);
  EXPECT_GT(sg.TotalFrontierNodes(), 4);
}

TEST(NeighborSamplerTest, SampledEdgesRespectCutoffOnRealGraph) {
  ECommerceConfig cfg;
  cfg.num_users = 40;
  cfg.num_products = 15;
  cfg.num_categories = 3;
  cfg.horizon_days = 80;
  Database db = MakeECommerceDb(cfg);
  auto dbg = BuildDbGraph(db).value();
  const HeteroGraph& g = dbg.graph;
  SamplerOptions opts;
  opts.fanouts = {8, 8};
  NeighborSampler sampler(&g, opts);
  Rng rng(8);
  NodeTypeId users = g.FindNodeType("users").value();
  NodeTypeId orders = g.FindNodeType("orders").value();
  const Timestamp cutoff = Days(40);
  Subgraph sg = sampler.Sample(users, {0, 1, 2, 3, 4},
                               std::vector<Timestamp>(5, cutoff), &rng);
  // No order node anywhere in the sample may be dated at/after the cutoff.
  for (const auto& f : sg.frontiers) {
    for (int64_t node : f.nodes[orders]) {
      EXPECT_LT(g.node_time(orders, node), cutoff);
    }
  }
}

TEST(NeighborSamplerTest, DistinctCutoffsStayDistinct) {
  HeteroGraph g = MakeToyGraph();
  SamplerOptions opts;
  opts.fanouts = {10};
  NeighborSampler sampler(&g, opts);
  Rng rng(9);
  NodeTypeId users = g.FindNodeType("users").value();
  NodeTypeId orders = g.FindNodeType("orders").value();
  // Same seed node under two cutoffs: the frontier-1 user entries dedupe
  // per cutoff, and each cutoff sees a different number of orders.
  Subgraph sg = sampler.Sample(users, {0, 0}, {15, 100}, &rng);
  // Frontier 1 user entries: self-prefix has both (node0,15) and (node0,100).
  EXPECT_EQ(sg.frontiers[1].nodes[users].size(), 2u);
  // Orders: cutoff 15 contributes {0}, cutoff 100 contributes {0,1,2}; the
  // (order, cutoff) pairs are distinct so sizes add.
  EXPECT_EQ(sg.frontiers[1].nodes[orders].size(), 4u);
}

TEST(MakeBatchesTest, CoversAllIndicesOnce) {
  Rng rng(10);
  auto batches = MakeBatches(10, 3, &rng);
  ASSERT_EQ(batches.size(), 4u);
  std::set<int64_t> seen;
  for (const auto& b : batches) {
    for (int64_t i : b) seen.insert(i);
  }
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_EQ(batches[3].size(), 1u);
}

TEST(MakeBatchesTest, NoShuffleWhenRngNull) {
  auto batches = MakeBatches(5, 2, nullptr);
  EXPECT_EQ(batches[0], (std::vector<int64_t>{0, 1}));
  EXPECT_EQ(batches[2], (std::vector<int64_t>{4}));
}

TEST(MakeBatchesTest, EmptyInput) {
  EXPECT_TRUE(MakeBatches(0, 4, nullptr).empty());
}

TEST(NegativeSamplerTest, AvoidsPositives) {
  NegativeSampler ns(10, {{0, 1}, {0, 2}, {1, 3}});
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    int64_t t = ns.SampleNegative(0, &rng);
    EXPECT_NE(t, 1);
    EXPECT_NE(t, 2);
    EXPECT_GE(t, 0);
    EXPECT_LT(t, 10);
  }
  EXPECT_TRUE(ns.IsPositive(0, 1));
  EXPECT_FALSE(ns.IsPositive(0, 3));
}

TEST(NegativeSamplerTest, SampleMany) {
  NegativeSampler ns(5, {{7, 0}});
  Rng rng(12);
  auto negs = ns.SampleNegatives(7, 20, &rng);
  EXPECT_EQ(negs.size(), 20u);
  for (int64_t t : negs) EXPECT_NE(t, 0);
}

TEST(NegativeSamplerTest, DegenerateAllPositive) {
  NegativeSampler ns(2, {{0, 0}, {0, 1}});
  Rng rng(13);
  // Falls back to uniform rather than looping forever.
  int64_t t = ns.SampleNegative(0, &rng);
  EXPECT_GE(t, 0);
  EXPECT_LT(t, 2);
}

TEST(NegativeSamplerTest, LargeIdsStayExact) {
  // The old composite key (source * num_targets + target) overflowed
  // int64 for billion-scale sources × large target sets and aliased
  // distinct pairs; the pair set must stay exact at any magnitude.
  const int64_t big_source = int64_t{1} << 40;
  const int64_t num_targets = int64_t{1} << 31;
  NegativeSampler ns(num_targets,
                     {{big_source, 5}, {big_source - 1, 7}, {0, 9}});
  EXPECT_TRUE(ns.IsPositive(big_source, 5));
  EXPECT_TRUE(ns.IsPositive(big_source - 1, 7));
  EXPECT_TRUE(ns.IsPositive(0, 9));
  // Near-miss pairs that a wrapped composite key could collide with.
  EXPECT_FALSE(ns.IsPositive(big_source, 7));
  EXPECT_FALSE(ns.IsPositive(big_source - 1, 5));
  EXPECT_FALSE(ns.IsPositive(big_source + 1, 5));
  EXPECT_FALSE(ns.IsPositive(0, 5));
  EXPECT_FALSE(ns.IsPositive(5, big_source % num_targets));
}

TEST(NegativeSamplerTest, SampleNegativesDistinctWithinDraw) {
  NegativeSampler ns(50, {{3, 1}, {3, 2}});
  Rng rng(14);
  for (int trial = 0; trial < 25; ++trial) {
    auto negs = ns.SampleNegatives(3, 10, &rng);
    ASSERT_EQ(negs.size(), 10u);
    std::set<int64_t> uniq(negs.begin(), negs.end());
    // Drawing WITH replacement used to hand back repeats; every draw must
    // now be distinct when enough admissible targets exist.
    EXPECT_EQ(uniq.size(), negs.size());
    for (int64_t t : negs) {
      EXPECT_FALSE(ns.IsPositive(3, t));
      EXPECT_GE(t, 0);
      EXPECT_LT(t, 50);
    }
  }
}

TEST(NegativeSamplerTest, SampleNegativesPathologicalFallback) {
  // Only one admissible target but three requested: the tail relaxes
  // distinctness yet still avoids the positives.
  NegativeSampler ns(3, {{0, 0}, {0, 1}});
  Rng rng(15);
  auto negs = ns.SampleNegatives(0, 3, &rng);
  ASSERT_EQ(negs.size(), 3u);
  for (int64_t t : negs) EXPECT_EQ(t, 2);
}

// ---------------------------------------------------------------- serving

bool SubgraphsEqual(const Subgraph& a, const Subgraph& b) {
  if (a.frontiers.size() != b.frontiers.size()) return false;
  for (size_t f = 0; f < a.frontiers.size(); ++f) {
    if (a.frontiers[f].nodes != b.frontiers[f].nodes) return false;
    if (a.frontiers[f].cutoffs != b.frontiers[f].cutoffs) return false;
  }
  if (a.blocks.size() != b.blocks.size()) return false;
  for (size_t k = 0; k < a.blocks.size(); ++k) {
    if (a.blocks[k].size() != b.blocks[k].size()) return false;
    for (size_t e = 0; e < a.blocks[k].size(); ++e) {
      if (a.blocks[k][e].edge_type != b.blocks[k][e].edge_type ||
          a.blocks[k][e].target_local != b.blocks[k][e].target_local ||
          a.blocks[k][e].source_local != b.blocks[k][e].source_local) {
        return false;
      }
    }
  }
  return true;
}

TEST(ServingSamplerTest, SampleForServingIsPureInArguments) {
  ECommerceConfig cfg;
  cfg.num_users = 60;
  cfg.num_products = 20;
  cfg.num_categories = 4;
  cfg.horizon_days = 60;
  Database db = MakeECommerceDb(cfg);
  auto dbg = BuildDbGraph(db).value();
  SamplerOptions opts;
  opts.fanouts = {4, 4};
  NeighborSampler sampler(&dbg.graph, opts);
  NodeTypeId users = dbg.graph.FindNodeType("users").value();
  const uint64_t salt = 0x1234 ^ OptionsFingerprint(opts);

  Subgraph first = sampler.SampleForServing(users, 7, Days(50), salt);
  // Interleave unrelated sampling: per-seed results must not depend on
  // call order or other traffic (that is what makes them cacheable).
  (void)sampler.SampleForServing(users, 3, Days(50), salt);
  (void)sampler.SampleForServing(users, 7, Days(20), salt);
  Subgraph again = sampler.SampleForServing(users, 7, Days(50), salt);
  EXPECT_TRUE(SubgraphsEqual(first, again));

  // Different salt, node, or cutoff means an independent stream.
  Subgraph other_salt = sampler.SampleForServing(users, 7, Days(50), salt + 1);
  EXPECT_EQ(other_salt.frontiers[0].nodes[users],
            (std::vector<int64_t>{7}));
  Subgraph other_node = sampler.SampleForServing(users, 8, Days(50), salt);
  EXPECT_EQ(other_node.frontiers[0].nodes[users],
            (std::vector<int64_t>{8}));
}

TEST(ServingSamplerTest, OptionsFingerprintSeparatesSemantics) {
  SamplerOptions a;
  a.fanouts = {4, 4};
  SamplerOptions b = a;
  EXPECT_EQ(OptionsFingerprint(a), OptionsFingerprint(b));
  b.fanouts = {4, 8};
  EXPECT_NE(OptionsFingerprint(a), OptionsFingerprint(b));
  b = a;
  b.temporal = false;
  EXPECT_NE(OptionsFingerprint(a), OptionsFingerprint(b));
  b = a;
  b.policy = SamplePolicy::kMostRecent;
  EXPECT_NE(OptionsFingerprint(a), OptionsFingerprint(b));
  // Chunking is an execution detail, not a sampling-semantics change.
  b = a;
  b.parallel_chunk_seeds = 1;
  EXPECT_EQ(OptionsFingerprint(a), OptionsFingerprint(b));
}

TEST(ServingSamplerTest, ConcatRebuildsInvariantsWithoutDedup) {
  HeteroGraph g = MakeToyGraph();
  SamplerOptions opts;
  opts.fanouts = {2, 2};
  NeighborSampler sampler(&g, opts);
  NodeTypeId users = g.FindNodeType("users").value();
  const uint64_t salt = OptionsFingerprint(opts);

  // Both parts share seed node 0 at the same cutoff: a deduping merge
  // would pool their edges; block-diagonal concat must keep both copies.
  Subgraph p0 = sampler.SampleForServing(users, 0, 100, salt);
  Subgraph p1 = sampler.SampleForServing(users, 0, 100, salt);
  Subgraph p2 = sampler.SampleForServing(users, 1, 100, salt);
  Subgraph merged = ConcatSubgraphs(&g, {p0, p1, p2});

  // Seeds concatenate in part order, duplicates preserved.
  EXPECT_EQ(merged.frontiers[0].nodes[users],
            (std::vector<int64_t>{0, 0, 1}));

  // Self-prefix invariant holds after the merge.
  for (size_t k = 0; k + 1 < merged.frontiers.size(); ++k) {
    for (size_t t = 0; t < merged.frontiers[k].nodes.size(); ++t) {
      const auto& cur = merged.frontiers[k].nodes[t];
      const auto& next = merged.frontiers[k + 1].nodes[t];
      ASSERT_GE(next.size(), cur.size());
      for (size_t i = 0; i < cur.size(); ++i) {
        ASSERT_EQ(next[i], cur[i]) << "layer " << k << " type " << t;
      }
    }
  }

  // Node and edge counts add exactly — nothing pooled across parts.
  EXPECT_EQ(merged.TotalFrontierNodes(), p0.TotalFrontierNodes() +
                                             p1.TotalFrontierNodes() +
                                             p2.TotalFrontierNodes());
  EXPECT_EQ(merged.TotalBlockEdges(),
            p0.TotalBlockEdges() + p1.TotalBlockEdges() +
                p2.TotalBlockEdges());

  // Block indices stay within the merged frontier bounds.
  for (size_t k = 0; k < merged.blocks.size(); ++k) {
    for (const auto& b : merged.blocks[k]) {
      const NodeTypeId tgt_type = g.edge_src_type(b.edge_type);
      const NodeTypeId src_type = g.edge_dst_type(b.edge_type);
      const int64_t n_tgt =
          static_cast<int64_t>(merged.frontiers[k].nodes[tgt_type].size());
      const int64_t n_src = static_cast<int64_t>(
          merged.frontiers[k + 1].nodes[src_type].size());
      ASSERT_EQ(b.target_local.size(), b.source_local.size());
      for (size_t i = 0; i < b.target_local.size(); ++i) {
        ASSERT_GE(b.target_local[i], 0);
        ASSERT_LT(b.target_local[i], n_tgt);
        ASSERT_GE(b.source_local[i], 0);
        ASSERT_LT(b.source_local[i], n_src);
      }
    }
  }
}

TEST(ServingSamplerTest, ConcatOfSinglePartIsIdentity) {
  HeteroGraph g = MakeToyGraph();
  SamplerOptions opts;
  opts.fanouts = {2, 2};
  NeighborSampler sampler(&g, opts);
  NodeTypeId users = g.FindNodeType("users").value();
  Subgraph part =
      sampler.SampleForServing(users, 1, 100, OptionsFingerprint(opts));
  Subgraph merged = ConcatSubgraphs(&g, {part});
  EXPECT_TRUE(SubgraphsEqual(part, merged));
}

// ------------------------------------------------------- kernel oracle
//
// The sampling kernel as it was written before its flat dedup table: one
// std::unordered_map per node type per hop, rebuilt from the frontier
// prefix, and the chunk merge / serving concat on nested index vectors.
// Sample, SampleForServing and ConcatSubgraphs must reproduce it bit for
// bit: the same node order, edge order and random draws.

namespace oracle {

struct NodeCut {
  int64_t node;
  Timestamp cutoff;
  bool operator==(const NodeCut& o) const {
    return node == o.node && cutoff == o.cutoff;
  }
};

struct NodeCutHash {
  size_t operator()(const NodeCut& k) const {
    return std::hash<int64_t>()(k.node) * 1000003ULL ^
           std::hash<int64_t>()(k.cutoff);
  }
};

using Dict = std::unordered_map<NodeCut, int64_t, NodeCutHash>;

Subgraph Empty(const HeteroGraph& g, size_t layers) {
  Subgraph sg;
  sg.frontiers.resize(layers + 1);
  sg.blocks.resize(layers);
  for (auto& f : sg.frontiers) {
    f.nodes.resize(static_cast<size_t>(g.num_node_types()));
    f.cutoffs.resize(static_cast<size_t>(g.num_node_types()));
  }
  return sg;
}

Subgraph SampleChunk(const HeteroGraph& g, const SamplerOptions& o,
                     NodeTypeId seed_type, const std::vector<int64_t>& seeds,
                     const std::vector<Timestamp>& cutoffs, Rng* rng) {
  const size_t types = static_cast<size_t>(g.num_node_types());
  Subgraph sg = Empty(g, o.fanouts.size());
  sg.frontiers[0].nodes[static_cast<size_t>(seed_type)] = seeds;
  sg.frontiers[0].cutoffs[static_cast<size_t>(seed_type)] = cutoffs;
  for (size_t layer = 0; layer < o.fanouts.size(); ++layer) {
    const auto& cur = sg.frontiers[layer];
    auto& next = sg.frontiers[layer + 1];
    next.nodes = cur.nodes;
    next.cutoffs = cur.cutoffs;
    std::vector<Dict> local(types);
    for (size_t t = 0; t < types; ++t) {
      for (size_t i = 0; i < next.nodes[t].size(); ++i) {
        local[t].emplace(NodeCut{next.nodes[t][i], next.cutoffs[t][i]},
                         static_cast<int64_t>(i));
      }
    }
    const int64_t fanout = o.fanouts[layer];
    for (EdgeTypeId e = 0; e < g.num_edge_types(); ++e) {
      const size_t agg_type = static_cast<size_t>(g.edge_src_type(e));
      const size_t nbr_type = static_cast<size_t>(g.edge_dst_type(e));
      const auto& agg_nodes = cur.nodes[agg_type];
      if (agg_nodes.empty()) continue;
      Subgraph::Block block;
      block.edge_type = e;
      for (size_t vi = 0; vi < agg_nodes.size(); ++vi) {
        const Timestamp cutoff = cur.cutoffs[agg_type][vi];
        std::vector<int64_t> cand_dst;
        std::vector<Timestamp> cand_time;
        for (int32_t seg = 0; seg < g.num_segments(e); ++seg) {
          const int64_t* dst;
          const Timestamp* times;
          int64_t count;
          g.SegmentNeighbors(e, seg, agg_nodes[vi], &dst, &times, &count);
          for (int64_t i = 0; i < count; ++i) {
            if (o.temporal && times[i] != kNoTimestamp &&
                times[i] >= cutoff) {
              continue;
            }
            cand_dst.push_back(dst[i]);
            cand_time.push_back(times[i]);
          }
        }
        std::vector<int64_t> reservoir(cand_dst.size());
        for (size_t i = 0; i < reservoir.size(); ++i) {
          reservoir[i] = static_cast<int64_t>(i);
        }
        if (static_cast<int64_t>(reservoir.size()) > fanout) {
          if (o.policy == SamplePolicy::kMostRecent) {
            std::nth_element(reservoir.begin(), reservoir.begin() + fanout,
                             reservoir.end(), [&](int64_t a, int64_t b) {
                               return cand_time[static_cast<size_t>(a)] >
                                      cand_time[static_cast<size_t>(b)];
                             });
          } else {
            for (int64_t i = 0; i < fanout; ++i) {
              const int64_t j =
                  i + static_cast<int64_t>(rng->UniformU64(
                          static_cast<uint64_t>(
                              static_cast<int64_t>(reservoir.size()) - i)));
              std::swap(reservoir[static_cast<size_t>(i)],
                        reservoir[static_cast<size_t>(j)]);
            }
          }
          reservoir.resize(static_cast<size_t>(fanout));
        }
        for (int64_t pos : reservoir) {
          const int64_t u = cand_dst[static_cast<size_t>(pos)];
          auto [it, inserted] = local[nbr_type].emplace(
              NodeCut{u, cutoff},
              static_cast<int64_t>(next.nodes[nbr_type].size()));
          if (inserted) {
            next.nodes[nbr_type].push_back(u);
            next.cutoffs[nbr_type].push_back(cutoff);
          }
          block.target_local.push_back(static_cast<int64_t>(vi));
          block.source_local.push_back(it->second);
        }
      }
      if (!block.target_local.empty()) {
        sg.blocks[layer].push_back(std::move(block));
      }
    }
  }
  return sg;
}

/// The chunk merge (dedup) and the serving concat (no dedup).
Subgraph Merge(const HeteroGraph& g, const std::vector<Subgraph>& parts,
               bool dedup) {
  const size_t types = static_cast<size_t>(g.num_node_types());
  const size_t layers = parts[0].blocks.size();
  Subgraph sg = Empty(g, layers);
  using Map = std::vector<std::vector<std::vector<int64_t>>>;
  Map map(parts.size(), std::vector<std::vector<int64_t>>(types));
  for (size_t c = 0; c < parts.size(); ++c) {
    for (size_t t = 0; t < types; ++t) {
      for (size_t i = 0; i < parts[c].frontiers[0].nodes[t].size(); ++i) {
        map[c][t].push_back(
            static_cast<int64_t>(sg.frontiers[0].nodes[t].size()));
        sg.frontiers[0].nodes[t].push_back(parts[c].frontiers[0].nodes[t][i]);
        sg.frontiers[0].cutoffs[t].push_back(
            parts[c].frontiers[0].cutoffs[t][i]);
      }
    }
  }
  for (size_t l = 0; l < layers; ++l) {
    auto& next = sg.frontiers[l + 1];
    next.nodes = sg.frontiers[l].nodes;
    next.cutoffs = sg.frontiers[l].cutoffs;
    std::vector<Dict> dict(types);
    for (size_t t = 0; t < types; ++t) {
      for (size_t i = 0; i < next.nodes[t].size(); ++i) {
        dict[t].emplace(NodeCut{next.nodes[t][i], next.cutoffs[t][i]},
                        static_cast<int64_t>(i));
      }
    }
    Map next_map(parts.size(), std::vector<std::vector<int64_t>>(types));
    for (size_t c = 0; c < parts.size(); ++c) {
      for (size_t t = 0; t < types; ++t) {
        const auto& nodes = parts[c].frontiers[l + 1].nodes[t];
        const auto& cuts = parts[c].frontiers[l + 1].cutoffs[t];
        const size_t prefix = parts[c].frontiers[l].nodes[t].size();
        for (size_t i = 0; i < nodes.size(); ++i) {
          if (i < prefix) {
            next_map[c][t].push_back(map[c][t][i]);
            continue;
          }
          const int64_t fresh = static_cast<int64_t>(next.nodes[t].size());
          bool inserted = true;
          int64_t pos = fresh;
          if (dedup) {
            auto [it, ins] = dict[t].emplace(NodeCut{nodes[i], cuts[i]}, fresh);
            inserted = ins;
            pos = it->second;
          }
          if (inserted) {
            next.nodes[t].push_back(nodes[i]);
            next.cutoffs[t].push_back(cuts[i]);
          }
          next_map[c][t].push_back(pos);
        }
      }
    }
    for (EdgeTypeId e = 0; e < g.num_edge_types(); ++e) {
      const size_t tgt = static_cast<size_t>(g.edge_src_type(e));
      const size_t src = static_cast<size_t>(g.edge_dst_type(e));
      Subgraph::Block merged;
      merged.edge_type = e;
      for (size_t c = 0; c < parts.size(); ++c) {
        for (const auto& b : parts[c].blocks[l]) {
          if (b.edge_type != e) continue;
          for (size_t k = 0; k < b.target_local.size(); ++k) {
            merged.target_local.push_back(
                map[c][tgt][static_cast<size_t>(b.target_local[k])]);
            merged.source_local.push_back(
                next_map[c][src][static_cast<size_t>(b.source_local[k])]);
          }
        }
      }
      if (!merged.target_local.empty()) {
        sg.blocks[l].push_back(std::move(merged));
      }
    }
    map = std::move(next_map);
  }
  return sg;
}

Subgraph Sample(const HeteroGraph& g, const SamplerOptions& o,
                NodeTypeId seed_type, const std::vector<int64_t>& seeds,
                const std::vector<Timestamp>& cutoffs, Rng* rng) {
  Rng batch_rng = rng->Split();
  const size_t chunk = static_cast<size_t>(o.parallel_chunk_seeds);
  if (seeds.size() <= chunk) {
    Rng chunk_rng = batch_rng.Fork(0);
    return SampleChunk(g, o, seed_type, seeds, cutoffs, &chunk_rng);
  }
  std::vector<Subgraph> parts;
  for (size_t lo = 0, c = 0; lo < seeds.size(); lo += chunk, ++c) {
    const size_t hi = std::min(seeds.size(), lo + chunk);
    Rng chunk_rng = batch_rng.Fork(c);
    parts.push_back(SampleChunk(
        g, o, seed_type,
        std::vector<int64_t>(seeds.begin() + static_cast<int64_t>(lo),
                             seeds.begin() + static_cast<int64_t>(hi)),
        std::vector<Timestamp>(cutoffs.begin() + static_cast<int64_t>(lo),
                               cutoffs.begin() + static_cast<int64_t>(hi)),
        &chunk_rng));
  }
  return Merge(g, parts, /*dedup=*/true);
}

Subgraph SampleForServing(const HeteroGraph& g, const SamplerOptions& o,
                          NodeTypeId seed_type, int64_t node,
                          Timestamp cutoff, uint64_t salt) {
  Rng rng(ServingSeedFingerprint(salt, node, cutoff));
  return SampleChunk(g, o, seed_type, {node}, {cutoff}, &rng);
}

}  // namespace oracle

/// An e-commerce graph whose every edge type carries three append tails
/// after its base segment, with tail edges dated on both sides of the
/// test cutoffs and concentrated on low node ids so tails overlap.
HeteroGraph SegmentedGraph() {
  ECommerceConfig cfg;
  cfg.num_users = 70;
  cfg.num_products = 25;
  cfg.num_categories = 4;
  cfg.horizon_days = 120;
  Database db = MakeECommerceDb(cfg);
  HeteroGraph g = BuildDbGraph(db).value().graph;
  Rng rng(77);
  for (int tail = 0; tail < 3; ++tail) {
    for (EdgeTypeId e = 0; e < g.num_edge_types(); ++e) {
      const int64_t n_src = g.num_nodes(g.edge_src_type(e));
      const int64_t n_dst = g.num_nodes(g.edge_dst_type(e));
      std::vector<int64_t> src, dst;
      std::vector<Timestamp> times;
      for (int i = 0; i < 40; ++i) {
        src.push_back(rng.UniformInt(0, std::min<int64_t>(n_src, 20) - 1));
        dst.push_back(rng.UniformInt(0, n_dst - 1));
        times.push_back(Days(rng.UniformInt(1, 140)));
      }
      EXPECT_TRUE(g.AppendEdges(e, src, dst, times).ok());
    }
  }
  for (EdgeTypeId e = 0; e < g.num_edge_types(); ++e) {
    EXPECT_GE(g.num_segments(e), 4) << g.edge_type_name(e);
  }
  return g;
}

std::vector<SamplerOptions> OracleConfigs() {
  std::vector<SamplerOptions> configs;
  for (SamplePolicy policy :
       {SamplePolicy::kUniform, SamplePolicy::kMostRecent}) {
    SamplerOptions two_hop;
    two_hop.fanouts = {4, 3};
    two_hop.policy = policy;
    configs.push_back(two_hop);
    SamplerOptions three_hop;
    three_hop.fanouts = {3, 2, 2};
    three_hop.policy = policy;
    three_hop.parallel_chunk_seeds = 16;
    configs.push_back(three_hop);
  }
  return configs;
}

/// 150 seeds: repeats within and across chunks, three interleaved cutoffs.
void MixedSeeds(std::vector<int64_t>* seeds, std::vector<Timestamp>* cuts) {
  const Timestamp cutoffs[] = {Days(40), Days(90), Days(200)};
  for (int64_t i = 0; i < 150; ++i) {
    seeds->push_back((i * 7) % 60);
    cuts->push_back(cutoffs[(i / 5) % 3]);
  }
}

TEST(SamplerOracleTest, SampleMatchesOracleOnSegmentedGraph) {
  const HeteroGraph g = SegmentedGraph();
  const NodeTypeId users = g.FindNodeType("users").value();
  std::vector<int64_t> seeds;
  std::vector<Timestamp> cuts;
  MixedSeeds(&seeds, &cuts);
  for (const SamplerOptions& opts : OracleConfigs()) {
    NeighborSampler sampler(&g, opts);
    Rng got_rng(11), want_rng(11);
    // Several draws from one stream, at sizes that fit one chunk and that
    // span several.
    for (size_t n : {size_t{1}, size_t{13}, seeds.size()}) {
      const std::vector<int64_t> s(seeds.begin(),
                                   seeds.begin() + static_cast<int64_t>(n));
      const std::vector<Timestamp> c(cuts.begin(),
                                     cuts.begin() + static_cast<int64_t>(n));
      const Subgraph got = sampler.Sample(users, s, c, &got_rng);
      const Subgraph want = oracle::Sample(g, opts, users, s, c, &want_rng);
      EXPECT_TRUE(SubgraphsEqual(got, want))
          << "policy " << static_cast<int>(opts.policy) << " layers "
          << opts.fanouts.size() << " seeds " << n;
      EXPECT_GT(got.TotalBlockEdges(), 0);
    }
    EXPECT_EQ(got_rng.NextU64(), want_rng.NextU64());
  }
}

TEST(SamplerOracleTest, ServingSampleAndConcatMatchOracle) {
  const HeteroGraph g = SegmentedGraph();
  const NodeTypeId users = g.FindNodeType("users").value();
  std::vector<int64_t> seeds;
  std::vector<Timestamp> cuts;
  MixedSeeds(&seeds, &cuts);
  for (const SamplerOptions& opts : OracleConfigs()) {
    NeighborSampler sampler(&g, opts);
    const uint64_t salt = 5 ^ OptionsFingerprint(opts);
    std::vector<Subgraph> got, want;
    for (size_t i = 0; i < seeds.size(); ++i) {
      got.push_back(sampler.SampleForServing(users, seeds[i], cuts[i], salt));
      want.push_back(oracle::SampleForServing(g, opts, users, seeds[i],
                                              cuts[i], salt));
      ASSERT_TRUE(SubgraphsEqual(got.back(), want.back()))
          << "policy " << static_cast<int>(opts.policy) << " seed index "
          << i;
    }
    EXPECT_TRUE(SubgraphsEqual(ConcatSubgraphs(&g, got),
                               oracle::Merge(g, want, /*dedup=*/false)));
  }
}

TEST(SamplerOracleTest, ConcurrentSamplingMatchesSerial) {
  // Four threads sample at once, each through its own kernel scratch;
  // their Sample calls open chunk regions on a 4-thread pool (or run them
  // inline when another caller holds it). Every result must equal the
  // serial one.
  const HeteroGraph g = SegmentedGraph();
  const NodeTypeId users = g.FindNodeType("users").value();
  std::vector<int64_t> seeds;
  std::vector<Timestamp> cuts;
  MixedSeeds(&seeds, &cuts);
  SamplerOptions opts;
  opts.fanouts = {4, 3};
  opts.parallel_chunk_seeds = 32;
  NeighborSampler sampler(&g, opts);
  const uint64_t salt = OptionsFingerprint(opts);
  const int pool_threads = NumThreads();
  ThreadPool::SetNumThreadsForTesting(1);
  std::vector<Subgraph> want_serving;
  for (size_t i = 0; i < seeds.size(); ++i) {
    want_serving.push_back(
        sampler.SampleForServing(users, seeds[i], cuts[i], salt));
  }
  Rng want_rng(3);
  const Subgraph want_batch = sampler.Sample(users, seeds, cuts, &want_rng);

  ThreadPool::SetNumThreadsForTesting(4);
  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        Rng rng(3);
        if (!SubgraphsEqual(sampler.Sample(users, seeds, cuts, &rng),
                            want_batch)) {
          ++mismatches[static_cast<size_t>(t)];
        }
        for (size_t i = static_cast<size_t>(t); i < seeds.size(); i += 4) {
          if (!SubgraphsEqual(
                  sampler.SampleForServing(users, seeds[i], cuts[i], salt),
                  want_serving[i])) {
            ++mismatches[static_cast<size_t>(t)];
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  ThreadPool::SetNumThreadsForTesting(pool_threads);
  EXPECT_EQ(mismatches, std::vector<int>(4, 0));
}

}  // namespace
}  // namespace relgraph
