#ifndef RELGRAPH_GRAPH_HETERO_GRAPH_H_
#define RELGRAPH_GRAPH_HETERO_GRAPH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/status.h"
#include "core/time.h"
#include "tensor/quantized.h"
#include "tensor/tensor.h"

namespace relgraph {

/// Identifies a node type (one per database table).
using NodeTypeId = int32_t;

/// Identifies a directed edge type (one per FK direction).
using EdgeTypeId = int32_t;

/// One immutable CSR segment of an edge type: a windowed adjacency slab
/// over source nodes [src_begin, src_end()). The bulk-loaded base is one
/// full-window segment; every streaming append adds a small tail segment
/// covering only the sources it touches, and compaction merges tails (see
/// HeteroGraph::CompactSegments). Segments are shared (by shared_ptr)
/// across graph epochs, so cloning a graph for the next delta never copies
/// base edges.
struct CsrSegment {
  int64_t src_begin = 0;           ///< first source node covered
  std::vector<int64_t> offsets;    ///< size (src_end - src_begin) + 1
  std::vector<int64_t> neighbors;  ///< dst node ids
  std::vector<Timestamp> times;    ///< edge timestamps

  int64_t src_end() const {
    return src_begin + static_cast<int64_t>(offsets.size()) - 1;
  }
  int64_t num_edges() const {
    return static_cast<int64_t>(neighbors.size());
  }
};

/// A node-delta summary of one incremental graph update, produced by the
/// streaming DB→graph layer and consumed by the serving engine for precise
/// cache invalidation. Vectors are indexed by NodeTypeId.
struct GraphDelta {
  /// Node count of each type BEFORE the delta: ids >= first_new_node[t]
  /// are new nodes (no pre-delta cache entry can reference them).
  std::vector<int64_t> first_new_node;

  /// Pre-existing nodes whose adjacency gained edges (source endpoints of
  /// appended edges, across every edge type), sorted and deduplicated per
  /// type. A cached computation is invalidated iff it read one of these.
  std::vector<std::vector<int64_t>> touched;

  /// Latest event timestamp carried by the delta's rows (kNoTimestamp if
  /// the delta is purely static).
  Timestamp max_event_time = kNoTimestamp;

  int64_t TotalTouched() const {
    int64_t total = 0;
    for (const auto& t : touched) total += static_cast<int64_t>(t.size());
    return total;
  }
};

/// A directed, typed, timestamped multigraph stored as segmented CSR — one
/// base segment plus zero or more append-tail segments per edge type — the
/// in-memory form of a relational database after DB→graph conversion.
///
/// Node ids are dense per node type: node `i` of type "orders" is row `i`
/// of the orders table. Every node carries a timestamp (kNoTimestamp for
/// static dimension rows) and every edge carries the timestamp of the fact
/// row that induced it, which is what makes leakage-free temporal neighbor
/// sampling possible.
///
/// Determinism contract: per-node neighbor order is base-segment rows
/// first, then appended rows in append order — exactly the row order a
/// from-scratch bulk build of the final table produces (the counting sort
/// in AddEdgeType is stable in row order, and appended rows always carry
/// larger row indices). CompactSegments merges in the same order, so a
/// compacted graph is bit-identical to the rebuilt one.
///
/// Copying a HeteroGraph is cheap (O(types + segments)): feature
/// matrices, node-time vectors and CSR segments are shared. Each node
/// payload is a prefix view of a capacity-doubling buffer: an epoch reads
/// only rows [0, num_nodes), and AppendNodes writes rows past that prefix
/// (in place only when no other epoch has claimed them) before it
/// publishes a longer view. No mutator ever changes bytes another epoch
/// can read, which is what makes copy-on-write graph epochs safe under
/// concurrent lock-free readers.
class HeteroGraph {
 public:
  HeteroGraph() = default;

  /// Registers a node type; returns its id. Fails on duplicates.
  Result<NodeTypeId> AddNodeType(const std::string& name, int64_t num_nodes);

  /// Attaches a feature matrix (num_nodes × d) to a node type. Replaces
  /// any quantized representation (the type goes back to fp32 storage).
  Status SetNodeFeatures(NodeTypeId type, Tensor features);

  /// Converts a node type's fp32 feature matrix to symmetric per-row int8
  /// storage and drops the fp32 payload (the memory saving is the point:
  /// n+4 bytes per n-wide row instead of 4n). Opt-in, serving-oriented —
  /// readers must check features_quantized() and go through
  /// node_qfeatures(); feature_dim() stays correct either way. Fails with
  /// a precise error on non-finite features; no-op if the type is already
  /// quantized; InvalidArgument if it has no features.
  Status QuantizeNodeFeatures(NodeTypeId type);

  /// Attaches per-node timestamps (size num_nodes).
  Status SetNodeTimes(NodeTypeId type, std::vector<Timestamp> times);

  /// Registers a directed edge type and bulk-loads its edges as parallel
  /// arrays (src node id, dst node id, edge timestamp). Builds the base
  /// CSR segment by src (stable in input order per source).
  Result<EdgeTypeId> AddEdgeType(const std::string& name, NodeTypeId src_type,
                                 NodeTypeId dst_type,
                                 const std::vector<int64_t>& src,
                                 const std::vector<int64_t>& dst,
                                 const std::vector<Timestamp>& times);

  // --------------------------------------------------------- streaming

  /// Grows a node type by `count` nodes. `new_features` must carry one row
  /// per new node when the type has features (matching width; pass an
  /// empty tensor otherwise). `has_times` says whether the type is
  /// temporal: then `new_times` must carry one timestamp per new node.
  ///
  /// Costs O(count × dim) amortized. Each payload (fp32 features, int8
  /// codes and scales, node times) lives in a buffer with spare capacity,
  /// shared by every epoch that reads a prefix of it. The new rows go in
  /// place when this graph wins a compare-and-swap of the buffer's
  /// committed length from num_nodes; when another copy of the same epoch
  /// already claimed those rows, or the buffer is full, the prefix is
  /// copied into a fresh buffer of at least twice the capacity. Other
  /// graph copies never see this graph's rows.
  Status AppendNodes(NodeTypeId type, int64_t count,
                     const Tensor& new_features, bool has_times,
                     const std::vector<Timestamp>& new_times);

  /// Appends edges to an existing edge type as a new tail segment windowed
  /// over the touched sources. Endpoints must be in range; empty input is
  /// a no-op (no empty segments). Never rebuilds or mutates existing
  /// segments.
  Status AppendEdges(EdgeTypeId e, const std::vector<int64_t>& src,
                     const std::vector<int64_t>& dst,
                     const std::vector<Timestamp>& times);

  /// Compacts every edge type holding more than `max_segments` segments,
  /// size-tiered: its tail segments merge into one tail windowed over the
  /// union of their sources, and that tail folds into the base only once
  /// it holds at least as many edges as the base. A compaction therefore
  /// costs O(tail edges + tail window), not O(edge type), and the base is
  /// rewritten only after as many edges were appended as it holds. Per-node
  /// neighbor order is preserved bit-for-bit (base first, then tails in
  /// append order). Returns the number of edge types compacted. The
  /// kCompact fault site fires before any mutation, so a poisoned
  /// compaction leaves the graph untouched (and still fully readable —
  /// compaction is a pure layout optimization).
  Result<int64_t> CompactSegments(int64_t max_segments);

  // -------------------------------------------------------------- lookup

  int32_t num_node_types() const {
    return static_cast<int32_t>(node_names_.size());
  }
  int32_t num_edge_types() const {
    return static_cast<int32_t>(edge_names_.size());
  }

  Result<NodeTypeId> FindNodeType(const std::string& name) const;
  Result<EdgeTypeId> FindEdgeType(const std::string& name) const;

  const std::string& node_type_name(NodeTypeId t) const {
    return node_names_[t];
  }
  const std::string& edge_type_name(EdgeTypeId e) const {
    return edge_names_[e];
  }

  int64_t num_nodes(NodeTypeId t) const { return num_nodes_[t]; }
  int64_t num_edges(EdgeTypeId e) const { return csr_[e].num_edges; }
  int64_t TotalNodes() const;
  int64_t TotalEdges() const;

  NodeTypeId edge_src_type(EdgeTypeId e) const { return edge_src_[e]; }
  NodeTypeId edge_dst_type(EdgeTypeId e) const { return edge_dst_[e]; }

  /// Feature matrix of a node type (empty tensor if unset — including
  /// when the type's features live in quantized storage; check
  /// features_quantized() first on serving paths).
  const Tensor& node_features(NodeTypeId t) const {
    return features_[t]->view;
  }

  /// True when the type's features are stored int8-quantized.
  bool features_quantized(NodeTypeId t) const {
    return qfeatures_[t]->view.cols() > 0;
  }

  /// Quantized feature matrix of a node type (empty if not quantized).
  const QuantizedTensor& node_qfeatures(NodeTypeId t) const {
    return qfeatures_[t]->view;
  }

  /// Feature width of a node type (0 if unset), whichever storage holds it.
  int64_t feature_dim(NodeTypeId t) const {
    return features_quantized(t) ? qfeatures_[t]->view.cols()
                                 : features_[t]->view.cols();
  }

  /// Bytes resident for node features across all types: the whole
  /// capacity of each payload's buffer, spare rows included (fp32 at 4
  /// bytes/element, quantized at codes+scales, the same rule the quantized
  /// byte accounting uses) — the numerator of the serve-side
  /// bytes-per-node gauge.
  int64_t FeatureBytes() const;

  /// Timestamp of one node (kNoTimestamp when the type is static).
  Timestamp node_time(NodeTypeId t, int64_t node) const {
    const std::span<const Timestamp> times = node_times_[t]->view;
    return times.empty() ? kNoTimestamp : times[static_cast<size_t>(node)];
  }

  /// Segment count of an edge type (1 after a bulk build; grows by one per
  /// non-empty append; compaction brings it back to at most 2).
  int32_t num_segments(EdgeTypeId e) const {
    return static_cast<int32_t>(csr_[e].segments.size());
  }

  /// Direct view of one segment (for invariant checks and benchmarks).
  const CsrSegment& segment(EdgeTypeId e, int32_t i) const {
    return *csr_[e].segments[static_cast<size_t>(i)];
  }

  /// Neighborhood slice of `node` within segment `seg` of edge type `e`:
  /// `*dst_out`/`*time_out` point at `*count_out` parallel entries
  /// (count 0 when the node is outside the segment's window). Iterating
  /// segments 0..num_segments-1 yields the node's full neighbor list in
  /// canonical (bulk-rebuild) order.
  void SegmentNeighbors(EdgeTypeId e, int32_t seg, int64_t node,
                        const int64_t** dst_out, const Timestamp** time_out,
                        int64_t* count_out) const;

  /// Whole neighborhood of `node` as one contiguous span. Only valid for
  /// single-segment edge types (bulk-built graphs, or right after a fold
  /// into the base) — code on streaming paths must iterate
  /// SegmentNeighbors instead.
  void Neighbors(EdgeTypeId e, int64_t node, const int64_t** dst_out,
                 const Timestamp** time_out, int64_t* count_out) const;

  /// Degree of a node under an edge type (summed across segments).
  int64_t Degree(EdgeTypeId e, int64_t node) const;

  /// Summary line per type for logging/examples.
  std::string Describe() const;

 private:
  struct Csr {
    std::vector<std::shared_ptr<const CsrSegment>> segments;
    int64_t num_edges = 0;
  };

  /// Row storage behind one node payload, shared by every epoch that
  /// reads a prefix of it. Rows below `committed` belong to some epoch and
  /// are never written again; an append claims the rows past its epoch's
  /// prefix by moving `committed` from that prefix length (see
  /// AppendNodes).
  template <typename Rows>
  struct RowBuffer {
    Rows rows;             ///< `capacity` rows
    int64_t capacity = 0;
    std::atomic<int64_t> committed{0};
  };

  /// One epoch's payload: `view` reads rows [0, num_nodes) of `buffer`,
  /// which the payload keeps alive (null when the payload is unset).
  template <typename Rows, typename View>
  struct Payload {
    std::shared_ptr<RowBuffer<Rows>> buffer;
    View view;
  };
  using FeaturePayload = Payload<Tensor, Tensor>;
  using QuantPayload = Payload<QuantizedTensor, QuantizedTensor>;
  using TimePayload =
      Payload<std::vector<Timestamp>, std::span<const Timestamp>>;

  std::vector<std::string> node_names_;
  std::unordered_map<std::string, NodeTypeId> node_index_;
  std::vector<int64_t> num_nodes_;
  // Shared payloads: mutators publish replacements and never write bytes
  // a published view can read.
  std::vector<std::shared_ptr<const FeaturePayload>> features_;
  std::vector<std::shared_ptr<const QuantPayload>> qfeatures_;
  std::vector<std::shared_ptr<const TimePayload>> node_times_;

  std::vector<std::string> edge_names_;
  std::unordered_map<std::string, EdgeTypeId> edge_index_;
  std::vector<NodeTypeId> edge_src_;
  std::vector<NodeTypeId> edge_dst_;
  std::vector<Csr> csr_;
};

}  // namespace relgraph

#endif  // RELGRAPH_GRAPH_HETERO_GRAPH_H_
