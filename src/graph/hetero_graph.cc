#include "graph/hetero_graph.h"

#include <algorithm>

#include "core/fault_injection.h"
#include "core/logging.h"
#include "core/string_util.h"

namespace relgraph {

namespace {

/// Windowed stable counting sort of (src, dst, time) triples into one CSR
/// segment covering sources [src_begin, src_begin + window). Stable in
/// input order per source — the property the whole incremental-equality
/// contract rests on.
CsrSegment BuildSegment(int64_t src_begin, int64_t window,
                        const std::vector<int64_t>& src,
                        const std::vector<int64_t>& dst,
                        const std::vector<Timestamp>& times) {
  CsrSegment seg;
  seg.src_begin = src_begin;
  seg.offsets.assign(static_cast<size_t>(window) + 1, 0);
  for (int64_t s : src) {
    ++seg.offsets[static_cast<size_t>(s - src_begin) + 1];
  }
  for (size_t i = 1; i < seg.offsets.size(); ++i) {
    seg.offsets[i] += seg.offsets[i - 1];
  }
  seg.neighbors.resize(src.size());
  seg.times.resize(src.size());
  std::vector<int64_t> cursor(seg.offsets.begin(), seg.offsets.end() - 1);
  for (size_t i = 0; i < src.size(); ++i) {
    int64_t& pos = cursor[static_cast<size_t>(src[i] - src_begin)];
    seg.neighbors[static_cast<size_t>(pos)] = dst[i];
    seg.times[static_cast<size_t>(pos)] = times[i];
    ++pos;
  }
  return seg;
}

/// Concatenates, per source node of [src_begin, src_end), the node's
/// slices of `segments` in order — the same order a from-scratch bulk
/// build of the combined edge list produces.
CsrSegment MergeSegments(
    const std::vector<std::shared_ptr<const CsrSegment>>& segments,
    int64_t src_begin, int64_t src_end) {
  int64_t num_edges = 0;
  for (const auto& seg : segments) num_edges += seg->num_edges();
  CsrSegment merged;
  merged.src_begin = src_begin;
  merged.offsets.assign(static_cast<size_t>(src_end - src_begin) + 1, 0);
  merged.neighbors.reserve(static_cast<size_t>(num_edges));
  merged.times.reserve(static_cast<size_t>(num_edges));
  for (int64_t v = src_begin; v < src_end; ++v) {
    for (const auto& seg : segments) {
      if (v < seg->src_begin || v >= seg->src_end()) continue;
      const size_t w = static_cast<size_t>(v - seg->src_begin);
      const int64_t begin = seg->offsets[w];
      const int64_t end = seg->offsets[w + 1];
      merged.neighbors.insert(merged.neighbors.end(),
                              seg->neighbors.begin() + begin,
                              seg->neighbors.begin() + end);
      merged.times.insert(merged.times.end(), seg->times.begin() + begin,
                          seg->times.begin() + end);
    }
    merged.offsets[static_cast<size_t>(v - src_begin) + 1] =
        static_cast<int64_t>(merged.neighbors.size());
  }
  return merged;
}

Tensor PrefixView(const Tensor& rows, int64_t n) {
  return Tensor::RowView(rows, 0, n);
}
QuantizedTensor PrefixView(const QuantizedTensor& rows, int64_t n) {
  return QuantizedTensor::RowView(rows, 0, n);
}
std::span<const Timestamp> PrefixView(const std::vector<Timestamp>& rows,
                                      int64_t n) {
  return {rows.data(), static_cast<size_t>(n)};
}

/// A payload exposing rows [0, n) of `buffer`.
template <typename Payload, typename Buffer>
std::shared_ptr<const Payload> PrefixOf(std::shared_ptr<Buffer> buffer,
                                        int64_t n) {
  auto payload = std::make_shared<Payload>();
  payload->view = PrefixView(buffer->rows, n);
  payload->buffer = std::move(buffer);
  return payload;
}

/// A bulk-loaded buffer: exactly `n` rows, all committed, no spare
/// capacity (the first append grows it).
template <typename Buffer, typename Rows>
std::shared_ptr<Buffer> FullBuffer(Rows rows, int64_t n) {
  auto buffer = std::make_shared<Buffer>();
  buffer->rows = std::move(rows);
  buffer->capacity = n;
  buffer->committed.store(n);
  return buffer;
}

/// The buffer in which the epoch reading rows [0, n) of `buffer` may write
/// rows [n, n + k): `buffer` itself when they fit its capacity and this
/// call moves its committed length from n to n + k (no other epoch has
/// claimed them), else a fresh buffer of at least twice the capacity that
/// `grow(capacity)` fills with a copy of the prefix.
template <typename Buffer, typename Grow>
std::shared_ptr<Buffer> ClaimRows(const std::shared_ptr<Buffer>& buffer,
                                  int64_t n, int64_t k, Grow&& grow) {
  if (buffer != nullptr && n + k <= buffer->capacity) {
    int64_t expected = n;
    if (buffer->committed.compare_exchange_strong(expected, n + k)) {
      return buffer;
    }
  }
  auto grown = std::make_shared<Buffer>();
  grown->capacity =
      std::max<int64_t>(n + k, 2 * (buffer != nullptr ? buffer->capacity : 0));
  grown->rows = grow(grown->capacity);
  grown->committed.store(n + k);
  return grown;
}

}  // namespace

Result<NodeTypeId> HeteroGraph::AddNodeType(const std::string& name,
                                            int64_t num_nodes) {
  if (num_nodes < 0) {
    return Status::InvalidArgument("negative node count for type " + name);
  }
  if (node_index_.count(name)) {
    return Status::AlreadyExists("node type '" + name + "' already exists");
  }
  NodeTypeId id = static_cast<NodeTypeId>(node_names_.size());
  node_index_[name] = id;
  node_names_.push_back(name);
  num_nodes_.push_back(num_nodes);
  features_.push_back(std::make_shared<const FeaturePayload>());
  qfeatures_.push_back(std::make_shared<const QuantPayload>());
  node_times_.push_back(std::make_shared<const TimePayload>());
  return id;
}

Status HeteroGraph::SetNodeFeatures(NodeTypeId type, Tensor features) {
  if (type < 0 || type >= num_node_types()) {
    return Status::OutOfRange("bad node type id");
  }
  if (features.rows() != num_nodes_[type]) {
    return Status::InvalidArgument(StrFormat(
        "feature rows %lld != node count %lld for type '%s'",
        static_cast<long long>(features.rows()),
        static_cast<long long>(num_nodes_[type]),
        node_names_[type].c_str()));
  }
  const int64_t n = features.rows();
  features_[type] = PrefixOf<FeaturePayload>(
      FullBuffer<RowBuffer<Tensor>>(std::move(features), n), n);
  qfeatures_[type] = std::make_shared<const QuantPayload>();
  return Status::OK();
}

Status HeteroGraph::QuantizeNodeFeatures(NodeTypeId type) {
  if (type < 0 || type >= num_node_types()) {
    return Status::OutOfRange("QuantizeNodeFeatures: bad node type id");
  }
  if (features_quantized(type)) return Status::OK();
  const Tensor& feats = node_features(type);
  if (feats.cols() == 0) {
    return Status::InvalidArgument(
        "QuantizeNodeFeatures: type '" + node_names_[type] +
        "' has no features");
  }
  Result<QuantizedTensor> q = QuantizedTensor::FromTensor(feats);
  if (!q.ok()) {
    return Status::InvalidArgument(
        "QuantizeNodeFeatures('" + node_names_[type] + "'): " +
        std::string(q.status().message()));
  }
  const int64_t n = num_nodes_[type];
  qfeatures_[type] = PrefixOf<QuantPayload>(
      FullBuffer<RowBuffer<QuantizedTensor>>(std::move(q).value(), n), n);
  // Drop the fp32 payload — the quantized copy is now the only resident
  // representation (that is the memory saving).
  features_[type] = std::make_shared<const FeaturePayload>();
  return Status::OK();
}

Status HeteroGraph::SetNodeTimes(NodeTypeId type,
                                 std::vector<Timestamp> times) {
  if (type < 0 || type >= num_node_types()) {
    return Status::OutOfRange("bad node type id");
  }
  if (static_cast<int64_t>(times.size()) != num_nodes_[type]) {
    return Status::InvalidArgument("times size != node count for type '" +
                                   node_names_[type] + "'");
  }
  const int64_t n = num_nodes_[type];
  node_times_[type] = PrefixOf<TimePayload>(
      FullBuffer<RowBuffer<std::vector<Timestamp>>>(std::move(times), n), n);
  return Status::OK();
}

Result<EdgeTypeId> HeteroGraph::AddEdgeType(
    const std::string& name, NodeTypeId src_type, NodeTypeId dst_type,
    const std::vector<int64_t>& src, const std::vector<int64_t>& dst,
    const std::vector<Timestamp>& times) {
  if (src_type < 0 || src_type >= num_node_types() || dst_type < 0 ||
      dst_type >= num_node_types()) {
    return Status::OutOfRange("bad endpoint node type for edge type " + name);
  }
  if (edge_index_.count(name)) {
    return Status::AlreadyExists("edge type '" + name + "' already exists");
  }
  if (src.size() != dst.size() || src.size() != times.size()) {
    return Status::InvalidArgument(
        "src/dst/times arrays must be the same length");
  }
  const int64_t n_src = num_nodes_[src_type];
  const int64_t n_dst = num_nodes_[dst_type];
  for (size_t i = 0; i < src.size(); ++i) {
    if (src[i] < 0 || src[i] >= n_src) {
      return Status::OutOfRange(StrFormat(
          "edge %zu: src %lld out of range [0,%lld)", i,
          static_cast<long long>(src[i]), static_cast<long long>(n_src)));
    }
    if (dst[i] < 0 || dst[i] >= n_dst) {
      return Status::OutOfRange(StrFormat(
          "edge %zu: dst %lld out of range [0,%lld)", i,
          static_cast<long long>(dst[i]), static_cast<long long>(n_dst)));
    }
  }
  Csr csr;
  csr.segments.push_back(std::make_shared<const CsrSegment>(
      BuildSegment(0, n_src, src, dst, times)));
  csr.num_edges = static_cast<int64_t>(src.size());
  EdgeTypeId id = static_cast<EdgeTypeId>(edge_names_.size());
  edge_index_[name] = id;
  edge_names_.push_back(name);
  edge_src_.push_back(src_type);
  edge_dst_.push_back(dst_type);
  csr_.push_back(std::move(csr));
  return id;
}

Status HeteroGraph::AppendNodes(NodeTypeId type, int64_t count,
                                const Tensor& new_features, bool has_times,
                                const std::vector<Timestamp>& new_times) {
  if (type < 0 || type >= num_node_types()) {
    return Status::OutOfRange("AppendNodes: bad node type id");
  }
  if (count < 0) {
    return Status::InvalidArgument("AppendNodes: negative count");
  }
  const int64_t old_n = num_nodes_[type];
  if (count == 0 && new_features.empty() && new_times.empty()) {
    return Status::OK();
  }
  const bool quantized = features_quantized(type);
  const int64_t dim = feature_dim(type);
  const bool has_features = dim > 0;
  if (has_features) {
    if (new_features.rows() != count || new_features.cols() != dim) {
      return Status::InvalidArgument(StrFormat(
          "AppendNodes('%s'): feature block is %lldx%lld, want %lldx%lld",
          node_names_[type].c_str(),
          static_cast<long long>(new_features.rows()),
          static_cast<long long>(new_features.cols()),
          static_cast<long long>(count),
          static_cast<long long>(dim)));
    }
  } else if (!new_features.empty()) {
    return Status::InvalidArgument(
        "AppendNodes: features supplied for a featureless type '" +
        node_names_[type] + "'");
  }
  if (has_times) {
    if (static_cast<int64_t>(node_times_[type]->view.size()) != old_n) {
      return Status::FailedPrecondition(
          "AppendNodes: type '" + node_names_[type] +
          "' has no node times but has_times is set");
    }
    if (static_cast<int64_t>(new_times.size()) != count) {
      return Status::InvalidArgument(
          "AppendNodes: new_times size != count for type '" +
          node_names_[type] + "'");
    }
  } else if (!new_times.empty()) {
    return Status::InvalidArgument(
        "AppendNodes: times supplied for a static type '" +
        node_names_[type] + "'");
  }

  // Every check precedes the first claim, so a failed append never takes
  // rows from a shared buffer.
  const int64_t new_n = old_n + count;
  if (has_features && quantized) {
    // Rows quantize independently, so the new rows get exactly the codes a
    // from-scratch QuantizeNodeFeatures of the final table gives them.
    Result<QuantizedTensor> block = QuantizedTensor::FromTensor(new_features);
    if (!block.ok()) {
      return Status::InvalidArgument(
          "AppendNodes('" + node_names_[type] + "'): " +
          std::string(block.status().message()));
    }
    const QuantPayload& old = *qfeatures_[type];
    auto buffer = ClaimRows(old.buffer, old_n, count, [&](int64_t capacity) {
      QuantizedTensor rows = QuantizedTensor::Zeros(capacity, dim);
      rows.WriteRows(0, old.view);
      return rows;
    });
    buffer->rows.WriteRows(old_n, block.value());
    qfeatures_[type] = PrefixOf<QuantPayload>(std::move(buffer), new_n);
  } else if (has_features) {
    const FeaturePayload& old = *features_[type];
    auto buffer = ClaimRows(old.buffer, old_n, count, [&](int64_t capacity) {
      Tensor rows(capacity, dim);
      std::copy_n(old.view.data(), old_n * dim, rows.data());
      return rows;
    });
    std::copy_n(new_features.data(), count * dim,
                buffer->rows.data() + old_n * dim);
    features_[type] = PrefixOf<FeaturePayload>(std::move(buffer), new_n);
  }
  if (has_times) {
    const TimePayload& old = *node_times_[type];
    auto buffer = ClaimRows(old.buffer, old_n, count, [&](int64_t capacity) {
      std::vector<Timestamp> rows(static_cast<size_t>(capacity));
      std::copy(old.view.begin(), old.view.end(), rows.begin());
      return rows;
    });
    std::copy(new_times.begin(), new_times.end(),
              buffer->rows.begin() + old_n);
    node_times_[type] = PrefixOf<TimePayload>(std::move(buffer), new_n);
  }
  num_nodes_[type] = new_n;
  return Status::OK();
}

Status HeteroGraph::AppendEdges(EdgeTypeId e, const std::vector<int64_t>& src,
                                const std::vector<int64_t>& dst,
                                const std::vector<Timestamp>& times) {
  if (e < 0 || e >= num_edge_types()) {
    return Status::OutOfRange("AppendEdges: bad edge type id");
  }
  if (src.size() != dst.size() || src.size() != times.size()) {
    return Status::InvalidArgument(
        "AppendEdges: src/dst/times arrays must be the same length");
  }
  if (src.empty()) return Status::OK();
  const int64_t n_src = num_nodes_[edge_src_[e]];
  const int64_t n_dst = num_nodes_[edge_dst_[e]];
  int64_t lo = src[0], hi = src[0];
  for (size_t i = 0; i < src.size(); ++i) {
    if (src[i] < 0 || src[i] >= n_src) {
      return Status::OutOfRange(StrFormat(
          "AppendEdges('%s') edge %zu: src %lld out of range [0,%lld)",
          edge_names_[e].c_str(), i, static_cast<long long>(src[i]),
          static_cast<long long>(n_src)));
    }
    if (dst[i] < 0 || dst[i] >= n_dst) {
      return Status::OutOfRange(StrFormat(
          "AppendEdges('%s') edge %zu: dst %lld out of range [0,%lld)",
          edge_names_[e].c_str(), i, static_cast<long long>(dst[i]),
          static_cast<long long>(n_dst)));
    }
    lo = std::min(lo, src[i]);
    hi = std::max(hi, src[i]);
  }
  csr_[e].segments.push_back(std::make_shared<const CsrSegment>(
      BuildSegment(lo, hi - lo + 1, src, dst, times)));
  csr_[e].num_edges += static_cast<int64_t>(src.size());
  return Status::OK();
}

Result<int64_t> HeteroGraph::CompactSegments(int64_t max_segments) {
  if (max_segments < 1) {
    return Status::InvalidArgument("CompactSegments: max_segments must be >= 1");
  }
  if (FaultInjector::Global().ShouldFire(FaultSite::kCompact)) {
    return Status::Internal("injected compaction fault (site compact)");
  }
  int64_t compacted = 0;
  for (EdgeTypeId e = 0; e < num_edge_types(); ++e) {
    Csr& csr = csr_[e];
    if (static_cast<int64_t>(csr.segments.size()) <= max_segments) continue;
    const std::vector<std::shared_ptr<const CsrSegment>> tails(
        csr.segments.begin() + 1, csr.segments.end());
    int64_t tail_edges = 0;
    int64_t lo = tails.front()->src_begin, hi = tails.front()->src_end();
    for (const auto& tail : tails) {
      tail_edges += tail->num_edges();
      lo = std::min(lo, tail->src_begin);
      hi = std::max(hi, tail->src_end());
    }
    if (max_segments < 2 || tail_edges >= csr.segments.front()->num_edges()) {
      // Fold: the tails have grown as large as the base, so rewriting the
      // base now costs O(edges appended since it was last written).
      const int64_t n_src = num_nodes_[edge_src_[e]];
      csr.segments = {
          std::make_shared<const CsrSegment>(
              MergeSegments(csr.segments, 0, n_src))};
    } else {
      csr.segments.resize(1);
      csr.segments.push_back(
          std::make_shared<const CsrSegment>(MergeSegments(tails, lo, hi)));
    }
    ++compacted;
  }
  return compacted;
}

Result<NodeTypeId> HeteroGraph::FindNodeType(const std::string& name) const {
  auto it = node_index_.find(name);
  if (it == node_index_.end()) {
    return Status::NotFound("no node type '" + name + "'");
  }
  return it->second;
}

Result<EdgeTypeId> HeteroGraph::FindEdgeType(const std::string& name) const {
  auto it = edge_index_.find(name);
  if (it == edge_index_.end()) {
    return Status::NotFound("no edge type '" + name + "'");
  }
  return it->second;
}

int64_t HeteroGraph::TotalNodes() const {
  int64_t total = 0;
  for (int64_t n : num_nodes_) total += n;
  return total;
}

int64_t HeteroGraph::FeatureBytes() const {
  int64_t total = 0;
  for (int32_t t = 0; t < num_node_types(); ++t) {
    if (features_quantized(t)) {
      total += qfeatures_[t]->buffer->rows.bytes();
    } else if (features_[t]->buffer != nullptr) {
      total += features_[t]->buffer->rows.numel() *
               static_cast<int64_t>(sizeof(float));
    }
  }
  return total;
}

int64_t HeteroGraph::TotalEdges() const {
  int64_t total = 0;
  for (const auto& csr : csr_) total += csr.num_edges;
  return total;
}

void HeteroGraph::SegmentNeighbors(EdgeTypeId e, int32_t seg, int64_t node,
                                   const int64_t** dst_out,
                                   const Timestamp** time_out,
                                   int64_t* count_out) const {
  const CsrSegment& s = *csr_[e].segments[static_cast<size_t>(seg)];
  if (node < s.src_begin || node >= s.src_end()) {
    *dst_out = nullptr;
    *time_out = nullptr;
    *count_out = 0;
    return;
  }
  const size_t w = static_cast<size_t>(node - s.src_begin);
  const int64_t begin = s.offsets[w];
  const int64_t end = s.offsets[w + 1];
  *dst_out = s.neighbors.data() + begin;
  *time_out = s.times.data() + begin;
  *count_out = end - begin;
}

void HeteroGraph::Neighbors(EdgeTypeId e, int64_t node,
                            const int64_t** dst_out,
                            const Timestamp** time_out,
                            int64_t* count_out) const {
  RELGRAPH_CHECK(csr_[e].segments.size() == 1)
      << "Neighbors() needs a single-segment edge type ('"
      << edge_names_[e] << "' has " << csr_[e].segments.size()
      << "); streaming paths must iterate SegmentNeighbors";
  SegmentNeighbors(e, 0, node, dst_out, time_out, count_out);
}

int64_t HeteroGraph::Degree(EdgeTypeId e, int64_t node) const {
  int64_t degree = 0;
  for (const auto& seg : csr_[e].segments) {
    if (node < seg->src_begin || node >= seg->src_end()) continue;
    const size_t w = static_cast<size_t>(node - seg->src_begin);
    degree += seg->offsets[w + 1] - seg->offsets[w];
  }
  return degree;
}

std::string HeteroGraph::Describe() const {
  std::string out;
  for (int32_t t = 0; t < num_node_types(); ++t) {
    out += StrFormat("node type %-12s  %7lld nodes, %lld features\n",
                     node_names_[t].c_str(),
                     static_cast<long long>(num_nodes_[t]),
                     static_cast<long long>(feature_dim(t)));
  }
  for (int32_t e = 0; e < num_edge_types(); ++e) {
    out += StrFormat("edge type %-22s  %s -> %s, %lld edges\n",
                     edge_names_[e].c_str(),
                     node_names_[edge_src_[e]].c_str(),
                     node_names_[edge_dst_[e]].c_str(),
                     static_cast<long long>(num_edges(e)));
  }
  return out;
}

}  // namespace relgraph
