#ifndef RELGRAPH_DB2GRAPH_GRAPH_BUILDER_H_
#define RELGRAPH_DB2GRAPH_GRAPH_BUILDER_H_

#include <map>
#include <memory>
#include <string>

#include "db2graph/feature_encoder.h"
#include "graph/hetero_graph.h"
#include "relational/database.h"

namespace relgraph {

/// Options for DB→graph conversion.
struct GraphBuilderOptions {
  EncodeOptions encode;

  /// Emit a reverse edge type ("rev_<name>") for every FK so message
  /// passing can flow both ways (child→parent and parent→child).
  bool add_reverse_edges = true;

  /// Stores every node-feature matrix int8-quantized (symmetric per-row
  /// scales) instead of fp32, cutting feature-residency to roughly a
  /// quarter. Serving-oriented: the encoder fits its statistics in fp32
  /// as usual, then each table's matrix is quantized once and the fp32
  /// payload dropped. Encoded features are finite by construction, so
  /// quantization cannot fail on a clean build.
  bool quantize_features = false;

  /// Degraded-mode build: dangling FK values are skipped (no edge) and
  /// counted into DbGraph::skipped_dangling_fks instead of aborting the
  /// conversion. Used when the engine accepts a database that failed
  /// Validate().
  bool lenient = false;

  /// Tables listed here are encoded under the given frozen plans instead
  /// of refitting encoder statistics on the table's current rows. A
  /// refit on a grown table shifts means and vocabulary slots, changing
  /// every feature; the streaming layer freezes plans at stream creation,
  /// and the differential test harness passes the same plans here so a
  /// from-scratch batch rebuild is bit-comparable to the incrementally
  /// maintained graph.
  std::map<std::string, EncoderPlan> frozen_plans;

  /// Extra row-aligned feature blocks appended after the encoder's output
  /// for the named tables — the hybrid GNN+tabular input path (e.g.
  /// BuildHybridAggBlock's z-scored aggregate matrix for the entity
  /// table). The block must be computed at a cutoff no later than the
  /// earliest training cutoff to stay leakage-free, and is batch-build
  /// only: the streaming layer does not maintain hybrid blocks.
  std::map<std::string, EncodedTable> hybrid_blocks;
};

/// The result of converting a relational database into a heterogeneous
/// temporal graph. Node `i` of the type named after table T is exactly row
/// `i` of T; edge types are named `<table>__<fk_column>` (and the
/// `rev_`-prefixed reverse).
struct DbGraph {
  HeteroGraph graph;

  /// table name -> node type id.
  std::map<std::string, NodeTypeId> table_type;

  /// Per node type, the feature names produced by the encoder (aligned
  /// with graph.node_features columns).
  std::map<std::string, std::vector<std::string>> feature_names;

  /// Lenient builds only: dangling-FK edges skipped per edge type
  /// ("table__fk" -> count); empty for a clean or strict build.
  std::map<std::string, int64_t> skipped_dangling_fks;

  int64_t TotalSkippedFks() const {
    int64_t total = 0;
    for (const auto& [name, n] : skipped_dangling_fks) total += n;
    return total;
  }

  NodeTypeId type_of(const std::string& table) const {
    return table_type.at(table);
  }
};

/// Converts `db` into a DbGraph:
///  - every table becomes a node type (rows = nodes, attributes = encoded
///    features, event time = node timestamp);
///  - every foreign key becomes a directed edge type child→parent with the
///    child row's event time as the edge timestamp (plus the reverse type
///    when enabled);
///  - NULL foreign keys produce no edge.
///
/// The database should Validate() cleanly; dangling FKs are reported as
/// errors here too.
Result<DbGraph> BuildDbGraph(const Database& db,
                             const GraphBuilderOptions& options = {});

/// `dbg`'s graph as a shared_ptr that keeps the whole DbGraph alive — the
/// ownership InferenceEngine and ServePlan take.
inline std::shared_ptr<const HeteroGraph> SharedGraph(
    const std::shared_ptr<const DbGraph>& dbg) {
  return std::shared_ptr<const HeteroGraph>(dbg, &dbg->graph);
}

}  // namespace relgraph

#endif  // RELGRAPH_DB2GRAPH_GRAPH_BUILDER_H_
